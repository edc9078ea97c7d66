"""Seeded input generation for the credalkit benchmark.

Uses only the standard library, so that a fresh process can generate its
inputs before ``import credalkit`` (and with it numpy) is timed as part of
set-up.  Every instance is drawn without filtering: whatever the seed
produces is what the program receives.  An op is a scenario document (or,
for ``tree_eval``, a reference to objects built during set-up) plus the
outcome the benchmark expects from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ANSWER = "answer"
REFUSE = "refuse"  # a documented validation refusal: exit 2


@dataclass
class Op:
    kind: str
    doc: dict
    expect: str = ANSWER
    defect: str = ""  # the known defect (ROADMAP D1/D3) this op can trip, if any
    meta: dict = field(default_factory=dict)


class Draw(random.Random):
    def dirichlet(self, n: int) -> list[float]:
        g = [self.expovariate(1.0) for _ in range(n)]
        total = sum(g)
        return [x / total for x in g]

    def vec(self, n: int, lo: float = -1.0, hi: float = 1.0) -> list[float]:
        return [self.uniform(lo, hi) for _ in range(n)]


def labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


# ---------------------------------------------------------------- rectangularity

# One cycle of the closed loop: 24 ops, about 10.5 s on the reference
# machine.  The three |U| = 4 ops are the wide ones (243 pasting generators,
# 17-row membership LPs; D1 stalls occur there) and take about 40% of the
# time.  The lighter |U| = 3 ops are repeated so that the median and the
# tail percentile (the 11th-largest op) of a run of two or three cycles both
# fall inside the pasted |U| = 3 class, not on the step between two classes
# whose costs differ several-fold.
RECT_CYCLE = (
    ("tower-pasted", 3), ("tower-random", 3), ("tower-pasted", 4),
    ("tower-pasted", 3), ("fubini", 3), ("tower-pasted", 3),
    ("tower-random", 3), ("tower-pasted", 3), ("fubini", 4),
    ("tower-pasted", 3), ("tower-random", 3), ("tower-pasted", 3),
    ("fubini", 3), ("tower-pasted", 3), ("tower-random", 3),
    ("tower-pasted", 3), ("tower-random", 4), ("tower-pasted", 3),
    ("tower-random", 3), ("tower-pasted", 3), ("fubini", 3),
    ("tower-pasted", 3), ("tower-random", 3), ("tower-pasted", 3),
)
RECT_V = 4
RECT_VERTICES = 3  # outer vertices, and kernel vertices per outcome
RECT_RANDOM_VERTICES = 8


def _selections(nu: int, k: int):
    if nu == 0:
        yield ()
        return
    for head in _selections(nu - 1, k):
        for s in range(k):
            yield head + (s,)


def _kernel(d: Draw, nu: int) -> list[list[list[float]]]:
    return [[d.dirichlet(RECT_V) for _ in range(RECT_VERTICES)] for _ in range(nu)]


def _tower_doc(nu: int, joint: list[list[float]], kernel) -> dict:
    return {
        "format": 1,
        "spaces": {"U": labels("u", nu), "V": labels("v", RECT_V)},
        "sets": {"S": {"space": ["U", "V"], "vertices": joint}},
        "kernels": {"K": {"u_space": "U", "v_space": "V", "credal": kernel}},
        "command": {"op": "check-tower", "set": "S", "kernel": "K"},
    }


def tower_pasted(d: Draw, nu: int) -> Op:
    """All ``Q_i x R_s`` generators: rectangular by construction."""
    outer = [d.dirichlet(nu) for _ in range(RECT_VERTICES)]
    kernel = _kernel(d, nu)
    joint = []
    for q in outer:
        for sel in _selections(nu, RECT_VERTICES):
            joint.append([q[u] * w for u in range(nu) for w in kernel[u][sel[u]]])
    defect = "D1" if nu >= 4 else ""
    return Op("tower", _tower_doc(nu, joint, kernel), defect=defect,
              meta={"rectangular": True})


def tower_random(d: Draw, nu: int) -> Op:
    """Eight joint vertices ``Q_(j mod 3) x R_j`` with random conditional rows.

    The marginal has the same three vertices as a pasted instance, so the
    pasting built by the checker has the same 81 or 243 generators; the
    conditional rows lie outside the kernel sets, so the verdict is open and
    is checked by replaying the witness.
    """
    outer = [d.dirichlet(nu) for _ in range(RECT_VERTICES)]
    kernel = _kernel(d, nu)
    joint = []
    for j in range(RECT_RANDOM_VERTICES):
        q = outer[j % RECT_VERTICES]
        joint.append([q[u] * w for u in range(nu) for w in d.dirichlet(RECT_V)])
    return Op("tower", _tower_doc(nu, joint, kernel))


def fubini(d: Draw, n: int) -> Op:
    doc = {
        "format": 1,
        "spaces": {"U": labels("u", n), "V": labels("v", n)},
        "sets": {
            "SU": {"space": "U", "vertices": [d.dirichlet(n) for _ in range(RECT_VERTICES)]},
            "SV": {"space": "V", "vertices": [d.dirichlet(n) for _ in range(RECT_VERTICES)]},
        },
        "command": {"op": "check-fubini", "set_u": "SU", "set_v": "SV"},
    }
    return Op("fubini", doc)


_RECT_MAKERS = {"tower-pasted": tower_pasted, "tower-random": tower_random, "fubini": fubini}


def rectangularity(seed: int, cycles: int):
    d = Draw(seed)
    for _ in range(cycles):
        yield [_RECT_MAKERS[kind](d, n) for kind, n in RECT_CYCLE]


# ---------------------------------------------------------------- desk_cli


def _space_doc(n: int) -> dict:
    return {"W": labels("w", n)}


def _credal_doc(d: Draw, n: int, k: int, op: dict) -> dict:
    return {
        "format": 1,
        "spaces": _space_doc(n),
        "sets": {"S": {"space": "W", "vertices": [d.dirichlet(n) for _ in range(k)]}},
        "variables": {"X": {"space": "W", "values": d.vec(n)}},
        "command": op,
    }


def _atoms(d: Draw, n: int, k: int, zero_min: bool = False) -> list[dict]:
    atoms = [{"weights": d.dirichlet(n), "cost": d.uniform(0.0, 0.5)} for _ in range(k)]
    if zero_min:
        atoms[0]["cost"] = 0.0
    return atoms


def _kernel_doc(d: Draw, penalty: bool, compose: bool) -> dict:
    nu, nv = 3, 4
    if penalty:
        per_u = [_atoms(d, nv, 3) for _ in range(nu)]
        outer = {"space": "U", "atoms": _atoms(d, nu, 3)}
        body = {"u_space": "U", "v_space": "V", "penalty": per_u}
    else:
        per_u = [[d.dirichlet(nv) for _ in range(3)] for _ in range(nu)]
        outer = {"space": "U", "vertices": [d.dirichlet(nu) for _ in range(3)]}
        body = {"u_space": "U", "v_space": "V", "credal": per_u}
    op = {"op": "compose" if compose else "conditional", "kernel": "K", "variable": "X"}
    doc = {
        "format": 1,
        "spaces": {"U": labels("u", nu), "V": labels("v", nv)},
        "kernels": {"K": body},
        "variables": {"X": {"space": ["U", "V"], "values": d.vec(nu * nv)}},
        "command": op,
    }
    if compose:
        doc["sets"] = {"O": outer}
        op["set"] = "O"
    return doc


def _loss(d: Draw, avar: bool) -> dict:
    if avar:
        return {"kind": "avar", "level": d.choice([0.1, 0.25, 0.3, 0.5])}
    # four segments: first slope at most one, last above one, nondecreasing
    bps = sorted(d.uniform(-0.6, 0.6) for _ in range(3))
    s0 = d.uniform(0.0, 0.8)
    s1 = s0 + d.uniform(0.0, 0.5)
    s2 = max(s1, 1.0) + d.uniform(0.1, 0.8)
    s3 = s2 + d.uniform(0.1, 2.0)
    return {"kind": "piecewise-linear", "breakpoints": bps, "slopes": [s0, s1, s2, s3]}


def _tree_doc(d: Draw, horizon: int, op: str, loss: dict | None) -> dict:
    levels = [[[d.dirichlet(3) for _ in range(3)] for _ in range(3**t)]
              for t in range(horizon)]
    n_term = 3**horizon
    command = {"op": op, "tree": "T", "variable": "X"}
    if loss is not None:
        command["loss"] = loss
    return {
        "format": 1,
        "spaces": {"step": ["down", "flat", "up"], "paths": labels("p", n_term)},
        "trees": {"T": {"step_space": "step", "horizon": horizon, "ambiguity": levels}},
        "variables": {"X": {"space": "paths", "values": d.vec(n_term)}},
        "command": command,
    }


def _additivity_doc(d: Draw) -> dict:
    """A joint penalty family equal to the composed atoms of its parts.

    Every family has a zero-cost atom, so no family's costs are shifted on
    construction; the joint convex expectation then equals the composed one
    on every payoff, which fixes the sampled value gaps at zero.
    """
    nu, nv = 3, 3
    outer = _atoms(d, nu, 2, zero_min=True)
    per_u = [_atoms(d, nv, 2, zero_min=True) for _ in range(nu)]
    joint = []
    for a in outer:
        q = a["weights"]
        for sel in _selections(nu, 2):
            w = [q[u] * x for u in range(nu) for x in per_u[u][sel[u]]["weights"]]
            cost = a["cost"] + sum(q[u] * per_u[u][sel[u]]["cost"] for u in range(nu))
            joint.append({"weights": w, "cost": cost})
    return {
        "format": 1,
        "spaces": {"U": labels("u", nu), "V": labels("v", nv)},
        "sets": {"A": {"space": ["U", "V"], "atoms": joint},
                 "AU": {"space": "U", "atoms": outer}},
        "kernels": {"K": {"u_space": "U", "v_space": "V", "penalty": per_u}},
        "command": {"op": "check-penalty-additivity", "set": "A", "outer": "AU",
                    "kernel": "K", "random_probes": 8},
    }


def _demo_doc(name: str, args: dict) -> dict:
    return {"format": 1, "command": {"op": "demo", "name": name, "args": args}}


def _desk_answers(d: Draw) -> list[Op]:
    n = d.randint(4, 8)
    member = [d.dirichlet(n) for _ in range(4)]
    mix = d.dirichlet(4)
    inside = [sum(mix[j] * member[j][i] for j in range(4)) for i in range(n)]
    dirac = [0.0] * n
    dirac[d.randrange(n)] = 1.0
    ops = [
        Op("eval", _credal_doc(d, d.randint(4, 8), d.randint(2, 6),
                               {"op": "eval", "set": "S", "variable": "X"})),
        Op("eval-convex", {
            "format": 1, "spaces": _space_doc(n),
            "sets": {"A": {"space": "W", "atoms": _atoms(d, n, d.randint(2, 6))}},
            "variables": {"X": {"space": "W", "values": d.vec(n)}},
            "command": {"op": "eval-convex", "set": "A", "variable": "X"}}),
        Op("conditional", _kernel_doc(d, penalty=False, compose=False)),
        Op("conditional", _kernel_doc(d, penalty=True, compose=False)),
        Op("compose", _kernel_doc(d, penalty=False, compose=True)),
        Op("compose", _kernel_doc(d, penalty=True, compose=True)),
        Op("conjugate", {"format": 1, "spaces": _space_doc(n),
                         "sets": {"S": {"space": "W", "vertices": member}},
                         "command": {"op": "conjugate", "set": "S", "weights": inside}},
           meta={"member": True}),
        Op("conjugate", {"format": 1, "spaces": _space_doc(n),
                         "sets": {"S": {"space": "W", "vertices": member}},
                         "command": {"op": "conjugate", "set": "S", "weights": dirac}},
           meta={"member": False}),
        # Dirichlet vertices are strictly positive, so a Dirac lies outside
        Op("separate", {"format": 1, "spaces": _space_doc(n),
                        "sets": {"S": {"space": "W", "vertices": member}},
                        "command": {"op": "separate", "set": "S", "weights": dirac}}),
        Op("oce", _credal_doc(d, d.randint(4, 8), d.randint(2, 5),
                              {"op": "oce", "set": "S", "variable": "X",
                               "loss": _loss(d, avar=True)})),
        Op("oce", _credal_doc(d, d.randint(4, 8), d.randint(2, 5),
                              {"op": "oce", "set": "S", "variable": "X",
                               "loss": _loss(d, avar=False)})),
        Op("avar-dual", _credal_doc(d, 30, 60, {
            "op": "avar-dual", "set": "S", "variable": "X",
            "level": d.choice([0.1, 0.25, 0.5])})),
        Op("avar-dual", _credal_doc(d, 6, 2, {
            "op": "avar-dual", "set": "S", "variable": "X",
            "level": 0.25, "vertices": True})),
        Op("additivity", _additivity_doc(d)),
        Op("tree", _tree_doc(d, 5, "tree-risk", _loss(d, avar=True))),
        # the costliest document; two per cycle keep the tail percentile
        # inside this class at any plausible cycle count
        Op("tree", _tree_doc(d, 6, "tree-risk", _loss(d, avar=False))),
        Op("tree", _tree_doc(d, 6, "tree-risk", _loss(d, avar=False))),
        Op("tree", _tree_doc(d, 5, "tree-sublinear", None)),
        Op("tree", _tree_doc(d, 6, "tree-sublinear", None)),
        Op("demo", _demo_doc("nonrectangular", {})),
        Op("demo", _demo_doc("diagonal", {"n_payoffs": 20, "seed": d.randrange(1000)})),
        Op("demo", _demo_doc("fubini-counterexample", {})),
        Op("demo", _demo_doc("continuity-failure", {"n": d.choice([8, 16])})),
        Op("demo", _demo_doc("gwalk", {"horizon": d.randint(2, 4),
                                       "payoff": d.choice(["square", "neg-abs", "identity"])})),
    ]
    return ops


def _desk_refusals(d: Draw) -> list[Op]:
    n = d.randint(3, 6)

    def base(op: dict, **over) -> dict:
        doc = _credal_doc(d, n, 3, op)
        doc.update(over)
        return doc

    ev = {"op": "eval", "set": "S", "variable": "X"}
    bad_mass = [w * 1.1 for w in d.dirichlet(n)]
    neg = d.dirichlet(n)
    neg[0] += neg[1] + 0.2
    neg[1] = -0.2
    text_values = d.vec(n)
    text_values[d.randrange(n)] = "abc"
    text_weights = d.dirichlet(n)
    text_weights[d.randrange(n)] = "abc"
    return [
        Op("refuse", base({"op": "frobnicate"})),
        Op("refuse", base({"op": "eval", "set": "missing", "variable": "X"})),
        Op("refuse", base(ev, sets={"S": {"space": "W", "vertices": [bad_mass]}})),
        Op("refuse", base(ev, sets={"S": {"space": "W", "vertices": [neg]}})),
        Op("refuse", dict(base(ev), extras={})),
        # D3: wrongly typed numbers, documented as exit 2
        Op("refuse", base({"op": "avar-dual", "set": "S", "variable": "X",
                           "level": "abc"}), defect="D3"),
        Op("refuse", base({"op": "oce", "set": "S", "variable": "X",
                           "loss": {"kind": "avar", "level": [1]}}), defect="D3"),
        Op("refuse", base(ev, variables={"X": {"space": "W", "values": text_values}}),
           defect="D3"),
        Op("refuse", base({"op": "conjugate", "set": "S", "weights": text_weights}),
           defect="D3"),
    ]


def desk_cli(seed: int, cycles: int):
    d = Draw(seed)
    for _ in range(cycles):
        ops = _desk_answers(d) + _desk_refusals(d)
        for op in ops:
            op.expect = REFUSE if op.kind == "refuse" else ANSWER
        yield ops


# ---------------------------------------------------------------- tree_eval

TREE_BRANCHING = 3
TREE_HORIZON = 8
TREE_PAYOFFS = 3
# fixed step measures; each seed adds a four-segment loss after them
TREE_MEASURES = ({"kind": "avar", "level": 0.1}, {"kind": "avar", "level": 0.3},
                 {"kind": "sublinear"})


def tree_eval(seed: int) -> dict:
    """Rows for the two trees, a payoff pool, the step measures, check nodes."""
    d = Draw(seed)
    b, h = TREE_BRANCHING, TREE_HORIZON
    shared = [d.dirichlet(b) for _ in range(3)]
    distinct = [[[d.dirichlet(b) for _ in range(3)] for _ in range(b**t)] for t in range(h)]
    payoffs = [d.vec(b**h) for _ in range(TREE_PAYOFFS)]
    return {
        "horizon": h,
        "shared": shared,
        "distinct": distinct,
        "payoffs": payoffs,
        "measures": [*TREE_MEASURES, _loss(d, avar=False)],
        "check_nodes": [d.randrange(b**t) for t in range(h)],
    }


def tree_cycles() -> list[list[Op]]:
    """Cycle ``c`` uses payoff ``c mod 3`` on both trees.

    The four-segment loss costs about twice an AVaR op, so it runs once per
    cycle, on the two trees in turn: the tail percentile of a run then falls
    among the AVaR ops instead of on the step between the two costs.
    """
    cycles = []
    for c in range(2 * TREE_PAYOFFS):
        cycle = [(tree, m) for tree in ("shared", "distinct") for m in range(len(TREE_MEASURES))]
        cycle.append((("shared", "distinct")[c % 2], len(TREE_MEASURES)))
        cycles.append([
            Op("tree", {}, meta={"key": (tree, m, c % TREE_PAYOFFS), "tree": tree,
                                 "measure": m, "payoff": c % TREE_PAYOFFS})
            for tree, m in cycle
        ])
    return cycles
