"""Scenario-file front end.

A scenario is a single JSON document (``"format": 1``) declaring named
outcome spaces, credal sets or penalty families, kernels, payoffs, and
scenario trees, plus one command referencing them by name.  ``run``
validates everything, dispatches, and emits a deterministic report
document; diagnostics go to standard error.  Exit codes: 0 success,
2 validation error, 3 operation error, 4 size-guard error.

Every op is one entry of the ``OPS`` table: the objects its command
names, with the section and type each must have, and a handler that
receives them resolved.  Every number read from a document goes through
the typed readers (``_number``, ``_int``, ``_numbers``, ``_rows``), which
accept JSON numbers only and name the offending field path.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Optional

import numpy as np

from . import __version__
from .conditional import (
    CredalKernel,
    PenaltyKernel,
    check_penalty_additivity,
    check_tower,
    compose,
    conditional_convex,
    conditional_expectation,
)
from .credal import (
    CredalSet,
    conjugate_indicator,
    separate,
    sublinear_expectation,
)
from .demos import DEMO_SUMMARIES, DEMOS
from .errors import CredalkitError, SizeGuardError, ValidationError
from .fubini import check_fubini
from .penalty import PenaltyAtoms, convex_expectation
from .risk import (
    LossSpec,
    ScenarioTree,
    avar_dual_evaluate,
    avar_dual_set,
    compose_risk,
    compose_sublinear,
    oce,
)
from .serialize import parse, render
from .spaces import Kernel, OutcomeSpace, ProbVector, ProductSpace, RandomVariable

_FLOAT_MAX = sys.float_info.max


@dataclass
class Scenario:
    raw: dict
    spaces: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    variables: dict = field(default_factory=dict)
    trees: dict = field(default_factory=dict)
    command: dict = field(default_factory=dict)
    args: dict = field(default_factory=dict)  # command objects, resolved by name
    warnings: list = field(default_factory=list)
    canonicalization: list = field(default_factory=list)


# ---------------------------------------------------------------- typed readers


def _number(path: str, v) -> float:
    """A finite JSON number; bools, strings and containers are refused."""
    if type(v) not in (int, float) or not abs(v) <= _FLOAT_MAX:
        raise ValidationError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _int(path: str, v) -> int:
    if type(v) is not int:
        raise ValidationError(f"{path}: expected an integer, got {v!r}")
    return v


def _list(path: str, v) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{path}: expected a list")
    return v


def _map(path: str, v) -> dict:
    if not isinstance(v, dict):
        raise ValidationError(f"{path}: expected a map")
    return v


def _numbers(path: str, v) -> list:
    return [_number(f"{path}[{i}]", x) for i, x in enumerate(_list(path, v))]


def _rows(path: str, v) -> list:
    return [_numbers(f"{path}[{i}]", row) for i, row in enumerate(_list(path, v))]


def _atom_rows(path: str, v) -> list:
    """``[(weights, cost), ...]`` from a list of ``{"weights", "cost"}`` maps."""
    atoms = []
    for i, entry in enumerate(_list(path, v)):
        entry = _map(f"{path}[{i}]", entry)
        atoms.append((_numbers(f"{path}[{i}].weights", entry.get("weights")),
                      _number(f"{path}[{i}].cost", entry.get("cost", 0.0))))
    return atoms


def _wrap(path: str, build):
    try:
        return build()
    except CredalkitError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------- objects


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    raw = parse(text)
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a map")
    if raw.get("format") != 1:
        raise ValidationError('scenario needs "format": 1')
    known = {"format", "spaces", "sets", "kernels", "variables", "trees", "command"}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown scenario sections: {sorted(unknown)}")
    sc = Scenario(raw=raw)

    for name, labels in _map("spaces", raw.get("spaces", {})).items():
        sc.spaces[name] = OutcomeSpace(_list(f"spaces.{name}", labels))

    for section, build in (("sets", _build_set), ("kernels", _build_kernel),
                           ("variables", _build_variable), ("trees", _build_tree)):
        for name, body in _map(section, raw.get(section, {})).items():
            getattr(sc, section)[name] = build(sc, f"{section}.{name}", body)

    command = raw.get("command")
    if not isinstance(command, dict) or "op" not in command:
        raise ValidationError('scenario needs a "command" map with an "op"')
    op = command["op"]
    if not isinstance(op, str) or op not in OPS:
        raise ValidationError(f"unknown command op {op!r}")
    sc.command = command
    sc.args = _resolve_args(sc, OPS[op][0])
    return sc


def _resolve_space(sc: Scenario, ref, path: str):
    if isinstance(ref, str):
        if ref not in sc.spaces:
            raise ValidationError(f"{path}: unknown space {ref!r}")
        return sc.spaces[ref]
    if isinstance(ref, list) and len(ref) == 2:
        return ProductSpace(
            _resolve_space(sc, ref[0], path), _resolve_space(sc, ref[1], path)
        )
    raise ValidationError(f"{path}: a space reference is a name or a pair of names")


def _credal(sc: Scenario, path: str, space, rows: list) -> CredalSet:
    """A credal set from vertex rows, noting generators canonicalization drops."""
    built = _wrap(path, lambda: CredalSet.from_rows(space, rows))
    if built.n_vertices < len(rows):
        sc.canonicalization.append(
            f"{path}: {len(rows) - built.n_vertices} redundant generator(s) dropped"
        )
    return built


def _penalty(sc: Scenario, path: str, space, atoms: list,
             shift_note: str = "") -> PenaltyAtoms:
    """A penalty family from atom rows, warning when its costs are shifted."""
    built = _wrap(path, lambda: PenaltyAtoms.from_rows(space, atoms))
    if built.normalization_shift > 0.0:
        sc.warnings.append(
            f"{path}: costs shifted down by {built.normalization_shift!r}{shift_note}"
        )
    return built


def _build_set(sc: Scenario, path: str, body):
    body = _map(path, body)
    space = _resolve_space(sc, body.get("space"), f"{path}.space")
    if "vertices" in body:
        return _credal(sc, path, space, _rows(f"{path}.vertices", body["vertices"]))
    if "atoms" in body:
        return _penalty(sc, path, space, _atom_rows(f"{path}.atoms", body["atoms"]),
                        " so the smallest is zero")
    raise ValidationError(f'{path}: needs "vertices" (credal) or "atoms" (penalty)')


def _build_kernel(sc: Scenario, path: str, body):
    body = _map(path, body)
    u_space = _resolve_space(sc, body.get("u_space"), f"{path}.u_space")
    v_space = _resolve_space(sc, body.get("v_space"), f"{path}.v_space")
    if "credal" in body:
        kind, cls = "credal", CredalKernel
    elif "penalty" in body:
        kind, cls = "penalty", PenaltyKernel
    else:
        raise ValidationError(f'{path}: needs "credal" or "penalty" tables')
    per_u = _list(f"{path}.{kind}", body[kind])
    if len(per_u) != u_space.size:
        raise ValidationError(f"{path}.{kind}: need one entry per outcome")
    table = []
    for i, entry in enumerate(per_u):
        where = f"{path}.{kind}[{i}]"
        if cls is CredalKernel:
            table.append(_credal(sc, where, v_space, _rows(where, entry)))
        else:
            table.append(_penalty(sc, where, v_space, _atom_rows(where, entry)))
    return cls(u_space, table)


def _build_variable(sc: Scenario, path: str, body):
    body = _map(path, body)
    space = _resolve_space(sc, body.get("space"), f"{path}.space")
    values = _numbers(f"{path}.values", body.get("values"))
    return _wrap(path, lambda: RandomVariable(space, values))


def _build_tree(sc: Scenario, path: str, body):
    body = _map(path, body)
    step_ref = body.get("step_space")
    if not isinstance(step_ref, str):
        raise ValidationError(f"{path}.step_space: expected a space name")
    step = _resolve_space(sc, step_ref, f"{path}.step_space")
    horizon = _int(f"{path}.horizon", body.get("horizon"))
    ambiguity = []
    for t, level in enumerate(_list(f"{path}.ambiguity", body.get("ambiguity"))):
        sets = []
        for j, rows in enumerate(_list(f"{path}.ambiguity[{t}]", level)):
            where = f"{path}.ambiguity[{t}][{j}]"
            rows = _rows(where, rows)
            sets.append(_wrap(where, lambda: CredalSet.from_rows(step, rows)))
        ambiguity.append(sets)
    return _wrap(path, lambda: ScenarioTree(step, horizon, ambiguity))


def _resolve_args(sc: Scenario, refs: dict) -> dict:
    args = {}
    for arg, (section, types, kind) in refs.items():
        ref = sc.command.get(arg)
        if not isinstance(ref, str):
            raise ValidationError(f"command.{arg}: required object name missing")
        objects = getattr(sc, section)
        if ref not in objects:
            raise ValidationError(f"command.{arg}: unknown {section} name {ref!r}")
        if not isinstance(objects[ref], types):
            raise ValidationError(f"command.{arg}: expected a {kind}")
        args[arg] = objects[ref]
    return args


# ---------------------------------------------------------------- command fields


def _loss(command: dict) -> LossSpec:
    body = _map("command.loss", command.get("loss"))
    kind = body.get("kind")
    if kind == "avar":
        level = _number("command.loss.level", body.get("level", 0.0))
        return _wrap("command.loss", lambda: LossSpec.avar(level))
    if kind == "piecewise-linear":
        breakpoints = _numbers("command.loss.breakpoints", body.get("breakpoints", []))
        slopes = _numbers("command.loss.slopes", body.get("slopes", []))
        return _wrap("command.loss", lambda: LossSpec.piecewise(breakpoints, slopes))
    raise ValidationError(f"command.loss.kind: unknown kind {kind!r}")


def _point(a) -> ProbVector:
    weights = _numbers("command.weights", a.cmd.get("weights"))
    return _wrap("command.weights", lambda: ProbVector(a.set.space, weights))


def _probes(a):
    """Explicit ``(Q, R)`` probes for the penalty-additivity check, if given."""
    if "probes" not in a.cmd:
        return None
    K = a.kernel
    probes = []
    for i, entry in enumerate(_list("command.probes", a.cmd["probes"])):
        path = f"command.probes[{i}]"
        entry = _map(path, entry)
        q = _numbers(f"{path}.q", entry.get("q"))
        rows = _rows(f"{path}.r", entry.get("r"))
        if len(rows) != K.u_space.size:
            raise ValidationError(f"{path}.r: need one weight row per outcome")
        Q = _wrap(f"{path}.q", lambda: ProbVector(a.outer.space, q))
        R = _wrap(f"{path}.r", lambda: Kernel(
            K.u_space, [ProbVector(K.v_space, row) for row in rows]))
        probes.append((Q, R))
    return probes


def _run_demo(name, args):
    """Run a named demo: the one place demo names and arguments are checked."""
    if not isinstance(name, str) or name not in DEMOS:
        raise ValidationError(f"command.name: unknown demo {name!r}")
    if not isinstance(args, dict):
        raise ValidationError("command.args: expected a map")
    try:
        return DEMOS[name](**args)
    except CredalkitError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"command.args: {exc}") from None


# ---------------------------------------------------------------- handlers


def _set_doc(S) -> Any:
    if isinstance(S, CredalSet):
        return {"kind": "credal", "n_vertices": S.n_vertices,
                "vertices": S.matrix.tolist()}
    return {
        "kind": "penalty",
        "n_atoms": S.n_atoms,
        "atoms": [
            {"weights": S.points[i].tolist(), "cost": float(S.costs[i])}
            for i in range(S.n_atoms)
        ],
    }


def _maybe_inf(x: float):
    return x if np.isfinite(x) else ("inf" if x > 0 else "-inf")


def _conditional(a) -> dict:
    if isinstance(a.kernel, CredalKernel):
        out = conditional_expectation(a.kernel, a.variable)
    else:
        out = conditional_convex(a.kernel, a.variable)
    return {"values": out.values.tolist(), "space": list(a.kernel.u_space.labels)}


def _check_tower(a) -> dict:
    report = check_tower(a.set, a.kernel, a.tol)
    doc = {
        "rectangular": report.rectangular,
        "marginal_vertices": report.marginal.matrix.tolist(),
        "pasting_vertices": report.pasting.matrix.tolist(),
        "witness": None,
        "pasting_vertex_outside": None,
        "set_vertex_outside": None,
    }
    if report.witness is not None:
        w = report.witness
        doc["witness"] = {
            "payoff": w.payoff.values.tolist(),
            "lhs": w.lhs,
            "rhs": w.rhs,
            "gap": w.gap,
        }
    for key, entry in (
        ("pasting_vertex_outside", report.pasting_vertex_outside),
        ("set_vertex_outside", report.set_vertex_outside),
    ):
        if entry is not None:
            vertex, cert = entry
            doc[key] = {
                "vertex": vertex.weights.tolist(),
                "witness": cert.witness.values.tolist(),
                "margin": cert.margin,
            }
    return doc


def _check_penalty_additivity(a) -> dict:
    report = check_penalty_additivity(
        a.set, a.outer, a.kernel, probes=_probes(a),
        n_random=_int("command.random_probes", a.cmd.get("random_probes", 20)),
        seed=a.seed, tol=a.tol,
    )
    return {
        "classification": report.classification,
        "consistent_with_sampled_values": report.consistent,
        "value_gap_above": report.value_gap_above,
        "value_gap_below": report.value_gap_below,
        "probes": [
            {
                "q": p.Q.weights.tolist(),
                "r": [p.R[i].weights.tolist() for i in range(a.kernel.u_space.size)],
                "joint_penalty": _maybe_inf(p.joint_penalty),
                "split_penalty": _maybe_inf(p.split_penalty),
                "relation": p.relation,
            }
            for p in report.probes
        ],
    }


def _check_fubini(a) -> dict:
    report = check_fubini(a.set_u, a.set_v, a.tol)
    doc = {
        "interchangeable": report.interchangeable,
        "forward_vertices": report.forward_set.matrix.tolist(),
        "backward_vertices": report.backward_set.matrix.tolist(),
        "witness": None,
    }
    if report.witness is not None:
        payoff, lhs, rhs = report.witness
        doc["witness"] = {"payoff": payoff.values.tolist(), "lhs": lhs, "rhs": rhs}
    return doc


def _conjugate(a) -> dict:
    return {"value": _maybe_inf(conjugate_indicator(a.set, _point(a), a.tol))}


def _separate(a) -> dict:
    cert = separate(a.set, _point(a), a.tol)
    return {"witness": cert.witness.values.tolist(), "margin": cert.margin}


def _oce(a) -> dict:
    L = _loss(a.cmd)
    res = oce(a.set, a.variable, L)
    doc = {"value": res.value, "minimizer": res.minimizer}
    if L.boundary:
        doc["boundary_level"] = True
    return doc


def _avar_dual(a) -> dict:
    level = _number("command.level", a.cmd.get("level", 0.0))
    doc = {"value": avar_dual_evaluate(a.set, level, a.variable, a.tol)}
    if a.cmd.get("vertices", False):
        doc["dual_vertices"] = avar_dual_set(a.set, level, a.tol).matrix.tolist()
    return doc


def _levels_doc(levels) -> dict:
    return {"root_value": float(levels[0][0]), "levels": [lvl.tolist() for lvl in levels]}


# Section, accepted types and description of each kind of command object.
CREDAL = ("sets", CredalSet, "credal set")
PENALTY = ("sets", PenaltyAtoms, "penalty family")
ANY_SET = ("sets", (CredalSet, PenaltyAtoms), "credal set or penalty family")
CREDAL_KERNEL = ("kernels", CredalKernel, "credal kernel")
PENALTY_KERNEL = ("kernels", PenaltyKernel, "penalty kernel")
ANY_KERNEL = ("kernels", (CredalKernel, PenaltyKernel), "kernel")
TREE = ("trees", ScenarioTree, "tree")
VARIABLE = ("variables", RandomVariable, "variable")

# op -> (command objects it names, handler).  A handler gets one namespace
# holding those objects by argument name, plus ``cmd``, ``tol`` and ``seed``.
OPS = {
    "eval": ({"set": CREDAL, "variable": VARIABLE},
             lambda a: {"value": sublinear_expectation(a.set, a.variable)}),
    "eval-convex": ({"set": PENALTY, "variable": VARIABLE},
                    lambda a: {"value": convex_expectation(a.set, a.variable)}),
    "conditional": ({"kernel": ANY_KERNEL, "variable": VARIABLE}, _conditional),
    "compose": ({"set": ANY_SET, "kernel": ANY_KERNEL, "variable": VARIABLE},
                lambda a: {"value": compose(a.set, a.kernel, a.variable)}),
    "check-tower": ({"set": CREDAL, "kernel": CREDAL_KERNEL}, _check_tower),
    "check-penalty-additivity": (
        {"set": PENALTY, "outer": PENALTY, "kernel": PENALTY_KERNEL},
        _check_penalty_additivity),
    "check-fubini": ({"set_u": CREDAL, "set_v": CREDAL}, _check_fubini),
    "conjugate": ({"set": CREDAL}, _conjugate),
    "separate": ({"set": CREDAL}, _separate),
    "oce": ({"set": CREDAL, "variable": VARIABLE}, _oce),
    "avar-dual": ({"set": CREDAL, "variable": VARIABLE}, _avar_dual),
    "tree-risk": ({"tree": TREE, "variable": VARIABLE},
                  lambda a: _levels_doc(compose_risk(a.tree, a.variable, _loss(a.cmd)))),
    "tree-sublinear": ({"tree": TREE, "variable": VARIABLE},
                       lambda a: _levels_doc(compose_sublinear(a.tree, a.variable))),
    "demo": ({}, lambda a: _run_demo(a.cmd.get("name"), a.cmd.get("args", {})).to_doc()),
}


# ---------------------------------------------------------------- report


def run(sc: Scenario, tol: float = 1e-9, seed: int = 0) -> dict:
    """Dispatch a validated scenario and assemble the report document."""
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    handler = OPS[sc.command["op"]][1]
    outputs = handler(SimpleNamespace(cmd=sc.command, tol=tol, seed=seed, **sc.args))
    inputs_doc = {
        "digest": _digest(sc.raw),
        "objects": {
            "sets": {name: _set_doc(S) for name, S in sorted(sc.sets.items())},
            "spaces": {n: list(s.labels) for n, s in sorted(sc.spaces.items())},
        },
    }
    return {
        "format": 1,
        "tool": {"name": "credalkit", "version": __version__},
        "command": sc.command,
        "inputs": inputs_doc,
        "outputs": outputs,
        "diagnostics": {
            "warnings": list(sc.warnings),
            "canonicalization": list(sc.canonicalization),
        },
        "tolerances": {"feasibility": tol},
        "seed": seed,
    }


def _digest(raw: dict) -> str:
    body = {k: raw[k] for k in raw if k != "command"}
    return "sha256:" + hashlib.sha256(render(body).encode()).hexdigest()[:16]


def _echo(message: str, *, error: bool = False) -> None:
    stream = sys.stderr
    use_color = stream.isatty() and not os.environ.get("NO_COLOR")
    if use_color:
        code = "31" if error else "32"
        message = f"\x1b[{code}m{message}\x1b[0m"
    print(message, file=stream)


def _emit(report: dict, out: Optional[str]) -> None:
    text = render(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="credalkit",
        description="Worst-case and convex expectations on finite outcome spaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to the scenario document")
    p_run.add_argument("--out", default=None, help="write the report here")
    p_run.add_argument("--tol", type=float, default=1e-9)
    p_run.add_argument("--seed", type=int, default=0)

    p_demo = sub.add_parser("demo", help="run a named demonstration")
    p_demo.add_argument("name")
    p_demo.add_argument("--out", default=None)
    p_demo.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override a demo parameter (JSON-typed value)",
    )

    sub.add_parser("list-demos", help="list demonstration names")

    args = parser.parse_args(argv)
    try:
        if args.subcommand == "list-demos":
            for name in DEMOS:
                print(f"{name}  -  {DEMO_SUMMARIES[name]}")
            return 0
        if args.subcommand == "demo":
            params = {}
            for pair in args.param:
                if "=" not in pair:
                    raise ValidationError(f"--param needs KEY=VALUE, got {pair!r}")
                key, _, value = pair.partition("=")
                try:
                    params[key] = parse(value)
                except ValidationError:
                    params[key] = value
            report_doc = _run_demo(args.name, params).to_doc()
            doc = {
                "format": 1,
                "tool": {"name": "credalkit", "version": __version__},
                "command": {"op": args.subcommand, "name": args.name, "args": params},
                "outputs": report_doc,
                "diagnostics": {"warnings": []},
            }
            _emit(doc, args.out)
            _echo(f"demo {args.name}: {'pass' if report_doc['passed'] else 'FAIL'}")
            return 0
        with open(args.scenario, encoding="utf-8") as fh:
            text = fh.read()
        sc = parse_scenario(text)
        report = run(sc, tol=args.tol, seed=args.seed)
        _emit(report, args.out)
        _echo(f"ok: {sc.command['op']}")
        return 0
    except SizeGuardError as exc:
        _echo(f"size guard: {exc}", error=True)
        return 4
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        _echo(f"validation error: {exc}", error=True)
        return 2
    except CredalkitError as exc:
        _echo(f"operation error: {exc}", error=True)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
