"""Checks of CLI reports against the documents that produced them.

Verdicts fixed by construction are compared directly; everything else is
replayed in numpy (see ``oracle``) from the document's own numbers, never
from objects the program built.
"""

from __future__ import annotations

import numpy as np

import oracle
from oracle import TOL, close


def check(kind: str, doc: dict, meta: dict, out: dict) -> str:
    """'' when the report is right, else a one-line reason."""
    return _CHECKS[kind](doc, meta, out)


def _rows(doc, name):
    return np.asarray(doc["sets"][name]["vertices"], dtype=float)


def _values(doc, name="X"):
    return np.asarray(doc["variables"][name]["values"], dtype=float)


def _random_agreement(sides, size: int) -> str:
    """A claimed identity must hold on sampled payoffs too."""
    for x in np.random.default_rng(0).uniform(-1.0, 1.0, (200, size)):
        lhs, rhs = sides(x)
        if not close(lhs, rhs):
            return f"identity reported but a payoff separates the sides ({lhs!r} vs {rhs!r})"
    return ""


def _tower(doc, meta, out):
    joint = _rows(doc, "S")
    kernel = [np.asarray(rows, dtype=float) for rows in doc["kernels"]["K"]["credal"]]
    sides = lambda x: oracle.tower_sides(joint, kernel, x)  # noqa: E731
    if meta.get("rectangular"):
        return "" if out["rectangular"] is True else "pasted set not reported rectangular"
    if out["rectangular"]:
        return _random_agreement(sides, joint.shape[1])
    w = out["witness"]
    lhs, rhs = sides(w["payoff"])
    if not (close(w["lhs"], lhs) and close(w["rhs"], rhs) and close(w["gap"], rhs - lhs)):
        return f"tower witness does not replay: {w['lhs']!r}/{w['rhs']!r} vs {lhs!r}/{rhs!r}"
    if abs(rhs - lhs) <= TOL:
        return "tower witness has no gap"
    for key, support in (("pasting_vertex_outside", lambda x: sides(x)[0]),
                         ("set_vertex_outside", lambda x: sides(x)[1])):
        cert = out[key]
        if cert is None:
            continue
        wit = np.asarray(cert["witness"])
        margin = float(np.dot(cert["vertex"], wit)) - support(wit)
        if not close(cert["margin"], margin) or margin <= TOL:
            return f"{key}: margin {cert['margin']!r} replays as {margin!r}"
    return ""


def _fubini(doc, meta, out):
    SU, SV = _rows(doc, "SU"), _rows(doc, "SV")
    sides = lambda x: oracle.fubini_sides(SU, SV, x)  # noqa: E731
    if out["interchangeable"]:
        return _random_agreement(sides, SU.shape[1] * SV.shape[1])
    w = out["witness"]
    lhs, rhs = sides(w["payoff"])
    if not (close(w["lhs"], lhs) and close(w["rhs"], rhs)):
        return f"fubini witness does not replay: {w['lhs']!r}/{w['rhs']!r} vs {lhs!r}/{rhs!r}"
    if abs(rhs - lhs) <= TOL:
        return "fubini witness has no gap"
    return ""


def _eval(doc, meta, out):
    want = oracle.upper(_rows(doc, "S"), _values(doc))
    return "" if close(out["value"], want) else f"value {out['value']!r} vs {want!r}"


def _eval_convex(doc, meta, out):
    want = oracle.convex(doc["sets"]["A"]["atoms"], _values(doc))
    return "" if close(out["value"], want) else f"value {out['value']!r} vs {want!r}"


def _conditional_values(doc) -> np.ndarray:
    body = doc["kernels"]["K"]
    X = _values(doc).reshape(len(doc["spaces"]["U"]), -1)
    if "credal" in body:
        return np.array([oracle.upper(rows, X[u]) for u, rows in enumerate(body["credal"])])
    return np.array([oracle.convex(atoms, X[u]) for u, atoms in enumerate(body["penalty"])])


def _conditional(doc, meta, out):
    want = _conditional_values(doc)
    got = np.asarray(out["values"], dtype=float)
    if got.shape != want.shape or not all(close(g, w) for g, w in zip(got, want)):
        return f"conditional values {got.tolist()!r} vs {want.tolist()!r}"
    return ""


def _compose(doc, meta, out):
    inner = _conditional_values(doc)
    outer = doc["sets"]["O"]
    if "vertices" in outer:
        want = oracle.upper(outer["vertices"], inner)
    else:
        want = oracle.convex(outer["atoms"], inner)
    return "" if close(out["value"], want) else f"value {out['value']!r} vs {want!r}"


def _conjugate(doc, meta, out):
    want = 0.0 if meta["member"] else "inf"
    return "" if out["value"] == want else f"conjugate {out['value']!r}, expected {want!r}"


def _separate(doc, meta, out):
    wit = np.asarray(out["witness"], dtype=float)
    point = np.asarray(doc["command"]["weights"], dtype=float)
    margin = float(point @ wit) - oracle.upper(_rows(doc, "S"), wit)
    if not close(out["margin"], margin) or margin <= TOL:
        return f"margin {out['margin']!r} replays as {margin!r}"
    return ""


def _oce(doc, meta, out):
    S, x = _rows(doc, "S"), _values(doc)
    want = float(oracle.oce_values(S, x[None], doc["command"]["loss"])[0])
    return "" if close(out["value"], want) else f"oce {out['value']!r} vs {want!r}"


def _avar_dual(doc, meta, out):
    S, x = _rows(doc, "S"), _values(doc)
    level = doc["command"]["level"]
    want = float(oracle.oce_values(S, x[None], {"kind": "avar", "level": level})[0])
    if not close(out["value"], want):
        return f"avar dual {out['value']!r} vs primal {want!r}"
    if doc["command"].get("vertices"):
        D = np.asarray(out["dual_vertices"], dtype=float)
        if np.any(D < -1e-12) or not np.allclose(D.sum(axis=1), 1.0, atol=TOL):
            return "dual vertices are not probabilities"
        if not close(np.max(D @ x), want):
            return f"dual set support {np.max(D @ x)!r} vs value {want!r}"
    return ""


def _additivity(doc, meta, out):
    # the joint family is the composed one, so the sampled values coincide
    if out["value_gap_above"] > TOL or out["value_gap_below"] > TOL:
        return (f"value gaps {out['value_gap_above']!r}/{out['value_gap_below']!r} "
                f"on a composed family")
    if out["consistent_with_sampled_values"] is not True:
        return "classification inconsistent with sampled values"
    for i, probe in enumerate(out["probes"]):
        j, s = float(probe["joint_penalty"]), float(probe["split_penalty"])
        rel = probe["relation"]
        agree = {"equal": j == s or abs(j - s) <= TOL,
                 "joint_above": j > s, "joint_below": j < s}.get(rel, False)
        if not agree:
            return f"probe {i}: relation {rel!r} for {j!r} vs {s!r}"
    return ""


def _tree(doc, meta, out):
    tree = doc["trees"]["T"]
    cmd = doc["command"]
    spec = cmd["loss"] if cmd["op"] == "tree-risk" else {"kind": "sublinear"}
    levels = out["levels"]
    if levels[0][0] != out["root_value"]:
        return "root value differs from level 0"
    if not np.allclose(levels[-1], doc["variables"]["X"]["values"], rtol=0.0, atol=TOL):
        return "terminal level differs from the payoff"
    return oracle.tree_check(levels, tree["ambiguity"], spec)


def _demo(doc, meta, out):
    return "" if out["passed"] is True else f"demo {out['name']} did not pass"


_CHECKS = {
    "tower": _tower,
    "fubini": _fubini,
    "eval": _eval,
    "eval-convex": _eval_convex,
    "conditional": _conditional,
    "compose": _compose,
    "conjugate": _conjugate,
    "separate": _separate,
    "oce": _oce,
    "avar-dual": _avar_dual,
    "additivity": _additivity,
    "tree": _tree,
    "demo": _demo,
}
