"""Spans and counts around every call into credalkit's modules.

The tracer wraps each public function of each layer module at every name
that binds it (``solve_lp`` is imported by name into ``credal``,
``penalty`` and ``risk``, so each of those bindings is replaced too), the
``CredalSet``, ``ProbVector`` and ``RandomVariable`` constructors, and the
module-level ``credalkit.lp._pivot``, which only counts.  Nothing under
``src/`` changes: the wrappers are installed from outside and removed
afterwards.

Every call is synchronous and single-threaded, so a layer never waits on
another; self time is a span's duration minus the time its child spans
cover, and no wait times are reported.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = ("spaces", "lp", "credal", "penalty", "conditional", "fubini", "risk",
          "serialize", "cli", "demos")
CONSTRUCTORS = (("credal", "CredalSet"), ("spaces", "ProbVector"),
                ("spaces", "RandomVariable"))


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self._undo: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import credalkit

        modules = {name: importlib.import_module(f"credalkit.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for ns in (credalkit, *modules.values()):
            for name, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._set(ns, name, wrappers[id(value)])
        demos = modules["demos"].DEMOS
        for key, fn in list(demos.items()):
            if id(fn) in wrappers:
                self._undo.append((demos.__setitem__, key, fn))
                demos[key] = wrappers[id(fn)]
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, "__init__", self._wrap(cls.__init__, f"{layer}.{cls_name}"))

        lp = modules["lp"]
        pivot = lp._pivot
        counts = self.counts

        def counting_pivot(T, *args):
            counts["lp.pivots"] += 1
            counts["lp.pivot_flops"] += 2 * T.size
            return pivot(T, *args)

        self._set(lp, "_pivot", counting_pivot)

    def uninstall(self) -> None:
        for setter, name, value in reversed(self._undo):
            setter(name, value)
        self._undo.clear()

    def _set(self, owner, name, value) -> None:
        self._undo.append((lambda n, v, o=owner: setattr(o, n, v), name, getattr(owner, name)))
        setattr(owner, name, value)

    # ------------------------------------------------------------ spans

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(counts, spans, parent, args, kwargs)
            idx = len(spans)
            record = [name, 0, 0, parent, self.op]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(counts, args, ctx, None, exc)
                raise
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(counts, args, ctx, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict:
        spans = self.spans
        cover = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                cover[parent] += t1 - t0
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, t0, t1, _, _) in enumerate(spans):
            self_ns[name.split(".", 1)[0]] += t1 - t0 - cover[i]
            calls[name] += 1
        c = self.counts
        lp_calls = calls["lp.solve_lp"]
        canon_lps = c["credal.canon_lp_calls"]
        m = {
            "lp.calls": (lp_calls, "count"),
            "lp.pivots": (c["lp.pivots"], "count"),
            "lp.pivots_per_call": (c["lp.pivots"] / lp_calls if lp_calls else 0.0, "pivot/call"),
            "lp.pivot_flops": (c["lp.pivot_flops"], "flop"),
            "lp.infeasible_frac": (c["lp.infeasible"] / lp_calls if lp_calls else 0.0, "frac"),
            "lp.stalled": (c["lp.stalled"], "count"),
            "credal.canon_calls": (c["credal.canon_calls"], "count"),
            "credal.canon_generators_in": (c["credal.canon_generators_in"], "count"),
            "credal.canon_dropped": (c["credal.canon_dropped"], "count"),
            "credal.canon_lp_calls": (canon_lps, "count"),
            "credal.canon_useful_frac": (
                c["credal.canon_dropped"] / canon_lps if canon_lps else 0.0, "frac"),
            "credal.membership_calls": (calls["credal.membership"], "count"),
            "credal.separate_calls": (calls["credal.separate"], "count"),
            "conditional.pasting_generators": (c["conditional.pasting_generators"], "count"),
            "conditional.check_tower_calls": (calls["conditional.check_tower"], "count"),
            "fubini.check_fubini_calls": (calls["fubini.check_fubini"], "count"),
            "risk.oce_calls": (calls["risk.oce"], "count"),
            "risk.backward_nodes": (c["risk.backward_nodes"], "count"),
            "risk.avar_dual_calls": (calls["risk.avar_dual_evaluate"], "count"),
            "spaces.constructions": (
                calls["spaces.ProbVector"] + calls["spaces.RandomVariable"], "count"),
            "serialize.parse_bytes": (c["serialize.parse_bytes"], "B"),
            "serialize.render_bytes": (c["serialize.render_bytes"], "B"),
            "penalty.minimal_penalty_calls": (calls["penalty.minimal_penalty"], "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
        return m

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------- observers
# before(counts, spans, parent, args, kwargs) -> (args, kwargs, ctx)
# after(counts, args, ctx, result, exc)


def _credal_set_before(counts, spans, parent, args, kwargs):
    if kwargs.get("canonical", False):
        return args, kwargs, None
    args = list(args)
    if len(args) > 2:
        args[2] = tuple(args[2])
        n_in = len(args[2])
    else:
        kwargs["vertices"] = tuple(kwargs["vertices"])
        n_in = len(kwargs["vertices"])
    return tuple(args), kwargs, n_in


def _credal_set_after(counts, args, n_in, result, exc):
    if n_in is None or exc is not None:
        return
    counts["credal.canon_calls"] += 1
    counts["credal.canon_generators_in"] += n_in
    counts["credal.canon_dropped"] += n_in - len(args[0].vertices)


def _solve_lp_before(counts, spans, parent, args, kwargs):
    # canonicalization is the only LP a CredalSet constructor runs
    if parent >= 0 and spans[parent][0] == "credal.CredalSet":
        counts["credal.canon_lp_calls"] += 1
    return args, kwargs, None


def _solve_lp_after(counts, args, ctx, result, exc):
    if exc is not None:
        if type(exc).__name__ == "SimplexStalledError":
            counts["lp.stalled"] += 1
    elif result.status == "infeasible":
        counts["lp.infeasible"] += 1


def _pasting_before(counts, spans, parent, args, kwargs):
    SU, K = args[0], args[1]
    n = SU.n_vertices
    for iu in range(K.u_space.size):
        n *= K[iu].n_vertices
    counts["conditional.pasting_generators"] += n
    return args, kwargs, None


def _backward_before(counts, spans, parent, args, kwargs):
    tree = args[0]
    b = tree.step_space.size
    counts["risk.backward_nodes"] += sum(b**t for t in range(tree.horizon))
    return args, kwargs, None


def _parse_before(counts, spans, parent, args, kwargs):
    counts["serialize.parse_bytes"] += len(args[0].encode())
    return args, kwargs, None


def _render_after(counts, args, ctx, result, exc):
    if exc is None:
        counts["serialize.render_bytes"] += len(result.encode())


_BEFORE = {
    "credal.CredalSet": _credal_set_before,
    "lp.solve_lp": _solve_lp_before,
    "conditional.pasting": _pasting_before,
    "risk.compose_risk": _backward_before,
    "risk.compose_sublinear": _backward_before,
    "serialize.parse": _parse_before,
}
_AFTER = {
    "credal.CredalSet": _credal_set_after,
    "lp.solve_lp": _solve_lp_after,
    "serialize.render": _render_after,
}
