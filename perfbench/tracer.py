"""Span tracing of spincalc's layers, installed from outside the package.

`install` wraps each traced function and rebinds the wrapper under every
name that holds the original in any ``spincalc`` module, so calls through
a module attribute (``linecomplex.tangency`` in ``checks``) and through a
``from ... import`` binding (``mat_rank`` inside ``linecomplex``) are both
seen.  `uninstall` puts the originals back.

A span is (id, parent id, op id, name index, start ns, end ns).  Spans are
kept in memory and written out by `Tracer.write` when the run ends; self
times and counts are accumulated as spans close, so the per-layer metrics
need no second pass over the span list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

#: functions traced by name; the span name is "<module>.<function>"
TRACED = {
    "_linalg": ("mat_rank", "mat_det", "solve"),
    "linecomplex": ("second_compound", "tangency", "discriminant_tangency",
                    "is_singular_point", "plucker_quadric_rank",
                    "transform_bivector", "random_invertible_matrix"),
    "lattices": ("cs_obstruction", "sum_square_solution_exists"),
    "schubert": ("multiply", "pieri", "degree"),
    "checks": ("verify_all",),
    "cli": ("main",),
}
#: generator functions whose next() calls are timed as one span name
SAMPLERS = ("tangency_samples", "complex_point_samples",
            "compound_rank_samples")
SAMPLER_SPAN = "linecomplex.samplers"
#: every public function of these modules is folded into "classcalc"
CLASSCALC = ("picard", "curves", "kodaira")
EVALUATE_SPAN = "linecomplex.SymmetricForm.evaluate"


def span_name(mod: str, fn: str) -> str:
    """Metric names must start with a letter or digit, so the private
    `_linalg` module is reported as `linalg`."""
    return f"{mod.lstrip('_')}.{fn}"


#: per-layer metrics reported from `calls` and `self_ms`
CALL_METRICS = tuple(span_name(mod, fn) for mod, fns in TRACED.items()
                     for fn in fns if fn != "random_invertible_matrix"
                     ) + (EVALUATE_SPAN,)


class Tracer:
    """Collects spans and per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.cells = 0                 # sum of rows * cols given to mat_rank
        self.det_in_sampler = 0        # mat_det calls made by the sampler
        self.op_id = 0
        self._stack: list[list] = []   # [span id, name index, start, child ns]
        self._next_id = 1

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def enter(self, idx: int) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, idx, time.perf_counter_ns(), 0])

    def leave(self) -> None:
        end = time.perf_counter_ns()
        span_id, idx, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else 0, self.op_id,
                           idx, start, end))
        name = self.names[idx]
        self.calls[name] += 1
        self.self_ns[name] += dur - child

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    def write(self, path) -> None:
        """Write the span table as tab-separated text."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for span_id, parent, op, idx, start, end in self.spans:
                out.write(f"{span_id}\t{parent}\t{op}\t{self.names[idx]}"
                          f"\t{start}\t{end}\n")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None):
        idx = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            self.enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return traced

    def wrap_sampler(self, fn):
        idx = self.name_index(SAMPLER_SPAN)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def timed_next():
                while True:
                    self.enter(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    yield item
            return timed_next()
        return traced

    # -- counters ----------------------------------------------------------

    def count_cells(self, mat, *_, **__):
        if mat:
            self.cells += len(mat) * len(mat[0])

    def count_sampler_det(self, *_, **__):
        if self.parent_name() == "linecomplex.random_invertible_matrix":
            self.det_in_sampler += 1

    # -- metrics -----------------------------------------------------------

    def counts(self) -> dict:
        """The deterministic part of the per-layer metrics."""
        out = {f"{name}.calls": self.calls[name] for name in CALL_METRICS}
        out["classcalc.calls"] = sum(self.calls[n] for n in self.calls
                                     if n.split(".")[0] in CLASSCALC)
        out["linalg.mat_rank.cells"] = self.cells
        accepts = self.calls["linecomplex.random_invertible_matrix"]
        out["linecomplex.random_invertible_matrix.det_per_accept"] = (
            self.det_in_sampler / accepts if accepts else 0.0)
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {name: (value, "ratio" if name.endswith("det_per_accept")
                      else "count")
               for name, value in self.counts().items()}
        for name in CALL_METRICS + (SAMPLER_SPAN,):
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6, "ms")
        out["classcalc.self_ms"] = (
            sum(ns for n, ns in self.self_ns.items()
                if n.split(".")[0] in CLASSCALC) / 1e6, "ms")
        return out


def _spincalc_modules():
    import spincalc
    mods = [spincalc]
    for info in pkgutil.iter_modules(spincalc.__path__):
        mods.append(importlib.import_module(f"spincalc.{info.name}"))
    return mods


def _rebind(mods, original, wrapper, undo):
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns the undo list for `uninstall`."""
    mods = _spincalc_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in mods}
    undo: list = []
    hooks = {"mat_rank": tracer.count_cells,
             "mat_det": tracer.count_sampler_det}
    for mod_name, fns in TRACED.items():
        mod = by_name[mod_name]
        for fn_name in fns:
            original = getattr(mod, fn_name)
            wrapper = tracer.wrap(span_name(mod_name, fn_name), original,
                                  hooks.get(fn_name))
            _rebind(mods, original, wrapper, undo)
    linecomplex = by_name["linecomplex"]
    for fn_name in SAMPLERS:
        original = getattr(linecomplex, fn_name)
        _rebind(mods, original, tracer.wrap_sampler(original), undo)
    for mod_name in CLASSCALC:
        mod = by_name[mod_name]
        for fn_name, fn in list(vars(mod).items()):
            if (not fn_name.startswith("_") and callable(fn)
                    and getattr(fn, "__module__", None) == mod.__name__
                    and not inspect.isclass(fn)):
                _rebind(mods, fn, tracer.wrap(f"{mod_name}.{fn_name}", fn),
                        undo)
    form = linecomplex.SymmetricForm
    evaluate = form.evaluate
    form.evaluate = tracer.wrap(EVALUATE_SPAN, evaluate)
    undo.append((form, "evaluate", evaluate))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
