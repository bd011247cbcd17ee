"""Outside-in tracer for the multizeta layers.

The program carries no tracing of its own, so the benchmark measures each
layer from outside: every public function named in a layer module's
``__all__`` is replaced by a timing wrapper, and the wrapper is rebound in
every ``multizeta.*`` namespace that holds the original (``cli``, ``verify``
and ``closed`` use ``from .x import y``, so patching the defining module
alone would miss most calls).  Integrand evaluations are spans too: the
``integrate01`` wrapper swaps the evaluator it is given for a timed one, so
quadrature node work and integrand work are measured apart.

Spans are kept in memory with parent links (four parallel arrays), and a
span's self time is its duration minus the durations of its child spans.
``flush`` folds the spans of one request into per-(function, digits) totals
and frees them, so memory stays bounded by the largest request.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "verify", "closed", "symbolic", "series", "quadrature", "wseries", "hp")

_ROOT = -1


def _depth(name: str, args: dict) -> int:
    """Nesting depth of a series call: the number of summation indices."""
    if "idx" in args:
        return len(tuple(args["idx"]))
    if "ps" in args:
        return len(tuple(args["ps"])) + 1
    if name in ("odd_O_series", "odd_B_series", "valean_alt_sum"):
        return 2
    return 1


def _digits(result) -> float | None:
    """-log10 of a result's relative error bound, or None when it has none."""
    try:
        value = abs(float(result.value.magnitude))
        bound = float(result.error_bound.magnitude)
    except AttributeError:
        return None
    if value == 0.0 or bound <= 0.0:
        return None
    return -math.log10(bound / value)


class Tracer:
    """Collects spans for the functions of the eight layers."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.function"
        self.fids: array = array("i")
        self.parents: array = array("q")
        self.t0: array = array("d")
        self.t1: array = array("d")
        self.stack: list[int] = [_ROOT]
        self.bucket = 0  # digits of the request being served
        self.totals: dict[tuple[str, int], list] = {}  # (name, bucket) -> [calls, self_s, incl_s]
        self.hp_args: set = set()  # distinct (function, arguments) of hp calls
        self.series_terms = 0
        self.series_digits: list[float] = []
        self.quad_levels: list[int] = []
        self._eval_ids: dict[str, int] = {}

    # -- spans ---------------------------------------------------------------

    def _fid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, fid: int) -> int:
        sid = len(self.t0)
        self.fids.append(fid)
        self.parents.append(self.stack[-1])
        self.t1.append(0.0)
        self.stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        self.stack.pop()

    def open_layers(self) -> list[str]:
        """Names of the spans open right now, outermost first."""
        return [self.names[self.fids[sid]] for sid in self.stack[1:]]

    def flush(self) -> None:
        """Fold the spans into totals; spans still open are closed now.

        Safe to call from a signal handler that interrupted ``_open``: a span
        whose four fields are not all written yet is dropped.
        """
        now = perf_counter()
        n = min(len(self.fids), len(self.parents), len(self.t0), len(self.t1))
        for sid in self.stack[1:]:
            if sid < n:
                self.t1[sid] = now
        child = [0.0] * n
        for sid in range(n):
            parent = self.parents[sid]
            if parent >= 0:
                child[parent] += self.t1[sid] - self.t0[sid]
        for sid in range(n):
            dur = self.t1[sid] - self.t0[sid]
            key = (self.names[self.fids[sid]], self.bucket)
            tot = self.totals.get(key)
            if tot is None:
                tot = self.totals[key] = [0, 0.0, 0.0]
            tot[0] += 1
            tot[1] += dur - child[sid]
            tot[2] += dur
        for arr in (self.fids, self.parents, self.t0, self.t1):
            del arr[:]
        self.stack = [_ROOT]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        fid = self._fid(f"{layer}.{fn.__name__}")
        name = fn.__name__
        sig = inspect.signature(fn)
        tracer = self

        if layer == "series":
            def after(args, kwargs, result):
                parent = tracer.stack[-1]
                if parent != _ROOT and tracer.names[tracer.fids[parent]].startswith("series."):
                    return  # nested series call (big_t_series -> mu_series): counted once
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if "cutoff" in bound.arguments:
                    tracer.series_terms += bound.arguments["cutoff"] * _depth(name, bound.arguments)
                d = _digits(result)
                if d is not None:
                    tracer.series_digits.append(d)
        else:
            after = None

        if name == "integrate01":
            def wrapper(f, *args, **kwargs):
                f = tracer._timed_integrand(f)
                sid = tracer._open(fid)
                try:
                    result = fn(f, *args, **kwargs)
                finally:
                    tracer._close(sid)
                tracer.quad_levels.append(result.levels_used)
                return result
        else:
            def wrapper(*args, **kwargs):
                if layer == "hp":
                    tracer.hp_args.add((fid, args, tuple(sorted(kwargs.items()))))
                sid = tracer._open(fid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(sid)
                if after is not None:
                    after(args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _timed_integrand(self, f):
        quadrature = sys.modules["multizeta.quadrature"]
        integrand = f if isinstance(f, quadrature.Integrand) else quadrature.Integrand(f)
        key = integrand.name or "anonymous"
        fid = self._eval_ids.get(key)
        if fid is None:
            fid = self._eval_ids[key] = self._fid(f"quadrature.eval:{key}")
        ev = integrand.evaluator
        tracer = self

        def timed(x, xc):
            sid = tracer._open(fid)
            try:
                return ev(x, xc)
            finally:
                tracer._close(sid)

        return dataclasses.replace(integrand, evaluator=timed)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer and rebind the wrappers."""
        modules = {layer: importlib.import_module(f"multizeta.{layer}") for layer in LAYERS}
        package = sys.modules["multizeta"]
        replaced = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                replaced[id(fn)] = (fn, self._wrap(layer, fn))
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Totals keyed "name@bucket" -> [calls, self_s, incl_s], plus counters."""
        return {
            "totals": {f"{name}@{bucket}": tot for (name, bucket), tot in self.totals.items()},
            "hp_distinct": len(self.hp_args),
            "series_terms": self.series_terms,
            "series_digits": self.series_digits,
            "quad_levels": self.quad_levels,
        }
