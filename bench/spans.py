"""Spans around the calls into each ``bszego`` module, from outside it.

``Tracer.install`` replaces every public function of the layer modules,
and the ``MomentSpace`` methods named in the per-layer metrics, by a
wrapper that records a span: name, parent span, start, end, the error
class it raised, and the calls' own counts (Gram entries, report
windows).  ``numpy.fft.fft2`` is wrapped as a counter of grid points.
Every reference to a wrapped function inside the package is replaced,
because modules import each other's names directly.  ``uninstall``
puts the originals back.

Spans are kept in memory; ``layer_metrics`` folds them into the
per-layer metrics of BENCHMARK.json.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("poly", "moments", "space", "splitshift", "reconstruct",
          "fullmeasure", "arfilter", "sos", "detrep", "jsonio", "cli")
SPACE_METHODS = ("__init__", "basis", "projected_span", "phi_sequence")
QUAD = ("moments.moments_from_density", "moments.moments_from_trig",
        "moments.moments_from_grid_function")
CERT = ("sos.certificate_closed_face", "sos.certificate_open_face")
PARSE = ("jsonio.poly_from_json", "jsonio.table_from_json",
         "jsonio.trig_from_json")
DUMP = ("jsonio.dumps", "jsonio.poly_to_json", "jsonio.table_to_json",
        "jsonio.trig_to_json")
RECONSTRUCT_ERRORS = ("DegenerateForm", "GcdUnstable", "MatrixConditionFails")

# per-layer metric -> unit; BENCHMARK.json lists the same names
METRICS = {
    "moments.quad_s": "s", "moments.quad_calls": "count",
    "moments.fft_points": "count", "moments.grid_max": "count",
    "moments.diverged": "count",
    "moments.gram_s": "s", "moments.gram_calls": "count",
    "moments.gram_entries": "count",
    "space.build_s": "s", "space.phi_s": "s", "space.basis_s": "s",
    "space.projected_span_s": "s",
    "splitshift.split_s": "s", "splitshift.operators_s": "s",
    "splitshift.condition_s": "s",
    "reconstruct.s": "s", "reconstruct.kernel_s": "s",
    "poly.gcd_s": "s", "poly.roots_s": "s",
    "reconstruct.failures": "count",
    **{f"reconstruct.fail.{e}": "count" for e in RECONSTRUCT_ERRORS},
    "reconstruct.fail.other": "count",
    "fullmeasure.s": "s", "fullmeasure.windows": "count",
    "arfilter.s": "s",
    "sos.cert_s": "s", "sos.verify_s": "s", "sos.verify_calls": "count",
    "detrep.s": "s", "detrep.geometry_s": "s",
    "jsonio.parse_s": "s", "jsonio.dump_s": "s", "cli.self_s": "s",
    "trace.overhead_ms": "ms",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "error", "count")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0          # time covered by direct children
        self.error = None
        self.count = 0            # work done, for spans that report one

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


def _gram_entries(args, kwargs, result):
    return result.shape[0] * result.shape[1]


def _report_windows(args, kwargs, result):
    return len(result.e2_conditions) + len(result.h_conditions)


COUNTS = {"moments.gram": _gram_entries,
          "fullmeasure.check_full_measure": _report_windows}


class Tracer:
    """Records spans while installed; one tracer per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.fft_points = 0
        self.grid_max = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(name, parent, time.perf_counter())
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(args, kwargs, result)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent.child += span.duration
                self.spans.append(span)

        return wrapper

    def _fft2(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            n = a.shape[-1]
            self.fft_points += a.shape[-2] * n
            self.grid_max = max(self.grid_max, n)
            return fn(a, *args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        import numpy as np
        mods = {name: importlib.import_module(f"bszego.{name}") for name in LAYERS}
        package = importlib.import_module("bszego")
        namespaces = list(mods.values()) + [package]
        replaced = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[obj] = self._wrap(f"{name}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(ns, attr, replaced[obj])
        space_cls = mods["space"].MomentSpace
        for meth in SPACE_METHODS:
            label = "build" if meth == "__init__" else meth
            self._set(space_cls, meth,
                      self._wrap(f"space.MomentSpace.{label}",
                                 vars(space_cls)[meth]))
        self._set(np.fft, "fft2", self._fft2(np.fft.fft2))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self):
        self.spans = []
        self.fft_points = 0
        self.grid_max = 0

    # -- folding -------------------------------------------------------------

    def layer_metrics(self, passes=1.0):
        """Per-layer metrics; totals divided by ``passes``."""
        by = {}
        for s in self.spans:
            by.setdefault(s.name, []).append(s)

        def outer(names):
            """Spans of the set not nested inside another span of the set."""
            out = []
            for n in names:
                for s in by.get(n, ()):
                    p = s.parent
                    while p is not None and p.name not in names:
                        p = p.parent
                    if p is None:
                        out.append(s)
            return out

        def total(names):
            return sum(s.duration for s in outer(names))

        def calls(names):
            return sum(len(by.get(n, ())) for n in names)

        def own(prefix):
            return sum(s.self_time for n, ss in by.items()
                       if n.startswith(prefix) for s in ss)

        quad = outer(QUAD)
        recon = by.get("reconstruct.reconstruct_p", [])
        errors = Counter(s.error for s in recon if s.error)
        grams = by.get("moments.gram", [])
        raw = {
            "moments.quad_s": total(QUAD),
            "moments.quad_calls": len(quad),
            "moments.fft_points": self.fft_points,
            "moments.diverged": sum(s.error == "MomentDivergence" for s in quad),
            "moments.gram_s": total(("moments.gram",)),
            "moments.gram_calls": len(grams),
            "moments.gram_entries": sum(s.count for s in grams),
            "space.build_s": total(("space.MomentSpace.build",)),
            "space.phi_s": total(("space.MomentSpace.phi_sequence",)),
            "space.basis_s": total(("space.MomentSpace.basis",)),
            "space.projected_span_s": total(("space.MomentSpace.projected_span",)),
            "splitshift.split_s": total(("splitshift.shift_split_from_p",)),
            "splitshift.operators_s": total(("splitshift.build_operators",)),
            "splitshift.condition_s": total(("splitshift.check_matrix_condition",)),
            "reconstruct.s": total(("reconstruct.reconstruct_p",)),
            "reconstruct.kernel_s": total(("reconstruct.kernel_poly",)),
            "poly.gcd_s": total(("poly.gcd_approx",)),
            "poly.roots_s": total(("poly.roots",)),
            "reconstruct.failures": sum(errors.values()),
            **{f"reconstruct.fail.{e}": errors.get(e, 0)
               for e in RECONSTRUCT_ERRORS},
            "reconstruct.fail.other": sum(v for e, v in errors.items()
                                          if e not in RECONSTRUCT_ERRORS),
            "fullmeasure.s": total(("fullmeasure.check_full_measure",)),
            "fullmeasure.windows": sum(
                s.count for s in by.get("fullmeasure.check_full_measure", ())),
            "arfilter.s": own("arfilter."),
            "sos.cert_s": total(CERT),
            "sos.verify_s": total(("sos.verify_certificate",)),
            "sos.verify_calls": calls(("sos.verify_certificate",)),
            "detrep.s": own("detrep."),
            "detrep.geometry_s": total(("detrep.check_gdv_geometry",)),
            "jsonio.parse_s": total(PARSE),
            "jsonio.dump_s": total(DUMP),
            "cli.self_s": own("cli."),
        }
        out = {k: v / passes for k, v in raw.items()}
        out["moments.grid_max"] = self.grid_max
        return out

    def span_summary(self):
        """name -> [calls, total s, self s], for the run record."""
        out = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += s.self_time
        return out
