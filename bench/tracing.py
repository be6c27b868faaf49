"""Spans around the library's layer boundaries, recorded from outside `src/`.

`Tracer.install` replaces chosen public functions of cubiconics by wrappers
that record a span (name, start, end, parent) in memory.  A layer's time is
its self time: each span's duration minus the durations of its direct
children.  Nothing in cubiconics is edited; the wrappers are removed on exit.

Peak memory of `enumerate_projective` comes from tracemalloc, which slows
allocation-heavy code several times over.  So it is not measured in the
timed passes: `measure_memory` re-runs, untimed, each operation that called
it, with tracemalloc on around each call.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "multipoly.substitute": ("cubiconics.multipoly", "MultiPoly.substitute"),
    "exactarith.ff_factor_linear": ("cubiconics.exactarith", "ff_factor_linear"),
    "cayley.cycle_resultant_biform": ("cubiconics.cayley", "cycle_resultant_biform"),
    "cayley.rewrite_biform_to_plucker": ("cubiconics.cayley", "rewrite_biform_to_plucker"),
    "cubic_conics.find_lines": ("cubiconics.cubic_conics", "find_lines"),
    "cubic_conics.line_in_forms": ("cubiconics.cubic_conics", "line_in_forms"),
    "cubic_conics.absolutely_irreducible": ("cubiconics.cubic_conics",
                                            "absolutely_irreducible_cubic_mod_p"),
    "cubic_conics.conic_family": ("cubiconics.cubic_conics", "conic_family"),
    "cubic_conics.conic_census": ("cubiconics.cubic_conics", "conic_census"),
    "pointcount.enumerate_projective": ("cubiconics.pointcount", "enumerate_projective"),
    "pointcount.enumerate_affine": ("cubiconics.pointcount", "enumerate_affine"),
    "pointcount.points_on_lines": ("cubiconics.pointcount", "points_on_lines"),
    "detmethod.minimal_omega": ("cubiconics.detmethod", "minimal_omega"),
    "detmethod.exact_kernel": ("cubiconics.detmethod", "exact_kernel"),
    "detmethod.evaluation_matrix": ("cubiconics.detmethod", "evaluation_matrix"),
}

# (metric, unit) in the order the traced run prints them
PER_LAYER = (
    ("multipoly.substitute_calls", "count"),
    ("multipoly.substitute_s", "s"),
    ("exactarith.ff_factor_linear_calls", "count"),
    ("exactarith.ff_factor_linear_s", "s"),
    ("cayley.cycle_resultant_biform_s", "s"),
    ("cayley.rewrite_biform_to_plucker_s", "s"),
    ("cubic_conics.find_lines_s", "s"),
    ("cubic_conics.line_in_forms_calls", "count"),
    ("cubic_conics.line_hit_ratio", "lines/call"),
    ("cubic_conics.absolutely_irreducible_s", "s"),
    ("cubic_conics.conic_family_s", "s"),
    ("cubic_conics.conic_census_s", "s"),
    ("pointcount.enumerate_projective_s", "s"),
    ("pointcount.enumerate_projective_points_per_s", "points/s"),
    ("pointcount.enumerate_projective_peak_mb", "MB"),
    ("pointcount.enumerate_affine_s", "s"),
    ("pointcount.points_on_lines_s", "s"),
    ("detmethod.minimal_omega_s", "s"),
    ("detmethod.exact_kernel_calls", "count"),
    ("detmethod.exact_kernel_s", "s"),
    ("detmethod.evaluation_matrix_s", "s"),
    ("detmethod.degrees_scanned", "count"),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.stack = []
        self.enabled = False
        self.installed = False
        self.memory = False
        self.memory_ops = set()   # operations that called enumerate_projective
        self.lines_found = 0
        self.points_enumerated = 0
        self.degrees_scanned = 0
        self.peak_bytes = 0
        self._restore = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self
        enumerator = name == "pointcount.enumerate_projective"

        def wrapper(*args, **kwargs):
            if enumerator and tracer.memory:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.peak_bytes = max(tracer.peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if enumerator and tracer.stack:
                tracer.memory_ops.add(tracer.spans[tracer.stack[0]][0])
            tracer._observe(name, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, out):
        if name == "cubic_conics.find_lines":
            self.lines_found += len(out)
        elif name == "pointcount.enumerate_projective":
            self.points_enumerated += out.count
        elif name == "detmethod.minimal_omega":
            self.degrees_scanned += len(out["scan"])

    def install(self):
        """Wrap every target, in its defining module or class and wherever a
        cubiconics module imported it by name."""
        for name, (modname, attr) in TARGETS.items():
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
            self.installed = True
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("cubiconics") and mod is not owner:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def measure_memory(self, ops) -> None:
        """Re-run, untimed and without spans, every operation that called
        enumerate_projective, with tracemalloc on around each call."""
        self.enabled, self.memory = False, True
        try:
            for op in ops:
                if op.name in self.memory_ops:
                    try:
                        op.run()
                    except Exception:  # already recorded by the timed passes
                        pass
        finally:
            self.memory = False

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self.installed = False

    def self_times(self):
        """{span name: (calls, self seconds)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), c in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += end - start - c
        return out

    def per_layer(self, passes: int) -> dict:
        """Every per-layer metric, per pass."""
        st = self.self_times()

        def calls(n):
            return st[n][0] / passes if n in st else 0

        def secs(n):
            return st[n][1] / passes if n in st else 0.0

        line_calls = calls("cubic_conics.line_in_forms")
        enum_s = secs("pointcount.enumerate_projective")
        values = {
            "multipoly.substitute_calls": calls("multipoly.substitute"),
            "multipoly.substitute_s": secs("multipoly.substitute"),
            "exactarith.ff_factor_linear_calls": calls("exactarith.ff_factor_linear"),
            "exactarith.ff_factor_linear_s": secs("exactarith.ff_factor_linear"),
            "cayley.cycle_resultant_biform_s": secs("cayley.cycle_resultant_biform"),
            "cayley.rewrite_biform_to_plucker_s": secs("cayley.rewrite_biform_to_plucker"),
            "cubic_conics.find_lines_s": secs("cubic_conics.find_lines"),
            "cubic_conics.line_in_forms_calls": line_calls,
            "cubic_conics.line_hit_ratio":
                self.lines_found / passes / line_calls if line_calls else 0.0,
            "cubic_conics.absolutely_irreducible_s": secs("cubic_conics.absolutely_irreducible"),
            "cubic_conics.conic_family_s": secs("cubic_conics.conic_family"),
            "cubic_conics.conic_census_s": secs("cubic_conics.conic_census"),
            "pointcount.enumerate_projective_s": enum_s,
            "pointcount.enumerate_projective_points_per_s":
                self.points_enumerated / passes / enum_s if enum_s else 0.0,
            "pointcount.enumerate_projective_peak_mb": self.peak_bytes / 2 ** 20,
            "pointcount.enumerate_affine_s": secs("pointcount.enumerate_affine"),
            "pointcount.points_on_lines_s": secs("pointcount.points_on_lines"),
            "detmethod.minimal_omega_s": secs("detmethod.minimal_omega"),
            "detmethod.exact_kernel_calls": calls("detmethod.exact_kernel"),
            "detmethod.exact_kernel_s": secs("detmethod.exact_kernel"),
            "detmethod.evaluation_matrix_s": secs("detmethod.evaluation_matrix"),
            "detmethod.degrees_scanned": self.degrees_scanned / passes,
        }
        return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
