"""Outside-in tracing of the analyze path.

The tracer replaces public functions of the package by wrappers that
record a span (name, start, end, parent) per call and counts read from
the return value. Nothing is added to the package: crystal.py binds its
callees at import, so each wrapper goes on the name in the module that
calls it. Spans stay in memory until the op ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _diff_counts(c, args, kwargs, out):
    S = kwargs["S"] if "S" in kwargs else args[0]
    c["pairs"] += (int(out.counts.sum()) - len(S)) // 2
    c["vectors"] += len(out.vectors)


def _recover_counts(c, args, kwargs, out):
    diag = out.diagnostics
    for key in ("n_candidates", "n_periods", "ladder_steps"):
        c[key] += int(diag.get(key, 0))


def _accepted(c, args, kwargs, out):
    c["accepted"] += type(out).__name__ == "AlmostPeriodCertificate"


def _snapped(c, args, kwargs, out):
    c["ok"] += 1


def _candidates(c, args, kwargs, out):
    c["out"] += len(out)


def _checked(c, args, kwargs, out):
    c["checked_in"] += out.checked_in
    c["checked_out"] += out.checked_out


def _rendered(c, args, kwargs, out):
    c["bytes"] += len(out.encode())


#: (module the name is looked up in, function, layer name, count hook).
TARGETS = (
    ("crystal", "denseness_radius", "geometry.denseness_radius", None),
    ("crystal", "finite_type_gap", "geometry.finite_type_gap", None),
    ("crystal", "difference_vectors", "geometry.difference_vectors",
     _diff_counts),
    ("geometry", "difference_vectors", "geometry.difference_vectors",
     _diff_counts),
    ("almost_period", "difference_vectors", "geometry.difference_vectors",
     _diff_counts),
    ("crystal", "candidate_almost_periods",
     "almost_period.candidate_almost_periods", _candidates),
    ("crystal", "is_almost_period", "almost_period.is_almost_period",
     _accepted),
    ("crystal", "snap_to_period", "almost_period.snap_to_period", _snapped),
    ("almost_period", "verify_exact_period",
     "almost_period.verify_exact_period", None),
    ("crystal", "refine_lattice", "crystal.refine_lattice", None),
    ("crystal", "residues", "crystal.residues", None),
    ("crystal", "verify_decomposition", "crystal.verify_decomposition",
     _checked),
    ("crystal", "window_restrict", "pointset.window_restrict", None),
    ("pointset", "load_points", "pointset.load_points", None),
    ("crystal", "recover_crystal", "crystal.recover_crystal",
     _recover_counts),
    ("report", "build_report", "report.build_report", None),
    ("report", "render_json", "report.render_json", _rendered),
)

#: Exceptions counted by type on the way out (then re-raised).
RAISED = {
    "almost_period.snap_to_period": {
        "NoSnapTarget": "no_target",
        "AmbiguousSnap": "ambiguous",
        "NotExactPeriod": "not_exact",
    },
}


class Tracer:
    """Spans and per-layer counts of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counts: dict[str, defaultdict] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, layer: str, fn, count=None):
        if layer not in self.counts:
            self.counts[layer] = defaultdict(int)
            self.names.append(layer)
        name_idx = self.names.index(layer)
        counts = self.counts[layer]
        raised = RAISED.get(layer, {})
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_idx, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                key = raised.get(type(e).__name__)
                if key:
                    counts[key] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; a target the package no longer has raises
        AttributeError, so a renamed layer fails the traced op instead of
        reading as zero calls."""
        for mod_name, attr, layer, count in TARGETS:
            mod = importlib.import_module(f"idealcrystal.{mod_name}")
            fn = getattr(mod, attr)
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(layer, fn, count))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """{layer: {"calls", "self_s", <counts>}} over the recorded spans.

        A span's self time is its duration minus the durations of its
        direct children (children nest inside their parent's interval).
        """
        out = {layer: {"calls": 0, "self_s": 0.0, **self.counts[layer]}
               for layer in self.names}
        child = [0.0] * len(self.spans)
        for name_idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name_idx, start, end, parent) in enumerate(self.spans):
            rec = out[self.names[name_idx]]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}
