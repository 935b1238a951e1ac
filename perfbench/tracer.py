"""Spans and call counters around curvhom's public functions, from outside.

The tracer replaces every binding of a wrapped function in every loaded
``curvhom`` module, because modules import names directly (``classify`` and
``cli`` each hold their own ``nabla_riemann_sequence``).  ``uninstall``
restores the originals, so untraced work runs the unmodified program.

Spans record (name, start, end, parent index) in memory while an op runs;
``fold`` turns them into per-name self time (duration minus the time the
span's direct children cover), inclusive time and call counts, then drops
them so memory stays bounded over a long run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function, span name).  Several functions may share a span name;
# their times are then summed under it.
SPANNED = (
    ("expr", "parse", "expr.parse"),
    ("expr", "eval_jet", "expr.eval_jet"),
    ("geometry", "christoffel", "geometry.christoffel"),
    ("geometry", "nabla_riemann_sequence", "geometry.sequence"),
    ("tensor", "pullback", "tensor.pullback"),
    ("models", "adapted_frame_f", "models.frame"),
    ("models", "adapted_frame_h", "models.frame"),
    ("models", "scaling_lambda_h", "models.frame"),
    ("families", "family_f_metric", "families.profile"),
    ("families", "family_h_metric", "families.profile"),
    ("families", "custom_metric", "families.profile"),
    ("families", "delta_jet", "families.profile"),
    ("families", "delta_derivatives", "families.profile"),
    ("families", "profile_derivatives", "families.profile"),
    ("families", "family_f_oracle", "families.oracle"),
    ("families", "family_h_oracle", "families.oracle"),
    ("classify", "classify", "classify.verdicts"),
    ("classify", "f_first_invariant", "classify.invariant_fns"),
    ("classify", "f_scale_ratio", "classify.invariant_fns"),
    ("classify", "h_first_invariant", "classify.invariant_fns"),
    ("classify", "h_second_ratios", "classify.invariant_fns"),
    ("cli", "main", "cli.main"),
)

# Hot leaf functions: counted only, a span each would dominate the run.
COUNTED = (
    ("jets", "jet_mul", "jets.mul"),
    ("jets", "jet_div", "jets.div"),
    ("jets", "jet_compose_univariate", "jets.compose"),
)


def _sequence_name(args, kwargs) -> str:
    """The sequence span is named by its kmax argument."""
    kmax = args[2] if len(args) > 2 else kwargs["kmax"]
    return f"geometry.sequence.k{kmax}"


class Totals:
    """Per-name self time, inclusive time and calls, summed over ops."""

    KINDS = ("self_s", "inclusive_s", "calls")

    def __init__(self, data: dict | None = None):
        for kind in self.KINDS:
            setattr(self, kind, defaultdict(float, (data or {}).get(kind, {})))

    def add(self, other: "Totals"):
        for kind in self.KINDS:
            mine = getattr(self, kind)
            for key, value in getattr(other, kind).items():
                mine[key] += value

    def to_dict(self) -> dict:
        return {kind: dict(getattr(self, kind)) for kind in self.KINDS}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        namer = _sequence_name if name == "geometry.sequence" else None

        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "curvhom" or key.startswith("curvhom.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module, func, name in table:
                original = getattr(sys.modules[f"curvhom.{module}"], func)
                wrapper = make(original, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def fold(self) -> Totals:
        """Self/inclusive time and calls of the spans recorded so far, plus
        the counters; clears both."""
        out = Totals()
        spans = self.spans
        for label, start, end, parent in spans:
            dur = end - start
            out.self_s[label] += dur
            out.inclusive_s[label] += dur
            out.calls[label] += 1
            if parent >= 0:
                out.self_s[spans[parent][0]] -= dur
        for name, n in self.counts.items():
            out.calls[name] += n
        spans.clear()
        self.counts.clear()
        return out
