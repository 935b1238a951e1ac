#!/usr/bin/env python3
"""Survey the built-in metric families over sample grids.

Classifies a handful of profile functions and prints a compact verdict
table per metric, with the order-1 invariant range as inhomogeneity
evidence.  Good smoke test after changes:

    python scripts/survey_families.py
    python scripts/survey_families.py --order 4 --points 17
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from curvhom import GridAxis, GridSpec, SampleSet, classify, parse  # noqa: E402
from curvhom.classify import FAMILIES, SPREAD_FLOOR  # noqa: E402

SURVEY = [
    # family, profile, grid axis (coordinate index, lo, hi)
    ("f", "x", (1, 0.1, 1.0)),
    ("f", "x^2", (1, 0.1, 1.0)),
    ("f", "exp(x)", (1, 0.0, 1.0)),
    ("f", "2.5615528128088303*log(x)", (1, 0.3, 1.5)),  # delta = 4/x^2
    ("h", "t^2", (0, 0.0, 1.0)),
    ("h", "t^3", (0, 1.0, 2.0)),
    ("h", "exp(t)", (0, 0.0, 1.0)),
    ("h", "t^5", (0, 1.0, 2.0)),
]


def run_one(family: str, profile: str, axis_spec, order: int, points: int):
    coord, lo, hi = axis_spec
    axes = [None, None, None]
    axes[coord] = GridAxis(lo, hi, points)
    samples = SampleSet.from_grid(GridSpec(tuple(axes)))
    return classify(FAMILIES[family].metric(parse(profile)), order, samples)


def _shown(v: float) -> float:
    """v, or 0 below the floor under which classify reads a series as constant:
    the round-off of an exactly-zero invariant prints the same on every run."""
    return 0.0 if abs(v) < SPREAD_FLOOR else v


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=2, help="highest derivative order")
    ap.add_argument("--points", type=int, default=9, help="grid points per run")
    args = ap.parse_args()

    names = ["CH_0"] + [f"CH_{k}(1,3)" for k in range(args.order + 1)]
    names += [f"SCH_{k}(1,3)" for k in range(args.order + 1)]
    mark = {"pass": "+", "fail": "-", "hypothesis-violated": "?"}

    print(f"{'metric':28s}" + "".join(f"{n:>12s}" for n in names) + f"{'xi range':>22s}")
    for family, profile, axis_spec in SURVEY:
        report = run_one(family, profile, axis_spec, args.order, args.points)
        cells = "".join(f"{mark[report.verdict(n).status]:>12s}" for n in names)
        try:
            xi = report.series("xi")
            lo = min(v for v in xi.values if v is not None)
            hi = max(v for v in xi.values if v is not None)
            xi_txt = f"[{_shown(lo):.3g}, {_shown(hi):.3g}]"
        except (KeyError, ValueError):
            xi_txt = "-"
        print(f"g_{family}[{profile}]".ljust(28) + cells + f"{xi_txt:>22s}")
        for note in report.notes:
            print(f"    note: {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
