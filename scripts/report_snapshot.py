#!/usr/bin/env python3
"""Write the CLI's output on a fixed command list, one file per command.

    python scripts/report_snapshot.py OUTDIR

Each command runs in-process through ``curvhom.cli.main`` with this tree's
``src/`` first on the import path.  OUTDIR/NNN.txt holds the argv, the exit
code, stdout and stderr.  ``diff -r`` between the snapshots of two trees
shows every report that a change alters.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from survey_families import SURVEY  # noqa: E402

from curvhom import cli  # noqa: E402


def _grid(axis_spec, points: int) -> str:
    coord, lo, hi = axis_spec
    return f"{'txy'[coord]}={lo:g}:{hi:g}:{points}"


def commands() -> list[list[str]]:
    out = []
    for family, profile, axis_spec in SURVEY:
        base = ["--family", family, "--function", profile]
        for order in (0, 1, 2, 4):
            for points in (9, 17):
                out.append(["classify", *base, "--order", str(order), "--grid", _grid(axis_spec, points)])
        grid = ["--order", "2", "--grid", _grid(axis_spec, 9)]
        for fmt in ("json", "csv"):
            out.append(["invariants", *base, *grid, "--format", fmt])
        for fmt in ("json", "text"):
            out.append(["verify", *base, *grid, "--format", fmt])
    edges = [
        ("f", "log(x)", "x=0:1:5"),
        ("f", "exp(x^2)", "x=0:30:3"),
        ("f", "0", "x=0:1:5"),
        ("h", "0", "t=0:1:5"),
        ("h", "t", "t=0:1:5"),
        ("h", "t^4", "t=0:1:5"),
        ("f", "(x*1e-300)^-2", "x=1:2:3"),
        ("f", "t", "x=0:1:3"),
        ("h", "x", "t=0:1:3"),
        ("f", "30 + x", "x=0:1:3"),
        ("f", "x - 20", "x=0:1:3"),
    ]
    for family, profile, grid in edges:
        base = ["--family", family, "--function", profile, "--grid", grid]
        out.append(["classify", *base])
        out.append(["invariants", *base])
        out.append(["invariants", *base, "--format", "csv"])
        out.append(["verify", *base, "--format", "text"])
    custom = ["--family", "custom", "--metric", "tt=log(x)", "--metric", "xy=1", "--grid", "x=0:1:3"]
    out += [[cmd, *custom] for cmd in ("classify", "invariants", "verify")]
    out.append(["verify", "--family", "h", "--function", "t^3", "--order", "3", "--grid", "t=1:2:3"])
    return out


def run(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(cli.main(argv))
        except Exception as err:  # recorded, so a snapshot covers every command
            code = f"uncaught {type(err).__name__}: {err}"
    return f"argv: {shlex.join(argv)}\nexit: {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: report_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    cmds = commands()
    for i, argv in enumerate(cmds):
        (outdir / f"{i:03d}.txt").write_text(run(argv), encoding="utf-8")
    print(f"{len(cmds)} commands written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
