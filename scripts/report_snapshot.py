#!/usr/bin/env python3
"""Write the CLI's output on a fixed command list, one file per command,
or compare two such snapshots.

    python scripts/report_snapshot.py OUTDIR
    python scripts/report_snapshot.py --compare A B
    python scripts/report_snapshot.py --help

An OUTDIR that starts with "-" is refused as a mistyped flag.

Each command runs in-process through ``curvhom.cli.main`` with this tree's
``src/`` first on the import path.  OUTDIR/NNN.txt holds the argv, the exit
code, stdout and stderr.  ``diff -r`` between the snapshots of two trees
shows every report that a change alters.

--compare exits 1 if the snapshots differ in anything but the value of a
printed real number: the file list, an argv or exit line, any text, key or
integer.  Otherwise it exits 0 and lists the files whose real numbers differ,
with the largest relative change among numbers of magnitude above 1e-6.
"""

from __future__ import annotations

import contextlib
import io
import re
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
    # custom metrics in two and in all three coordinates
    for tt in ("exp(2*x)", "exp(2*x)+y^2"):
        metric = ["--metric", f"tt={tt}", "--metric", "xy=1", "--metric", "yy=t^2"]
        out.append(["classify", "--family", "custom", *metric, "--grid", "x=0.5:1.5:3"])
    out.append(["verify", "--family", "h", "--function", "t^3", "--order", "3", "--grid", "t=1:2:3"])
    # high orders: classify at r = 6 on every survey profile, verify at orders 8 to 5, and the
    # f = x^2 point whose structural zeros exceed the absolute tolerance at orders 6 and 7
    for family, profile, axis_spec in SURVEY:
        out.append(["classify", "--family", family, "--function", profile, "--order", "6", "--grid", _grid(axis_spec, 3)])
    for order, profile, grid in [
        (8, "1/x", "x=0.5:1.5:1"),
        (7, "exp(x)", "x=0:1:1"),
        (6, "1/x", "x=0.5:1.5:2"),
        (5, "2.5615528128088303*log(x)", "x=0.3:1.5:2"),
        (7, "x^2", "x=0.990204:0.990204:1"),
    ]:
        out.append(["verify", "--family", "f", "--function", profile, "--order", str(order), "--grid", grid])
    # the three shapes of the box that covariant derivative slots run over: no direction
    # (a zero profile; the h closed forms stop at order 2), more directions than the
    # metric's coordinates, and all three
    for family, order, grid in (("f", 3, "x=0:1:5"), ("h", 2, "t=0:1:5")):
        base = ["--family", family, "--function", "0", "--order", str(order), "--grid", grid]
        out += [[cmd, *base] for cmd in ("verify", "classify", "invariants")]
    for metric, order in ((["tt=exp(2*x)", "xy=1"], 4), (["tt=exp(2*x)+y^2", "xy=1", "yy=t^2"], 3)):
        flags = [f for m in metric for f in ("--metric", m)]
        out.append(["classify", "--family", "custom", *flags, "--order", str(order), "--grid", "x=0.5:1.5:3"])
    # the high-order ops on grids pulled inward as perfbench's tower_highk draws them
    for profile, grid in (("exp(x)", "x=0.004538:0.993568:3"), ("2.5615528128088303*log(x)", "x=0.307404:1.482:3")):
        out.append(["classify", "--family", "f", "--function", profile, "--order", "6", "--grid", grid])
    out.append(["verify", "--family", "f", "--function", "1/x", "--order", "8", "--grid", "x=0.511046:1.48934:1"])
    # orders whose arrays exceed the budget: a config error before anything large is allocated
    for cmd, family, profile, grid in (
        ("classify", "f", "exp(x)", "x=0:1:2"), ("verify", "f", "1/x", "x=0.5:1:1"), ("classify", "h", "t^3", "t=1:2:2")
    ):
        out.append([cmd, "--family", family, "--function", profile, "--order", "40", "--grid", grid])
    # custom metrics that overflow: in g^{-1}, in the curvature, and inside an expression
    for metric, extra in (
        (["tt=1e-9/1e300", "xy=1"], []),
        (["tt=exp(x)*1e-200", "xy=1", "yy=1e150*t^2"], ["--order", "2"]),
        (["tt=cos(x*1e300*1e300)", "xy=1"], []),
    ):
        flags = [f for m in metric for f in ("--metric", m)]
        out.append(["classify", "--family", "custom", *flags, *extra, "--grid", "x=0.1:1:3"])
    # h''' vanishes at t = 0 only: the SCH points are a strict subset of the hypothesis points
    base = ["--family", "h", "--function", "t^4 + t^2", "--order", "4", "--grid", "t=-1:1:5"]
    out += [["classify", *base], ["invariants", *base, "--format", "csv"]]
    # a profile literal past the float range
    out += [[cmd, "--family", "f", "--function", "1e400", "--grid", "x=0:1:2"] for cmd in ("classify", "invariants")]
    # a format the command does not write
    base = ["--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3"]
    out += [[cmd, *base, "--format", fmt] for cmd, fmt in (("verify", "csv"), ("invariants", "text"), ("classify", "csv"))]
    # every function of the grammar, real, integer and negative powers, and quotients
    out += [
        ["invariants", "--family", "f", "--function", "sqrt(x)*sin(x) + cos(x)^2/x - abs(x - 2)^1.5 + x^(-3) + log(x)",
         "--order", "4", "--grid", "x=0.5:1.5:5"],
        ["verify", "--family", "f", "--function", "exp(-x)/(1 + x^2)", "--order", "6", "--grid", "x=0.5:1.5:3"],
        ["classify", "--family", "h", "--function", "t^2.5 - 2*sin(t)", "--order", "3", "--grid", "t=1:2:5"],
        ["verify", "--family", "h", "--function", "cos(t)*sqrt(t) - t^(-2)", "--order", "2", "--grid", "t=1:2:3",
         "--format", "text"],
    ]
    # an expression nested deeper than the parser descends
    out.append(["classify", "--family", "f", "--function", "(" * 300 + "x" + ")" * 300, "--grid", "x=0:1:3"])
    # settings the command does not read: a tolerance outside classify, a metric outside
    # the custom family, a function on the custom family
    base = ["--family", "f", "--function", "exp(x)"]
    out += [
        ["verify", *base, "--order", "2", "--grid", "x=0:1:3", "--tol", "1e-30", "--format", "text"],
        ["invariants", *base, "--grid", "x=0:1:3", "--tol", "5", "--format", "csv"],
        ["verify", *base, "--metric", "tt=1", "--grid", "x=0:1:3", "--format", "text"],
        ["classify", *base, "--grid", "x=0:1:3", "--metric", "tt=1"],
        ["classify", "--family", "custom", "--metric", "tt=1", "--metric", "xy=1", "--function", "x^2", "--grid", "x=0:1:3"],
    ]
    # function text that starts with a minus sign, passed in one argument
    out.append(["classify", "--family", "f", "--function=-x", "--grid", "x=0:1:3"])
    # a degenerate custom metric whose |det| is small but not zero
    out.append(["classify", "--family", "custom", "--metric", "tt=1", "--metric", "xx=1", "--metric", "xy=1",
                "--metric", "yy=1+x*1e-13", "--grid", "x=0.5:2:3"])
    # an exponent literal past the float range
    out += [[cmd, "--family", "f", "--function", "x^1e400", "--grid", "x=0.5:1:2"] for cmd in ("classify", "invariants", "verify")]
    # an unknown metric slot, a metric entry with no expression, an unknown and a repeated grid coordinate
    custom = ["classify", "--family", "custom"]
    base = ["classify", "--family", "f", "--function", "x"]
    out += [
        [*custom, "--metric", "zz=1", "--grid", "x=0:1:3"],
        [*custom, "--metric", "tt", "--grid", "x=0:1:3"],
        [*base, "--grid", "z=0:1:3"],
        [*base, "--grid", "x=0:1:3", "--grid", "x=0:1:2"],
    ]
    # a repeated metric slot, and a grid bound with more significant digits than %g prints
    out.append([*custom, "--metric", "tt=1", "--metric", "tt=exp(2*x)", "--metric", "xy=1", "--grid", "x=0.5:1.5:3"])
    out.append(["invariants", "--family", "f", "--function", "x^2", "--grid", "x=0.12345678:0.1234568:2"])
    # a single-valued setting given twice, and a report path that cannot be written
    out += [
        ["classify", "--family", "f", "--function", "x", "--function", "exp(x)", "--grid", "x=0:1:3"],
        ["verify", "--family", "f", "--function", "exp(x)", "--order", "2", "--order", "3", "--grid", "x=0:1:3",
         "--format", "text"],
        ["classify", "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3", "--output", "/dev/null/report.json"],
    ]
    # flat at order 0 only: nabla R does not vanish at the sample point, as f and as h spelled in custom slots
    out += [
        ["classify", "--family", "f", "--function", "x^3/3", "--order", "1", "--grid", "x=0:0:1"],
        ["classify", "--family", "custom", "--metric", "tt=1", "--metric", "xy=1", "--metric", "xx=-2*t^3",
         "--order", "1", "--grid", "t=0:0:1"],
    ]
    # verify on grids with one point that cannot be evaluated, and with no point that can
    base = ["verify", "--family", "f", "--function", "1/x", "--order", "2", "--grid", "x=0:1:3"]
    out += [[*base, "--format", fmt] for fmt in ("json", "text")]
    out.append(["verify", "--family", "f", "--function", "log(x)", "--grid", "x=-1:0:2"])
    # an empty report path
    out.append(["classify", "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3", "--output", ""])
    return out


def run(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(cli.main(argv))
        except Exception as err:  # recorded, so a snapshot covers every command
            code = f"uncaught {type(err).__name__}: {err}"
    return f"argv: {shlex.join(argv)}\nexit: {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"


# a printed real number: digits with a decimal point or an exponent, not
# part of a name such as order_2 or of a longer token
REAL = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])")
COMPARE_FLOOR = 1e-6  # relative changes are taken among numbers above this magnitude


def _split_reals(text: str) -> tuple[str, list[float]]:
    """The text with each real number replaced by a marker, and the numbers."""
    reals = [float(m) for m in REAL.findall(text)]
    return REAL.sub("#", text), reals


def compare(dir_a: Path, dir_b: Path) -> int:
    names = sorted(p.name for p in dir_a.glob("*.txt"))
    if not names or names != sorted(p.name for p in dir_b.glob("*.txt")):
        print(f"the snapshots hold different files, or none: {dir_a} and {dir_b}")
        return 1
    structural, numeric = [], []
    worst = (0.0, "", 0.0, 0.0)
    for name in names:
        text_a = (dir_a / name).read_text(encoding="utf-8")
        text_b = (dir_b / name).read_text(encoding="utf-8")
        head_a, head_b = text_a.split("--- stdout", 1)[0], text_b.split("--- stdout", 1)[0]
        (skel_a, reals_a), (skel_b, reals_b) = _split_reals(text_a), _split_reals(text_b)
        if head_a != head_b or skel_a != skel_b:
            structural.append(name)
            continue
        if text_a != text_b:  # only the numbers can differ here, -0.0 against 0.0 included
            numeric.append(name)
        for x, y in zip(reals_a, reals_b):
            size = max(abs(x), abs(y))
            if size > COMPARE_FLOOR and abs(x - y) / size > worst[0]:
                worst = (abs(x - y) / size, name, x, y)
    for name in structural:
        print(f"{name}: differs in more than numbers")
    print(f"{len(names)} files: {len(structural)} differ in more than numbers, {len(numeric)} in numbers only")
    if numeric:
        print("numbers only: " + " ".join(numeric))
        rel, name, x, y = worst
        print(f"largest relative change above {COMPARE_FLOOR:g}: {rel:.2e} in {name} ({x!r} -> {y!r})")
    return 1 if structural else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    if len(args) == 3 and args[0] == "--compare":
        return compare(Path(args[1]), Path(args[2]))
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: report_snapshot.py OUTDIR | --compare A B | --help", file=sys.stderr)
        return 2
    outdir = Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    cmds = commands()
    for i, argv in enumerate(cmds):
        (outdir / f"{i:03d}.txt").write_text(run(argv), encoding="utf-8")
    print(f"{len(cmds)} commands written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
