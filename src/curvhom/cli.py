"""Command-line front end: the commands of ``_COMMANDS`` (verify, classify,
invariants) over a metric and a sample grid, each taking the settings of
``_SETTINGS``.

Grids are given per coordinate as ``--grid x=0:1:9`` (min:max:count);
unspecified coordinates are pinned to 0.  Every flag can also be supplied
from a ``key = value`` config file via ``--config``; explicit flags win, and
a second value of a setting other than ``--grid`` and ``--metric`` is a
configuration error.
Exit codes: 0 success, 1 verification failure, 2 configuration error, 3 no
sample point left.  In every command a point where the metric cannot be
evaluated is an exclusion, as is one where a nonvanishing hypothesis fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .classify import FAMILIES, UNEVALUATED, GridAxis, GridSpec, below_floor, classify, evaluate_points, family_samples
from .expr import COORDS, DomainError, ParseError, parse
from .geometry import CurvatureSequence, kulkarni_nomizu, nabla_schouten_sequence
from .tensor import AXES, TensorAtPoint

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3

REL_TOL = 1e-8   # relative tolerance on closed-form nonzero entries
ABS_TOL = 1e-10  # absolute tolerance on closed-form zero entries

_FAMILY_NAMES = f"{', '.join(FAMILIES)} or custom"
_METRIC_SLOTS = {"tt": (0, 0), "tx": (0, 1), "ty": (0, 2), "xx": (1, 1), "xy": (1, 2), "yy": (2, 2)}  # slot: (i, j)


class ConfigError(ValueError):
    pass


class Setting(NamedTuple):
    help: str  # {formats} reads the command's formats
    repeats: bool = False  # else a second value is a config error
    readers: tuple = ()  # the only commands or families that read it, if any: given to any other, a config error


_SETTINGS = {  # every setting, by flag and config-file key, in the order of RunConfig
    "family": Setting(_FAMILY_NAMES),
    "function": Setting("profile function text, e.g. 'exp(x)' or 't^3'", readers=tuple(f"--family {f}" for f in FAMILIES)),
    "order": Setting("highest derivative order r"),
    "grid": Setting("coord=min:max:count (repeatable)", repeats=True),
    "tol": Setting("relative constancy tolerance", readers=("classify",)),
    "output": Setting("write the report here instead of stdout"),
    "format": Setting("{formats}"),
    "metric": Setting("custom metric entry slot=expr (repeatable)", repeats=True, readers=("--family custom",)),
}


class RunConfig(NamedTuple):
    command: str
    family: str
    function: Optional[str]
    order: int
    grid: GridSpec
    tol: float
    output: Optional[str]
    format: str
    metric: dict[str, str]

    def summary(self) -> dict:
        return {
            "command": self.command,
            "family": self.family,
            "function": self.function,
            "order": self.order,
            "grid": _grid_summary(self.grid),
            "tol": self.tol,
            "format": self.format,
            **({"metric": self.metric} if self.metric else {}),
        }


def _grid_summary(grid: GridSpec) -> dict:
    return {c: f"{_bound(axis.lo)}:{_bound(axis.hi)}:{axis.count}" for c, axis in zip(COORDS, grid.axes) if axis is not None}


def _bound(value: float) -> str:
    """value as %g where that reads back to the same float, in full otherwise."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _parse_grid_arg(text: str) -> tuple[str, GridAxis]:
    try:
        coord, spec = text.split("=", 1)
        lo, hi, count = spec.split(":")
        coord = coord.strip()
        axis = GridAxis(float(lo), float(hi), int(count))
    except ValueError:
        raise ConfigError(f"bad grid spec {text!r}; expected coord=min:max:count") from None
    if coord not in COORDS:
        raise ConfigError(f"unknown grid coordinate {coord!r}; expected one of {COORDS}")
    if axis.count < 1:
        raise ConfigError(f"grid count must be >= 1 in {text!r}")
    if not math.isfinite(axis.hi - axis.lo):  # else np.linspace makes inf and nan points, which no guard flags
        raise ConfigError(f"grid bounds must be finite, and so must their difference, in {text!r}")
    return coord, axis


def _read_config_file(path: str) -> dict[str, list[str]]:
    values: dict[str, list[str]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values.setdefault(key.strip(), []).append(value.strip())
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    if len(args.config or ()) > 1:
        raise ConfigError("duplicate setting 'config'")
    file_values = _read_config_file(args.config[0]) if args.config else {}
    unknown = set(file_values) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    given = {}  # each given setting's values, from the flags or else from the config file: a list if it repeats
    for name, setting in _SETTINGS.items():
        if values := getattr(args, name) or file_values.get(name):
            if len(values) > 1 and not setting.repeats:
                raise ConfigError(f"duplicate setting {name!r}")
            given[name] = values if setting.repeats else values[0]

    family = given.get("family")
    if family is None:
        raise ConfigError(f"missing --family ({_FAMILY_NAMES})")
    if family not in (*FAMILIES, "custom"):
        raise ConfigError(f"unknown family {family!r}")

    function = given.get("function")
    if family in FAMILIES and function is None:
        raise ConfigError("missing --function for a profile family")

    axes: dict[str, GridAxis] = {}
    for spec in given.get("grid", ()):
        coord, axis = _parse_grid_arg(spec)
        if coord in axes:
            raise ConfigError(f"duplicate grid coordinate {coord!r}")
        axes[coord] = axis
    if not axes:
        raise ConfigError("missing --grid (at least one coordinate range)")
    grid = GridSpec(tuple(axes.get(c) for c in COORDS))

    metric: dict[str, str] = {}
    for item in given.get("metric", ()):
        if "=" not in item:
            raise ConfigError(f"bad metric entry {item!r}; expected slot=expression")
        slot, text = item.split("=", 1)
        slot = slot.strip()
        if slot not in _METRIC_SLOTS:
            raise ConfigError(f"unknown metric slot {slot!r}; expected one of {tuple(_METRIC_SLOTS)}")
        if slot in metric:
            raise ConfigError(f"duplicate metric slot {slot!r}")
        metric[slot] = text.strip()
    if family == "custom" and not metric:
        raise ConfigError("custom family needs --metric entries")

    try:
        order = int(given.get("order", "2"))
        tol = float(given.get("tol", "1e-6"))
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if order < 0:
        raise ConfigError("order must be nonnegative")
    if not 0 < tol < math.inf:
        raise ConfigError("tol must be positive and finite")

    for name, setting in _SETTINGS.items():
        readers = setting.readers
        if name in given and readers and not {args.command, f"--family {family}"} & set(readers):
            raise ConfigError(f"{name} is read by {' and '.join(readers)} only, not by {args.command} --family {family}")
    if given.get("output") == "":
        raise ConfigError("output must name a file; leave it out to write to stdout")
    formats = _COMMANDS[args.command].formats
    fmt = given.get("format", formats[0])
    if fmt not in formats:
        raise ConfigError(f"{args.command} writes no format {fmt!r}; expected {' or '.join(formats)}")
    return RunConfig(args.command, family, function, order, grid, tol, given.get("output"), fmt, metric)


def _build_metric(config: RunConfig):
    if config.family in FAMILIES:
        return FAMILIES[config.family].metric(parse(config.function))
    from .families import custom_metric

    zero = parse("0")
    matrix = [[zero] * 3 for _ in range(3)]
    for slot, text in config.metric.items():
        i, j = _METRIC_SLOTS[slot]
        matrix[i][j] = parse(text)  # from_matrix mirrors the upper triangle
    return custom_metric(matrix)


def _emit(text: str, output: Optional[str]):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write report to {output!r}: {err.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(config: RunConfig, body: dict):
    """Every JSON report: the run's settings first, then the command's fields, then the tool version."""
    _emit(json.dumps({"config": config.summary(), **body, "tool_version": __version__}, indent=2) + "\n", config.output)


# ---------------------------------------------------------------------------
# verify


def _nonzeros(oracle: CurvatureSequence, npts: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The oracle's nonzero entries over npts points, which its entries
    broadcast to: their (point, ijkl, column) indices in C order, and values."""
    entries = np.broadcast_to(oracle.entries, (npts,) + oracle.entries.shape[1:])
    at = np.unravel_index(np.flatnonzero(entries != 0.0), entries.shape)  # a bool scan is fast
    return at, entries[at]


def _compare(engine: CurvatureSequence, expect, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per order: (max relative deviation on oracle-nonzero entries,
    max absolute deviation on oracle-zero entries) of engine / scale
    against oracle / scale, where scale > 0 holds one number per point and
    expect holds the oracle's nonzero entries (_nonzeros), on the engine's
    columns.  One pass over every order: only the oracle-nonzero entries
    are divided; on the zeros, each point's and column's largest |engine|
    is divided once, which gives the same maximum since dividing by a
    positive number keeps the order.  That max is read with the engine's
    oracle-nonzero entries set to 0, then restored."""
    rows, (at, values) = engine.entries, expect
    s = scale[at[0]]
    o = values / s
    kept = rows[at]
    rel = np.zeros(len(engine))
    np.maximum.at(rel, engine.owner[at[2]], np.abs((kept / s - o) / o))
    rows[at] = 0.0
    outer = np.ascontiguousarray(rows.transpose(1, 0, 2))  # [ijkl, pt, column]: numpy reduces an outer axis fastest
    on_zeros = np.abs(np.maximum(outer.max(axis=0), -outer.min(axis=0)))  # max |engine| per point and column, never -0.0
    rows[at] = kept
    absdev = np.zeros((len(engine), len(scale)))
    np.maximum.at(absdev, engine.owner, (on_zeros / scale[:, None]).T)
    return rel, absdev.max(axis=1)


def _verify_orders(metric, spec, order: int, points) -> list[tuple[float, float, bool]]:
    """Per order, the two deviations of _compare between the engine and the closed forms at the points, and
    whether both are within tolerance."""
    g0, schouten = nabla_schouten_sequence(metric, points, order)
    # measure each point's deviations in units of its largest |g_ij|: the
    # (0, 4+k) curvature of the metric rescaled to unit size
    gscale = np.maximum(1.0, np.abs(g0.components).max(axis=(1, 2)))
    # compare on the oracle's box: the engine's, widened where a closed form may put an entry (rel dev 1 there)
    dirs = schouten[-1].supports[-1] if order else ()
    closed = spec.oracle(metric.family.function, points, order, dirs)
    boxes = [(AXES, AXES) + tail for tail in closed.tails]
    expect = _nonzeros(closed, len(points))
    del closed  # mostly zeros: dropped before the engine's expansion, so the two are never held at once
    engine = kulkarni_nomizu(g0, [TensorAtPoint(p.rank, p.embed(box), box) for p, box in zip(schouten, boxes, strict=True)])
    rel, absdev = _compare(engine, expect, gscale)
    return [(r, a, r <= REL_TOL and a <= ABS_TOL) for r, a in zip(rel.tolist(), absdev.tolist())]


def cmd_verify(config: RunConfig) -> int:
    if config.family not in FAMILIES:
        raise ConfigError("verify needs a built-in family with a closed-form oracle")
    spec = FAMILIES[config.family]
    top = spec.oracle_max_order
    if top is not None and config.order > top:
        raise ConfigError(f"the {config.family}-family closed forms stop at order {top}; rerun with --order <= {top}")
    metric = _build_metric(config)
    points = config.grid.points()
    good, orders, failed = evaluate_points(lambda p: _verify_orders(metric, spec, config.order, p), points)
    orders, exclusions = orders or [], list(failed.values())  # orders is None if no point is good
    result = UNEVALUATED if not good else "pass" if all(passed for *_, passed in orders) else "FAIL"
    if config.format == "json":
        verdicts = [{"name": f"order_{k}", "status": "pass" if passed else "fail", "max_relative_deviation": rel,
                     "max_absolute_deviation_on_zeros": absdev} for k, (rel, absdev, passed) in enumerate(orders)]
        _emit_json(config, {"verdicts": verdicts, "invariants": [], "exclusions": [e.summary() for e in exclusions]})
    else:
        lines = [f"verify family={config.family} function={config.function!r} points={len(points)}"]
        lines += [f"  excluded {e.point}: {e.reason}" for e in exclusions]
        lines += [f"  order {k}: max rel dev {rel:.3e}  max abs dev on zeros {absdev:.3e}  [{'pass' if passed else 'FAIL'}]"
                  for k, (rel, absdev, passed) in enumerate(orders)]
        _emit("\n".join(lines + [f"result: {result}"]) + "\n", config.output)
    return EXIT_HYPOTHESIS if not good else EXIT_OK if result == "pass" else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# classify


def cmd_classify(config: RunConfig) -> int:
    report = classify(_build_metric(config), config.order, config.grid.points(), config.tol)
    _emit_json(config, report.to_dict())
    all_hyp = all(v.status == "hypothesis-violated" for v in report.verdicts)
    return EXIT_HYPOTHESIS if all_hyp and not report.degenerate else EXIT_OK


# ---------------------------------------------------------------------------
# invariants


def _invariant_columns(metric, derivs: dict[str, int], points) -> dict:
    """Every invariants column on all points at once; None where a
    nonvanishing hypothesis fails, and "below_floor" names the quantity."""
    spec = FAMILIES[metric.family.family]
    n = len(points)
    s = family_samples(metric, spec.min_order, points)
    d = spec.derivatives(metric.family.function, points, max(derivs.values()))
    cols = {name: d[k].tolist() for name, k in derivs.items()}
    cols.update((c, s.column(c, range(n), n)) for c in spec.columns)
    cols["below_floor"] = [
        None if sch else (spec.sch_hypothesis, sch_hyp) if ok else (spec.hypothesis, hyp)
        for ok, sch, hyp, sch_hyp in zip(s.ok, s.sch, s.hyp, s.sch_hyp)
    ]
    return cols


def _invariant_rows(config: RunConfig) -> tuple[list[str], list[dict]]:
    spec = FAMILIES[config.family]
    points = config.grid.points()
    derivs = spec.derivative_columns(config.order)
    header = [*COORDS, *derivs, *spec.columns, "excluded"]
    metric = _build_metric(config)
    good, cols, failed = evaluate_points(lambda p: _invariant_columns(metric, derivs, p), points)
    rows = [dict(zip(COORDS, p)) for p in points]
    for i, exclusion in failed.items():
        rows[i].update({c: None for c in header[len(COORDS):-1]}, excluded=exclusion.reason)
    for j, i in enumerate(good):
        rows[i].update({c: cols[c][j] for c in header[len(COORDS):-1]})
        low = cols["below_floor"][j]
        rows[i]["excluded"] = below_floor(*low, points[i]) if low else ""
    return header, rows


def cmd_invariants(config: RunConfig) -> int:
    if config.family not in FAMILIES:
        raise ConfigError("invariants are defined for the built-in families only")
    header, rows = _invariant_rows(config)
    all_excluded = all(all(r[c] is None for c in FAMILIES[config.family].columns) for r in rows)
    if config.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in header})
        _emit(buf.getvalue(), config.output)
    else:
        _emit_json(config, {
            "verdicts": [],
            "invariants": [{k: row[k] for k in header} for row in rows],
            "exclusions": [
                {"point": [row[c] for c in COORDS], "reason": row["excluded"]}
                for row in rows
                if row["excluded"]
            ],
        })
    return EXIT_HYPOTHESIS if all_excluded else EXIT_OK


# ---------------------------------------------------------------------------


class Command(NamedTuple):
    help: str
    formats: tuple  # what the command writes; the first is the default
    run: Callable[[RunConfig], int]


_COMMANDS = {
    "verify": Command("check the curvature engine against the family closed forms", ("json", "text"), cmd_verify),
    "classify": Command("emit a JSON homogeneity report over a sample grid", ("json",), cmd_classify),
    "invariants": Command("tabulate invariant values per grid point", ("json", "csv"), cmd_invariants),
}


@functools.cache  # parsing leaves the parser as it was, so one serves every main() call
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvhom",
        description="curvature derivatives and homogeneity classification for metrics on R^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for setting, spec in _SETTINGS.items():
            p.add_argument(f"--{setting}", action="append", help=spec.help.format(formats=" or ".join(command.formats)))
        p.add_argument("--config", action="append", help="flat key = value file mirroring the flags")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = _build_config(args)
        return _COMMANDS[config.command].run(config)
    except ParseError as err:
        print(f"config error: cannot parse function: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as err:
        print(f"config error: numeric overflow evaluating the function: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
