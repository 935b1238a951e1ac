"""Operations of each workload and the checks their outputs must pass.

An op is one CLI command.  A workload is a cycle: a fixed multiset of ops
that the timed loop runs in a fresh seeded order each round, so every op
kind is spread over the whole run, and per-op counts repeat exactly however
many cycles fit in the window.  The seed sets the order and a small jitter
of each grid; the program only ever sees the generated arguments.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

REL_TOL = 1e-8   # pinned verify tolerance on nonzero closed-form entries
ABS_TOL = 1e-10  # pinned verify tolerance on structural zeros
EXIT_OK, EXIT_CONFIG, EXIT_HYPOTHESIS = 0, 2, 3

LOG_C = 2.5615528128088303  # f = c log x has delta = (c^2 - c) / x^2 = 4 / x^2


@dataclass(frozen=True)
class Profile:
    family: str
    text: str
    lo: float
    hi: float
    xi: Callable[[float], float]  # closed-form first invariant at the coordinate
    sch_fail_from: Optional[int]  # first order whose SCH verdict fails; None: all pass


def _f_xi(ddelta):
    return lambda x: ddelta(x) ** 2          # xi = (delta')^2


def _h_xi(h2, h3):
    return lambda t: (h3(t) / h2(t)) ** 2    # xi = (h''' / h'')^2


# The survey panel.  Expected SCH statuses are the panel's verdicts on these
# ranges at r = 2, and at r = 6 for the two profiles tower_highk classifies
# there (exp(x) and log); every CH verdict passes.
PANEL = {
    "f:x^2": Profile("f", "x^2", 0.1, 1.0, _f_xi(lambda x: 8 * x), 1),
    "f:exp(x)": Profile("f", "exp(x)", 0.0, 1.0, _f_xi(lambda x: math.exp(x) + 2 * math.exp(2 * x)), 1),
    "f:log": Profile(
        "f", f"{LOG_C!r}*log(x)", 0.3, 1.5, _f_xi(lambda x: -2 * (LOG_C**2 - LOG_C) / x**3), None
    ),
    "h:t^3": Profile("h", "t^3", 1.0, 2.0, _h_xi(lambda t: 6 * t, lambda t: 6.0), 2),
    "h:exp(t)": Profile("h", "exp(t)", 0.0, 1.0, _h_xi(math.exp, math.exp), None),
    "h:t^5": Profile("h", "t^5", 1.0, 2.0, _h_xi(lambda t: 20 * t**3, lambda t: 60 * t**2), 2),
}

# Not in the panel; used by verify only.  delta = 2/x^3 + 1/x^4 has no zero
# derivative on the range, so every high-order entry is checked relatively.
RECIPROCAL = Profile("f", "1/x", 0.5, 1.5, _f_xi(lambda x: -6 / x**4 - 4 / x**5), None)


@dataclass
class Outcome:
    exit_code: int
    stderr: str
    report: Optional[str]  # text of the --output file, None if not written


@dataclass(frozen=True)
class Op:
    kind: str                # the subcommand; setup warms one op per kind
    argv: tuple[str, ...]
    npoints: int
    check: Callable[[Outcome], Optional[str]]  # None if the output is right, else why not

    def label(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# checks


def _common(out: Outcome, exit_code) -> Optional[str]:
    if "Traceback" in out.stderr:
        return "traceback on stderr: " + out.stderr.strip().splitlines()[-1]
    allowed = exit_code if isinstance(exit_code, tuple) else (exit_code,)
    if out.exit_code not in allowed:
        return f"exit {out.exit_code}, expected {exit_code}"
    return None


def _load(out: Outcome):
    if out.report is None:
        raise ValueError("no report written")
    return json.loads(out.report)


def expected_statuses(r: int, sch_fail_from: Optional[int]) -> dict[str, str]:
    names = {"CH_0": "pass"}
    names.update({f"CH_{k}(1,3)": "pass" for k in range(r + 1)})
    for k in range(r + 1):
        failing = sch_fail_from is not None and k >= sch_fail_from
        names[f"SCH_{k}(1,3)"] = "fail" if failing else "pass"
    return names


def check_classify(statuses: dict[str, str], exit_code=EXIT_OK):
    def check(out: Outcome) -> Optional[str]:
        bad = _common(out, exit_code)
        if bad:
            return bad
        got = {v["name"]: v["status"] for v in _load(out)["verdicts"]}
        if got != statuses:
            diff = sorted(k for k in set(got) | set(statuses) if got.get(k) != statuses.get(k))
            return f"verdicts differ from the panel at {diff}"
        return None

    return check


def check_verify(order: int):
    def check(out: Outcome) -> Optional[str]:
        bad = _common(out, EXIT_OK)
        if bad:
            return bad
        verdicts = _load(out)["verdicts"]
        if len(verdicts) != order + 1:
            return f"{len(verdicts)} verify verdicts for order {order}"
        for v in verdicts:
            rel, absdev = v["max_relative_deviation"], v["max_absolute_deviation_on_zeros"]
            if v["status"] != "pass" or not (rel <= REL_TOL and absdev <= ABS_TOL):
                return f"{v['name']}: rel {rel:.3e} abs {absdev:.3e} status {v['status']}"
        return None

    return check


def check_invariants(profile: Profile, points: list[float]):
    coord = 1 if profile.family == "f" else 0

    def check(out: Outcome) -> Optional[str]:
        bad = _common(out, EXIT_OK)
        if bad:
            return bad
        rows = _load(out)["invariants"]
        if len(rows) != len(points):
            return f"{len(rows)} invariant rows for {len(points)} points"
        for row in rows:
            c = (row["t"], row["x"], row["y"])[coord]
            want = profile.xi(c)
            if row["xi"] is None or abs(row["xi"] - want) > REL_TOL * abs(want):
                return f"xi at {c!r} is {row['xi']!r}, closed form {want!r}"
        return None

    return check


def check_config_error(out: Outcome) -> Optional[str]:
    bad = _common(out, EXIT_CONFIG)
    if bad:
        return bad
    if "config error" not in out.stderr:
        return "exit 2 without a config error message"
    return None


def check_excludes(points: list[tuple[float, float, float]], exit_code):
    """Intended result of a run with bad sample points: they are excluded
    and the run carries on."""

    def check(out: Outcome) -> Optional[str]:
        bad = _common(out, exit_code)
        if bad:
            return bad
        excluded = {tuple(e["point"]) for e in _load(out)["exclusions"]}
        missing = [p for p in points if p not in excluded]
        return f"points {missing} not excluded" if missing else None

    return check


# ---------------------------------------------------------------------------
# op constructors


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class _Inputs:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def grid(self, profile: Profile, n: int) -> tuple[str, list[float]]:
        """coord=lo:hi:n with both ends pulled inward by up to 2 % of the range."""
        span = profile.hi - profile.lo
        lo = round(profile.lo + self.rng.uniform(0.0, 0.02) * span, 6)
        hi = round(profile.hi - self.rng.uniform(0.0, 0.02) * span, 6)
        coord = "x" if profile.family == "f" else "t"
        return f"{coord}={lo!r}:{hi!r}:{n}", _linspace(lo, hi, n)

    def classify(self, p: Profile, r: int, n: int) -> Op:
        grid, _ = self.grid(p, n)
        argv = ("classify", "--family", p.family, "--function", p.text, "--order", str(r), "--grid", grid)
        return Op("classify", argv, n, check_classify(expected_statuses(r, p.sch_fail_from)))

    def verify(self, p: Profile, order: int, n: int) -> Op:
        grid, _ = self.grid(p, n)
        argv = ("verify", "--family", p.family, "--function", p.text, "--order", str(order), "--grid", grid)
        return Op("verify", argv, n, check_verify(order))

    def invariants(self, p: Profile, order: int, n: int) -> Op:
        grid, points = self.grid(p, n)
        argv = ("invariants", "--family", p.family, "--function", p.text, "--order", str(order), "--grid", grid)
        return Op("invariants", argv, n, check_invariants(p, points))


def grid_lowk(seed: int) -> list[Op]:
    """Every command at order 2 on 33-point grids over the survey panel."""
    b = _Inputs(seed)
    ops = []
    for p in PANEL.values():
        ops += [b.classify(p, 2, 33), b.invariants(p, 2, 33), b.verify(p, 2, 33)]
    return ops


def tower_highk(seed: int) -> list[Op]:
    """High-order verify on one or two points, and classify at r = 6."""
    b = _Inputs(seed)
    return [
        b.verify(PANEL["f:log"], 5, 2),
        b.verify(RECIPROCAL, 6, 2),
        b.verify(PANEL["f:exp(x)"], 7, 1),
        b.verify(RECIPROCAL, 8, 1),
        b.classify(PANEL["f:exp(x)"], 6, 3),
        b.classify(PANEL["f:log"], 6, 3),
    ]


FLAT_CUSTOM = ("--metric", "tt=1", "--metric", "xy=1")
CURVED_CUSTOM = ("--metric", "tt=exp(2*x)", "--metric", "xy=1")


def cli_mix(seed: int) -> list[Op]:
    """One fresh process per command: all three commands, all three
    families, and an unparsable function."""
    b = _Inputs(seed)
    exp_x = PANEL["f:exp(x)"]
    flat_grid, _ = b.grid(exp_x, 5)
    curved_grid, _ = b.grid(exp_x, 5)
    bad_grid, _ = b.grid(exp_x, 5)
    all_hyp = {name: "hypothesis-violated" for name in expected_statuses(2, None)}
    return [
        b.verify(exp_x, 3, 5),
        b.classify(PANEL["h:t^3"], 2, 9),
        b.invariants(PANEL["f:x^2"], 2, 9),
        b.invariants(PANEL["h:exp(t)"], 2, 9),
        Op("classify", ("classify", "--family", "custom", *FLAT_CUSTOM, "--order", "2", "--grid", flat_grid), 5,
           check_classify(expected_statuses(2, None))),
        Op("classify", ("classify", "--family", "custom", *CURVED_CUSTOM, "--order", "2", "--grid", curved_grid), 5,
           check_classify(all_hyp, EXIT_HYPOTHESIS)),
        Op("classify", ("classify", "--family", "f", "--function", "exp(x", "--grid", bad_grid), 5,
           check_config_error),
    ]


# Known defects, run once per run outside the timed window, with the
# intended outcome as the expected result.  The two cli_mix probes are the
# ROADMAP's: a bad sample point should become an exclusion and the run carry
# on.  The tower_highk probe: on f = x^2 every entry of order >= 3 is a
# structural zero, and the engine's round-off there exceeds the pinned 1e-10
# absolute tolerance at some points from order 5 on.
PROBES = {
    "cli_mix": [
        Op("classify", ("classify", "--family", "f", "--function", "log(x)", "--grid", "x=0:1:5"), 5,
           check_excludes([(0.0, 0.0, 0.0)], EXIT_OK)),
        Op("classify", ("classify", "--family", "f", "--function", "exp(x^2)", "--grid", "x=0:30:3"), 3,
           check_excludes([(0.0, 15.0, 0.0), (0.0, 30.0, 0.0)], (EXIT_OK, EXIT_HYPOTHESIS))),
    ],
    "tower_highk": [
        Op("verify", ("verify", "--family", "f", "--function", "x^2", "--order", "7", "--grid", "x=0.990204:0.990204:1"),
           1, check_verify(7)),
    ],
}

WORKLOADS = {"grid_lowk": grid_lowk, "tower_highk": tower_highk, "cli_mix": cli_mix}
IN_PROCESS = {"grid_lowk", "tower_highk"}


def warmup_ops(cycle: list[Op]) -> list[Op]:
    """One op of each kind, the most expensive by order and points, so the
    first-call caches are filled to the highest order the cycle uses."""
    best: dict[str, Op] = {}
    for op in cycle:
        if op.kind not in best or _cost_key(op) > _cost_key(best[op.kind]):
            best[op.kind] = op
    return list(best.values())


def _cost_key(op: Op) -> tuple[int, int]:
    order = int(op.argv[op.argv.index("--order") + 1]) if "--order" in op.argv else 0
    return order, op.npoints
