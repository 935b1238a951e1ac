"""Scalar curvature invariants and finite-sample homogeneity classification.

Verdicts over a sample set, per order k <= r:

  * CH_0            -- the unit-normalized curvature entry has one sign.
  * CH_k(1,3)       -- at each order j <= k the adapted-frame entries of
                       nabla^j R are compatible with a single positive
                       rescaling between any two points: every component is
                       either identically zero or nonvanishing with constant
                       sign, and entries carrying the same X-multiplicity
                       keep constant ratios.
  * SCH_k(1,3)      -- one rescaling works for all orders simultaneously:
                       entries scaled by psi^{(j+2)/2}, with psi read off the
                       order-0 entry of the aligned frame, are constant.

"Constant across the manifold" is operationalized as relative spread
(max - min) / max(|median|, 1e-9) below `tol` over the samples (default
1e-6).  Points violating the nonvanishing hypotheses are excluded and
counted; a verdict degrades to "hypothesis-violated" when more than half
the points are excluded.  Identically flat metrics short-circuit to
vacuous passes marked "degenerate: zero curvature".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expr import DomainError, Expr, pretty
from .families import FamilySpec, delta_derivatives, profile_derivatives, family_f_metric, family_h_metric
from .geometry import DegenerateMetricError, MetricField, Point, nabla_k_riemann, nabla_riemann_sequence
from .models import T, X, adapted_frame_f, adapted_frame_h, scaling_lambda_h
from .tensor import pullback

FLOOR = 1e-8          # nonvanishing hypothesis floor on delta and h''
ZERO_FLOOR = 1e-9     # entries below this (relative) count as structural zeros
SPREAD_FLOOR = 1e-9   # denominator floor in relative spreads
DEGENERATE_FLOOR = 1e-10

PASS, FAIL, HYP = "pass", "fail", "hypothesis-violated"

# What evaluating the metric at one bad sample point can raise; the point
# becomes an exclusion and the run carries on.
POINT_ERRORS = (DomainError, OverflowError, DegenerateMetricError)


class HypothesisViolation(Exception):
    """A nonvanishing hypothesis fails at the requested point."""


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    count: int

    def values(self) -> list[float]:
        if self.count < 1:
            raise ValueError("grid count must be >= 1")
        if self.count == 1:
            return [self.lo]
        return list(np.linspace(self.lo, self.hi, self.count))


@dataclass(frozen=True)
class GridSpec:
    """Per-coordinate ranges; unspecified coordinates are pinned to 0."""

    axes: tuple[Optional[GridAxis], Optional[GridAxis], Optional[GridAxis]]

    def points(self) -> tuple[Point, ...]:
        values = [axis.values() if axis else [0.0] for axis in self.axes]
        pts = [(tv, xv, yv) for tv in values[0] for xv in values[1] for yv in values[2]]
        return tuple(sorted(pts))


@dataclass(frozen=True)
class SampleSet:
    points: tuple[Point, ...]
    grid: Optional[GridSpec] = None

    @staticmethod
    def from_grid(grid: GridSpec) -> "SampleSet":
        return SampleSet(grid.points(), grid)

    @staticmethod
    def from_points(points) -> "SampleSet":
        return SampleSet(tuple(sorted(tuple(float(c) for c in p) for p in points)))


def relative_spread(values) -> Optional[float]:
    """(max - min) / max(|median|, floor) over the non-None samples."""
    vals = np.asarray([v for v in values if v is not None], dtype=float)
    if vals.size == 0:
        return None
    if np.abs(vals).max() < SPREAD_FLOOR:
        return 0.0
    return float((vals.max() - vals.min()) / max(abs(float(np.median(vals))), SPREAD_FLOOR))


@dataclass(frozen=True)
class SampleSeries:
    name: str
    values: tuple[Optional[float], ...]

    @property
    def spread(self) -> Optional[float]:
        return relative_spread(self.values)

    def summary(self) -> dict:
        present = [v for v in self.values if v is not None]
        return {
            "name": self.name,
            "values": [None if v is None else float(v) for v in self.values],
            "min": min(present) if present else None,
            "max": max(present) if present else None,
            "spread": self.spread,
        }


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str
    notes: tuple[str, ...] = ()

    def summary(self) -> dict:
        return {"name": self.name, "status": self.status, "notes": list(self.notes)}


@dataclass(frozen=True)
class Exclusion:
    point: Point
    reason: str


@dataclass(frozen=True)
class HomogeneityReport:
    family: str
    function: Optional[str]
    r: int
    tol: float
    points: tuple[Point, ...]
    verdicts: tuple[Verdict, ...]
    invariants: tuple[SampleSeries, ...]
    psi: Optional[SampleSeries]
    scaled_entries: tuple[SampleSeries, ...]
    diagnostics: tuple[SampleSeries, ...]
    exclusions: tuple[Exclusion, ...]
    degenerate: bool
    notes: tuple[str, ...]

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def series(self, name: str) -> SampleSeries:
        for s in list(self.invariants) + list(self.scaled_entries) + list(self.diagnostics):
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "function": self.function,
            "r": self.r,
            "tol": self.tol,
            "points": [list(p) for p in self.points],
            "verdicts": [v.summary() for v in self.verdicts],
            "invariants": [s.summary() for s in self.invariants],
            "psi": self.psi.summary() if self.psi else None,
            "scaled_entries": [s.summary() for s in self.scaled_entries],
            "diagnostics": [s.summary() for s in self.diagnostics],
            "exclusions": [{"point": list(e.point), "reason": e.reason} for e in self.exclusions],
            "degenerate": self.degenerate,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# intrinsic invariant evaluators


def _require(cond: bool, message: str):
    if not cond:
        raise HypothesisViolation(message)


def f_first_invariant(f: Expr, p: Point) -> float:
    """Squared nabla R(T,X,X,T;X) entry on the unit-lambda adapted frame.

    Equals (delta')^2 where delta = f'' + (f')^2.  Sensitive to isometries
    that fix the curvature normalization, hence a witness against CH_1 when
    nonconstant.
    """
    d = delta_derivatives(f, p, 1)
    _require(abs(d[0]) >= FLOOR, f"|delta| = {abs(d[0]):.2e} below floor at {p}")
    g = family_f_metric(f)
    frame = adapted_frame_f(f, p, 1.0)
    entry = pullback(nabla_k_riemann(g, p, 1), frame).components[T, X, X, T, X]
    return float(entry**2)


def f_scale_ratio(f: Expr, p: Point) -> float:
    """nabla R entry squared over the cubed curvature entry; scale free.

    Equals (delta')^2 / (-delta)^3; constancy is the order-1 simultaneous
    scaling condition for the f-family.
    """
    d = delta_derivatives(f, p, 0)
    _require(abs(d[0]) >= FLOOR, f"|delta| = {abs(d[0]):.2e} below floor at {p}")
    g = family_f_metric(f)
    frame = adapted_frame_f(f, p, 1.0)
    seq = nabla_riemann_sequence(g, p, 1)
    e0 = pullback(seq[0], frame).components[T, X, X, T]
    e1 = pullback(seq[1], frame).components[T, X, X, T, X]
    return float(e1**2 / e0**3)


def h_first_invariant(h: Expr, p: Point) -> float:
    """Squared nabla R(T,X,X,T;T) entry on the unit-curvature adapted frame.

    Equals (h'''/h'')^2; an isometry invariant of the order-1 model, so
    nonconstancy rules out CH_1.
    """
    d = profile_derivatives(h, p, 2)
    _require(abs(d[2]) >= FLOOR, f"|h''| = {abs(d[2]):.2e} below floor at {p}")
    g = family_h_metric(h)
    lam = abs(d[2]) ** -0.5
    frame = adapted_frame_h(h, p, lam)
    entry = pullback(nabla_k_riemann(g, p, 1), frame).components[T, X, X, T, T]
    return float(entry**2)


@dataclass(frozen=True)
class SecondOrderRatios:
    xi_t: float
    xi_x: float
    psi: float


def h_second_ratios(h: Expr, p: Point) -> SecondOrderRatios:
    """Second-derivative entries on the order-aligned frame, scaled by psi^2.

    The frame uses lam^2 = (h''')^2 / |h''|^3 so the order-0 and order-1
    entries become (+-psi, +-psi^{3/2}) with psi = (h'''/h'')^2.  Then

        xi_t = nabla^2 R(T,X,X,T;T,T) / psi^2 = h'''' h'' / (h''')^2
        xi_x = -nabla^2 R(T,X,X,T;X,X) / psi^2 = h' h''' / (h'')^2

    The sign on xi_x compensates the recursion's -Gamma^t_{xx} term so that
    exponential profiles report +1.
    """
    d = profile_derivatives(h, p, 4)
    _require(abs(d[2]) >= FLOOR, f"|h''| = {abs(d[2]):.2e} below floor at {p}")
    _require(abs(d[3]) >= FLOOR, f"|h'''| = {abs(d[3]):.2e} below floor at {p}")
    g = family_h_metric(h)
    frame = adapted_frame_h(h, p, scaling_lambda_h(h, p))
    seq = nabla_riemann_sequence(g, p, 2)
    e0 = pullback(seq[0], frame).components[T, X, X, T]
    a2 = pullback(seq[2], frame).components
    psi = abs(float(e0))
    return SecondOrderRatios(
        xi_t=float(a2[T, X, X, T, T, T]) / psi**2,
        xi_x=-float(a2[T, X, X, T, X, X]) / psi**2,
        psi=psi,
    )


# ---------------------------------------------------------------------------
# per-order sample analysis


@dataclass
class _OrderAnalysis:
    status: str           # pass / fail / vacuous
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "vacuous")


def _component_index_table(shape) -> np.ndarray:
    idx = np.stack(np.unravel_index(np.arange(int(np.prod(shape))), shape))
    return (idx == X).sum(axis=0)  # X-multiplicity per flattened component


def _sign_structure(flat: np.ndarray, tol: float) -> _OrderAnalysis:
    """Single-rescaling compatibility of one order's entries across samples.

    flat has shape (n_points, n_components) on the adapted frame.
    """
    scale = float(np.abs(flat).max())
    if scale < DEGENERATE_FLOOR:
        return _OrderAnalysis("vacuous", ["all entries vanish at this order"])
    zero = np.abs(flat) <= ZERO_FLOOR * scale
    all_zero = zero.all(axis=0)
    mixed = zero.any(axis=0) & ~all_zero
    if mixed.any():
        return _OrderAnalysis("fail", ["an entry vanishes at some sample points only"])
    live = ~all_zero
    signs = np.sign(flat[:, live])
    if not (signs == signs[:1]).all():
        return _OrderAnalysis("fail", ["an entry changes sign across sample points"])
    return _OrderAnalysis("pass")


def _q_condition(stack: np.ndarray, tol: float) -> _OrderAnalysis:
    """Order-k test behind CH_k(1,3): sign structure plus constant ratios
    between live entries of equal X-multiplicity."""
    npts = stack.shape[0]
    flat = stack.reshape(npts, -1)
    out = _sign_structure(flat, tol)
    if out.status != "pass":
        return out
    scale = float(np.abs(flat).max())
    live = np.where(~(np.abs(flat) <= ZERO_FLOOR * scale).any(axis=0))[0]
    xmult = _component_index_table(stack.shape[1:])
    groups = {}
    for c in live:
        groups.setdefault(int(xmult[c]), []).append(c)
    for mult, comps in sorted(groups.items()):
        if len(comps) < 2:
            continue
        ref = max(comps, key=lambda c: float(np.abs(flat[:, c]).min()))
        for c in comps:
            if c == ref:
                continue
            spread = relative_spread(flat[:, c] / flat[:, ref])
            if spread is not None and spread > tol:
                out.status = "fail"
                out.notes.append(
                    f"entries of X-multiplicity {mult} have point-dependent ratio (spread {spread:.2e})"
                )
                return out
    if len(groups) > 2:
        out.notes.append(
            f"{len(groups)} distinct X-multiplicities at this order; "
            "two-parameter matching not fully determined, raw entries exposed"
        )
    return out


def _scaled_constancy(stack: np.ndarray, psi: np.ndarray, order: int, tol: float) -> _OrderAnalysis:
    """Order-k test behind SCH_k(1,3): entries / psi^{(k+2)/2} constant."""
    npts = stack.shape[0]
    flat = stack.reshape(npts, -1)
    out = _sign_structure(flat, tol)
    if out.status != "pass":
        return out
    scaled = flat / psi[:, None] ** ((order + 2) / 2.0)
    scale = float(np.abs(flat).max())
    live = np.where(~(np.abs(flat) <= ZERO_FLOOR * scale).any(axis=0))[0]
    for c in live:
        spread = relative_spread(np.abs(scaled[:, c]))
        if spread is not None and spread > tol:
            out.status = "fail"
            out.notes.append(
                f"a scaled order-{order} entry is nonconstant (spread {spread:.2e})"
            )
            return out
    return out


def _representative_scaled(stack: np.ndarray, psi: np.ndarray, order: int) -> np.ndarray:
    flat = stack.reshape(stack.shape[0], -1)
    c = int(np.abs(flat).max(axis=0).argmax())
    return flat[:, c] / psi ** ((order + 2) / 2.0)


def _fill(values_by_point: dict, pts, transform=float) -> tuple:
    return tuple(transform(values_by_point[p]) if p in values_by_point else None for p in pts)


def _overall(statuses: list[str]) -> str:
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == HYP for s in statuses):
        return HYP
    return PASS


# ---------------------------------------------------------------------------
# classification drivers


def classify(g: MetricField, r: int, samples: SampleSet, tol: float = 1e-6) -> HomogeneityReport:
    """Finite-sample homogeneity verdicts for a metric over a sample set."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not samples.points:
        raise ValueError("sample set is empty")
    pts = tuple(sorted(samples.points))
    fam: Optional[FamilySpec] = g.family
    if fam is not None and fam.family in ("f", "h"):
        return _classify_family(g, fam, r, pts, tol)
    return _classify_custom(g, r, pts, tol)


def _vacuous_report(family, function, r, pts, tol, note, exclusions=()) -> HomogeneityReport:
    names = ["CH_0"] + [f"CH_{k}(1,3)" for k in range(r + 1)] + [f"SCH_{k}(1,3)" for k in range(r + 1)]
    zeros = SampleSeries("xi", tuple(0.0 for _ in pts))
    return HomogeneityReport(
        family=family,
        function=function,
        r=r,
        tol=tol,
        points=pts,
        verdicts=tuple(Verdict(n, PASS, (note,)) for n in names),
        invariants=(zeros,),
        psi=SampleSeries("psi", tuple(0.0 for _ in pts)),
        scaled_entries=(),
        diagnostics=(),
        exclusions=tuple(exclusions),
        degenerate=True,
        notes=(note,),
    )


def _classify_custom(g: MetricField, r, pts, tol) -> HomogeneityReport:
    curv = [nabla_k_riemann(g, p, 0).components for p in pts]
    gscale = max(max(1.0, float(np.abs(g.component_matrix(p)).max())) for p in pts)
    if max(float(np.abs(c).max()) for c in curv) < DEGENERATE_FLOOR * gscale:
        return _vacuous_report("custom", None, r, pts, tol, "degenerate: zero curvature")
    note = "no adapted frame construction for custom metrics; raw curvature available via verify/invariants"
    names = ["CH_0"] + [f"CH_{k}(1,3)" for k in range(r + 1)] + [f"SCH_{k}(1,3)" for k in range(r + 1)]
    return HomogeneityReport(
        family="custom",
        function=None,
        r=r,
        tol=tol,
        points=pts,
        verdicts=tuple(Verdict(n, HYP, (note,)) for n in names),
        invariants=(),
        psi=None,
        scaled_entries=(),
        diagnostics=(),
        exclusions=tuple(Exclusion(p, note) for p in pts),
        degenerate=False,
        notes=(note,),
    )


def _classify_family(g: MetricField, fam: FamilySpec, r, pts, tol) -> HomogeneityReport:
    is_f = fam.family == "f"
    fn = fam.function
    kmax = max(r, 1) if is_f else max(r, 2)
    exclusions: list[Exclusion] = []
    failed: list[Exclusion] = []                     # points the metric cannot be evaluated at
    included: list[Point] = []
    pulled: dict[Point, list[np.ndarray]] = {}       # adapted (unit-lambda) frame entries
    pulled_sch: dict[Point, list[np.ndarray]] = {}   # order-aligned frame entries (h only)
    flat_scale = 0.0
    for p in pts:
        try:
            if is_f:
                hyp = abs(delta_derivatives(fn, p, 0)[0])
                reason = f"|delta| = {hyp:.2e} below {FLOOR:.0e}"
            else:
                hyp = abs(profile_derivatives(fn, p, 2)[2])
                reason = f"|h''| = {hyp:.2e} below {FLOOR:.0e}"
            seq = nabla_riemann_sequence(g, p, kmax)
            adapted = aligned = None
            if hyp >= FLOOR:
                frame = adapted_frame_f(fn, p, 1.0) if is_f else adapted_frame_h(fn, p, 1.0)
                adapted = [pullback(t, frame).components for t in seq]
                if not is_f and abs(profile_derivatives(fn, p, 3)[3]) >= FLOOR:
                    sch_frame = adapted_frame_h(fn, p, scaling_lambda_h(fn, p))
                    aligned = [pullback(t, sch_frame).components for t in seq]
        except POINT_ERRORS as err:
            failed.append(Exclusion(p, f"cannot evaluate the metric ({type(err).__name__}): {err}"))
            exclusions.append(failed[-1])
            continue
        flat_scale = max(flat_scale, float(np.abs(seq[0].components).max()))
        if adapted is None:
            exclusions.append(Exclusion(p, reason))
            continue
        included.append(p)
        pulled[p] = adapted
        if aligned is not None:
            pulled_sch[p] = aligned
    if len(failed) < len(pts) and flat_scale < DEGENERATE_FLOOR:
        return _vacuous_report(fam.family, pretty(fn), r, pts, tol, "degenerate: zero curvature", failed)
    if not included:
        names = ["CH_0"] + [f"CH_{k}(1,3)" for k in range(r + 1)] + [f"SCH_{k}(1,3)" for k in range(r + 1)]
        if len(failed) == len(pts):
            note = "the metric cannot be evaluated at any sample point"
        else:
            note = "nonvanishing hypothesis fails at every sample point"
        return HomogeneityReport(
            family=fam.family, function=pretty(fn), r=r, tol=tol, points=pts,
            verdicts=tuple(Verdict(n, HYP, (note,)) for n in names),
            invariants=(), psi=None, scaled_entries=(), diagnostics=(),
            exclusions=tuple(exclusions), degenerate=False, notes=(note,),
        )

    hyp_heavy = len(included) <= len(pts) / 2.0
    stacks = [np.stack([pulled[p][k] for p in included]) for k in range(kmax + 1)]
    e0 = stacks[0][:, T, X, X, T]
    entry1 = stacks[1][:, T, X, X, T, X] if is_f else stacks[1][:, T, X, X, T, T]
    xi_vals = {p: v for p, v in zip(included, entry1**2 / (1.0 if is_f else e0**2))}
    xi = SampleSeries("xi", _fill(xi_vals, pts))
    xi_spread = xi.spread or 0.0
    notes: list[str] = []
    verdicts: list[Verdict] = []

    def status_of(analysis: _OrderAnalysis) -> tuple[str, tuple[str, ...]]:
        if hyp_heavy:
            return HYP, ("more than half the sample points violate the nonvanishing hypothesis",)
        if analysis.status == "fail":
            return FAIL, tuple(analysis.notes)
        extra = tuple(analysis.notes)
        if analysis.status == "vacuous":
            extra = extra + ("vacuously satisfied: zero tensor at this order",)
        return PASS, extra

    # CH_0: constant-sign unit-normalized curvature entry
    ch0 = _sign_structure(e0[:, None], tol)
    st, nt = status_of(ch0)
    eps_val = float(np.sign(e0[0])) if ch0.status == "pass" else None
    if eps_val is not None:
        nt = nt + (f"epsilon = {eps_val:+.0f}",)
    verdicts.append(Verdict("CH_0", st, nt))

    # per-order Q(k) conditions and cumulative CH_k(1,3)
    q_results = [_q_condition(stacks[k], tol) for k in range(r + 1)]
    q_statuses = []
    for k in range(r + 1):
        st, nt = status_of(q_results[k])
        q_statuses.append(st)
        verdicts.append(Verdict(f"CH_{k}(1,3)", _overall(q_statuses[: k + 1]), nt))

    # SCH_k(1,3)
    if is_f:
        psi_vals = {p: abs(v) for p, v in zip(included, e0)}
        psi_arr = np.abs(e0)
        sch_stacks = stacks
        sch_pts = included
    else:
        sch_pts = [p for p in included if p in pulled_sch]
        if sch_pts:
            sch_stacks = [np.stack([pulled_sch[p][k] for p in sch_pts]) for k in range(kmax + 1)]
            psi_arr = np.abs(sch_stacks[0][:, T, X, X, T])
            psi_vals = {p: float(v) for p, v in zip(sch_pts, psi_arr)}
        else:
            sch_stacks = None
            psi_arr = None
            psi_vals = {}

    scaled_series: list[SampleSeries] = []
    sch_statuses: list[str] = []
    sch_notes: list[tuple[str, ...]] = []
    for k in range(r + 1):
        if k == 0:
            st = verdicts[1].status  # CH_0(1,3) == Q(0)
            sch_statuses.append(st)
            sch_notes.append(())
            continue
        if is_f:
            analysis = _scaled_constancy(stacks[k], psi_arr, k, tol)
            st, nt = status_of(analysis)
            if analysis.status != "vacuous":
                scaled_series.append(
                    SampleSeries(
                        f"scaled_order_{k}",
                        _fill({p: v for p, v in zip(included, _representative_scaled(stacks[k], psi_arr, k))}, pts),
                    )
                )
        else:
            flat_k = stacks[k].reshape(len(included), -1)
            if float(np.abs(flat_k).max()) < DEGENERATE_FLOOR:
                st, nt = status_of(_OrderAnalysis("vacuous"))
            elif not sch_pts:
                st, nt = HYP, ("|h'''| below floor at every hypothesis-satisfying point",)
            elif len(sch_pts) <= len(pts) / 2.0:
                st, nt = HYP, ("|h'''| below floor at more than half the sample points",)
            else:
                analysis = _scaled_constancy(sch_stacks[k], psi_arr, k, tol)
                st, nt = status_of(analysis)
                if analysis.status != "vacuous":
                    scaled_series.append(
                        SampleSeries(
                            f"scaled_order_{k}",
                            _fill({p: v for p, v in zip(sch_pts, _representative_scaled(sch_stacks[k], psi_arr, k))}, pts),
                        )
                    )
                if k >= 2 and st == PASS and xi_spread > tol:
                    st = FAIL
                    nt = nt + (
                        f"SCH_{k} would contradict non-CH_1: the order-1 invariant is nonconstant "
                        f"(spread {xi_spread:.2e}) while the scaled order-{k} entries are constant",
                    )
        sch_statuses.append(st)
        sch_notes.append(nt)
    for k in range(r + 1):
        st = _overall(sch_statuses[: k + 1])
        nt = sch_notes[k]
        if st == PASS and q_statuses and _overall(q_statuses[: k + 1]) == FAIL:
            st = FAIL
            nt = nt + (f"downgraded: SCH_{k} cannot hold where CH_{k}(1,3) fails",)
        verdicts.append(Verdict(f"SCH_{k}(1,3)", st, nt))

    # invariants and evidence
    invariants = [xi]
    diagnostics: list[SampleSeries] = []
    if is_f:
        ratio_vals = {p: float(v) for p, v in zip(included, entry1**2 / e0**3)}
        invariants.append(SampleSeries("sch_ratio", _fill(ratio_vals, pts)))
    else:
        xt_vals, xx_vals, xt_alt = {}, {}, {}
        for i, p in enumerate(sch_pts):
            psi2 = psi_vals[p] ** 2
            a2 = sch_stacks[2][i]
            xt_vals[p] = float(a2[T, X, X, T, T, T]) / psi2
            xx_vals[p] = -float(a2[T, X, X, T, X, X]) / psi2
        for p in included:
            d = profile_derivatives(fn, p, 4)
            xt_alt[p] = d[4] / d[2] ** 2
        if sch_pts:
            invariants.append(SampleSeries("xi_T", _fill(xt_vals, pts)))
            invariants.append(SampleSeries("xi_X", _fill(xx_vals, pts)))
        diagnostics.append(SampleSeries("xi_T_alt", _fill(xt_alt, pts)))
    if xi_spread > tol:
        notes.append(
            f"evidence: order-1 invariant nonconstant (spread {xi_spread:.2e} > tol); "
            "not CH_1, hence not locally homogeneous"
        )
        if is_f:
            ratio_spread = invariants[1].spread or 0.0
            if ratio_spread <= tol:
                notes.append(
                    "the scale-free order-1 ratio is constant; the simultaneous-scaling "
                    "verdict is governed by the ratio, not the squared entry"
                )
    else:
        notes.append("all sampled order-1 invariants constant within tol")

    return HomogeneityReport(
        family=fam.family,
        function=pretty(fn),
        r=r,
        tol=tol,
        points=pts,
        verdicts=tuple(verdicts),
        invariants=tuple(invariants),
        psi=SampleSeries("psi", _fill(psi_vals, pts)),
        scaled_entries=tuple(scaled_series),
        diagnostics=tuple(diagnostics),
        exclusions=tuple(exclusions),
        degenerate=False,
        notes=tuple(notes),
    )
