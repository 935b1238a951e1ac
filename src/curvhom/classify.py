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

`FAMILIES` is the one place a built-in family is described: its metric,
oracle, hypotheses, frames, invariants and report columns.  The classifier,
the CLI and the survey script read it; a new family is a new entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .expr import DomainError, Expr, pretty
from .families import (
    FamilySpec,
    delta_derivatives,
    family_f_metric,
    family_f_oracles,
    family_h_metric,
    family_h_oracles,
    profile_derivatives,
)
from .geometry import DegenerateMetricError, MetricField, Point, nabla_k_riemann
from .geometry import kulkarni_nomizu, nabla_schouten_sequence
from .models import T, X, adapted_frame_f, adapted_frame_h, scaling_lambda_h
from .tensor import TensorAtPoint, pullback

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
        return np.linspace(self.lo, self.hi, self.count).tolist()


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

    @staticmethod
    def from_grid(grid: GridSpec) -> "SampleSet":
        return SampleSet(grid.points())

    @staticmethod
    def from_points(points) -> "SampleSet":
        return SampleSet(tuple(sorted(tuple(float(c) for c in p) for p in points)))


def _spreads(columns: np.ndarray) -> np.ndarray:
    """(max - min) / max(|median|, floor) of each column of a (n_points, n)
    array, 0 where every |entry| is below the floor, from one sort.  The
    median is np.median's: the middle entry, or the mean of the middle two."""
    s = np.sort(columns, axis=0)
    n = len(s)
    median = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    spread = (s[-1] - s[0]) / np.maximum(np.abs(median), SPREAD_FLOOR)
    return np.where(np.maximum(np.abs(s[0]), np.abs(s[-1])) < SPREAD_FLOOR, 0.0, spread)


def relative_spread(values) -> Optional[float]:
    """(max - min) / max(|median|, floor) over the non-None samples."""
    vals = np.asarray([v for v in values if v is not None], dtype=float)
    return float(_spreads(vals[:, None])[0]) if vals.size else None


def _first_spread_over(columns: np.ndarray, tol: float) -> Optional[float]:
    """The first column's relative spread that exceeds tol, or None."""
    spread = _spreads(columns)
    over = np.flatnonzero(spread > tol)
    return float(spread[over[0]]) if over.size else None


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
# the built-in families


@dataclass(frozen=True)
class FamilySamples:
    """One batched evaluation of a family metric over sample points."""

    hyp: np.ndarray       # per point: |the family's hypothesis quantity| = |R(T,X,X,T)| on the unit adapted frame
    sch_hyp: np.ndarray   # per point: |the quantity its SCH frame needs|
    ok: np.ndarray        # per point: hyp >= FLOOR
    sch: np.ndarray       # per point: has an SCH frame, ok and sch_hyp >= FLOOR
    adapted: Optional[list[TensorAtPoint]] = None    # nabla^k R on the unit adapted frame, at the ok points
    aligned: Optional[list[TensorAtPoint]] = None    # nabla^k R on the SCH frame, at the sch points
    values: dict = field(default_factory=dict)    # invariant -> (its mask, ok or sch; its values there)

    def column(self, name: str, index, n: int) -> tuple:
        """Invariant `name` over n samples, None where undefined; this batch's point j is sample index[j]."""
        mask, values = self.values.get(name, (self.sch, None))
        return per_point([index[j] for j in np.flatnonzero(mask)], values, n)


def _pulled_back(g0, seq, mask, frame) -> list[TensorAtPoint]:
    """nabla^k R on the frame at the mask's points: pullback(P ⊙ g) = pullback(P) ⊙ pullback(g)."""
    g0, *seq = (pullback(TensorAtPoint(t.rank, t.components[mask], t.supports), frame) for t in (g0, *seq))
    return kulkarni_nomizu(g0, seq)


def _f_samples(g: MetricField, kmax: int, points: np.ndarray) -> FamilySamples:
    """xi = nabla R(T,X,X,T;X)^2 = (delta')^2 on the unit-lambda frame, and
    the scale-free sch_ratio = xi / R(T,X,X,T)^3; the SCH frame is that
    frame."""
    fn = g.family.function
    g0, seq = nabla_schouten_sequence(g, points, kmax)  # before delta: a bad metric is excluded for its own reason
    hyp = np.abs(delta_derivatives(fn, points, 0)[0])
    s = FamilySamples(hyp, hyp, hyp >= FLOOR, hyp >= FLOOR)
    if not s.ok.any():
        return s
    adapted = _pulled_back(g0, seq, s.ok, adapted_frame_f(fn, points[s.ok], 1.0))
    e0 = adapted[0].dense()[:, T, X, X, T]
    xi = adapted[1].dense()[:, T, X, X, T, X] ** 2
    values = dict(xi=(s.ok, xi), sch_ratio=(s.ok, xi / e0**3), psi=(s.sch, np.abs(e0)))
    return replace(s, adapted=adapted, aligned=adapted, values=values)


def _h_samples(g: MetricField, kmax: int, points: np.ndarray) -> FamilySamples:
    """xi = (nabla R(T,X,X,T;T) / R(T,X,X,T))^2 = (h'''/h'')^2; the SCH
    frame uses lam^2 = (h''')^2 / |h''|^3, so the order-0 and order-1
    entries become (+-psi, +-psi^{3/2}) with psi = (h'''/h'')^2, and then

        xi_T = nabla^2 R(T,X,X,T;T,T) / psi^2 = h'''' h'' / (h''')^2
        xi_X = -nabla^2 R(T,X,X,T;X,X) / psi^2 = h' h''' / (h'')^2

    The sign on xi_X compensates the recursion's -Gamma^t_{xx} term so that
    exponential profiles report +1.  xi_T_alt = h'''' / h''^2.
    """
    fn = g.family.function
    d = profile_derivatives(fn, points, 4)
    g0, seq = nabla_schouten_sequence(g, points, kmax)
    hyp, sch_hyp = np.abs(d[2]), np.abs(d[3])
    ok, sch = hyp >= FLOOR, (hyp >= FLOOR) & (sch_hyp >= FLOOR)
    s = FamilySamples(hyp, sch_hyp, ok, sch)
    if not ok.any():
        return s
    adapted = _pulled_back(g0, seq, ok, adapted_frame_h(fn, points[ok], 1.0))
    e0 = adapted[0].dense()[:, T, X, X, T]
    values = dict(xi=(ok, adapted[1].dense()[:, T, X, X, T, T] ** 2 / e0**2), xi_T_alt=(ok, d[4][ok] / d[2][ok] ** 2))
    if not sch.any():
        return replace(s, adapted=adapted, values=values)
    aligned = _pulled_back(g0, seq, sch, adapted_frame_h(fn, points[sch], scaling_lambda_h(fn, points[sch])))
    psi = np.abs(aligned[0].dense()[:, T, X, X, T])
    a2 = aligned[2].dense()
    values.update(
        psi=(sch, psi), xi_T=(sch, a2[:, T, X, X, T, T, T] / psi**2), xi_X=(sch, -a2[:, T, X, X, T, X, X] / psi**2)
    )
    return replace(s, adapted=adapted, aligned=aligned, values=values)


@dataclass(frozen=True)
class Family:
    """Everything that differs between the built-in families."""

    metric: Callable                    # profile -> MetricField
    oracle: Callable                    # (profile, points, kmax, dirs) -> closed-form [R, ..., nabla^kmax R]
    min_order: int                      # sequence order the invariants need
    hypothesis: str                     # the profile quantity that must not vanish
    samples: Callable                   # (g, kmax, points) -> FamilySamples
    invariants: tuple[str, ...]         # what classify reports as invariants
    columns: tuple[str, ...]            # the invariants command's invariant columns
    derivatives: Callable               # (profile, points, kmax) -> [d^0, ..., d^kmax]
    derivative_columns: Callable        # --order -> {column name: k} of the derivatives it prints
    oracle_max_order: Optional[int] = None     # where the closed forms stop
    sch_hypothesis: Optional[str] = None       # one more quantity the SCH frame needs
    diagnostics: tuple[str, ...] = ()          # what classify reports as diagnostics
    scale_free: Optional[str] = None           # the invariant whose constancy governs SCH_1
    contradiction_order: float = math.inf      # SCH_k at k >= this contradicts a nonconstant xi


# Entries call traced functions through module globals at call time: the benchmark's tracer rebinds those by name.
FAMILIES = {
    "f": Family(
        metric=lambda f: family_f_metric(f),
        oracle=lambda f, p, kmax, dirs: family_f_oracles(f, p, kmax, dirs),
        min_order=1,
        hypothesis="delta",
        samples=_f_samples,
        invariants=("xi", "sch_ratio"),
        columns=("xi", "sch_ratio"),
        derivatives=lambda f, p, kmax: delta_derivatives(f, p, kmax),
        derivative_columns=lambda order: {f"delta_{k}" if k else "delta": k for k in range(max(order, 1) + 1)},
        scale_free="sch_ratio",
    ),
    "h": Family(
        metric=lambda h: family_h_metric(h),
        oracle=lambda h, p, kmax, dirs: family_h_oracles(h, p, kmax, dirs),
        min_order=2,
        hypothesis="h''",
        samples=_h_samples,
        invariants=("xi", "xi_T", "xi_X"),
        columns=("xi", "xi_T", "xi_X", "xi_T_alt", "psi"),
        derivatives=lambda h, p, kmax: profile_derivatives(h, p, kmax),
        derivative_columns=lambda order: {f"h_{k}": k for k in range(1, 5)},
        oracle_max_order=2,
        sch_hypothesis="h'''",
        diagnostics=("xi_T_alt",),
        contradiction_order=2,
    ),
}


def family_samples(g: MetricField, kmax: int, points) -> FamilySamples:
    """R, ..., nabla^kmax R of a built-in family metric at all points (shape
    (npts, 3)) at once, on the family's adapted and SCH frames, with its invariants."""
    return FAMILIES[g.family.family].samples(g, kmax, np.asarray(points, dtype=np.float64))


def below_floor(what: str, value, point) -> str:
    return f"|{what}| = {abs(value):.2e} below floor at {point}"


def _require(values, what: str, points):
    """Raise HypothesisViolation at the first point where |values| < FLOOR."""
    low = np.ravel(~(np.abs(values) >= FLOOR))
    if low.any():
        i = int(np.argmax(low))
        point = tuple(np.reshape(points, (-1, 3))[i].tolist())
        raise HypothesisViolation(below_floor(what, np.ravel(values)[i], point))


def _samples_at(g: MetricField, p) -> tuple[FamilySamples, tuple]:
    """family_samples at the point(s) p, shape (..., 3), which must all
    satisfy the hypothesis; and the leading shape of p."""
    spec = FAMILIES[g.family.family]
    pts = np.reshape(np.asarray(p, dtype=np.float64), (-1, 3))
    s = family_samples(g, spec.min_order, pts)
    _require(s.hyp, spec.hypothesis, pts)
    return s, np.shape(p)[:-1]


# The evaluators below take one point or an array of points and return a
# scalar or an array over them; each raises HypothesisViolation if its
# hypothesis fails at any of the points.


def f_first_invariant(f: Expr, p):
    """Squared nabla R(T,X,X,T;X) entry on the unit-lambda adapted frame.

    Equals (delta')^2 where delta = f'' + (f')^2.  Sensitive to isometries
    that fix the curvature normalization, hence a witness against CH_1 when
    nonconstant.
    """
    s, batch = _samples_at(family_f_metric(f), p)
    return s.values["xi"][1].reshape(batch)[()]


def f_scale_ratio(f: Expr, p):
    """nabla R entry squared over the cubed curvature entry; scale free.

    Equals (delta')^2 / (-delta)^3; constancy is the order-1 simultaneous
    scaling condition for the f-family.
    """
    s, batch = _samples_at(family_f_metric(f), p)
    return s.values["sch_ratio"][1].reshape(batch)[()]


def h_first_invariant(h: Expr, p):
    """Squared nabla R(T,X,X,T;T) entry on the unit-curvature adapted frame.

    Equals (h'''/h'')^2; an isometry invariant of the order-1 model, so
    nonconstancy rules out CH_1.
    """
    s, batch = _samples_at(family_h_metric(h), p)
    return s.values["xi"][1].reshape(batch)[()]


@dataclass(frozen=True)
class SecondOrderRatios:
    """xi_t, xi_x and psi of family_samples: scalars at one point, arrays
    over a batch."""

    xi_t: np.ndarray
    xi_x: np.ndarray
    psi: np.ndarray


def h_second_ratios(h: Expr, p) -> SecondOrderRatios:
    """Second-derivative entries on the order-aligned frame, scaled by psi^2;
    see family_samples."""
    s, batch = _samples_at(family_h_metric(h), p)
    _require(s.sch_hyp, "h'''", p)
    return SecondOrderRatios(*(s.values[n][1].reshape(batch)[()] for n in ("xi_T", "xi_X", "psi")))


# ---------------------------------------------------------------------------
# per-order sample analysis


@dataclass
class _OrderAnalysis:
    status: str           # pass / fail / vacuous
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class _OrderEntries:
    """One order's entries at the samples on a frame, read once.

    flat has shape (n_points, n_components) and magnitude is |flat|;
    supports holds each slot's directions.  status and notes are the
    single-rescaling compatibility of the entries across samples, and on a
    pass live holds the live columns: the entries nonzero at every sample.
    """

    supports: tuple[tuple[int, ...], ...]
    flat: np.ndarray
    magnitude: np.ndarray
    scale: float  # max |entry|
    status: str
    notes: tuple[str, ...] = ()
    live: Optional[np.ndarray] = None

    def analysis(self) -> _OrderAnalysis:
        """A fresh analysis holding the sign structure's verdict."""
        return _OrderAnalysis(self.status, list(self.notes))


def _sign_structure(stack: np.ndarray, supports=None) -> _OrderEntries:
    """The entries of one order's stack, shape (n_points, *slots), on the box
    `supports` (directions 0, 1, ... of each slot by default), with their
    sign structure across the samples."""
    supports = supports or tuple(tuple(range(n)) for n in stack.shape[1:])
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    magnitude = np.abs(flat)
    scale = float(magnitude.max(initial=0.0))
    entries = _OrderEntries(supports, flat, magnitude, scale, "pass")
    if scale < DEGENERATE_FLOOR:
        return replace(entries, status="vacuous", notes=("all entries vanish at this order",))
    zero = magnitude <= ZERO_FLOOR * scale
    all_zero = zero.all(axis=0)
    if (zero.any(axis=0) & ~all_zero).any():
        return replace(entries, status="fail", notes=("an entry vanishes at some sample points only",))
    live = np.flatnonzero(~all_zero)
    signs = np.sign(flat[:, live])
    if not (signs == signs[:1]).all():
        return replace(entries, status="fail", notes=("an entry changes sign across sample points",))
    return replace(entries, live=live)


def _q_condition(entries: _OrderEntries, tol: float) -> _OrderAnalysis:
    """Order-k test behind CH_k(1,3): sign structure plus constant ratios
    between live entries of equal X-multiplicity."""
    out = entries.analysis()
    if out.status != "pass":
        return out
    flat, live = entries.flat, entries.live
    index = np.unravel_index(live, tuple(len(s) for s in entries.supports))
    xmult = sum(np.asarray(s)[i] == X for s, i in zip(entries.supports, index))  # per live column
    mults = np.unique(xmult)
    for mult in mults:
        comps = live[xmult == mult]
        if len(comps) < 2:
            continue
        ref = max(comps, key=lambda c: float(entries.magnitude[:, c].min()))
        spread = _first_spread_over(flat[:, comps] / flat[:, [ref]], tol)  # ref's own ratio is 1: spread 0
        if spread is not None:
            out.status = "fail"
            out.notes.append(
                f"entries of X-multiplicity {mult} have point-dependent ratio (spread {spread:.2e})"
            )
            return out
    if len(mults) > 2:
        out.notes.append(
            f"{len(mults)} distinct X-multiplicities at this order; "
            "two-parameter matching not fully determined, raw entries exposed"
        )
    return out


def _scaled_constancy(entries: _OrderEntries, psi: np.ndarray, order: int, tol: float) -> _OrderAnalysis:
    """Order-k test behind SCH_k(1,3): entries / psi^{(k+2)/2} constant."""
    out = entries.analysis()
    if out.status != "pass":
        return out
    scaled = entries.flat[:, entries.live] / psi[:, None] ** ((order + 2) / 2.0)
    spread = _first_spread_over(np.abs(scaled), tol)
    if spread is not None:
        out.status = "fail"
        out.notes.append(f"a scaled order-{order} entry is nonconstant (spread {spread:.2e})")
    return out


def _representative_scaled(entries: _OrderEntries, psi: np.ndarray, order: int) -> np.ndarray:
    c = int(entries.magnitude.max(axis=0).argmax())
    return entries.flat[:, c] / psi ** ((order + 2) / 2.0)


def per_point(idx, values, n: int) -> tuple:
    """A per-sample series: values at the point indices idx, None elsewhere
    (everywhere when values is None)."""
    out = [None] * n
    for i, v in zip(idx, () if values is None else values):
        out[i] = float(v)
    return tuple(out)


def _overall(statuses: list[str]) -> str:
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == HYP for s in statuses):
        return HYP
    return PASS


# ---------------------------------------------------------------------------
# classification drivers


def evaluate_points(evaluate, pts):
    """evaluate(points) on the whole sample grid in one batched call.

    If it raises one of POINT_ERRORS, the grid is split into batches of one
    to find the points it fails at; each becomes an Exclusion naming the
    error, and evaluate runs once more on the rest.  Returns the indices of
    the good points, the result on them (None if there are none) and the
    exclusions by point index.
    """
    try:
        return list(range(len(pts))), evaluate(pts), {}
    except POINT_ERRORS:
        pass
    failed = {}
    for i, p in enumerate(pts):
        try:
            evaluate([p])
        except POINT_ERRORS as err:
            failed[i] = Exclusion(p, f"cannot evaluate the metric ({type(err).__name__}): {err}")
    good = [i for i in range(len(pts)) if i not in failed]
    return good, (evaluate([pts[i] for i in good]) if good else None), failed


def classify(g: MetricField, r: int, samples: SampleSet, tol: float = 1e-6) -> HomogeneityReport:
    """Finite-sample homogeneity verdicts for a metric over a sample set."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not samples.points:
        raise ValueError("sample set is empty")
    pts = tuple(sorted(samples.points))
    fam: Optional[FamilySpec] = g.family
    if fam is not None and fam.family in FAMILIES:
        return _classify_family(g, fam, r, pts, tol)
    return _classify_custom(g, r, pts, tol)


def _verdict_names(r: int) -> list[str]:
    return ["CH_0"] + [f"CH_{k}(1,3)" for k in range(r + 1)] + [f"SCH_{k}(1,3)" for k in range(r + 1)]


def _vacuous_report(family, function, r, pts, tol, note, exclusions=()) -> HomogeneityReport:
    zeros = SampleSeries("xi", tuple(0.0 for _ in pts))
    return HomogeneityReport(
        family=family,
        function=function,
        r=r,
        tol=tol,
        points=pts,
        verdicts=tuple(Verdict(n, PASS, (note,)) for n in _verdict_names(r)),
        invariants=(zeros,),
        psi=SampleSeries("psi", tuple(0.0 for _ in pts)),
        scaled_entries=(),
        diagnostics=(),
        exclusions=tuple(exclusions),
        degenerate=True,
        notes=(note,),
    )


def _unevaluated_report(family, function, r, pts, tol, note, exclusions) -> HomogeneityReport:
    return HomogeneityReport(
        family=family, function=function, r=r, tol=tol, points=pts,
        verdicts=tuple(Verdict(n, HYP, (note,)) for n in _verdict_names(r)),
        invariants=(), psi=None, scaled_entries=(), diagnostics=(),
        exclusions=tuple(exclusions), degenerate=False, notes=(note,),
    )


def _sorted_values(by_index: dict) -> tuple:
    return tuple(by_index[i] for i in sorted(by_index))


def _custom_curvature(g: MetricField, points) -> float:
    """max |R^i_jkl| = max |g^im R_mjkl| over the points: the (1,3) curvature
    operator, which a constant rescaling g -> c g leaves unchanged."""
    curv = nabla_k_riemann(g, points, 0).components
    return float(np.abs(np.einsum("...im,...mjkl->...ijkl", np.linalg.inv(g.component_matrix(points)), curv)).max())


def _classify_custom(g: MetricField, r, pts, tol) -> HomogeneityReport:
    good, curv, failed = evaluate_points(lambda p: _custom_curvature(g, p), pts)
    if good and curv < DEGENERATE_FLOOR:
        return _vacuous_report("custom", None, r, pts, tol, "degenerate: zero curvature", _sorted_values(failed))
    if good:
        note = "no adapted frame construction for custom metrics; raw curvature available via verify/invariants"
    else:
        note = "the metric cannot be evaluated at any sample point"
    exclusions = [failed.get(i, Exclusion(p, note)) for i, p in enumerate(pts)]
    return _unevaluated_report("custom", None, r, pts, tol, note, exclusions)


def _classify_family(g: MetricField, fam: FamilySpec, r, pts, tol) -> HomogeneityReport:
    spec = FAMILIES[fam.family]
    fn = fam.function
    kmax = max(r, spec.min_order)
    npts = len(pts)
    good, s, failed = evaluate_points(lambda p: family_samples(g, kmax, p), pts)
    if good and float(s.hyp.max()) < DEGENERATE_FLOOR:  # scale-free: R on the unit adapted frame
        return _vacuous_report(fam.family, pretty(fn), r, pts, tol, "degenerate: zero curvature", _sorted_values(failed))
    included = [i for j, i in enumerate(good) if s.ok[j]]  # the hypothesis-satisfying points
    sch_idx = [i for j, i in enumerate(good) if s.sch[j]]  # of those, the ones with an SCH frame
    excluded = dict(failed)
    for j, i in enumerate(good):
        if not s.ok[j]:
            excluded[i] = Exclusion(pts[i], f"|{spec.hypothesis}| = {s.hyp[j]:.2e} below {FLOOR:.0e}")
    exclusions = _sorted_values(excluded)
    if not included:
        if not good:
            note = "the metric cannot be evaluated at any sample point"
        else:
            note = "nonvanishing hypothesis fails at every sample point"
        return _unevaluated_report(fam.family, pretty(fn), r, pts, tol, note, exclusions)

    hyp_heavy = len(included) <= npts / 2.0
    stacks = s.adapted
    e0 = stacks[0].dense()[:, T, X, X, T]
    series = {n: SampleSeries(n, s.column(n, good, npts)) for n in spec.invariants + spec.diagnostics if n in s.values}
    xi_spread = series["xi"].spread or 0.0
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
    ch0 = _sign_structure(e0[:, None]).analysis()
    st, nt = status_of(ch0)
    eps_val = float(np.sign(e0[0])) if ch0.status == "pass" else None
    if eps_val is not None:
        nt = nt + (f"epsilon = {eps_val:+.0f}",)
    verdicts.append(Verdict("CH_0", st, nt))

    # per-order Q(k) conditions and cumulative CH_k(1,3)
    entries = [_sign_structure(t.components, t.supports) for t in stacks[: r + 1]]  # for f, also the aligned frame's
    q_results = [_q_condition(entries[k], tol) for k in range(r + 1)]
    q_statuses = []
    for k in range(r + 1):
        st, nt = status_of(q_results[k])
        q_statuses.append(st)
        verdicts.append(Verdict(f"CH_{k}(1,3)", _overall(q_statuses[: k + 1]), nt))

    # SCH_k(1,3)

    scaled_series: list[SampleSeries] = []
    sch_statuses: list[str] = [verdicts[1].status]  # SCH_0 == CH_0(1,3) == Q(0)
    sch_notes: list[tuple[str, ...]] = [()]
    for k in range(1, r + 1):
        if spec.sch_hypothesis and entries[k].scale < DEGENERATE_FLOOR:
            st, nt = status_of(_OrderAnalysis("vacuous"))
        elif not sch_idx:
            st, nt = HYP, (f"|{spec.sch_hypothesis}| below floor at every hypothesis-satisfying point",)
        elif spec.sch_hypothesis and len(sch_idx) <= npts / 2.0:
            st, nt = HYP, (f"|{spec.sch_hypothesis}| below floor at more than half the sample points",)
        else:
            psi_arr = s.values["psi"][1]
            aligned = entries[k] if s.aligned is s.adapted else _sign_structure(s.aligned[k].components, s.aligned[k].supports)
            analysis = _scaled_constancy(aligned, psi_arr, k, tol)
            st, nt = status_of(analysis)
            if analysis.status != "vacuous":
                scaled = _representative_scaled(aligned, psi_arr, k)
                scaled_series.append(SampleSeries(f"scaled_order_{k}", per_point(sch_idx, scaled, npts)))
            if k >= spec.contradiction_order and st == PASS and xi_spread > tol:
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
    if xi_spread > tol:
        notes.append(
            f"evidence: order-1 invariant nonconstant (spread {xi_spread:.2e} > tol); "
            "not CH_1, hence not locally homogeneous"
        )
        if spec.scale_free and (series[spec.scale_free].spread or 0.0) <= tol:
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
        invariants=tuple(series[n] for n in spec.invariants if n in series),
        psi=SampleSeries("psi", s.column("psi", good, npts)),
        scaled_entries=tuple(scaled_series),
        diagnostics=tuple(series[n] for n in spec.diagnostics if n in series),
        exclusions=exclusions,
        degenerate=False,
        notes=tuple(notes),
    )
