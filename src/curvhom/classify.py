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
the points are excluded.  A metric whose every computed nabla^k R vanishes
at every evaluated point (_curvature_size below DEGENERATE_FLOOR)
short-circuits to vacuous passes marked "degenerate: zero curvature".

`FAMILIES` is the one place a built-in family is described: its metric,
oracle, hypotheses, frames, invariants and report columns.  The classifier,
the CLI and the survey script read it; a new family is a new entry.

Every order's tests run in one pass per frame (_order_tests): the frame's
nabla^k R for k <= r arrive side by side in one CurvatureSequence, pulled
back and expanded on one plan, and the sign structure, the X-multiplicity
ratio test and the scaled-constancy test read all of them at once, with
groups keyed by (order, multiplicity), one sort for every spread and
per-order maxima gathered by each column's order.  The CH_0 entry is one
more order of that pass; only the h family, whose SCH frame is a second
frame at its own points, runs a second pass there.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .expr import DomainError, Expr
from .families import (
    delta_derivatives,
    family_f_metric,
    family_f_oracles,
    family_h_metric,
    family_h_oracles,
    profile_derivatives,
)
from .geometry import (
    MAX_ENTRIES,
    CurvatureSequence,
    DegenerateMetricError,
    MetricField,
    Point,
    kulkarni_nomizu,
    nabla_schouten_sequence,
)
from .jets import float_guard
from .models import T, X, Y, adapted_frame
from .tensor import AXES, pullback

FLOOR = 1e-8          # nonvanishing floor on |R(T,X,X,T)| (|delta|, |h''|) and |h'''| on the unit adapted frame
ZERO_FLOOR = 1e-9     # entries below this (relative) count as structural zeros
SPREAD_FLOOR = 1e-9   # denominator floor in relative spreads
DEGENERATE_FLOOR = 1e-10
TIE_MARGIN = 1e-9     # relative: column maxima this close to the largest tie

PASS, FAIL, HYP = "pass", "fail", "hypothesis-violated"

# What evaluating the metric at one bad sample point can raise; the point
# becomes an exclusion and the run carries on.
POINT_ERRORS = (DomainError, OverflowError, DegenerateMetricError)
UNEVALUATED = "the metric cannot be evaluated at any sample point"


class HypothesisViolation(Exception):
    """A nonvanishing hypothesis fails at the requested point."""


class GridAxis(NamedTuple):
    lo: float
    hi: float
    count: int

    def values(self) -> list[float]:
        if self.count < 1:
            raise ValueError("grid count must be >= 1")
        if self.count == 1:
            return [self.lo]
        return np.linspace(self.lo, self.hi, self.count).tolist()


class GridSpec(NamedTuple):
    """Per-coordinate ranges; unspecified coordinates are pinned to 0."""

    axes: tuple[Optional[GridAxis], Optional[GridAxis], Optional[GridAxis]]

    def points(self) -> tuple[Point, ...]:
        """Every grid point, sorted; ValueError, before any is built, past the
        MAX_ENTRIES // 81 points whose order-0 curvature one array holds."""
        size = math.prod(axis.count for axis in self.axes if axis)
        if size > MAX_ENTRIES // 81:
            raise ValueError(f"the grid has {size} points, more than the {MAX_ENTRIES // 81} whose curvature "
                             f"fits in {MAX_ENTRIES} entries; lower the counts")
        values = [axis.values() if axis else [0.0] for axis in self.axes]
        pts = [(tv, xv, yv) for tv in values[0] for xv in values[1] for yv in values[2]]
        return tuple(sorted(pts))


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


class SampleSeries(NamedTuple):
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


class Verdict(NamedTuple):
    name: str
    status: str
    notes: tuple[str, ...] = ()

    def summary(self) -> dict:
        return {"name": self.name, "status": self.status, "notes": list(self.notes)}


class Exclusion(NamedTuple):
    point: Point
    reason: str

    def summary(self) -> dict:
        return {"point": list(self.point), "reason": self.reason}


class HomogeneityReport(NamedTuple):
    verdicts: tuple[Verdict, ...]
    invariants: tuple[SampleSeries, ...] = ()
    psi: Optional[SampleSeries] = None
    scaled_entries: tuple[SampleSeries, ...] = ()
    diagnostics: tuple[SampleSeries, ...] = ()
    exclusions: tuple[Exclusion, ...] = ()
    degenerate: bool = False
    notes: tuple[str, ...] = ()

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
        """The classify report's JSON body."""
        return {
            "verdicts": [v.summary() for v in self.verdicts],
            "invariants": [s.summary() for s in self.invariants],
            "psi": self.psi.summary() if self.psi else None,
            "scaled_entries": [s.summary() for s in self.scaled_entries],
            "diagnostics": [s.summary() for s in self.diagnostics],
            "exclusions": [e.summary() for e in self.exclusions],
            "degenerate": self.degenerate,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# the built-in families


class FamilySamples(NamedTuple):
    """One batched evaluation of a family metric over sample points, read off its unit adapted frame alone."""

    hyp: np.ndarray       # per point: |the family's hypothesis quantity| = |R(T,X,X,T)| on the unit adapted frame
    sch_hyp: np.ndarray   # per point: |the quantity its SCH frame needs|
    ok: np.ndarray        # per point: hyp >= FLOOR
    sch: np.ndarray       # per point: has an SCH frame, ok and sch_hyp >= FLOOR
    adapted: CurvatureSequence    # nabla^k R on the unit adapted frame, at the ok points
    aligned: CurvatureSequence    # nabla^k R on the SCH frame, at the sch points
    values: dict          # invariant -> (its mask, ok or sch; its values there)
    size: float           # _curvature_size of the sequence these were read from

    def column(self, name: str, index, n: int) -> tuple:
        """Invariant `name` over n samples, None where undefined; this batch's point j is sample index[j]."""
        mask, values = self.values.get(name, (self.sch, None))
        return per_point([index[j] for j in np.flatnonzero(mask)], values, n)


def _curvature_size(seq) -> float:
    """The largest |nabla^k P| over the points and orders of a nabla_schouten_sequence, 0 on an empty box: 0 exactly
    where every nabla^k R = nabla^k P ⊙ g is.  P and nabla do not change under g -> c g, so neither does this size."""
    return max(float(np.abs(p.components).max(initial=0.0)) for p in seq)


def _unit_frame_sequence(g: MetricField, kmax: int, points: np.ndarray) -> tuple[CurvatureSequence, list, float]:
    """nabla^k R at every point on the unit adapted frame of g's own matrices, from one sequence, pullback and
    expansion; its entries R(T,X,X,T; T, ..., T), k <= min(kmax, 2), per point, read in place on the box
    of a family, whose derivative slots hold t and x at most; and the sequence's _curvature_size."""
    g0, seq = nabla_schouten_sequence(g, points, kmax)
    phi, *framed = pullback([g0, *seq], adapted_frame(g0.components, 1.0))
    unit = kulkarni_nomizu(phi, framed)
    tx = [unit[k].embed((AXES,) * 4 + ((T, X),) * k) for k in range(min(kmax, 2) + 1)]
    return unit, [t[(slice(None), T, X, X, T) + (T,) * k] for k, t in enumerate(tx)], _curvature_size(seq)


def _rescaled(seq: CurvatureSequence, lam) -> CurvatureSequence:
    """seq on its frame times diag(1, lam, 1/lam), lam per point: each entry times lam^(#X - #Y) of its slots."""
    weight = _multiplicities(seq.tails, X) - _multiplicities(seq.tails, Y)
    return CurvatureSequence(seq.entries * np.reshape(lam, (-1, 1, 1)) ** weight, seq.tails, seq.batch)


def _f_samples(g: MetricField, kmax: int, points: np.ndarray) -> FamilySamples:
    """On the unit adapted frame R(T,X,X,T) = -delta, xi = nabla R(T,X,X,T;X)^2 = (delta')^2, and the
    scale-free sch_ratio = xi / R(T,X,X,T)^3.  The SCH frame is that frame."""
    unit, (e0, *_), size = _unit_frame_sequence(g, kmax, points)
    hyp = np.abs(e0)
    ok = hyp >= FLOOR
    adapted = unit.at(ok)
    e0, xi = e0[ok], adapted[1].dense()[:, T, X, X, T, X] ** 2
    values = dict(xi=(ok, xi), sch_ratio=(ok, xi / e0**3), psi=(ok, np.abs(e0)))
    return FamilySamples(hyp, hyp, ok, ok, adapted, adapted, values, size)


def _h_samples(g: MetricField, kmax: int, points: np.ndarray) -> FamilySamples:
    """On the unit adapted frame R(T,X,X,T), nabla R(T,X,X,T;T) and nabla^2 R(T,X,X,T;T,T) are h'', h''' and
    h''''; xi = (h'''/h'')^2 and xi_T_alt = h'''' / h''^2.  The SCH frame is the unit frame _rescaled by
    lam = |h'''| / |h''|^{3/2}: its order-0 and order-1 entries are (+-psi, +-psi^{3/2}), psi = (h'''/h'')^2, and

        xi_T = nabla^2 R(T,X,X,T;T,T) / psi^2 = h'''' h'' / (h''')^2
        xi_X = -nabla^2 R(T,X,X,T;X,X) / psi^2 = h' h''' / (h'')^2

    The sign on xi_X compensates the recursion's -Gamma^t_{xx} term so that exponential profiles report +1.
    """
    unit, (e0, e1, e2), size = _unit_frame_sequence(g, kmax, points)
    hyp, sch_hyp = np.abs(e0), np.abs(e1)
    ok, sch = hyp >= FLOOR, (hyp >= FLOOR) & (sch_hyp >= FLOOR)
    values = dict(xi=(ok, e1[ok] ** 2 / e0[ok] ** 2), xi_T_alt=(ok, e2[ok] / e0[ok] ** 2))
    aligned = _rescaled(unit.at(sch), sch_hyp[sch] / hyp[sch] ** 1.5)
    if sch.any():  # else classify reports no xi_T and xi_X series
        psi, a2 = np.abs(aligned[0].components[:, T, X, X, T]), aligned[2].dense()[:, T, X, X, T]
        values.update(psi=(sch, psi), xi_T=(sch, a2[:, T, T] / psi**2), xi_X=(sch, -a2[:, X, X] / psi**2))
    return FamilySamples(hyp, sch_hyp, ok, sch, unit.at(ok), aligned, values, size)


class Family(NamedTuple):
    """Everything that differs between the built-in families."""

    metric: Callable                    # profile -> MetricField
    oracle: Callable                    # (profile, points, kmax, dirs) -> CurvatureSequence of closed-form R..nabla^kmax R
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


@float_guard()
def family_samples(g: MetricField, kmax: int, points) -> FamilySamples:
    """R, ..., nabla^kmax R of a built-in family metric at all points (shape
    (npts, 3)) at once, on the family's adapted and SCH frames, with its
    invariants, from the metric alone, under the float guard: an overflow there is an exclusion."""
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


class SecondOrderRatios(NamedTuple):
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
# the order tests: every order of a frame in one pass


@lru_cache(maxsize=None)
def _multiplicities(tails: tuple, axis: int) -> np.ndarray:
    """Per (i, j, k, l) and column of a CurvatureSequence with these tail
    boxes, how many of its slots hold `axis`.  Cached and read-only: shared."""
    def count(box):
        out = np.zeros((), dtype=np.intp)
        for slot in box:
            out = np.add.outer(out, np.asarray(slot, dtype=np.intp) == axis)
        return out.ravel()

    table = count((AXES,) * 4)[:, None] + np.concatenate([count(tail) for tail in tails])
    table.flags.writeable = False
    return table


class _OrderTests(NamedTuple):
    """Per order: its largest |entry| and the (status, notes) of its CH and
    SCH tests, status pass, fail or vacuous; given psi, its representative
    scaled entry at each point, a column of scaled."""

    scale: np.ndarray
    ch: list
    sch: list
    scaled: Optional[np.ndarray]


def _first_per(groups: np.ndarray, keys: np.ndarray, n: int) -> dict[int, int]:
    """Per group in range(n) that occurs, its smallest key."""
    first = np.full(n, np.iinfo(np.intp).max)
    np.minimum.at(first, groups, keys)
    return {g: int(first[g]) for g in np.flatnonzero(first < np.iinfo(np.intp).max).tolist()}


def _order_tests(seq: CurvatureSequence, tol: float, ratios: bool = True, psi=None, entry=None) -> _OrderTests:
    """The CH and SCH tests of every order in seq, read in place, in one
    pass; `entry`, one value per point, is one more order, last (CH_0's).

    An order whose entries all vanish is vacuous; one with an entry that
    vanishes (relative to its largest) at some points only, or changes
    sign, fails.  The other entries are live.  With `ratios`, the live
    entries of each passing order keep constant ratios within each (order,
    X-multiplicity) group, over its first entry of largest minimum |entry|.
    Given psi, those of each passing order k >= 1 over psi^((k+2)/2) are
    constant, and the order's representative is its first column within
    TIE_MARGIN of its largest |entry|.  The live entries lie side by side in
    C order over [(i, j, k, l), column], which keeps each order's own C
    order: "first" is first in it.  Every spread comes from one sort.
    """
    e, n = seq.entries, len(seq) + (entry is not None)
    top = np.maximum(e.max(axis=0), -e.min(axis=0))  # max |entry| over the points, [ijkl, column]
    scale = np.zeros(n)
    np.maximum.at(scale, seq.owner, top.max(axis=0))
    live = np.flatnonzero(~(top <= ZERO_FLOOR * scale[seq.owner]))  # not zero at every point, flat over [ijkl, column]
    ab, col = np.divmod(live, top.shape[1])
    lf, lseg, lx = e[:, ab, col], seq.owner[col], _multiplicities(seq.tails, X).ravel()[live]
    if entry is not None:
        scale[-1] = np.abs(entry).max()
        if not scale[-1] <= ZERO_FLOOR * scale[-1]:  # live: a group of its own
            lf, lseg, lx = np.column_stack((lf, entry)), np.append(lseg, n - 1), np.append(lx, 0)
    lmag = np.abs(lf)
    partial = np.bincount(lseg[np.fmin.reduce(lmag, axis=0) <= ZERO_FLOOR * scale[lseg]], minlength=n) > 0
    flips = np.bincount(lseg[(np.sign(lf) != np.sign(lf[:1])).any(axis=0)], minlength=n) > 0
    passed = ~((scale < DEGENERATE_FLOOR) | partial | flips)
    ch = [
        ("vacuous", ("all entries vanish at this order",)) if s < DEGENERATE_FLOOR
        else ("fail", ("an entry vanishes at some sample points only",)) if p
        else ("fail", ("an entry changes sign across sample points",)) if f
        else ("pass", ())
        for s, p, f in zip(scale.tolist(), partial.tolist(), flips.tolist())
    ]
    sch, scaled, blocks = list(ch), None, []
    if ratios:  # each live entry of a passing order over its group's reference
        pick = np.flatnonzero(passed[lseg])
        cseg, cx = lseg[pick], lx[pick]
        gid = cseg * (int(cx.max(initial=0)) + 1) + cx
        by_group = np.lexsort((-lmag[:, pick].min(axis=0), gid))  # stable: a tie keeps the C order
        head = np.ones(len(pick), dtype=bool)
        head[1:] = gid[by_group][1:] != gid[by_group][:-1]
        ref = np.empty(len(pick), dtype=np.intp)
        ref[by_group] = by_group[head][np.cumsum(head) - 1]
        blocks.append(lf[:, pick] / lf[:, pick[ref]])  # a reference's own ratio is 1: spread 0
    if psi is not None:  # each live entry of a passing order k >= 1 over psi^((k+2)/2)
        orders = [len(tail) for tail in seq.tails]
        den = np.stack([psi ** ((k + 2) / 2.0) for k in orders], axis=1)  # a scalar exponent keeps numpy's fast paths
        derived = np.asarray(orders + [0] * (n - len(seq))) >= 1  # CH_0's entry has no scaled test
        spick = np.flatnonzero((passed & derived)[lseg])
        blocks.append(np.abs(lf[:, spick] / den[:, lseg[spick]]))
    spread = _spreads(np.concatenate(blocks, axis=1)) if blocks else None
    if ratios:
        over = np.flatnonzero(spread[: len(pick)] > tol)
        for i, key in _first_per(cseg[over], cx[over] * len(pick) + over, n).items():  # smallest multiplicity, then C order
            c = key % len(pick)
            note = f"entries of X-multiplicity {cx[c]} have point-dependent ratio (spread {float(spread[c]):.2e})"
            ch[i] = ("fail", ch[i][1] + (note,))
        groups = np.bincount(cseg[by_group[head]], minlength=n).tolist()
        for i, (status, notes) in enumerate(ch):
            if status == "pass" and groups[i] > 2:
                note = (
                    f"{groups[i]} distinct X-multiplicities at this order; "
                    "two-parameter matching not fully determined, raw entries exposed"
                )
                ch[i] = (status, notes + (note,))
    if psi is not None:
        scaled_spread = spread[len(spread) - len(spick) :]
        over = np.flatnonzero(scaled_spread > tol)
        for i, c in _first_per(lseg[spick[over]], over, n).items():
            note = f"a scaled order-{orders[i]} entry is nonconstant (spread {float(scaled_spread[c]):.2e})"
            sch[i] = ("fail", sch[i][1] + (note,))
        first = np.full(len(seq), top.size)  # per order, its first entry near the largest
        near = np.flatnonzero(top >= (1.0 - TIE_MARGIN) * scale[seq.owner])
        np.minimum.at(first, seq.owner[near % top.shape[1]], near)
        first = np.where(first < top.size, first, seq.bounds[:-1])  # none near a NaN scale: the first, as argmax
        scaled = e[:, first // top.shape[1], first % top.shape[1]] / den
    return _OrderTests(scale, ch, sch, scaled)


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
    exclusions by point index, in index order.
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


def classify(g: MetricField, r: int, points, tol: float = 1e-6) -> HomogeneityReport:
    """Finite-sample homogeneity verdicts for a metric over sample points, any iterable of (t, x, y)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    pts = tuple(sorted(tuple(map(float, p)) for p in points))
    if not pts:
        raise ValueError("sample set is empty")
    if g.family is not None and g.family.family in FAMILIES:
        return _classify_family(g, FAMILIES[g.family.family], r, pts, tol)
    return _classify_custom(g, r, pts)


def _verdict_names(r: int) -> list[str]:
    return ["CH_0"] + [f"CH_{k}(1,3)" for k in range(r + 1)] + [f"SCH_{k}(1,3)" for k in range(r + 1)]


def _vacuous_report(r, npts, exclusions) -> HomogeneityReport:
    note = "degenerate: zero curvature"
    return HomogeneityReport(
        verdicts=tuple(Verdict(n, PASS, (note,)) for n in _verdict_names(r)),
        invariants=(SampleSeries("xi", (0.0,) * npts),),
        psi=SampleSeries("psi", (0.0,) * npts),
        exclusions=tuple(exclusions),
        degenerate=True,
        notes=(note,),
    )


def _unevaluated_report(r, note, exclusions) -> HomogeneityReport:
    verdicts = tuple(Verdict(n, HYP, (note,)) for n in _verdict_names(r))
    return HomogeneityReport(verdicts, exclusions=tuple(exclusions), notes=(note,))


def _classify_custom(g: MetricField, r, pts) -> HomogeneityReport:
    good, size, failed = evaluate_points(lambda p: _curvature_size(nabla_schouten_sequence(g, p, r)[1]), pts)
    if good and size < DEGENERATE_FLOOR:
        return _vacuous_report(r, len(pts), failed.values())
    unsupported = "no adapted frame construction for custom metrics; raw curvature available via verify/invariants"
    note = unsupported if good else UNEVALUATED
    exclusions = [failed.get(i, Exclusion(p, note)) for i, p in enumerate(pts)]
    return _unevaluated_report(r, note, exclusions)


def _classify_family(g: MetricField, spec: Family, r, pts, tol) -> HomogeneityReport:
    kmax = max(r, spec.min_order)
    npts = len(pts)
    good, s, failed = evaluate_points(lambda p: family_samples(g, kmax, p), pts)
    if good and s.size < DEGENERATE_FLOOR:
        return _vacuous_report(r, npts, failed.values())
    included = [i for j, i in enumerate(good) if s.ok[j]]  # the hypothesis-satisfying points
    sch_idx = [i for j, i in enumerate(good) if s.sch[j]]  # of those, the ones with an SCH frame
    excluded = dict(failed)
    for j, i in enumerate(good):
        if not s.ok[j]:
            excluded[i] = Exclusion(pts[i], f"|{spec.hypothesis}| = {s.hyp[j]:.2e} below {FLOOR:.0e}")
    exclusions = tuple(excluded[i] for i in sorted(excluded))
    if not included:
        note = "nonvanishing hypothesis fails at every sample point" if good else UNEVALUATED
        return _unevaluated_report(r, note, exclusions)

    hyp_heavy = len(included) <= npts / 2.0
    e0 = s.adapted[0].dense()[:, T, X, X, T]
    series = {n: SampleSeries(n, s.column(n, good, npts)) for n in spec.invariants + spec.diagnostics if n in s.values}
    xi_spread = series["xi"].spread or 0.0
    notes: list[str] = []
    verdicts: list[Verdict] = []

    def status_of(status: str, found: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
        if hyp_heavy:
            return HYP, ("more than half the sample points violate the nonvanishing hypothesis",)
        if status == "fail":
            return FAIL, found
        if status == "vacuous":
            return PASS, found + ("vacuously satisfied: zero tensor at this order",)
        return PASS, found

    # every order's tests in one pass: CH on the adapted frame, with CH_0's
    # entry as one more order after them, and SCH on the aligned frame
    sch_ok = bool(sch_idx) and not (spec.sch_hypothesis and len(sch_idx) <= npts / 2.0)
    psi = s.values["psi"][1] if sch_ok else None
    same = s.aligned is s.adapted
    ch = _order_tests(s.adapted[: r + 1], tol, psi=psi if same else None, entry=e0)
    sch = ch if same or psi is None else _order_tests(s.aligned[: r + 1], tol, ratios=False, psi=psi)

    # CH_0: constant-sign unit-normalized curvature entry
    st, nt = status_of(*ch.ch[r + 1])
    if ch.ch[r + 1][0] == "pass":
        nt = nt + (f"epsilon = {float(np.sign(e0[0])):+.0f}",)
    verdicts.append(Verdict("CH_0", st, nt))

    # per-order Q(k) conditions and cumulative CH_k(1,3)
    q_statuses = []
    for k in range(r + 1):
        st, nt = status_of(*ch.ch[k])
        q_statuses.append(st)
        verdicts.append(Verdict(f"CH_{k}(1,3)", _overall(q_statuses), nt))

    # SCH_k(1,3)
    scaled_series: list[SampleSeries] = []
    sch_statuses: list[str] = [verdicts[1].status]  # SCH_0 == CH_0(1,3) == Q(0)
    sch_notes: list[tuple[str, ...]] = [()]
    for k in range(1, r + 1):
        if spec.sch_hypothesis and ch.scale[k] < DEGENERATE_FLOOR:
            st, nt = status_of("vacuous", ())
        elif not sch_idx:
            st, nt = HYP, (f"|{spec.sch_hypothesis}| below floor at every hypothesis-satisfying point",)
        elif psi is None:
            st, nt = HYP, (f"|{spec.sch_hypothesis}| below floor at more than half the sample points",)
        else:
            st, nt = status_of(*sch.sch[k])
            if sch.sch[k][0] != "vacuous":
                scaled_series.append(SampleSeries(f"scaled_order_{k}", per_point(sch_idx, sch.scaled[:, k], npts)))
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
        verdicts=tuple(verdicts),
        invariants=tuple(series[n] for n in spec.invariants if n in series),
        psi=SampleSeries("psi", s.column("psi", good, npts)),
        scaled_entries=tuple(scaled_series),
        diagnostics=tuple(series[n] for n in spec.diagnostics if n in series),
        exclusions=exclusions,
        notes=tuple(notes),
    )
