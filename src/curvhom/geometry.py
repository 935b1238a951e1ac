"""Levi-Civita connection, curvature and its covariant derivatives on R^3.

A MetricField holds the 3x3 symmetric matrix of scalar expressions, and
`coords`, the coordinates they depend on.  All curvature quantities are
computed on the coordinate frame at a whole batch of sample points in one
pass, as stacked jets over the metric's coordinates: coefficient arrays of
shape (table_size(order, coords), npts, 3, ..., 3) that hold every raw
partial derivative (see jets.py) of every component at every point.  A
derivative along any other coordinate is a zero block, so a metric of one
coordinate pays for one-variable tables, and a metric in all three runs
the same code with coords = (0, 1, 2).  The public functions take
points of shape (..., 3) and return results with those leading axes; a
single point is a batch of one with the point axis dropped on the way out.

In dimension 3 the Weyl tensor vanishes, so the curvature is the
Kulkarni-Nomizu product of the Schouten tensor P = Ric - (s/4) g with g,

    R_{ijkl} = P_il g_jk + P_jk g_il - P_ik g_jl - P_jl g_ik,

and since nabla g = 0 the same expansion turns nabla^k P into nabla^k R.
One jet division (jets.jet_solve) gives g^{-1} and the Christoffel jets
together, the Ricci jets follow straight from them, and the covariant
recursion runs on the symmetric (0, 2+k) field nabla^k P; the (0, 4+k)
curvature is formed only where it is read: classify and build_model
expand on their frame, verify at the point, every order with one matmul
into a CurvatureSequence, so a pass over all orders reads one array.
Each covariant derivative trades one jet order for one extra tensor slot:

    (nabla T)_{i1..in; m} = d_m T_{i1..in} - sum_s Gamma^a_{m i_s} T_{..a..}

New differentiation slots are appended last, so nabla^k R is a (0, 4+k)
tensor with slots (i, j, k, l; v_1, ..., v_k).  Requesting nabla^k R
evaluates the metric to jet order k + 2.  A differentiation slot runs over
the connection's `dirs` only: coords and every m with some Gamma^a_{m i}
nonzero.  d_m vanishes off coords and Gamma is symmetric, so nabla^k P
vanishes off the box (all, all, dirs, ..., dirs); the f and h families,
with dirs = (t, x), pay 2^k entries per slot block for 3^k.  The recursion
keeps the jet axis last, [pt, slots, q], so each slot's Gamma correction
is one batched matmul over the trailing (slot, jet) pair, after which the
slot rotates to the front (_covariant_step); the Gamma Leibniz operator is
built once, at the top order, and each lower order cuts its leading jet
block out of it (_gamma_operators).  The algebraic
curvature symmetries hold by construction: the expansion is antisymmetric
in each pair exactly, and pair symmetry and the first Bianchi identity
follow from P being symmetric, which the recursion keeps.

christoffel and nabla_schouten_sequence run under jets.float_guard: a step
that leaves the float range at any point raises OverflowError("math range
error"), which names no point; classify.evaluate_points finds the points.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np

from . import jets
from .expr import Expr, coords_of, eval_jet
from .jets import stacked_product
from .tensor import AXES, TensorAtPoint, singular

Point = tuple[float, float, float]

MAX_ENTRIES = 1 << 24  # float64 entries (128 MiB) in the largest array one sequence may need


class MetricField:
    """3x3 symmetric matrix of scalar expressions in coordinates (t, x, y).

    Only the upper triangle of the constructor argument is read; the lower
    triangle is mirrored, so the field is symmetric by construction.
    """

    def __init__(self, entries: tuple[tuple[Expr, ...], ...], family: Optional[object] = None):
        self.entries = entries
        self.family = family

    def __repr__(self):
        return f"MetricField(entries={self.entries!r}, family={self.family!r})"

    @staticmethod
    def from_matrix(matrix, family=None) -> "MetricField":
        rows = []
        for i in range(3):
            rows.append(tuple(matrix[min(i, j)][max(i, j)] for j in range(3)))
        return MetricField(tuple(rows), family)

    def entry(self, i: int, j: int) -> Expr:
        return self.entries[i][j]

    @cached_property
    def coords(self) -> tuple[int, ...]:
        """Sorted positions (t = 0, x = 1, y = 2) of the coordinates the
        entries depend on: the coordinates every jet of the metric spans."""
        return coords_of(*(e for row in self.entries for e in row))

    def scaled(self, c: float) -> "MetricField":
        """Metric multiplied by a constant; (0, 4+k) curvature scales by c."""
        from .expr import BinOp, Num

        num = Num(float(c))
        rows = tuple(tuple(BinOp("*", num, e) for e in row) for row in self.entries)
        return MetricField(rows, None)

    def component_matrix(self, points) -> np.ndarray:
        """g_ij at the points, shape (..., 3, 3)."""
        return _metric_jets(self, points, 0)[0]


class DegenerateMetricError(ValueError):
    """The metric is singular at a requested point."""


def _as_points(points) -> tuple[np.ndarray, tuple[int, ...]]:
    """points as an (npts, 3) array, and the leading shape to restore."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1:] != (3,):
        raise ValueError(f"points must have shape (..., 3), got {pts.shape}")
    return pts.reshape(-1, 3), pts.shape[:-1]


class ConnectionJet:
    """Christoffel symbols Gamma^a_{ij} as stacked jets over coords at the
    sample points, with the metric and inverse-metric jets they were built
    from."""

    def __init__(self, order: int, coords: tuple[int, ...], gamma: np.ndarray, metric: np.ndarray, inverse: np.ndarray):
        self.order = order
        self.coords = coords
        self.gamma = gamma      # [pos, ..., a, i, j], symmetric in (i, j)
        self.metric = metric    # [pos, ..., i, j]
        self.inverse = inverse  # [pos, ..., i, j]

    def __repr__(self):
        return f"ConnectionJet(order={self.order!r}, coords={self.coords!r})"

    @cached_property
    def dirs(self) -> tuple[int, ...]:
        """coords and every m with some Gamma^a_{m i} nonzero at some jet
        position and point: the directions a derivative slot runs over."""
        along = (self.gamma != 0.0).any(axis=tuple(range(self.gamma.ndim - 1)))
        return tuple(sorted({*self.coords, *np.flatnonzero(along).tolist()}))


def _metric_jets(g: MetricField, points, order: int) -> np.ndarray:
    """Jets of g_ij over g.coords, shape (table_size(order, g.coords), ..., 3, 3)."""
    m = np.empty((jets.table_size(order, g.coords),) + np.shape(points)[:-1] + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            m[..., i, j] = m[..., j, i] = eval_jet(g.entry(i, j), points, order, g.coords)
    return m


def _derivatives(stack: np.ndarray, order: int, coords: tuple[int, ...], axis: int) -> np.ndarray:
    """d_l of a stacked jet field of `order` over coords, for l = t, x, y
    along a new axis at `axis`, of order - 1."""
    return np.stack([jets.jet_derivative(stack, c, order, coords) for c in AXES], axis=axis)


@jets.float_guard()
def christoffel(g: MetricField, points, order: int = 0) -> ConnectionJet:
    """Christoffel symbols of the Levi-Civita connection, and g^{-1}, as jets
    over g.coords at the points, from metric jets of order `order` + 1: one
    jets.jet_solve of (D g D) q = D [1 | first], first_{b,ij} = (1/2)(d_i g_{jb}
    + d_j g_{ib} - d_b g_{ij}), gives D q = [g^{-1} | Gamma].  D = diag(2^-h_i)
    per point, 2^(2 h_i) about row i's largest |g_ij|, scales exactly and
    keeps a constant multiple of a fine metric from overflowing; h is clipped
    so that D D stays a normal float.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    pts, batch = _as_points(points)
    coords = g.coords
    m = _metric_jets(g, pts, order + 1)
    n = jets.table_size(order, coords)
    h = np.clip(np.frexp(np.abs(m[0]).max(axis=-1))[1] // 2, -511, 511)  # [pt, i]
    d = np.ldexp(1.0, -h)[..., :, None]
    scaled = m[:n] * d * d.swapaxes(-1, -2)
    det = np.linalg.det(scaled[0])
    bad = singular(scaled[0], det)
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateMetricError(
            f"metric is degenerate at {tuple(pts[i].tolist())}: |det| = {np.ldexp(abs(det[i]), 2 * h[i].sum()):.3e}"
        )
    dm = _derivatives(m, order + 1, coords, 2)  # [pos, pt, l, i, j] = d_l g_ij
    first = 0.5 * (dm.transpose(0, 1, 4, 2, 3) + dm.transpose(0, 1, 4, 3, 2) - dm)  # [pos, pt, b, i, j]
    one = jets.jet_constant(np.eye(3), order, (len(pts), 3, 3), coords)
    q = d * jets.jet_solve(scaled, d * np.concatenate([one, first.reshape(n, len(pts), 3, 9)], axis=-1), order, coords)
    gamma = q[..., 3:].reshape(first.shape)
    return ConnectionJet(order, coords, *(a.reshape((n,) + batch + a.shape[2:]) for a in (gamma, m[:n], q[..., :3])))


def _schouten_jets(conn: ConnectionJet, order: int) -> np.ndarray:
    """Jets of the Schouten tensor P = Ric - (s/4) g to `order` < conn.order,
    on a connection with one point axis.

    Ric_jk = d_a Gamma^a_jk - d_k Gamma^a_aj + Gamma^a_ab Gamma^b_jk
    - Gamma^a_kb Gamma^b_aj, symmetrized once; P stays symmetric after.
    Each product is one jets.stacked_product on slots shaped here:
    Gamma^a_ab Gamma^b_jk as a (1, b) @ (b, jk) matmul, Gamma^a_kb Gamma^b_aj
    as (k, ab) @ (ab, j), s = g^jk Ric_jk as (1, jk) @ (jk, 1), and s g as a
    broadcast multiply.
    """
    coords = conn.coords
    n = jets.table_size(order, coords)
    ga = conn.gamma[:n]
    npts = ga.shape[1]
    dga = _derivatives(conn.gamma, conn.order, coords, 2)[:n]  # [pos, pt, l, a, i, j] = d_l Gamma^a_ij

    def matmul(a, b):
        return stacked_product(a, b, order, coords, np.matmul)

    ric = np.einsum("nzaajk->nzjk", dga) - np.einsum("nzkaaj->nzjk", dga)
    trace = np.einsum("nzaab->nzb", ga)[:, :, None, :]  # [pos, pt, 1, b]
    ric += matmul(trace, ga.reshape(n, npts, 3, 9)).reshape(n, npts, 3, 3)
    swapped = ga.transpose(0, 1, 3, 2, 4)  # [pos, pt, i, a, j] = Gamma^a_ij: both [k, a, b] and [a, b, j]
    ric -= matmul(swapped.reshape(n, npts, 3, 9), swapped.reshape(n, npts, 9, 3)).swapaxes(-1, -2)
    ric = 0.5 * (ric + ric.transpose(0, 1, 3, 2))
    s = matmul(conn.inverse[:n].reshape(n, npts, 1, 9), ric.reshape(n, npts, 9, 1))  # [pos, pt, 1, 1]
    return ric - 0.25 * stacked_product(s, conn.metric[:n], order, coords)


def _gamma_operators(gamma: np.ndarray, order_out: int, coords: tuple[int, ...], dirs) -> tuple[np.ndarray, np.ndarray]:
    """Dense Leibniz operators for multiplying a field by Gamma^a_{m i}, m in dirs.

    One matrix per point, from field coefficients (a, q) to product
    coefficients (i, m, p) at jet order order_out, shape (npts, 3, n, 3, d, n)
    for the first two slots, and with i and a over dirs for a derivative
    slot.  Each (p, q) pair occurs once in the product table, so one scatter
    fills it.  Graded tables are prefixes and raw-derivative Leibniz weights
    do not depend on the truncation order, so the operator at a lower order
    is the leading (q, p) block (_cut): one build serves a whole sequence.
    """
    a_pos, b_pos, out_pos, coef, _ = jets.product_table(order_out, coords)
    n, d, dirs = jets.table_size(order_out, coords), len(dirs), list(dirs)
    w = np.zeros((gamma.shape[1], 3, n, 3, d, n))
    w[:, :, b_pos, :, :, out_pos] = coef[:, None, None, None, None] * gamma[a_pos][..., dirs]
    return w, w[:, dirs][:, :, :, dirs]


def _cut(w: np.ndarray, n: int) -> np.ndarray:
    """The (a q, i m p) matrices of a _gamma_operators operator at n coefficients."""
    npts, a, _, i, d, _ = w.shape
    return w[:, :, :n, :, :, :n].reshape(npts, a * n, i * d * n)


def _covariant_step(field: np.ndarray, order_in: int, ops, coords: tuple[int, ...], dirs) -> np.ndarray:
    """One covariant derivative of a stacked (0, R) jet field over coords
    that is symmetric in its first two slots, whose other slots run over dirs.

    field has the jet axis last, shape (npts, 3, 3, d, ..., d, n_in); the
    result gains a slot for the derivative direction, over dirs, before the
    jet axis, and drops one jet order.  The slot being corrected sits just
    before the jet axis, so its Gamma correction is one batched matmul over
    the trailing (slot, jet) pair, by the cut of ops[1]; then one contiguous
    copy rotates it to the front, which brings the next slot to the end.
    After the derivative slots, last to first, the second slot's correction
    is one matmul by the cut of ops[0], the first's is its transpose, and
    the pair rotates to the front: the slots are back in order.  The
    corrections accumulate in the same rotated layout, so every subtraction
    is contiguous; acc is rebound at each reshape, so a reshape that copies
    cannot drop a subtraction.
    """
    n_out = jets.table_size(order_in - 1, coords)
    npts, rank, d = field.shape[0], field.ndim - 2, len(dirs)
    acc = np.zeros(field.shape[:-1] + (d, n_out))  # [pt, slots, m, p] = d_m field
    for r, c in enumerate(dirs):
        if c in coords:
            acc[..., r, :] = field[..., jets.shift_table(order_in, c, coords)]
    lower = np.ascontiguousarray(field[..., :n_out])
    dn, other, rest = d * n_out, math.prod(field.shape[1:-2]), math.prod(field.shape[3:-1])
    w0, wd = (_cut(w, n_out) for w in ops)
    for _ in range(rank - 2):  # lower [pt, other slots, slot, q], acc [pt, other slots, slot, m, p]
        acc = acc.reshape(npts, other, d * dn)
        acc -= lower.reshape(npts, other, dn) @ wd
        lower = lower.reshape(npts, other, d, n_out).transpose(0, 2, 1, 3).copy()
        acc = acc.reshape(npts, other, d, dn).transpose(0, 2, 1, 3).copy()
    corr = (lower.reshape(npts, rest * 3, 3 * n_out) @ w0).reshape(npts, rest, 3, 3, dn)
    acc = acc.reshape(npts, rest, 3, 3, dn)  # [pt, derivative slots, first, second, m, p]
    acc -= corr
    acc -= corr.swapaxes(2, 3)
    acc = acc.reshape(npts, rest, 9, dn).transpose(0, 2, 1, 3).copy()
    return acc.reshape(field.shape[:-1] + (d, n_out))


# R_{ijkl} = P_il g_jk + P_jk g_il - P_ik g_jl - P_jl g_ik is bilinear in (P, g):
# _KN[(i, j, k, l, p, q), (a, b)] is the coefficient of P_pq g_ab in R_ijkl.
_KN = np.einsum("ip,lq,ja,kb->ijklpqab", *[np.eye(3)] * 4)  # P_il g_jk
_KN = (_KN - _KN.swapaxes(0, 1) - _KN.swapaxes(2, 3) + _KN.swapaxes(0, 1).swapaxes(2, 3)).reshape(81 * 9, 9)


class CurvatureSequence:
    """Curvature tensors nabla^k R at the points, side by side in one array:
    entries[point, (i, j, k, l), column], each tensor's slots past the
    fourth, on the box tails[k], flattened into its own segment of columns.
    Indexing gives a TensorAtPoint view with the points' leading shape
    `batch`; a slice of consecutive tensors is the sequence of their columns."""

    def __init__(self, entries: np.ndarray, tails: tuple, batch: tuple = ()):
        self.entries = entries  # (npts, 81, width)
        self.tails = tails
        self.batch = batch

    def __repr__(self):
        return f"CurvatureSequence(tails={self.tails!r}, batch={self.batch!r})"

    @staticmethod
    def of(tensors) -> "CurvatureSequence":
        """Tensors on one batch, whose first four slots hold every direction,
        as a sequence: the tensors themselves if they are one, else a copy."""
        if isinstance(tensors, CurvatureSequence):
            return tensors
        n = math.prod(tensors[0].batch)
        parts = [t.components.reshape(n, 81, math.prod(t.shape[4:])) for t in tensors]
        return CurvatureSequence(np.concatenate(parts, axis=2), tuple(t.supports[4:] for t in tensors), tensors[0].batch)

    @cached_property
    def bounds(self) -> list[int]:
        """Tensor k's columns run from bounds[k] to bounds[k + 1]."""
        return np.cumsum([0] + [math.prod(map(len, tail)) for tail in self.tails]).tolist()

    @cached_property
    def owner(self) -> np.ndarray:
        """Per column, the index of its tensor."""
        return np.repeat(np.arange(len(self.tails)), np.diff(self.bounds))

    def at(self, mask) -> "CurvatureSequence":
        """The sequence at the points where the flat mask holds, on one point axis: itself if it holds everywhere."""
        if np.all(mask):
            return self
        return CurvatureSequence(self.entries[mask], self.tails, (int(np.count_nonzero(mask)),))

    def __len__(self) -> int:
        return len(self.tails)

    def __getitem__(self, k):
        if isinstance(k, slice):
            lo, hi, step = k.indices(len(self))
            if step != 1:
                raise ValueError("a CurvatureSequence slices consecutive tensors only")
            hi = max(lo, hi)
            return CurvatureSequence(self.entries[:, :, self.bounds[lo] : self.bounds[hi]], self.tails[lo:hi], self.batch)
        tail = self.tails[k]
        k %= len(self)
        cols = self.entries[:, :, self.bounds[k] : self.bounds[k + 1]]
        return TensorAtPoint(4 + len(tail), cols.reshape(self.batch + (3,) * 4 + tuple(map(len, tail))), (AXES,) * 4 + tail)


def kulkarni_nomizu(g0: TensorAtPoint, seq: list[TensorAtPoint]) -> CurvatureSequence:
    """nabla^k P ⊙ g0 = nabla^k R for each nabla^k P in seq, whose first two
    slots hold every direction, on the points' leading axes and P's box: one
    (81, 9) operator per point, and one batched matmul over every order's
    tail, laid side by side as the sequence's columns."""
    op = (g0.components.reshape(-1, 9) @ _KN.T).reshape(-1, 81, 9)
    r = op @ np.concatenate([p.components.reshape(len(op), 9, math.prod(p.shape[2:])) for p in seq], axis=2)
    return CurvatureSequence(r, tuple(p.supports[2:] for p in seq), g0.batch)


def _require_size(npts: int, kmax: int, coords: tuple[int, ...], d: int):
    """ValueError if a sequence to kmax with d derivative directions needs an
    array over MAX_ENTRIES entries: the curvature of every order, npts 81
    (1 + d + ... + d^kmax), or the Gamma operator, npts 9 d n^2 over n jet
    coefficients at order kmax - 1 (counted, not built)."""
    slots = kmax + 1 if d == 1 else sum(d**k for k in range(min(kmax, 64) + 1))  # d^64 is past any budget
    n = math.comb(max(kmax - 1, 0) + len(coords), len(coords))
    if npts * max(81 * slots, 9 * d * n * n) > MAX_ENTRIES:
        raise ValueError(f"order {kmax} at {npts} points needs an array of more than {MAX_ENTRIES} entries; "
                         "lower the order or the number of points")


@jets.float_guard()
def nabla_schouten_sequence(g: MetricField, points, kmax: int) -> tuple[TensorAtPoint, list[TensorAtPoint]]:
    """g and [P, nabla P, ..., nabla^kmax P] at the points, with the points'
    leading axes, each nabla^k P on the box (all, all, dirs, ..., dirs);
    OverflowError("math range error") from the float guard; ValueError,
    before allocating it, for an array over MAX_ENTRIES entries (checked on
    the metric's coordinates, then on dirs once Gamma gives them)."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    pts, batch = _as_points(points)
    _require_size(len(pts), kmax, g.coords, len(g.coords))
    conn = christoffel(g, pts, kmax + 1)
    _require_size(len(pts), kmax, conn.coords, len(conn.dirs))
    field = np.moveaxis(_schouten_jets(conn, kmax), 0, -1)  # [pt, i, j, q]
    ops = _gamma_operators(conn.gamma, max(kmax - 1, 0), conn.coords, conn.dirs)
    d = len(conn.dirs)
    ends = np.cumsum([9 * d**k for k in range(kmax + 1)]).tolist()
    flat = np.empty((len(pts), ends[-1]))  # every order's entries side by side, order k in [ends[k-1], ends[k])
    flat[:, :9] = field[..., 0].reshape(len(pts), 9)
    for k, order_in in enumerate(range(kmax, 0, -1), 1):
        field = _covariant_step(field, order_in, ops, conn.coords, conn.dirs)
        flat[:, ends[k - 1] : ends[k]] = field[..., 0].reshape(len(pts), -1)
    g0 = TensorAtPoint(2, conn.metric[0].reshape(batch + (3, 3)))
    return g0, [
        TensorAtPoint(2 + k, flat[:, e - 9 * d**k : e].reshape(batch + (3, 3) + (d,) * k), (AXES,) * 2 + (conn.dirs,) * k)
        for k, e in enumerate(ends)
    ]


def nabla_riemann_sequence(g: MetricField, points, kmax: int) -> list[TensorAtPoint]:
    """[R, nabla R, ..., nabla^kmax R] at the points, each a (0, 4+k)
    TensorAtPoint on every direction, with the points' leading axes."""
    return [TensorAtPoint(r.rank, r.dense()) for r in kulkarni_nomizu(*nabla_schouten_sequence(g, points, kmax))]


def riemann(g: MetricField, points) -> TensorAtPoint:
    """Riemann tensor R(d_i, d_j, d_k, d_l) = g(R(d_i, d_j) d_k, d_l) at the points."""
    return nabla_riemann_sequence(g, points, 0)[0]


def nabla_k_riemann(g: MetricField, points, k: int) -> TensorAtPoint:
    """k-th covariant derivative of the Riemann tensor at the points; k = 0 is riemann."""
    return nabla_riemann_sequence(g, points, k)[k]
