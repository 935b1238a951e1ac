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
The engine builds the Ricci jets straight from the Christoffel jets and
runs the covariant recursion on the symmetric (0, 2+k) field nabla^k P;
the (0, 4+k) curvature is formed only where it is read: classify and
build_model expand on their frame, verify at the point.  Each covariant
derivative trades one jet order for one extra tensor slot:

    (nabla T)_{i1..in; m} = d_m T_{i1..in} - sum_s Gamma^a_{m i_s} T_{..a..}

New differentiation slots are appended last, so nabla^k R is a (0, 4+k)
tensor with slots (i, j, k, l; v_1, ..., v_k).  Requesting nabla^k R
evaluates the metric to jet order k + 2.  The algebraic curvature
symmetries hold by construction: the expansion is antisymmetric in each
pair exactly, and pair symmetry and the first Bianchi identity follow from
P being symmetric, which the recursion keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import jets
from .expr import Expr, coords_of, eval_jet
from .jets import Jet, jet_div, stacked_product
from .tensor import TensorAtPoint, singular

Point = tuple[float, float, float]


@dataclass(frozen=True)
class MetricField:
    """3x3 symmetric matrix of scalar expressions in coordinates (t, x, y).

    Only the upper triangle of the constructor argument is read; the lower
    triangle is mirrored, so the field is symmetric by construction.
    """

    entries: tuple[tuple[Expr, ...], ...]
    family: Optional[object] = field(default=None, compare=False)

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


@dataclass(frozen=True, eq=False)
class ConnectionJet:
    """Christoffel symbols Gamma^a_{ij} as stacked jets over coords at the
    sample points, with the metric and inverse-metric jets they were built
    from."""

    order: int
    coords: tuple[int, ...]
    gamma: np.ndarray = field(repr=False)    # [pos, ..., a, i, j], symmetric in (i, j)
    metric: np.ndarray = field(repr=False)   # [pos, ..., i, j]
    inverse: np.ndarray = field(repr=False)  # [pos, ..., i, j]


def _metric_jets(g: MetricField, points, order: int) -> np.ndarray:
    """Jets of g_ij over g.coords, shape (table_size(order, g.coords), ..., 3, 3)."""
    m = np.empty((jets.table_size(order, g.coords),) + np.shape(points)[:-1] + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            m[..., i, j] = m[..., j, i] = eval_jet(g.entry(i, j), points, order, g.coords).coeffs
    return m


# Per row i, the two other rows in ascending order; and the cofactor signs.
_MINOR_ROWS = ([1, 0, 0], [2, 2, 1])
_COFACTOR_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def _inverse_metric_jets(m: np.ndarray, pts: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Jets of g^{ij}: the cofactors of the symmetric g over det g.

    The cofactors and det are those of D g D with D = diag(2^-h_i) per
    point, where 2^(2 h_i) is about row i's largest |g_ij|, and g^{-1} is
    D (D g D)^{-1} D.  Powers of two scale exactly, so this is the same
    inverse as without D, but a constant multiple of a fine metric does
    not overflow det.  h is clipped so that D D stays a normal float.
    """
    h = np.clip(np.frexp(np.abs(m[0]).max(axis=-1))[1] // 2, -511, 511)  # [pt, i]
    dd = np.ldexp(1.0, -h[..., :, None] - h[..., None, :])
    m = m * dd
    r1, r2 = _MINOR_ROWS
    a, b = m[..., r1, :], m[..., r2, :]
    with np.errstate(all="ignore"):  # an overflow shows in det, checked below
        cof = _COFACTOR_SIGN * (
            stacked_product("ij,ij->ij", a[..., r1], b[..., r2], order, coords)
            - stacked_product("ij,ij->ij", a[..., r2], b[..., r1], order, coords)
        )
        det = stacked_product("j,j->", m[..., 0, :], cof[..., 0, :], order, coords)
    overflow = ~np.isfinite(det[0])
    if overflow.any():
        raise OverflowError(f"metric determinant overflows at {tuple(pts[int(np.argmax(overflow))].tolist())}")
    bad = singular(m[0], det[0])
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateMetricError(
            f"metric is degenerate at {tuple(pts[i].tolist())}: |det| = {np.ldexp(abs(det[0, i]), 2 * h[i].sum()):.3e}"
        )
    with np.errstate(over="ignore"):  # g^{-1} itself can be out of range, checked below
        recip = jet_div(jets.jet_constant(1.0, order, det.shape[1:], coords), Jet(order, det, coords)).coeffs
        inv = stacked_product(",ij->ij", recip, cof, order, coords) * dd
    overflow = ~np.isfinite(inv).all(axis=(0, 2, 3))
    if overflow.any():
        raise OverflowError(f"metric inverse overflows at {tuple(pts[int(np.argmax(overflow))].tolist())}")
    return inv


def _derivatives(stack: np.ndarray, order: int, coords: tuple[int, ...], axis: int) -> np.ndarray:
    """d_l of a stacked jet field of `order` over coords, for l = t, x, y
    along a new axis at `axis`, of order - 1; a zero block along a
    coordinate outside coords."""
    zero = np.zeros((jets.table_size(order - 1, coords),) + stack.shape[1:])
    blocks = [stack[jets.shift_table(order, c, coords)] if c in coords else zero for c in range(3)]
    return np.stack(blocks, axis=axis)


def christoffel(g: MetricField, points, order: int = 0) -> ConnectionJet:
    """Christoffel symbols of the Levi-Civita connection as jets over
    g.coords at the points.

    Gamma^a_{ij} = (1/2) g^{ab} (d_i g_{jb} + d_j g_{ib} - d_b g_{ij});
    metric entries are evaluated to jet order `order` + 1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    pts, batch = _as_points(points)
    coords = g.coords
    m = _metric_jets(g, pts, order + 1)
    n = jets.table_size(order, coords)
    inv = _inverse_metric_jets(m[:n], pts, order, coords)
    dm = _derivatives(m, order + 1, coords, 2)  # [pos, pt, l, i, j] = d_l g_ij
    first = 0.5 * (dm.transpose(0, 1, 4, 2, 3) + dm.transpose(0, 1, 4, 3, 2) - dm)  # [pos, pt, b, i, j]
    gamma = stacked_product("ab,bij->aij", inv, first, order, coords)

    def unflat(a):
        return a.reshape((n,) + batch + a.shape[2:])

    return ConnectionJet(order, coords, unflat(gamma), unflat(m[:n]), unflat(inv))


def _schouten_jets(conn: ConnectionJet, order: int) -> np.ndarray:
    """Jets of the Schouten tensor P = Ric - (s/4) g to `order` < conn.order,
    on a connection with one point axis.

    Ric_jk = d_a Gamma^a_jk - d_k Gamma^a_aj + Gamma^a_ab Gamma^b_jk
    - Gamma^a_kb Gamma^b_aj, symmetrized once; P stays symmetric after.
    """
    coords = conn.coords
    n = jets.table_size(order, coords)
    ga = conn.gamma[:n]
    dga = _derivatives(conn.gamma, conn.order, coords, 2)[:n]  # [pos, pt, l, a, i, j] = d_l Gamma^a_ij
    ric = np.einsum("nzaajk->nzjk", dga) - np.einsum("nzkaaj->nzjk", dga)
    ric += stacked_product("b,bjk->jk", np.einsum("nzaab->nzb", ga), ga, order, coords)
    ric -= stacked_product("akb,baj->jk", ga, ga, order, coords)
    ric = 0.5 * (ric + ric.transpose(0, 1, 3, 2))
    s = stacked_product("jk,jk->", conn.inverse[:n], ric, order, coords)
    return ric - 0.25 * stacked_product(",jk->jk", s, conn.metric[:n], order, coords)


def _gamma_operator(gamma: np.ndarray, order_out: int, coords: tuple[int, ...]) -> np.ndarray:
    """Dense Leibniz operators for multiplying a field by Gamma^a_{m i}.

    One matrix per point, from field coefficients (q, a) to product
    coefficients (p, m, i): shape (npts, p·m·i, q·a), built once per output
    order.  Each (p, q) pair occurs once in the product table, so one
    scatter fills it.
    """
    a_pos, b_pos, out_pos, coef = jets.product_table(order_out, coords)
    n = jets.table_size(order_out, coords)
    npts = gamma.shape[1]
    w = np.zeros((npts, n, 3, 3, n, 3))
    w[:, out_pos, :, :, b_pos] = coef[:, None, None, None, None] * gamma[a_pos].transpose(0, 1, 3, 4, 2)
    return w.reshape(npts, n * 9, n * 3)


def _covariant_step(field: np.ndarray, order_in: int, w: np.ndarray, coords: tuple[int, ...]) -> np.ndarray:
    """One covariant derivative of a stacked (0, n) jet field over coords
    that is symmetric in its first two slots.

    field has shape (table_size(order_in, coords), npts, 3, ..., 3); the
    result gains a trailing slot for the derivative direction and drops one
    jet order.  The Gamma correction of each slot is one batched matrix
    product over (q, a); the second slot's is the first's transposed.
    """
    n_out = jets.table_size(order_in - 1, coords)
    npts = field.shape[1]
    out = _derivatives(field, order_in, coords, -1)
    lower = field[:n_out]
    for s in range(field.ndim - 2):
        if s == 1:
            continue
        moved = np.moveaxis(lower, (1, 2 + s), (0, 2))  # [pt, q, a, other slots]
        rest = moved.shape[3:]
        corr = (w @ moved.reshape(npts, n_out * 3, -1)).reshape((npts, n_out, 3, 3) + rest)
        corr = np.moveaxis(corr, (0, 2, 3), (1, -1, 2 + s))  # [p, pt, .., i at slot s, .., m]
        if s == 0:
            corr = corr + corr.swapaxes(2, 3)
        out -= corr
    return out


# R_{ijkl} = P_il g_jk + P_jk g_il - P_ik g_jl - P_jl g_ik is bilinear in (P, g):
# _KN[(i, j, k, l, p, q), (a, b)] is the coefficient of P_pq g_ab in R_ijkl.
_KN = np.einsum("ip,lq,ja,kb->ijklpqab", *[np.eye(3)] * 4)  # P_il g_jk
_KN = (_KN - _KN.swapaxes(0, 1) - _KN.swapaxes(2, 3) + _KN.swapaxes(0, 1).swapaxes(2, 3)).reshape(81 * 9, 9)


def kulkarni_nomizu(g0: TensorAtPoint, seq: list[TensorAtPoint]) -> list[TensorAtPoint]:
    """nabla^k P ⊙ g0 = nabla^k R for each nabla^k P in seq, on the points'
    leading axes: one (81, 9) operator per point, one batched matmul each."""
    batch = g0.components.shape[:-2]
    op = (g0.components.reshape(-1, 9) @ _KN.T).reshape(-1, 81, 9)
    rs = [op @ p.components.reshape(len(op), 9, 3 ** (p.rank - 2)) for p in seq]
    return [TensorAtPoint(p.rank + 2, r.reshape(batch + (3,) * (p.rank + 2))) for p, r in zip(seq, rs)]


def nabla_schouten_sequence(g: MetricField, points, kmax: int) -> tuple[TensorAtPoint, list[TensorAtPoint]]:
    """g and [P, nabla P, ..., nabla^kmax P] at the points, with the points'
    leading axes; OverflowError at the first point with a non-finite entry."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    pts, batch = _as_points(points)
    with np.errstate(all="ignore"):  # a non-finite entry is checked below
        conn = christoffel(g, pts, kmax + 1)
        field = _schouten_jets(conn, kmax)
        seq = [field[0]]
        for order_in in range(kmax, 0, -1):
            w = _gamma_operator(conn.gamma, order_in - 1, conn.coords)
            field = _covariant_step(field, order_in, w, conn.coords)
            seq.append(field[0])
    finite = np.all([np.isfinite(p).all(axis=tuple(range(1, p.ndim))) for p in seq], axis=0)  # per point
    if not finite.all():
        raise OverflowError(f"curvature overflows at {tuple(pts[int(np.argmin(finite))].tolist())}")
    g0 = TensorAtPoint(2, conn.metric[0].reshape(batch + (3, 3)))
    return g0, [TensorAtPoint(p.ndim - 1, p.reshape(batch + p.shape[1:])) for p in seq]


def nabla_riemann_sequence(g: MetricField, points, kmax: int) -> list[TensorAtPoint]:
    """[R, nabla R, ..., nabla^kmax R] at the points, each a (0, 4+k)
    TensorAtPoint with the points' leading axes."""
    return kulkarni_nomizu(*nabla_schouten_sequence(g, points, kmax))


def riemann(g: MetricField, points) -> TensorAtPoint:
    """Riemann tensor R(d_i, d_j, d_k, d_l) = g(R(d_i, d_j) d_k, d_l) at the points."""
    return nabla_riemann_sequence(g, points, 0)[0]


def nabla_k_riemann(g: MetricField, points, k: int) -> TensorAtPoint:
    """k-th covariant derivative of the Riemann tensor at the points; k = 0 is riemann."""
    return nabla_riemann_sequence(g, points, k)[k]
