"""Truncated Taylor (jet) arithmetic in the three coordinates (t, x, y).

A jet of order ``n`` at a point stores every partial derivative
``d^i_t d^j_x d^k_y f`` with ``i + j + k <= n`` as a raw derivative value
(not divided by factorials).  Multiplication propagates derivatives by the
Leibniz rule, composition with a univariate function by a truncated Taylor
expansion around the inner value.  All operations are exact up to floating
round-off; nothing here uses finite differencing.

Coefficient vectors are laid out along a graded ordering of multi-indices,
so the table for order ``n`` is a prefix of the table for order ``n + 1``
and truncation is a slice.  Coefficient arrays carry the jet axis first and
the point axis after it: a jet over a grid of ``npts`` sample points has
shape ``(table_size(n), npts)`` and every operation acts on all points at
once, so one call evaluates the whole grid.  A single point is a batch of
one, or a jet with no point axis at all; the code is the same either way.
``stacked_product`` multiplies whole tensor fields of jets, stored as
coefficient arrays of shape ``(table_size(n), npts, 3, ..., 3)``;
``jet_mul`` is its scalar case.  It gathers the coefficients of each
Leibniz row, contracts the tensor slots of all rows and points with one
batched matmul (a broadcast multiply when no slot is summed), and sums the
rows into jet positions with one ``np.add.reduceat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

DIM = 3


@lru_cache(maxsize=None)
def multi_indices(order: int) -> tuple[tuple[int, int, int], ...]:
    """All multi-indices (i_t, i_x, i_y) with total degree <= order, graded."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    out = []
    for total in range(order + 1):
        for i in range(total, -1, -1):
            for j in range(total - i, -1, -1):
                out.append((i, j, total - i - j))
    return tuple(out)


@lru_cache(maxsize=None)
def index_position(order: int) -> dict[tuple[int, int, int], int]:
    return {m: p for p, m in enumerate(multi_indices(order))}


@lru_cache(maxsize=None)
def table_size(order: int) -> int:
    return len(multi_indices(order))


@lru_cache(maxsize=None)
def product_table(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index/coefficient arrays implementing the Leibniz convolution.

    Returns (a_pos, b_pos, out_pos, coef) so that for coefficient vectors
    a, b truncated at `order`:  out[out_pos] += coef * a[a_pos] * b[b_pos].
    Rows run over a_pos, then b_pos, both ascending.
    """
    idx = np.asarray(multi_indices(order), dtype=np.intp)
    degree = idx.sum(axis=1)
    a_pos, b_pos = np.nonzero(degree[:, None] + degree[None, :] <= order)
    gamma = idx[a_pos] + idx[b_pos]
    lookup = np.zeros((order + 1,) * DIM, dtype=np.intp)
    lookup[tuple(idx.T)] = np.arange(len(idx))
    binom = np.array([[math.comb(n, k) for k in range(order + 1)] for n in range(order + 1)], dtype=np.float64)
    coef = binom[gamma, idx[a_pos]].prod(axis=1)  # multinomial weight on raw derivatives
    return a_pos, b_pos, lookup[tuple(gamma.T)], coef


@lru_cache(maxsize=None)
def _sorted_product_table(order: int):
    """product_table sorted by output position, with each position's start."""
    a_pos, b_pos, out_pos, coef = product_table(order)
    perm = np.argsort(out_pos, kind="stable")
    starts = np.searchsorted(out_pos[perm], np.arange(table_size(order)))
    return a_pos[perm], b_pos[perm], coef[perm], starts


@lru_cache(maxsize=None)
def _slot_plan(spec: str, ndim_a: int, ndim_b: int):
    """How stacked_product contracts the tensor slots of an einsum spec,
    for operands with ndim_a and ndim_b axes.

    Each slot letter is shared (in both operands and the output), free (in
    one operand and the output) or summed (in both operands only).  Returns
    the point-axis counts of a and b, the axis orders that put a's slots in
    (shared, free_a, summed) order and b's in (shared, summed, free_b)
    order, the lengths of shared, free_a and free_b, and the axis order
    that takes the result from (shared, free_a, free_b) to the spec's order.
    """
    operands, out = spec.split("->")
    sa, sb = operands.split(",")
    if any(len(set(s)) != len(s) for s in (sa, sb, out)) or not (
        set(out) <= set(sa) | set(sb) and set(sa) ^ set(sb) <= set(out)
    ):
        raise ValueError(f"unsupported slot spec {spec!r}")
    shared = [c for c in out if c in sa and c in sb]
    free_a = [c for c in out if c not in sb]
    free_b = [c for c in out if c not in sa]
    summed = [c for c in sa if c in sb and c not in out]
    pa, pb = ndim_a - 1 - len(sa), ndim_b - 1 - len(sb)

    def axes(points: int, slots, order) -> tuple[int, ...]:
        return (*range(1 + points), *(1 + points + slots.index(c) for c in order))

    return (
        pa,
        pb,
        axes(pa, sa, shared + free_a + summed),
        axes(pb, sb, shared + summed + free_b),
        (len(shared), len(free_a), len(free_b)),
        axes(max(pa, pb), shared + free_a + free_b, out),
    )


def stacked_product(spec: str, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Leibniz product of two stacked jet fields, contracted over tensor slots.

    a and b have shape (>= table_size(order), *batch, d, ..., d): coefficient
    vectors along the first axis, then the point axes, then tensor slots.
    spec is an einsum over the slots only, e.g. "ab,bij->aij", with no
    repeated letter in an operand; the point axes broadcast.  The result has
    the jet axis first, at `order`.

    Every Leibniz row gathers a's and b's coefficients (with the row weight
    folded into a, the smaller operand), the slots contract by one batched
    matmul over (rows, points, shared slots), or by a broadcast multiply when
    no slot is summed, and np.add.reduceat sums the rows into jet positions.
    """
    pa, pb, axes_a, axes_b, (n_shared, n_free_a, n_free_b), axes_out = _slot_plan(spec, a.ndim, b.ndim)
    a_pos, b_pos, coef, starts = _sorted_product_table(order)
    rows, npt = len(a_pos), max(pa, pb)
    ga = a.transpose(axes_a)[a_pos]
    gb = b.transpose(axes_b)[b_pos]
    slots_a = ga.shape[1 + pa :]
    shared, free_a = slots_a[:n_shared], slots_a[n_shared : n_shared + n_free_a]
    free_b = gb.shape[gb.ndim - n_free_b :]
    s, fa, fb = math.prod(shared), math.prod(free_a), math.prod(free_b)
    # one (fa x summed) and one (summed x fb) matrix per row, point and shared
    # slot; the point axes padded to a common count so that they broadcast
    ga = ga.reshape((rows,) + (1,) * (npt - pa) + a.shape[1 : 1 + pa] + (s, fa, -1))
    gb = gb.reshape((rows,) + (1,) * (npt - pb) + b.shape[1 : 1 + pb] + (s, -1, fb))
    ga *= coef.reshape((rows,) + (1,) * (ga.ndim - 1))
    # a matmul with an inner size of 1 is a broadcast multiply, and `*` is faster
    terms = ga @ gb if ga.shape[-1] > 1 else ga * gb
    total = np.add.reduceat(terms, starts, axis=0)
    total = total.reshape((table_size(order),) + terms.shape[1 : 1 + npt] + shared + free_a + free_b)
    return total.transpose(axes_out)


@lru_cache(maxsize=None)
def shift_table(order: int, coord: int) -> np.ndarray:
    """Gather positions mapping a jet of `order` to its d/d(coord) of order-1.

    result[i] is the position, in the order-`order` table, of alpha + e_coord
    where alpha is the i-th multi-index of the order-1 table.
    """
    if order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    pos = index_position(order)
    out = []
    for alpha in multi_indices(order - 1):
        bumped = list(alpha)
        bumped[coord] += 1
        out.append(pos[tuple(bumped)])
    return np.asarray(out, dtype=np.intp)


@dataclass(frozen=True)
class Jet:
    """Derivative table of a scalar function at a point or a batch of points.

    coeffs[p] is the raw partial derivative for the p-th graded multi-index;
    coeffs has shape (table_size(order), *batch), with no batch axis for a
    single point.  Jets are immutable values.
    """

    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape[:1] != (table_size(self.order),):
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, "
                f"expected {table_size(self.order)} coefficients for order {self.order}"
            )

    @property
    def value(self):
        """Function value: a scalar at one point, an array over a batch."""
        return self.coeffs[0]

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} jet to {order}")
        if order == self.order:
            return self
        return Jet(order, self.coeffs[: table_size(order)].copy())

    # arithmetic sugar; scalars and point arrays promote to constant jets
    def __add__(self, other):
        return jet_add(self, _coerce(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return jet_sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return jet_sub(_coerce(other, self), self)

    def __mul__(self, other):
        return jet_mul(self, _coerce(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return jet_div(self, _coerce(other, self))

    def __rtruediv__(self, other):
        return jet_div(_coerce(other, self), self)

    def __neg__(self):
        return Jet(self.order, -self.coeffs)


def _coerce(v, like: Jet) -> Jet:
    if isinstance(v, Jet):
        return v
    return jet_constant(v, like.order, like.coeffs.shape[1:])


def jet_constant(value, order: int, batch: tuple[int, ...] = ()) -> Jet:
    c = np.zeros((table_size(order),) + tuple(batch))
    c[0] = value
    return Jet(order, c)


def jet_variable(coord: int, value, order: int) -> Jet:
    """Jet of the coordinate function itself: value plus unit first derivative.

    value is the coordinate at one point or an array of it over a batch.
    """
    c = np.zeros((table_size(order),) + np.shape(value))
    c[0] = value
    if order >= 1:
        unit = [0, 0, 0]
        unit[coord] = 1
        c[index_position(order)[tuple(unit)]] = 1.0
    return Jet(order, c)


def _common_order(a: Jet, b: Jet) -> int:
    return min(a.order, b.order)


def jet_add(a: Jet, b: Jet) -> Jet:
    n = _common_order(a, b)
    return Jet(n, a.coeffs[: table_size(n)] + b.coeffs[: table_size(n)])


def jet_sub(a: Jet, b: Jet) -> Jet:
    n = _common_order(a, b)
    return Jet(n, a.coeffs[: table_size(n)] - b.coeffs[: table_size(n)])


def jet_mul(a: Jet, b: Jet) -> Jet:
    n = _common_order(a, b)
    return Jet(n, stacked_product(",->", a.coeffs, b.coeffs, n))


@lru_cache(maxsize=None)
def _division_plan(order: int):
    """Per total degree d >= 1, the convolution rows that reference lower degrees.

    For a = q * b the position of gamma receives q[gamma] * b[0] plus these
    rows, all of which touch q at strictly smaller total degree, so the
    quotient solves in one sweep over degrees.  Each entry is
    (lo, hi, q_pos, b_pos, coef, starts): the rows for positions lo..hi-1,
    sorted by position, and each position's first row.
    """
    a_pos, b_pos, out_pos, coef = product_table(order)
    keep = b_pos != 0  # b_pos == 0 is the q[gamma] * b[0] row itself
    perm = np.argsort(out_pos[keep], kind="stable")
    qa, bb, out, cf = (arr[keep][perm] for arr in (a_pos, b_pos, out_pos, coef))
    plan = []
    for d in range(1, order + 1):
        lo, hi = table_size(d - 1), table_size(d)
        r0, r1 = np.searchsorted(out, [lo, hi])
        starts = np.searchsorted(out[r0:r1], np.arange(lo, hi))
        plan.append((lo, hi, qa[r0:r1], bb[r0:r1], cf[r0:r1], starts))
    return tuple(plan)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient jet; solves the Leibniz relation a = q * b degree by degree."""
    n = _common_order(a, b)
    ac, bc = a.coeffs[: table_size(n)], b.coeffs[: table_size(n)]
    b0 = bc[0]
    if np.any(b0 == 0.0):
        raise ZeroDivisionError("division by a jet with zero value")
    q = np.empty(np.broadcast_shapes(ac.shape, bc.shape))
    q[0] = ac[0] / b0
    for lo, hi, qa, bb, cf, starts in _division_plan(n):
        terms = cf.reshape((-1,) + (1,) * (q.ndim - 1)) * q[qa] * bc[bb]
        q[lo:hi] = (ac[lo:hi] - np.add.reduceat(terms, starts, axis=0)) / b0
    return Jet(n, q)


def partial(j: Jet, m: Sequence[int]):
    """Stored derivative value for multi-index m = (i_t, i_x, i_y): a scalar
    at one point, an array over a batch."""
    m = tuple(int(v) for v in m)
    if len(m) != DIM or min(m) < 0:
        raise ValueError(f"bad multi-index {m}")
    if sum(m) > j.order:
        raise ValueError(f"multi-index {m} exceeds jet order {j.order}")
    return j.coeffs[index_position(j.order)[m]]


def jet_derivative(j: Jet, coord: int) -> Jet:
    """Jet of the partial derivative along `coord`, one order lower."""
    return Jet(j.order - 1, j.coeffs[shift_table(j.order, coord)])


def jet_compose_univariate(inner: Jet, outer_derivs: Sequence) -> Jet:
    """Compose a univariate function (given by its derivatives at inner.value)
    with a jet.

    outer_derivs[k] must be the k-th derivative of the outer function at the
    inner jet's value, for k = 0 .. inner.order (scalars, or arrays over the
    jet's batch).  Evaluated by Horner on the zero-value perturbation, which
    is exact at the truncation order.
    """
    n = inner.order
    if len(outer_derivs) < n + 1:
        raise ValueError(f"need {n + 1} outer derivatives, got {len(outer_derivs)}")
    w = inner.coeffs.copy()
    w[0] = 0.0
    pert = Jet(n, w)
    acc = jet_constant(outer_derivs[n] / math.factorial(n), n, w.shape[1:])
    for k in range(n - 1, -1, -1):
        acc = jet_mul(acc, pert) + outer_derivs[k] / math.factorial(k)
    return acc


def _apply(inner: Jet, deriv_seq: Callable[[np.ndarray, int], list]) -> Jet:
    return jet_compose_univariate(inner, deriv_seq(np.asarray(inner.value), inner.order))


def first_where(values, mask) -> float:
    """The first of `values` where `mask` holds, for error messages."""
    return float(np.asarray(values)[np.asarray(mask)][0])


def exp_values(u):
    """np.exp that raises OverflowError where a finite argument overflows,
    as math.exp does."""
    with np.errstate(over="ignore"):
        e = np.exp(u)
    if np.any(np.isinf(e) & np.isfinite(u)):
        raise OverflowError("math range error")
    return e


def jet_exp(j: Jet) -> Jet:
    return _apply(j, lambda u, n: [exp_values(u)] * (n + 1))


def jet_log(j: Jet) -> Jet:
    bad = j.value <= 0.0
    if np.any(bad):
        raise ValueError(f"log of nonpositive value {first_where(j.value, bad)}")

    def seq(u, n):
        d = [np.log(u)]
        for k in range(1, n + 1):
            d.append(math.factorial(k - 1) * (-1.0) ** (k - 1) / u**k)
        return d

    return _apply(j, seq)


def jet_sin(j: Jet) -> Jet:
    def seq(u, n):
        cycle = [np.sin(u), np.cos(u), -np.sin(u), -np.cos(u)]
        return [cycle[k % 4] for k in range(n + 1)]

    return _apply(j, seq)


def jet_cos(j: Jet) -> Jet:
    def seq(u, n):
        cycle = [np.cos(u), -np.sin(u), -np.cos(u), np.sin(u)]
        return [cycle[k % 4] for k in range(n + 1)]

    return _apply(j, seq)


def jet_sqrt(j: Jet) -> Jet:
    bad = j.value <= 0.0
    if np.any(bad):
        raise ValueError(f"sqrt of nonpositive value {first_where(j.value, bad)}")

    def seq(u, n):
        d = [np.sqrt(u)]
        e = 0.5
        for k in range(1, n + 1):
            d.append(d[0] * math.prod(e - i for i in range(k)) / u**k)
        return d

    return _apply(j, seq)


def jet_powi(j: Jet, exponent: int) -> Jet:
    """Integer power by binary exponentiation; negative exponents via jet_div."""
    if exponent == 0:
        return jet_constant(1.0, j.order, j.coeffs.shape[1:])
    if exponent < 0:
        power = jet_powi(j, -exponent)
        if np.any(power.value == 0.0):  # j^|exponent| underflowed, so its reciprocal overflows
            raise OverflowError("math range error")
        return jet_div(jet_constant(1.0, j.order, j.coeffs.shape[1:]), power)
    acc = None
    base = j
    e = exponent
    while e:
        if e & 1:
            acc = base if acc is None else jet_mul(acc, base)
        e >>= 1
        if e:
            base = jet_mul(base, base)
    return acc
