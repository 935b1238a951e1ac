"""Truncated Taylor (jet) arithmetic over the coordinates a function depends on.

A jet of order ``n`` at a point stores every partial derivative
``d^i_t d^j_x d^k_y f`` with ``i + j + k <= n`` as a raw derivative value
(not divided by factorials), along ``coords``: a sorted tuple of the
positions (t = 0, x = 1, y = 2) of the coordinates the function depends
on.  A derivative along any other coordinate is zero and is not stored, so
a function of x alone needs ``n + 1`` coefficients where one of all three
needs ``C(n + 3, 3)``.  Multiplication propagates derivatives by the
Leibniz rule, composition with a univariate function by a truncated Taylor
expansion around the inner value.  All operations are exact up to floating
round-off; nothing here uses finite differencing.

Multi-indices are ``(i_t, i_x, i_y)`` triples, zero outside ``coords``.
Coefficient vectors are laid out along a graded ordering of multi-indices,
so the table for order ``n`` is a prefix of the table for order ``n + 1``
and truncation is a slice; the table over ``coords`` is the subsequence of
the three-coordinate table that is zero elsewhere.  A jet is a coefficient
stack, a plain array with the jet axis first and the point axis after it,
and every function here takes its ``order`` and ``coords`` alongside it: a
jet over a grid of ``npts`` sample points has shape
``(table_size(n, coords), npts)`` and every operation acts on all points
at once, so one call evaluates the whole grid.  A single point is a batch
of one, or a stack with no point axis at all; the code is the same either
way.  Stacks of one order and coords add, subtract and scale as arrays.
``stacked_product`` multiplies whole tensor fields of jets, stored as
coefficient arrays of shape ``(table_size(n, coords), npts, ...)``, under
a row operation the caller picks: ``np.multiply`` on broadcast slots, or
``np.matmul`` on slots the caller has shaped into matrices; ``jet_mul`` is
its scalar case.  It gathers the coefficients of each Leibniz row, applies
the operation to all rows and points at once, and sums the rows into jet
positions with one ``np.add.reduceat``.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

DIM = 3
ALL_COORDS = (0, 1, 2)
MAX_ORDER = 170  # the largest n whose n! is a float: composition divides by it


@contextmanager
def float_guard():
    """numpy raises on overflow, invalid values and division by zero, and lets
    underflow go to zero; a FloatingPointError leaves as OverflowError("math
    range error"), as math.exp raises it.  Every evaluating entry point runs
    under it, so no operation hands on an inf or a nan; nesting is harmless."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except FloatingPointError:
        raise OverflowError("math range error") from None


@lru_cache(maxsize=None)
def multi_indices(order: int, coords: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """All multi-indices (i_t, i_x, i_y) with total degree <= order that are zero
    outside coords, graded, descending within a degree, built over coords alone.
    Every table starts here, so here an order above MAX_ORDER is refused."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"jet order {order} is above {MAX_ORDER}, the largest whose factorial is a float; lower the order")
    if tuple(sorted(set(coords) & set(ALL_COORDS))) != tuple(coords):
        raise ValueError(f"coords must be a sorted tuple of distinct coordinates in 0..2, got {coords!r}")
    ranges = [range(order, -1, -1) if c in coords else (0,) for c in ALL_COORDS]
    return tuple(sorted((m for m in itertools.product(*ranges) if sum(m) <= order), key=sum))  # stable: stays descending


@lru_cache(maxsize=None)
def index_position(order: int, coords: tuple[int, ...]) -> dict[tuple[int, int, int], int]:
    return {m: p for p, m in enumerate(multi_indices(order, coords))}


@lru_cache(maxsize=None)
def table_size(order: int, coords: tuple[int, ...]) -> int:
    return len(multi_indices(order, coords))


@lru_cache(maxsize=None)
def product_table(order: int, coords: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Index/coefficient arrays implementing the Leibniz convolution.

    Returns (a_pos, b_pos, out_pos, coef, starts) so that for coefficient
    vectors a, b over coords truncated at `order`:
    out[out_pos] += coef * a[a_pos] * b[b_pos].
    Rows are stably sorted by out_pos (within a position they run over a_pos,
    then b_pos, both ascending), and starts[p] is position p's first row.
    """
    idx = np.asarray(multi_indices(order, coords), dtype=np.intp)
    degree = idx.sum(axis=1)
    a_pos, b_pos = np.nonzero(degree[:, None] + degree[None, :] <= order)
    gamma = idx[a_pos] + idx[b_pos]
    lookup = np.zeros((order + 1,) * DIM, dtype=np.intp)
    lookup[tuple(idx.T)] = np.arange(len(idx))
    out_pos = lookup[tuple(gamma.T)]
    binom = np.array([[math.comb(n, k) for k in range(order + 1)] for n in range(order + 1)], dtype=np.float64)
    coef = binom[gamma, idx[a_pos]].prod(axis=1)  # multinomial weight on raw derivatives
    perm = np.argsort(out_pos, kind="stable")
    starts = np.searchsorted(out_pos[perm], np.arange(len(idx)))
    return a_pos[perm], b_pos[perm], out_pos[perm], coef[perm], starts


def stacked_product(
    a: np.ndarray, b: np.ndarray, order: int, coords: tuple[int, ...], op=np.multiply
) -> np.ndarray:
    """Leibniz product of two stacked jet fields at `order`, row by row under op.

    a and b have shape (>= table_size(order, coords), *batch, ...):
    coefficient vectors along the first axis, then the point axes, then the
    same number of tensor slots in both, shaped for op: np.multiply
    broadcasts them, np.matmul multiplies the trailing two as matrices.  An
    operand with fewer axes gains size-1 axes right after its jet axis, where
    the point axes are.  Each Leibniz row gathers a's and b's coefficients,
    with the row weight folded into a, applies op, and np.add.reduceat sums
    the rows into jet positions.  The result has the jet axis first, at
    `order`.
    """
    a_pos, b_pos, _, coef, starts = product_table(order, coords)
    ndim = max(a.ndim, b.ndim)
    ga = a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])[a_pos]
    gb = b.reshape(b.shape[:1] + (1,) * (ndim - b.ndim) + b.shape[1:])[b_pos]
    ga *= coef.reshape((-1,) + (1,) * (ndim - 1))
    return np.add.reduceat(op(ga, gb), starts, axis=0)


@lru_cache(maxsize=None)
def shift_table(order: int, coord: int, coords: tuple[int, ...]) -> np.ndarray:
    """Gather positions mapping a jet of `order` over coords to its
    d/d(coord) of order-1, for a coord in coords.

    result[i] is the position, in the order-`order` table, of alpha + e_coord
    where alpha is the i-th multi-index of the order-1 table.
    """
    if order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    if coord not in coords:
        raise ValueError(f"coordinate {coord} is not among the jet's coordinates {coords}")
    pos = index_position(order, coords)
    out = []
    for alpha in multi_indices(order - 1, coords):
        bumped = list(alpha)
        bumped[coord] += 1
        out.append(pos[tuple(bumped)])
    return np.asarray(out, dtype=np.intp)


def jet_constant(value, order: int, batch: tuple[int, ...], coords: tuple[int, ...]) -> np.ndarray:
    c = np.zeros((table_size(order, coords),) + tuple(batch))
    c[0] = value
    return c


def jet_variable(coord: int, value, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Stack of the coordinate function itself: value plus unit first derivative.

    value is the coordinate at one point or an array of it over a batch;
    coord must be one of coords.
    """
    if coord not in coords:
        raise ValueError(f"coordinate {coord} is not among the jet's coordinates {coords}")
    c = jet_constant(value, order, np.shape(value), coords)
    if order >= 1:
        unit = [0, 0, 0]
        unit[coord] = 1
        c[index_position(order, coords)[tuple(unit)]] = 1.0
    return c


def jet_mul(a: np.ndarray, b: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Leibniz product of two scalar stacks at `order`."""
    return stacked_product(a, b, order, coords)


@lru_cache(maxsize=None)
def _division_plan(order: int, coords: tuple[int, ...]):
    """Per total degree d >= 1, the convolution rows that reference lower degrees.

    For a = b q the position of gamma receives b[0] q[gamma] plus these
    rows, all of which touch q at strictly smaller total degree, so the
    quotient solves in one sweep over degrees.  Each entry is
    (lo, hi, q_pos, b_pos, coef, starts): the rows for positions lo..hi-1,
    sorted by position, and each position's first row.
    """
    a_pos, b_pos, _, coef, starts = product_table(order, coords)
    keep = b_pos != 0  # b_pos == 0 is the b[0] q[gamma] row itself, one per position
    qa, bb, cf = a_pos[keep], b_pos[keep], coef[keep]
    starts = np.append(starts - np.arange(len(starts)), len(qa))  # every earlier position lost its row
    plan = []
    for d in range(1, order + 1):
        lo, hi = table_size(d - 1, coords), table_size(d, coords)
        r0, r1 = starts[lo], starts[hi]
        plan.append((lo, hi, qa[r0:r1], bb[r0:r1], cf[r0:r1], starts[lo:hi] - r0))
    return tuple(plan)


def jet_solve(b: np.ndarray, a: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Stack q at `order` with b q = a, for b of shape (>= table_size(order,
    coords), *batch, k, k) and a of shape (..., *batch, k, m): degree by
    degree, q is b_0^{-1} times a less the _division_plan rows.  b_0 must be
    invertible; an inverse past the float range raises OverflowError("math
    range error"), since np.linalg.inv ignores numpy's error state.
    """
    size = table_size(order, coords)
    ac, bc = a[:size], b[:size]
    inv0 = np.linalg.inv(bc[0])
    if not np.isfinite(inv0).all():
        raise OverflowError("math range error")
    q = np.empty((size,) + np.broadcast_shapes(ac.shape[1:-2], bc.shape[1:-2]) + ac.shape[-2:])
    q[0] = inv0 @ ac[0]
    for lo, hi, qa, bb, cf, starts in _division_plan(order, coords):
        terms = cf.reshape((-1,) + (1,) * (q.ndim - 1)) * (bc[bb] @ q[qa])
        q[lo:hi] = inv0 @ (ac[lo:hi] - np.add.reduceat(terms, starts, axis=0))
    return q


def jet_div(a: np.ndarray, b: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Quotient stack at `order`: jet_solve on 1x1 matrices."""
    if np.any(b[0] == 0.0):
        raise ZeroDivisionError("division by a jet with zero value")
    return jet_solve(b[..., None, None], a[..., None, None], order, coords)[..., 0, 0]


def partial(j: np.ndarray, m: Sequence[int], order: int, coords: tuple[int, ...]):
    """Derivative value for multi-index m = (i_t, i_x, i_y) of a stack of
    `order` over coords: a scalar at one point, an array over a batch; zero
    along a coordinate outside coords."""
    m = tuple(int(v) for v in m)
    if len(m) != DIM or min(m) < 0:
        raise ValueError(f"bad multi-index {m}")
    if sum(m) > order:
        raise ValueError(f"multi-index {m} exceeds jet order {order}")
    if any(m[c] for c in ALL_COORDS if c not in coords):
        return np.zeros(j.shape[1:])[()]
    return j[index_position(order, coords)[m]]


def jet_derivative(j: np.ndarray, coord: int, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Stack of the partial derivative along `coord`, of order - 1; zero
    along a coordinate outside coords."""
    if coord not in coords:
        return jet_constant(0.0, order - 1, j.shape[1:], coords)
    return j[shift_table(order, coord, coords)]


def jet_compose_univariate(inner: np.ndarray, outer_derivs: Sequence, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Compose a univariate function (given by its derivatives at inner[0])
    with a stack of `order`.

    outer_derivs[k] must be the k-th derivative of the outer function at the
    inner value, for k = 0 .. order (scalars, or arrays over the stack's
    batch).  Evaluated by Horner on the zero-value perturbation, which is
    exact at the truncation order.
    """
    n = order
    if len(outer_derivs) < n + 1:
        raise ValueError(f"need {n + 1} outer derivatives, got {len(outer_derivs)}")
    w = inner.copy()
    w[0] = 0.0
    acc = np.zeros_like(w)
    acc[0] = outer_derivs[n] / math.factorial(n)
    for k in range(n - 1, -1, -1):
        acc = stacked_product(acc, w, n, coords)
        acc[0] += outer_derivs[k] / math.factorial(k)
    return acc


def _apply(j: np.ndarray, deriv_seq: Callable[[np.ndarray, int], list], order: int, coords: tuple[int, ...]) -> np.ndarray:
    return jet_compose_univariate(j, deriv_seq(np.asarray(j[0]), order), order, coords)


def first_where(values, mask) -> float:
    """The first of `values` where `mask` holds, for error messages."""
    return float(np.asarray(values)[np.asarray(mask)][0])


def jet_exp(j: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    return _apply(j, lambda u, n: [np.exp(u)] * (n + 1), order, coords)


def jet_log(j: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    bad = j[0] <= 0.0
    if np.any(bad):
        raise ValueError(f"log of nonpositive value {first_where(j[0], bad)}")

    def seq(u, n):
        d = [np.log(u)]
        for k in range(1, n + 1):
            d.append(math.factorial(k - 1) * (-1.0) ** (k - 1) / u**k)
        return d

    return _apply(j, seq, order, coords)


def _sin_derivatives(u, n: int, start: int) -> list:
    """Derivatives start .. start + n of sin at u; cos' are sin's from start = 1."""
    cycle = [np.sin(u), np.cos(u)]
    cycle += [-v for v in cycle]
    return [cycle[(start + k) % 4] for k in range(n + 1)]


def jet_sin(j: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    return _apply(j, lambda u, n: _sin_derivatives(u, n, 0), order, coords)


def jet_cos(j: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    return _apply(j, lambda u, n: _sin_derivatives(u, n, 1), order, coords)


def jet_sqrt(j: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    bad = j[0] <= 0.0
    if np.any(bad):
        raise ValueError(f"sqrt of nonpositive value {first_where(j[0], bad)}")

    def seq(u, n):
        d = [np.sqrt(u)]
        e = 0.5
        for k in range(1, n + 1):
            d.append(d[0] * math.prod(e - i for i in range(k)) / u**k)
        return d

    return _apply(j, seq, order, coords)


def jet_powi(j: np.ndarray, exponent: int, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Integer power by binary exponentiation; negative exponents via jet_div."""
    if exponent == 0:
        return jet_constant(1.0, order, j.shape[1:], coords)
    if exponent < 0:
        power = jet_powi(j, -exponent, order, coords)
        if np.any(power[0] == 0.0):  # j^|exponent| underflowed, so its reciprocal overflows
            raise OverflowError("math range error")
        return jet_div(jet_constant(1.0, order, j.shape[1:], coords), power, order, coords)
    acc = None
    base = j
    e = exponent
    while e:
        if e & 1:
            acc = base if acc is None else jet_mul(acc, base, order, coords)
        e >>= 1
        if e:
            base = jet_mul(base, base, order, coords)
    return acc
