"""Truncated Taylor (jet) arithmetic in the three coordinates (t, x, y).

A jet of order ``n`` at a point stores every partial derivative
``d^i_t d^j_x d^k_y f`` with ``i + j + k <= n`` as a raw derivative value
(not divided by factorials).  Multiplication propagates derivatives by the
Leibniz rule, composition with a univariate function by a truncated Taylor
expansion around the inner value.  All operations are exact up to floating
round-off; nothing here uses finite differencing.

Coefficient vectors are laid out along a graded ordering of multi-indices,
so the table for order ``n`` is a prefix of the table for order ``n + 1``
and truncation is a slice.  ``stacked_product`` multiplies whole tensor
fields of jets, stored as coefficient arrays with the jet axis first.
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
def _binom_factor(alpha: tuple[int, int, int], beta: tuple[int, int, int]) -> float:
    # multinomial weight for the Leibniz rule on raw partial derivatives
    return float(
        math.comb(alpha[0] + beta[0], alpha[0])
        * math.comb(alpha[1] + beta[1], alpha[1])
        * math.comb(alpha[2] + beta[2], alpha[2])
    )


@lru_cache(maxsize=None)
def product_table(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index/coefficient arrays implementing the Leibniz convolution.

    Returns (a_pos, b_pos, out_pos, coef) so that for coefficient vectors
    a, b truncated at `order`:  out[out_pos] += coef * a[a_pos] * b[b_pos].
    """
    idx = multi_indices(order)
    pos = index_position(order)
    a_pos, b_pos, out_pos, coef = [], [], [], []
    for ai, alpha in enumerate(idx):
        da = sum(alpha)
        for bi, beta in enumerate(idx):
            if da + sum(beta) > order:
                continue
            gamma = (alpha[0] + beta[0], alpha[1] + beta[1], alpha[2] + beta[2])
            a_pos.append(ai)
            b_pos.append(bi)
            out_pos.append(pos[gamma])
            coef.append(_binom_factor(alpha, beta))
    return (
        np.asarray(a_pos, dtype=np.intp),
        np.asarray(b_pos, dtype=np.intp),
        np.asarray(out_pos, dtype=np.intp),
        np.asarray(coef, dtype=np.float64),
    )


@lru_cache(maxsize=None)
def _sorted_product_table(order: int):
    """product_table sorted by output position, with each position's start."""
    a_pos, b_pos, out_pos, coef = product_table(order)
    perm = np.argsort(out_pos, kind="stable")
    starts = np.searchsorted(out_pos[perm], np.arange(table_size(order)))
    return a_pos[perm], b_pos[perm], coef[perm], starts


def stacked_product(spec: str, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Leibniz product of two stacked jet fields, contracted over tensor slots.

    a and b have shape (>= table_size(order), 3, ..., 3): coefficient
    vectors along the first axis, tensor slots after it.  spec is an einsum
    over the slots only, e.g. "ab,bij->aij"; the result has the jet axis
    first, at `order`.
    """
    a_pos, b_pos, coef, starts = _sorted_product_table(order)
    operands, out = spec.split("->")
    sa, sb = operands.split(",")
    terms = np.einsum(f"t{sa},t{sb}->t{out}", a[a_pos], b[b_pos])
    flat = coef[:, None] * terms.reshape(len(coef), -1)
    return np.add.reduceat(flat, starts, axis=0).reshape((-1,) + terms.shape[1:])


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
    """Derivative table of a scalar function at a fixed base point.

    coeffs[p] is the raw partial derivative for the p-th graded multi-index;
    coeffs has length table_size(order).  Jets are immutable values.
    """

    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (table_size(self.order),):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"expected {table_size(self.order)} for order {self.order}"
            )

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} jet to {order}")
        if order == self.order:
            return self
        return Jet(order, self.coeffs[: table_size(order)].copy())

    def as_dict(self) -> dict[tuple[int, int, int], float]:
        return {m: float(v) for m, v in zip(multi_indices(self.order), self.coeffs)}

    # arithmetic sugar; scalars promote to constant jets
    def __add__(self, other):
        return jet_add(self, _coerce(other, self.order))

    __radd__ = __add__

    def __sub__(self, other):
        return jet_sub(self, _coerce(other, self.order))

    def __rsub__(self, other):
        return jet_sub(_coerce(other, self.order), self)

    def __mul__(self, other):
        return jet_mul(self, _coerce(other, self.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return jet_div(self, _coerce(other, self.order))

    def __rtruediv__(self, other):
        return jet_div(_coerce(other, self.order), self)

    def __neg__(self):
        return Jet(self.order, -self.coeffs)


def _coerce(v, order: int) -> Jet:
    if isinstance(v, Jet):
        return v
    return jet_constant(float(v), order)


def jet_constant(value: float, order: int) -> Jet:
    c = np.zeros(table_size(order))
    c[0] = value
    return Jet(order, c)


def jet_variable(coord: int, value: float, order: int) -> Jet:
    """Jet of the coordinate function itself: value plus unit first derivative."""
    c = np.zeros(table_size(order))
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
    a_pos, b_pos, out_pos, coef = product_table(n)
    prod = coef * a.coeffs[a_pos] * b.coeffs[b_pos]
    return Jet(n, np.bincount(out_pos, weights=prod, minlength=table_size(n)))


@lru_cache(maxsize=None)
def _division_plan(order: int):
    """Per output position, the convolution rows that reference lower degrees.

    For a = q * b the position of gamma receives q[gamma] * b[0] (weight 1)
    plus these rows, all of which touch q at strictly smaller total degree,
    so the quotient solves in one graded sweep.
    """
    a_pos, b_pos, out_pos, coef = product_table(order)
    plan = []
    for gi in range(table_size(order)):
        rows = np.where((out_pos == gi) & ~((a_pos == gi) & (b_pos == 0)))[0]
        plan.append((a_pos[rows], b_pos[rows], coef[rows]))
    return tuple(plan)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient jet; solves the Leibniz relation a = q * b degree by degree."""
    n = _common_order(a, b)
    if b.coeffs[0] == 0.0:
        raise ZeroDivisionError("division by a jet with zero value")
    q = np.zeros(table_size(n))
    ac, bc = a.coeffs, b.coeffs
    for gi, (qa, bb, cf) in enumerate(_division_plan(n)):
        q[gi] = (ac[gi] - (cf * q[qa] * bc[bb]).sum()) / bc[0]
    return Jet(n, q)


def partial(j: Jet, m: Sequence[int]) -> float:
    """Stored derivative value for multi-index m = (i_t, i_x, i_y)."""
    m = tuple(int(v) for v in m)
    if len(m) != DIM or min(m) < 0:
        raise ValueError(f"bad multi-index {m}")
    if sum(m) > j.order:
        raise ValueError(f"multi-index {m} exceeds jet order {j.order}")
    return float(j.coeffs[index_position(j.order)[m]])


def jet_derivative(j: Jet, coord: int) -> Jet:
    """Jet of the partial derivative along `coord`, one order lower."""
    return Jet(j.order - 1, j.coeffs[shift_table(j.order, coord)].copy())


def jet_compose_univariate(inner: Jet, outer_derivs: Sequence[float]) -> Jet:
    """Compose a univariate function (given by its derivatives at inner.value)
    with a jet.

    outer_derivs[k] must be the k-th derivative of the outer function at the
    inner jet's value, for k = 0 .. inner.order.  Evaluated by Horner on the
    zero-value perturbation, which is exact at the truncation order.
    """
    n = inner.order
    if len(outer_derivs) < n + 1:
        raise ValueError(f"need {n + 1} outer derivatives, got {len(outer_derivs)}")
    w = inner.coeffs.copy()
    w[0] = 0.0
    pert = Jet(n, w)
    acc = jet_constant(outer_derivs[n] / math.factorial(n), n)
    for k in range(n - 1, -1, -1):
        acc = jet_mul(acc, pert) + outer_derivs[k] / math.factorial(k)
    return acc


def _apply(inner: Jet, deriv_seq: Callable[[float, int], list[float]]) -> Jet:
    return jet_compose_univariate(inner, deriv_seq(inner.value, inner.order))


def jet_exp(j: Jet) -> Jet:
    return _apply(j, lambda u, n: [math.exp(u)] * (n + 1))


def jet_log(j: Jet) -> Jet:
    if j.value <= 0.0:
        raise ValueError(f"log of nonpositive value {j.value}")

    def seq(u, n):
        d = [math.log(u)]
        for k in range(1, n + 1):
            d.append(math.factorial(k - 1) * (-1.0) ** (k - 1) / u**k)
        return d

    return _apply(j, seq)


def jet_sin(j: Jet) -> Jet:
    def seq(u, n):
        cycle = [math.sin(u), math.cos(u), -math.sin(u), -math.cos(u)]
        return [cycle[k % 4] for k in range(n + 1)]

    return _apply(j, seq)


def jet_cos(j: Jet) -> Jet:
    def seq(u, n):
        cycle = [math.cos(u), -math.sin(u), -math.cos(u), math.sin(u)]
        return [cycle[k % 4] for k in range(n + 1)]

    return _apply(j, seq)


def jet_sqrt(j: Jet) -> Jet:
    if j.value <= 0.0:
        raise ValueError(f"sqrt of nonpositive value {j.value}")

    def seq(u, n):
        d = [math.sqrt(u)]
        e = 0.5
        for k in range(1, n + 1):
            d.append(d[0] * math.prod(e - i for i in range(k)) / u**k)
        return d

    return _apply(j, seq)


def jet_powi(j: Jet, exponent: int) -> Jet:
    """Integer power by binary exponentiation; negative exponents via jet_div."""
    if exponent == 0:
        return jet_constant(1.0, j.order)
    if exponent < 0:
        return jet_div(jet_constant(1.0, j.order), jet_powi(j, -exponent))
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
