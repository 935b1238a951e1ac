"""Built-in metric families and their closed-form curvature oracles.

Two one-function families on R^3 with coordinates (t, x, y):

  * f-family, profile f = f(x):   g_tt = exp(2 f),  g_xy = 1
  * h-family, profile h = h(t):   g_tt = 1,  g_xy = 1,  g_xx = -2 h

Both are Lorentzian wherever defined.  All curvature of the f-family is
carried by the scalar delta = f'' + (f')^2 and its x-derivatives; the
h-family's curvature is carried by derivatives of h.  The oracles
materialize the closed-form component arrays directly from jets of the
profile function, independently of the geometry engine, so the two can be
checked against each other componentwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import jets
from .expr import BinOp, Call, Expr, Neg, Num, coords_of, eval_jet, parse, variables_of
from .geometry import CurvatureSequence, MetricField
from .jets import float_guard, jet_derivative, jet_mul
from .tensor import AXES, TensorAtPoint

_ZERO = parse("0")
_ONE = parse("1")

T, X, Y = 0, 1, 2


class FamilySpec(NamedTuple):
    """Which family a metric belongs to, a key of classify.FAMILIES or "custom", and its profile function."""

    family: str
    function: Optional[Expr] = None


def family_f_metric(f: Expr) -> MetricField:
    """Metric with g_tt = exp(2 f(x)) and g_xy = 1; f may depend on x only."""
    bad = variables_of(f) - {"x"}
    if bad:
        raise ValueError(f"f-family profile must depend on x only, found {sorted(bad)}")
    gtt = Call("exp", BinOp("*", Num(2.0), f))
    matrix = ((gtt, _ZERO, _ZERO), (_ZERO, _ZERO, _ONE), (_ZERO, _ONE, _ZERO))
    return MetricField.from_matrix(matrix, family=FamilySpec("f", f))


def family_h_metric(h: Expr) -> MetricField:
    """Metric with g_tt = 1, g_xy = 1, g_xx = -2 h(t); h may depend on t only."""
    bad = variables_of(h) - {"t"}
    if bad:
        raise ValueError(f"h-family profile must depend on t only, found {sorted(bad)}")
    gxx = BinOp("*", Neg(Num(2.0)), h)
    matrix = ((_ONE, _ZERO, _ZERO), (_ZERO, gxx, _ONE), (_ZERO, _ONE, _ZERO))
    return MetricField.from_matrix(matrix, family=FamilySpec("h", h))


def custom_metric(matrix) -> MetricField:
    return MetricField.from_matrix(matrix, family=FamilySpec("custom"))


def _delta(fj: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    """Stack of delta = f'' + (f')^2 to `order`, from a stack of f to order + 2."""
    f1 = jet_derivative(fj, X, order + 2, coords)
    f2 = jet_derivative(f1, X, order + 1, coords)
    return f2 + jet_mul(f1, f1, order, coords)


@float_guard()
def delta_jet(f: Expr, p, order: int) -> np.ndarray:
    """Stack of delta = f'' + (f')^2 over coords_of(f) at the point(s) p, to
    the given order."""
    coords = coords_of(f)
    return _delta(eval_jet(f, p, order + 2, coords), order, coords)


def delta_derivatives(f: Expr, p, kmax: int) -> list:
    """[delta, delta', ..., delta^(kmax)] at the point(s) p; each entry is a
    scalar at one point, an array over a batch."""
    dj, coords = delta_jet(f, p, kmax), coords_of(f)
    return [jets.partial(dj, (0, k, 0), kmax, coords) for k in range(kmax + 1)]


def profile_derivatives(h: Expr, p, kmax: int) -> list:
    """[h, h', ..., h^(kmax)] at the point(s) p for a t-profile."""
    coords = coords_of(h)
    hj = eval_jet(h, p, kmax, coords)
    return [jets.partial(hj, (k, 0, 0), kmax, coords) for k in range(kmax + 1)]


def place_curvature_block(components: np.ndarray, pair: tuple[int, int], value, tail: tuple[int, ...]):
    """Write one curvature entry and its sign images into a component array
    with leading point axes; value is per point.

    pair = (a, b) names the entry T(a, b, b, a) = value; the images
    (b, a, a, b) = value and (a, b, a, b) = (b, a, b, a) = -value follow from
    the algebraic curvature symmetries.
    """
    a, b = pair
    components[(..., a, b, b, a) + tail] = value
    components[(..., b, a, a, b) + tail] = value
    components[(..., a, b, a, b) + tail] = -value
    components[(..., b, a, b, a) + tail] = -value


def _zero_oracles(batch: tuple, kmax: int, dirs) -> CurvatureSequence:
    """Zero [R, ..., nabla^kmax R] whose derivative slots hold dirs, t and x:
    every direction a closed form uses, at the slot positions t = 0, x = 1."""
    box = tuple(sorted({*dirs, T, X}))
    width = sum(len(box) ** k for k in range(kmax + 1))
    return CurvatureSequence(np.zeros((math.prod(batch), 81, width)), tuple((box,) * k for k in range(kmax + 1)), batch)


@float_guard()
def family_f_oracles(f: Expr, p, kmax: int, dirs=AXES) -> CurvatureSequence:
    """Closed-form [R, nabla R, ..., nabla^kmax R] for the f-family at the
    point(s) p, from one jet of f, on the box of _zero_oracles.

    The only entries, up to curvature symmetries, are
    nabla^k R(dx, dt, dt, dx; dx, ..., dx) = -exp(2 f) * delta^(k).
    """
    if kmax < 0:
        raise ValueError("k must be nonnegative")
    coords = coords_of(f)
    fj = eval_jet(f, p, kmax + 2, coords)
    dj = _delta(fj, kmax, coords)
    e2f = np.exp(2.0 * fj[0])
    out = _zero_oracles(np.shape(e2f), kmax, dirs)
    for k in range(kmax + 1):
        place_curvature_block(out[k].components, (X, T), -e2f * jets.partial(dj, (0, k, 0), kmax, coords), (X,) * k)
    return out


def family_h_oracles(h: Expr, p, kmax: int, dirs=AXES) -> CurvatureSequence:
    """Closed-form [R, nabla R, ..., nabla^kmax R] for the h-family at the
    point(s) p, from one jet of h, for kmax <= 2, on the box of _zero_oracles.

    Entries up to curvature symmetries:
        R(dt, dx, dx, dt)               = h''
        nabla R(dt, dx, dx, dt; dt)     = h'''
        nabla^2 R(dt, dx, dx, dt; dt, dt) = h''''
        nabla^2 R(dt, dx, dx, dt; dx, dx) = -h' h'''

    The (; dx, dx) sign is what the covariant-derivative recursion yields:
    the only surviving term is -Gamma^t_{xx} nabla R(dt, dx, dx, dt; dt).
    """
    if kmax < 0:
        raise ValueError("k must be nonnegative")
    if kmax > 2:
        raise ValueError("h-family closed forms stop at k = 2; use the geometry engine")
    d = profile_derivatives(h, p, kmax + 2)
    out = _zero_oracles(np.shape(d[0]), kmax, dirs)
    for k, t in enumerate(out):
        place_curvature_block(t.components, (T, X), d[2 + k], (T,) * k)
    if kmax == 2:
        place_curvature_block(out[2].components, (T, X), -d[1] * d[3], (X, X))
    return out


def family_f_oracle(f: Expr, p, k: int) -> TensorAtPoint:
    """Closed-form nabla^k R for the f-family at the point(s) p; see family_f_oracles."""
    return family_f_oracles(f, p, k)[k]


def family_h_oracle(h: Expr, p, k: int) -> TensorAtPoint:
    """Closed-form nabla^k R for the h-family at the point(s) p, k <= 2; see family_h_oracles."""
    return family_h_oracles(h, p, k)[k]
