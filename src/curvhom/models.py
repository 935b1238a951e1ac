"""Model spaces on adapted frames and their automorphism checks.

A model space bundles the metric and the curvature derivatives at a point,
all expressed on a chosen frame as covariant tensors: (phi, A_0, ..., A_r),
with A_k of type (0, 4+k).  For the built-in families there are adapted
frames {T, X, Y} on which the metric has the constant entries
phi(T,T) = phi(X,Y) = 1 and all curvature concentrates in T/X slot
patterns.  Automorphism checks verify that a candidate frame
preserves phi and the A_k and then read off the triangular parameters

    FT = a1 T + a2 Y,  FX = a3 T + a4 X + a5 Y,  FY = a6 Y

with a1^2 = a4^2 = 1 for the order-0 canonical form, and the stricter

    FT = T + b1 Y,  FX = b2 X + b3 Y,  FY = b4 Y,  b2^2 = 1

once a nonzero nabla R entry pins the T direction.  Metric preservation
additionally forces a4 a6 = 1 (equivalently b2 b4 = 1); one check, run
to order 0 or 1, verifies and reports this derived constraint rather than
assuming the triangular shape is sufficient.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .expr import Expr
from .families import T, X, Y, delta_derivatives, family_f_metric, family_h_metric, place_curvature_block, profile_derivatives
from .geometry import MetricField, Point, kulkarni_nomizu, nabla_schouten_sequence
from .tensor import Frame, TensorAtPoint, pullback

PHI_CANONICAL = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


class ModelSpace:
    """Metric and curvature tensors at a point, on a fixed frame."""

    def __init__(self, r: int, phi: TensorAtPoint, tensors: tuple[TensorAtPoint, ...]):
        if len(tensors) != r + 1:
            raise ValueError(f"expected {r + 1} curvature tensors, got {len(tensors)}")
        self.r = r
        self.phi = phi
        self.tensors = tensors  # A_0 ... A_r, valence (0, 4+k)

    def __repr__(self):
        return f"ModelSpace(r={self.r!r}, phi={self.phi!r}, tensors={self.tensors!r})"

    def tensor(self, k: int) -> TensorAtPoint:
        return self.tensors[k]


def adapted_frame(g, lam) -> Frame:
    """Frame T = g_tt^{-1/2} dt, X = lam (dx - g_xx / (2 g_xy) dy), Y = dy / (lam g_xy) of metric matrices g,
    shape (..., 3, 3), whose entries other than g_tt > 0, g_xx and g_xy != 0 vanish, as in both families; g is
    PHI_CANONICAL on it.  lam is a scalar or one value per matrix."""
    if np.any(np.asarray(lam) <= 0):
        raise ValueError("lam must be positive")
    m = np.zeros(np.shape(g))
    m[..., T, T] = g[..., T, T] ** -0.5
    m[..., X, X] = lam
    m[..., Y, X] = -lam * g[..., X, X] / (2.0 * g[..., X, Y])
    m[..., Y, Y] = 1.0 / (lam * g[..., X, Y])
    return Frame(m)


def adapted_frame_f(f: Expr, p, lam) -> Frame:
    """adapted_frame of the f-family at the point(s) p: T = e^{-f} dt, X = lam dx, Y = (1/lam) dy."""
    return adapted_frame(family_f_metric(f).component_matrix(p), lam)


def adapted_frame_h(h: Expr, p, lam) -> Frame:
    """adapted_frame of the h-family at the point(s) p: T = dt, X = lam (dx + h dy), Y = (1/lam) dy."""
    return adapted_frame(family_h_metric(h).component_matrix(p), lam)


def ch0_lambda_f(f: Expr, p: Point) -> float:
    """lam = |delta|^{-1/2}, normalizing the curvature entry to +-1."""
    d0 = delta_derivatives(f, p, 0)[0]
    if d0 == 0.0:
        raise ZeroDivisionError("delta vanishes; no unit-curvature normalization")
    return abs(d0) ** -0.5


def ch0_lambda_h(h: Expr, p: Point) -> float:
    """lam = |h''|^{-1/2}, normalizing the curvature entry to +-1."""
    d = profile_derivatives(h, p, 2)
    if d[2] == 0.0:
        raise ZeroDivisionError("h'' vanishes; no unit-curvature normalization")
    return abs(d[2]) ** -0.5


def scaling_lambda_h(h: Expr, p):
    """lam with lam^2 = (h''')^2 / |h''|^3, aligning orders 0 and 1, at the
    point(s) p."""
    d = profile_derivatives(h, p, 3)
    if np.any(d[2] == 0.0) or np.any(d[3] == 0.0):
        raise ZeroDivisionError("h'' and h''' must be nonzero for the aligned frame")
    return np.sqrt(d[3] ** 2 / abs(d[2]) ** 3)


def build_model(g: MetricField, p: Point, r: int, frame: Frame) -> ModelSpace:
    """Pull g and nabla^k P at p back to the frame and expand R, ..., nabla^r R there, densely."""
    g0, seq = nabla_schouten_sequence(g, p, r)
    phi, *seq = pullback([g0, *seq], frame)
    return ModelSpace(r, phi, tuple(TensorAtPoint(t.rank, t.dense()) for t in kulkarni_nomizu(phi, seq)))


def _scale(t: TensorAtPoint) -> float:
    return max(1.0, float(np.abs(t.components).max()))


def _max_dev(a: TensorAtPoint, b: TensorAtPoint) -> float:
    return float(np.abs(a.components - b.components).max())


def _require_block_form(a: TensorAtPoint, tail: tuple[int, ...], tol: float, what: str) -> float:
    """Check a tensor is exactly one curvature block at the T,X slot pattern
    with the given differentiation tail; returns the block value."""
    eps = float(a.components[(T, X, X, T) + tail])
    block = np.zeros_like(a.components)
    place_curvature_block(block, (T, X), eps, tail)
    if float(np.abs(a.components - block).max()) > tol * max(1.0, abs(eps)):
        raise ValueError(f"model is not in canonical form: {what} is not a single curvature block")
    if eps == 0.0:
        raise ValueError(f"model is not in canonical form: {what} entry vanishes")
    return eps


class AutomorphismCheck(NamedTuple):
    accepted: bool
    max_deviation: float
    parameters: Optional[dict[str, float]] = None
    notes: tuple[str, ...] = ()


# Per order: the frame entries (row, column) reported as parameters, and
# the entries the expected shape pins to a value.
_ORDER0_PARAMS = {"a1": (T, 0), "a2": (Y, 0), "a3": (T, 1), "a4": (X, 1), "a5": (Y, 1), "a6": (Y, 2)}
_ORDER1_PARAMS = {"b1": (Y, 0), "b2": (X, 1), "b3": (Y, 1), "b4": (Y, 2)}
_ORDER0_SHAPE = {(X, 0): 0.0, (T, 2): 0.0, (X, 2): 0.0}
_ORDER1_SHAPE = {**_ORDER0_SHAPE, (T, 0): 1.0, (T, 1): 0.0}


def _check_automorphism(frame: Frame, model: ModelSpace, tol: float, order: int, params, shape) -> AutomorphismCheck:
    """Does `frame` preserve (phi, A_0, ..., A_order) of a canonical model,
    whose A_k is one curvature block with tail (T,) * k?"""
    if model.r < order:
        raise ValueError(f"order-{order} check needs a model with r >= {order}")
    canon_tol = max(tol, 1e-7)
    if float(np.abs(model.phi.components - PHI_CANONICAL).max()) > canon_tol:
        raise ValueError("model is not in canonical form: phi has non-constant entries")
    eps = [_require_block_form(model.tensor(k), (T,) * k, canon_tol, f"A_{k}") for k in range(order + 1)]

    dev = _max_dev(pullback(model.phi, frame), model.phi)
    for k in range(order + 1):
        ak = model.tensor(k)
        dev = max(dev, _max_dev(pullback(ak, frame), ak) / _scale(ak))
    if dev > tol:
        return AutomorphismCheck(False, dev)

    m = frame.matrix
    shape_dev = max(abs(m[ij] - v) for ij, v in shape.items())
    # the normal form flips T and X at most; phi(FX, FY) = 1 forces the product
    constraint_dev = max(abs(m[T, 0] ** 2 - 1.0), abs(m[X, 1] ** 2 - 1.0), abs(m[X, 1] * m[Y, 2] - 1.0))
    notes = [
        ", ".join(f"eps{k} = {e:+.3e}" for k, e in enumerate(eps)),
        "X and Y scalings multiply to 1 (derived from phi(FX, FY) = 1, not part of the triangular shape)",
    ]
    if shape_dev > canon_tol or constraint_dev > 1e-6:
        notes.append(
            f"accepted frame violates the expected triangular shape "
            f"(shape dev {shape_dev:.2e}, constraint dev {constraint_dev:.2e})"
        )
    return AutomorphismCheck(True, dev, {name: float(m[ij]) for name, ij in params.items()}, tuple(notes))


def check_automorphism_order0(frame: Frame, model: ModelSpace, tol: float = 1e-9) -> AutomorphismCheck:
    """Does `frame` preserve (phi, A_0) of an order-0 canonical model?

    The model must have phi(T,T) = phi(X,Y) = 1 and a single curvature block
    A_0(T,X,X,T) = eps != 0.  On acceptance the triangular parameters
    a1..a6 are extracted and the constraints a1^2 = a4^2 = 1 and the
    metric-derived a4 a6 = 1 are verified.
    """
    return _check_automorphism(frame, model, tol, 0, _ORDER0_PARAMS, _ORDER0_SHAPE)


def check_automorphism_order1(frame: Frame, model: ModelSpace, tol: float = 1e-9) -> AutomorphismCheck:
    """Does `frame` preserve (phi, A_0, A_1) of an order-1 canonical model?

    The model must carry the blocks A_0(T,X,X,T) = eps0 and
    A_1(T,X,X,T;T) = eps1, both nonzero.  Acceptance pins the T coefficient
    of FT to exactly 1 and removes the T component from FX; b2^2 = 1 and
    b2 b4 = 1 are verified on the extracted parameters.
    """
    return _check_automorphism(frame, model, tol, 1, _ORDER1_PARAMS, _ORDER1_SHAPE)
