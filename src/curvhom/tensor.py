"""Dense tensors of arbitrary valence on a 3-dimensional frame.

Components are stored with all contravariant axes first, then covariant
axes.  A tensor sampled at a batch of points carries the point axis (or
axes) in front of those, and a frame may carry the same point axis, so one
pullback moves a whole grid.  Basis changes follow the active convention: a Frame's matrix columns
are the new basis vectors written in the old basis, covariant slots pull
back by precomposition with the frame, contravariant slots transform by the
frame's inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIM = 3
DET_FLOOR = 1e-12


@dataclass(frozen=True)
class TensorAtPoint:
    """Components of shape batch + (3,) * rank; batch is () at one point."""

    contravariant_rank: int
    covariant_rank: int
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        rank = self.contravariant_rank + self.covariant_rank
        shape = self.components.shape
        if len(shape) < rank or shape[len(shape) - rank:] != (DIM,) * rank:
            raise ValueError(
                f"components of shape {self.components.shape} do not match "
                f"rank ({self.contravariant_rank}, {self.covariant_rank})"
            )

    @property
    def rank(self) -> int:
        return self.contravariant_rank + self.covariant_rank


def covariant(components: np.ndarray) -> TensorAtPoint:
    arr = np.asarray(components, dtype=np.float64)
    return TensorAtPoint(0, arr.ndim, arr)


def singular(matrices: np.ndarray, det) -> np.ndarray:
    """Per matrix: |det| <= DET_FLOOR times the product of each row's largest
    |entry|, a Hadamard bound up to a factor 3^1.5 that, unlike row 2-norms,
    squares no entry; so tiny or huge entries alone are not singular."""
    return np.abs(det) <= DET_FLOOR * np.prod(np.abs(matrices).max(axis=-1), axis=-1)


@dataclass(frozen=True)
class Frame:
    """Basis change; columns are the new basis vectors in the old basis."""

    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape[-2:] != (DIM, DIM):
            raise ValueError(f"frame matrix must be {DIM}x{DIM}")
        if np.any(singular(self.matrix, np.linalg.det(self.matrix))):
            raise ValueError("frame matrix is singular")

    def inverse(self) -> "Frame":
        return Frame(np.linalg.inv(self.matrix))

    def compose(self, other: "Frame") -> "Frame":
        """Frame applying self first, then other on the new basis."""
        return Frame(self.matrix @ other.matrix)


def identity_frame() -> Frame:
    return Frame(np.eye(DIM))


def check_metric(g: TensorAtPoint) -> np.ndarray:
    """Validate a (0,2) tensor as a metric; returns the matrix."""
    if (g.contravariant_rank, g.covariant_rank) != (0, 2):
        raise ValueError("metric must be a (0,2) tensor")
    m = g.components
    if not np.allclose(m, m.T, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise ValueError("metric is not symmetric")
    if singular(m, np.linalg.det(m)):
        raise ValueError("metric is degenerate")
    return m


def signature(g: TensorAtPoint) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts; (2, 1) means Lorentzian here."""
    eig = np.linalg.eigvalsh(check_metric(g))
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


def pullback(t: TensorAtPoint, frame: Frame) -> TensorAtPoint:
    """Components of the same tensor expressed on the frame's basis.

    Covariant slots contract with the frame matrix, contravariant slots with
    its inverse.  A frame with a point axis pulls each point's tensor back
    by that point's matrix.  Each step is one batched matrix product that
    contracts the leading slot and appends the new one last, so after
    `rank` steps the slots are back in order.
    """
    rank = t.rank
    comp = t.components
    batch = np.broadcast_shapes(comp.shape[: comp.ndim - rank], frame.matrix.shape[:-2])
    m = frame.matrix.reshape(-1, DIM, DIM)
    # covariant: new_a = old_i m[i, a]; contravariant: new^a = minv[a, i] old^i
    mats = [m] * t.covariant_rank
    if t.contravariant_rank:
        mats = [np.linalg.inv(m).swapaxes(1, 2)] * t.contravariant_rank + mats
    comp = comp.reshape((-1,) + (DIM,) * rank)
    for mat in mats:
        comp = comp.reshape(len(comp), DIM, DIM ** (rank - 1)).swapaxes(1, 2) @ mat
    return TensorAtPoint(t.contravariant_rank, t.covariant_rank, comp.reshape(batch + (DIM,) * rank))


def raise_last_index(t: TensorAtPoint, g: TensorAtPoint) -> TensorAtPoint:
    """Contract the last covariant slot with the inverse metric.

    The raised index becomes the leading contravariant axis, so a (0,4)
    curvature tensor turns into the (1,3) curvature operator.
    """
    if t.covariant_rank < 1:
        raise ValueError("no covariant slot to raise")
    ginv = np.linalg.inv(check_metric(g))
    comp = np.tensordot(t.components, ginv, axes=([t.rank - 1], [1]))
    comp = np.moveaxis(comp, -1, 0)
    return TensorAtPoint(t.contravariant_rank + 1, t.covariant_rank - 1, comp)


def lower_first_index(t: TensorAtPoint, g: TensorAtPoint) -> TensorAtPoint:
    """Inverse of raise_last_index: lower the leading contravariant axis into
    a trailing covariant slot."""
    if t.contravariant_rank < 1:
        raise ValueError("no contravariant slot to lower")
    gm = check_metric(g)
    comp = np.tensordot(t.components, gm, axes=([0], [1]))
    return TensorAtPoint(t.contravariant_rank - 1, t.covariant_rank + 1, comp)


def contract(
    t: TensorAtPoint,
    slot_a: int,
    slot_b: int,
    g: TensorAtPoint | None = None,
) -> TensorAtPoint:
    """Trace over two slots; slots index the full (contravariant, covariant)
    axis list.  Like-variance slots need the metric to pair them."""
    if slot_a == slot_b:
        raise ValueError("contraction slots must be distinct")
    if not (0 <= slot_a < t.rank and 0 <= slot_b < t.rank):
        raise ValueError(f"slot out of range for rank {t.rank}")
    a_contra = slot_a < t.contravariant_rank
    b_contra = slot_b < t.contravariant_rank
    comp = t.components
    if a_contra != b_contra:
        comp = np.trace(comp, axis1=slot_a, axis2=slot_b)
    else:
        if g is None:
            raise ValueError("metric required to contract two slots of equal variance")
        gm = check_metric(g)
        pairing = gm if a_contra else np.linalg.inv(gm)
        comp = np.tensordot(comp, pairing, axes=([slot_a, slot_b], [0, 1]))
    dropped_contra = int(a_contra) + int(b_contra)
    return TensorAtPoint(
        t.contravariant_rank - dropped_contra,
        t.covariant_rank - (2 - dropped_contra),
        comp,
    )
