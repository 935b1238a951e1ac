"""Dense covariant tensors on a 3-dimensional frame.

Every tensor in the program is of type (0, n): a metric, a curvature
tensor nabla^k R of rank 4 + k.  A tensor sampled at a batch of points
carries the point axis (or axes) in front of its slots, and a frame may
carry the same point axis, so one pullback moves a whole grid.  A Frame's
matrix columns are the new basis vectors written in the old basis, and each
slot pulls back by precomposition with the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIM = 3
DET_FLOOR = 1e-12


@dataclass(frozen=True)
class TensorAtPoint:
    """Components of shape batch + (3,) * rank; batch is () at one point."""

    rank: int
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.components.shape
        if len(shape) < self.rank or shape[len(shape) - self.rank:] != (DIM,) * self.rank:
            raise ValueError(f"components of shape {shape} do not match rank {self.rank}")


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


def pullback(t: TensorAtPoint, frame: Frame) -> TensorAtPoint:
    """Components of the same tensor expressed on the frame's basis,
    new_{a..} = old_{i..} m[i, a] per slot.

    A frame with a point axis pulls each point's tensor back by that
    point's matrix.  Each step is one batched matrix product that contracts
    the leading slot and appends the new one last, so after `rank` steps
    the slots are back in order.
    """
    rank = t.rank
    comp = t.components
    batch = np.broadcast_shapes(comp.shape[: comp.ndim - rank], frame.matrix.shape[:-2])
    m = frame.matrix.reshape(-1, DIM, DIM)
    comp = comp.reshape((-1,) + (DIM,) * rank)
    for _ in range(rank):
        comp = comp.reshape(len(comp), DIM, DIM ** (rank - 1)).swapaxes(1, 2) @ m
    return TensorAtPoint(rank, comp.reshape(batch + (DIM,) * rank))
