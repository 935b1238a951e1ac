"""Covariant tensors on a 3-dimensional frame, stored on a box of directions.

Every tensor in the program is of type (0, n): a metric, a curvature
tensor nabla^k R of rank 4 + k.  A tensor sampled at a batch of points
carries the point axis (or axes) in front of its slots, and a frame may
carry the same point axis, so one pullback moves a whole grid.  Slot s
holds the sorted directions supports[s], all three by default, and the
tensor is zero along the others; `dense` embeds it in the (3,) * rank
array.  A Frame's matrix columns are the new basis vectors written in the
old basis, and each slot pulls back by precomposition with the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DIM = 3
AXES = tuple(range(DIM))  # a slot's default support: every direction
DET_FLOOR = 1e-12


@dataclass(frozen=True)
class TensorAtPoint:
    """Components of shape batch + shape, where shape holds the size of each
    slot's support; batch is () at one point."""

    rank: int
    components: np.ndarray = field(repr=False)
    supports: tuple = None  # per slot, the sorted directions it holds; None: all three

    def __post_init__(self):
        if self.supports is None:
            object.__setattr__(self, "supports", (AXES,) * self.rank)
        shape = self.components.shape
        if len(self.supports) != self.rank or len(shape) < self.rank or shape[len(shape) - self.rank:] != self.shape:
            raise ValueError(f"components of shape {shape} do not match rank {self.rank} on {self.supports}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.supports)

    @property
    def batch(self) -> tuple[int, ...]:
        return self.components.shape[: self.components.ndim - self.rank]

    def embed(self, supports) -> np.ndarray:
        """The components laid on the box `supports`, which holds this box
        slot by slot, with zeros on the rest."""
        if tuple(supports) == self.supports:
            return self.components
        out = np.zeros(self.batch + tuple(len(s) for s in supports))
        out[(...,) + np.ix_(*(np.searchsorted(new, old) for new, old in zip(supports, self.supports)))] = self.components
        return out

    def dense(self) -> np.ndarray:
        """The components on every direction, shape batch + (3,) * rank."""
        return self.embed((AXES,) * self.rank)


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
    point's matrix.  A slot's new support is every direction that one of
    its old directions reaches, m[i, a] != 0 at some point.  Each step is
    one batched matrix product, by the block m[old, new], that contracts
    the leading slot and appends the new one last, so after `rank` steps
    the slots are back in order.
    """
    batch = np.broadcast_shapes(t.batch, frame.matrix.shape[:-2])
    m = frame.matrix.reshape(-1, DIM, DIM)
    reach = (m != 0.0).any(axis=0).tolist()  # [old][new]
    to = {s: tuple(a for a in AXES if any(reach[i][a] for i in s)) for s in set(t.supports)}
    supports = tuple(to[s] for s in t.supports)
    blocks = {(old, new): m[:, list(old)][:, :, list(new)] for old, new in to.items()}
    comp = t.components.reshape((math.prod(t.batch),) + t.shape)
    for old, new in zip(t.supports, supports):
        rest = comp.shape[2:]
        comp = comp.reshape(len(comp), len(old), math.prod(rest)).swapaxes(1, 2) @ blocks[old, new]
        comp = comp.reshape((len(comp),) + rest + (len(new),))
    return TensorAtPoint(t.rank, comp.reshape(batch + comp.shape[1:]), supports)
