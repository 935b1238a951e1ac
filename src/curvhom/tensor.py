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

import numpy as np

DIM = 3
AXES = tuple(range(DIM))  # a slot's default support: every direction
DET_FLOOR = 1e-12


class TensorAtPoint:
    """Components of shape batch + shape, where shape holds the size of each
    slot's support; batch is () at one point."""

    __slots__ = ("rank", "components", "supports", "shape")

    def __init__(self, rank: int, components: np.ndarray, supports: tuple = None):
        self.rank = rank
        self.components = components
        self.supports = (AXES,) * rank if supports is None else supports  # per slot, the sorted directions it holds
        self.shape = tuple(map(len, self.supports))  # the size of each slot's support
        shape = components.shape
        if len(self.supports) != rank or len(shape) < rank or shape[len(shape) - rank:] != self.shape:
            raise ValueError(f"components of shape {shape} do not match rank {rank} on {self.supports}")

    def __repr__(self):
        return f"TensorAtPoint(rank={self.rank!r}, supports={self.supports!r})"

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


class Frame:
    """Basis change; columns are the new basis vectors in the old basis."""

    def __init__(self, matrix: np.ndarray):
        if matrix.shape[-2:] != (DIM, DIM):
            raise ValueError(f"frame matrix must be {DIM}x{DIM}")
        if np.any(singular(matrix, np.linalg.det(matrix))):
            raise ValueError("frame matrix is singular")
        self.matrix = matrix

    def __repr__(self):
        return f"Frame(matrix={self.matrix!r})"


def pullback(t, frame: Frame):
    """Components of the same tensor expressed on the frame's basis,
    new_{a..} = old_{i..} m[i, a] per slot; t is one TensorAtPoint, or a
    sequence of them, pulled back as a list on one plan.

    A frame with a point axis pulls each point's tensor back by that
    point's matrix.  The plan is built once per frame: a slot's new support
    is every direction that one of its old directions reaches, m[i, a] != 0
    at some point, and each support pair has its block m[old, new].  Each
    step is one batched matrix product by a block, that contracts the
    leading slot and appends the new one last, so after `rank` steps the
    slots are back in order.
    """
    m = frame.matrix.reshape(-1, DIM, DIM)
    ts = [t] if isinstance(t, TensorAtPoint) else list(t)
    reach = (m != 0.0).any(axis=0).tolist()  # [old][new]
    to = {s: tuple(a for a in AXES if any(reach[i][a] for i in s)) for s in {s for u in ts for s in u.supports}}
    blocks = {old: m[:, list(old)][:, :, list(new)] for old, new in to.items()}
    out = []
    for u in ts:
        batch = np.broadcast_shapes(u.batch, frame.matrix.shape[:-2])
        comp = u.components.reshape((math.prod(u.batch),) + u.shape)
        for old in u.supports:
            rest = comp.shape[2:]
            comp = comp.reshape(len(comp), len(old), math.prod(rest)).swapaxes(1, 2) @ blocks[old]
            comp = comp.reshape((len(comp),) + rest + (len(to[old]),))
        out.append(TensorAtPoint(u.rank, comp.reshape(batch + comp.shape[1:]), tuple(to[s] for s in u.supports)))
    return out[0] if isinstance(t, TensorAtPoint) else out
