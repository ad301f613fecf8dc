"""Dyadic segmentations of the unit cube.

A depth-L segmentation halves [0,1]^P once per level along a chosen
dimension, the lower half always coming first, so level l consists of 2^l
congruent axis-aligned boxes that tile the cube.  All boxes at the same
level are split along the same dimension, so a segmentation is just the
ordering of splitting dimensions, one per level.

Boundary convention: every split interval is half-open [lo, mid) except
along the upper face of the cube, so a coordinate equal to 1.0 always
falls in the last box.  This makes point location total and deterministic
on the closed cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Segmentation",
    "SubintervalPath",
    "SegmentationFamily",
    "build",
    "locate",
    "path_indices",
    "leaf_indices",
    "enumerate_balanced_family",
    "union_families",
]


@dataclass(frozen=True)
class Segmentation:
    """Per-level splitting dimensions (1-based), for the unit cube in `ndim`."""

    dims: tuple[int, ...]
    ndim: int

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ValueError("a segmentation needs at least one level")
        if self.ndim < 1:
            raise ValueError(f"ndim must be >= 1, got {self.ndim}")
        for d in self.dims:
            if not 1 <= d <= self.ndim:
                raise ValueError(f"splitting dimension {d} outside 1..{self.ndim}")

    @property
    def depth(self) -> int:
        return len(self.dims)

    @cached_property
    def _table(self) -> tuple[np.ndarray, ...]:
        return _split_table((self,))

    def splits_per_dim(self) -> np.ndarray:
        """Number of halvings applied to each dimension (shape (ndim,))."""
        out = np.zeros(self.ndim, dtype=np.int64)
        for d in self.dims:
            out[d - 1] += 1
        return out

    def to_json_obj(self) -> list[int]:
        return list(self.dims)

    @classmethod
    def from_json_obj(cls, obj: Sequence[int], ndim: int) -> "Segmentation":
        return cls(tuple(int(d) for d in obj), ndim)


@dataclass(frozen=True, eq=False)
class SubintervalPath:
    """Chain of box indices (1-based, one per level) and the box bounds.

    ``bounds[l]`` is the (lower, upper) pair of coordinate arrays of the
    level l+1 box containing the located point.
    """

    indices: tuple[int, ...]
    bounds: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def leaf(self) -> int:
        return self.indices[-1]


def build(dims: Sequence[int], ndim: int) -> Segmentation:
    """Construct a segmentation from 1-based splitting dimensions."""
    return Segmentation(tuple(int(d) for d in dims), int(ndim))


def as_points(u, ndim: int) -> np.ndarray:
    """Coerce a point or array of points to shape (n, ndim), validating the cube."""
    pts = np.asarray(u, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != ndim:
        raise ValueError(f"expected points of dimension {ndim}, got shape {np.shape(u)}")
    if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):  # NaN fails too
        raise ValueError("coordinates must lie in [0, 1]")
    return pts


def _split_table(segs: Sequence[Segmentation]) -> tuple[np.ndarray, ...]:
    """Split rows for `_locate`, one entry per member and level.

    The rows are the split coordinate, shape (members, L), the scale
    2^(prior splits of it + 1) and the top bin, scale - 1, both shape
    (members, L, 1), and the shift L-1-level of a level's bit in the leaf
    index, shape (L, 1).  Levels run to the deepest member; shallower
    members continue with splits of dimension 1, which only extends their
    paths below their own depth.
    """
    depth = max(seg.depth for seg in segs)
    rows = []
    for seg in segs:
        done = [0] * seg.ndim
        for d in seg.dims + (1,) * (depth - seg.depth):
            done[d - 1] += 1
            rows.append((d - 1, 1 << done[d - 1]))
    dims, scale = np.array(rows, dtype=np.int64).reshape(len(segs), depth, 2).transpose(2, 0, 1)
    shift = np.arange(depth - 1, -1, -1)[:, None]
    return dims, scale[..., None].astype(np.float64), scale[..., None] - 1, shift


def _locate(pts: np.ndarray, segs: "Segmentation | SegmentationFamily") -> np.ndarray:
    """Paths of validated points (n, P) in one segmentation or every member
    of a family, shape (members, n, L) for the deepest member's L.

    A member's own path is ``[j, :, :depth]``.  The child rule is
    index = 2*parent + bit, with bit 0 for the lower half of the split
    coordinate, so the leaf index holds the bits of all levels and the box
    at a level is the leaf index shifted right by the levels below it.
    Scaling by powers of two is exact in binary floating point, so location
    is reproducible bit-for-bit.
    """
    dims, scale, top, shift = segs._table
    b = (pts.T[dims] * scale).astype(np.int64)  # truncation is floor on [0, 1]
    np.minimum(b, top, out=b)  # coordinate exactly 1.0 stays in the top box
    b &= 1
    b <<= shift
    return (b.sum(axis=1, keepdims=True) >> shift).transpose(0, 2, 1)


def path_indices(points: np.ndarray, seg: Segmentation) -> np.ndarray:
    """0-based box index at every level for each point, shape (n, L)."""
    return _locate(as_points(points, seg.ndim), seg)[0]


def leaf_indices(points: np.ndarray, seg: Segmentation) -> np.ndarray:
    """0-based deepest-level box index for each point, shape (n,)."""
    return path_indices(points, seg)[:, -1]


def locate(u, seg: Segmentation) -> SubintervalPath:
    """Locate a single point, returning its index chain and box bounds."""
    pts = as_points(u, seg.ndim)
    if pts.shape[0] != 1:
        raise ValueError("locate takes a single point; use path_indices for batches")
    path = path_indices(pts, seg)[0]
    lo = np.zeros(seg.ndim)
    hi = np.ones(seg.ndim)
    bounds = []
    prev = 0
    for level, dim in enumerate(seg.dims):
        bit = path[level] - 2 * prev
        mid = 0.5 * (lo[dim - 1] + hi[dim - 1])
        if bit == 0:
            hi[dim - 1] = mid
        else:
            lo[dim - 1] = mid
        bounds.append((lo.copy(), hi.copy()))
        prev = path[level]
    return SubintervalPath(tuple(int(j) + 1 for j in path), tuple(bounds))


@dataclass(frozen=True)
class SegmentationFamily:
    """Nonempty ordered collection of distinct segmentations, uniform prior mass each."""

    members: tuple[Segmentation, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a segmentation family cannot be empty")
        ndim = self.members[0].ndim
        if any(s.ndim != ndim for s in self.members):
            raise ValueError("family members must share the ambient dimension")
        if len(set(self.members)) != len(self.members):
            raise ValueError("family members must be distinct")

    @property
    def ndim(self) -> int:
        return self.members[0].ndim

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _table(self) -> tuple[np.ndarray, ...]:
        return _split_table(self.members)

    @cached_property
    def _groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(depth, member indices) per depth, shallowest first: count stacks."""
        depths = np.array([s.depth for s in self.members])
        return tuple((int(d), np.flatnonzero(depths == d)) for d in np.unique(depths))

    def __iter__(self) -> Iterator[Segmentation]:
        return iter(self.members)

    def __getitem__(self, i: int) -> Segmentation:
        return self.members[i]

    def to_json_obj(self) -> dict:
        return {"ndim": self.ndim, "members": [list(s.dims) for s in self.members]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "SegmentationFamily":
        ndim = int(obj["ndim"])
        return cls(tuple(Segmentation(tuple(int(d) for d in m), ndim) for m in obj["members"]))


def _multiset_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a multiset in lexicographic order."""
    work = sorted(items)
    n = len(work)
    while True:
        yield tuple(work)
        i = n - 2
        while i >= 0 and work[i] >= work[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while work[j] <= work[i]:
            j -= 1
        work[i], work[j] = work[j], work[i]
        work[i + 1 :] = reversed(work[i + 1 :])


def enumerate_balanced_family(
    ndim: int,
    per_dim_splits: Mapping[int, int],
    prefix: Sequence[int] = (),
) -> SegmentationFamily:
    """All distinct orderings of a multiset of splitting dimensions.

    After the fixed leading dims in `prefix`, every distinct arrangement of
    the multiset {dim repeated per_dim_splits[dim] times} appears exactly
    once, in lexicographic order, so the family layout is reproducible.
    """
    prefix = tuple(int(d) for d in prefix)
    multiset: list[int] = []
    for dim, count in sorted(per_dim_splits.items()):
        dim, count = int(dim), int(count)
        if not 1 <= dim <= ndim:
            raise ValueError(f"splitting dimension {dim} outside 1..{ndim}")
        if count < 0:
            raise ValueError(f"negative split count for dimension {dim}")
        multiset.extend([dim] * count)
    if len(prefix) + len(multiset) < 1:
        raise ValueError("family segmentations need at least one level")
    members = tuple(
        Segmentation(prefix + tail, ndim) for tail in _multiset_permutations(multiset)
    )
    return SegmentationFamily(members)


def union_families(families: Iterable[SegmentationFamily]) -> SegmentationFamily:
    """Concatenate families, preserving order; members must stay distinct."""
    members: list[Segmentation] = []
    for fam in families:
        members.extend(fam.members)
    return SegmentationFamily(tuple(members))
