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

A family's members share one depth, so its leaf tables, lattice edges
and corner steps are each one array over the members.  Boxes depend only
on how often each dimension is split, not on the order: a point is binned
once per class of equal split counts, into a cell, and its leaf in a
member is the member's cached leaf table read at the cell.  For the same
reason members that reach a level with equal split counts and split the
same dimension there share a lattice edge, and a family caches which edge
each member takes at each level.  A leaf's box is its bits times its
member's cached per-level corner steps, plus the widths its split counts
give.
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


def _check_count(name: str, value, least: int) -> None:
    """Reject a count that is not an integer >= least; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_dim(dim, ndim: int) -> None:
    """Reject a splitting dimension that is not an integer in 1..ndim."""
    _check_count("splitting dimension", dim, 1)
    if dim > ndim:
        raise ValueError(f"splitting dimension {dim} outside 1..{ndim}")


@dataclass(frozen=True)
class Segmentation:
    """Per-level splitting dimensions (1-based), for the unit cube in `ndim`."""

    dims: tuple[int, ...]
    ndim: int

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ValueError("a segmentation needs at least one level")
        ndim = self.ndim
        for d in self.dims:  # the common case, ints in range, costs one pass
            if type(d) is not int or type(ndim) is not int or not 1 <= d <= ndim:
                _check_count("ndim", ndim, 1)
                for dim in self.dims:
                    _check_dim(dim, ndim)
                # numpy integers are stored as ints, so members hash and serialize alike
                object.__setattr__(self, "dims", tuple(map(int, self.dims)))
                object.__setattr__(self, "ndim", int(ndim))
                break

    @property
    def depth(self) -> int:
        return len(self.dims)

    @cached_property
    def _table(self) -> tuple[np.ndarray, ...]:
        return _cell_table(np.array([self.dims]), self.ndim)

    def splits_per_dim(self) -> np.ndarray:
        """Number of halvings applied to each dimension (shape (ndim,))."""
        return np.bincount(np.array(self.dims) - 1, minlength=self.ndim)

    def to_json_obj(self) -> list[int]:
        return list(self.dims)

    @classmethod
    def from_json_obj(cls, obj: Sequence[int], ndim: int) -> "Segmentation":
        return cls(tuple(obj), ndim)


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
    return Segmentation(tuple(dims), ndim)


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


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``
    for non-negative integer rows (n, k), first column most significant:
    one stable lexsort of small integer columns, a fraction of the cost of
    sorting the rows as records."""
    order = np.lexsort(rows.astype(np.min_scalar_type(rows.max()), copy=False).T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), bool)  # first row of each run of equal rows
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _cell_table(dims: np.ndarray, ndim: int) -> tuple[np.ndarray, ...]:
    """Classes and leaf tables for `_locate`, from the members' splitting
    dimensions (members, L).  Members that split each dimension d equally
    often, s_d times, form a class; a point's class cell is the mixed-radix
    code of its bins min(floor(u_d 2^s_d), 2^s_d - 1), dimension 1 lowest,
    and its leaf in a member a bit permutation of it.  Returns each member's
    class, the classes' scales 2^s (classes, 1, ndim) and bin place values
    (classes, ndim, 1), and each cell's leaf (members, 2^L)."""
    depth = dims.shape[1]
    # cell bits run by dimension, later splits of it lower: cell bit b is read
    # at level -key[:, b] % depth, which sets leaf bit (key - 1) % depth
    key = np.sort(dims * depth - np.arange(depth), axis=1)
    weight = 1 << ((key - 1) % depth)
    # a cell's leaf: the outer sum over its lower `half` cell bits and the rest
    half = depth // 2
    bits = (np.arange(1 << (depth - half)) >> np.arange(depth - half)[:, None]) & 1
    low = weight[:, :half] @ bits[:half, : 1 << half]
    table = ((weight[:, half:] @ bits)[:, :, None] + low[:, None]).reshape(len(dims), -1)
    table = table.astype(np.min_scalar_type(table.shape[1] - 1))  # small: it is kept
    splits = np.sum(dims[..., None] == np.arange(1, ndim + 1), axis=1)
    # one member is its own class, which spares it the sort's cost
    splits, _, cls = _unique_rows(splits) if len(dims) > 1 else (splits, None, np.array([0]))
    scale = 2.0**splits
    return cls, scale[:, None], (np.cumprod(scale, axis=1) / scale)[..., None], table


def _edge_table(dims: np.ndarray, ndim: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Lattice edges taken by the members, dims (members, L): the
    split counts before a level and the dimension split at it.  Members on
    one edge have the same boxes at both of its levels, numbered apart, so
    the same sum of node terms.  Returns each level's edge representatives
    (member rows) and the edge each member takes at each level, (L,
    members), both numbered within the level."""
    dims = dims.T  # levels first
    depth, size = dims.shape
    onehot = dims[..., None] == np.arange(1, ndim + 1)
    small = np.min_scalar_type(depth * ndim)  # holds the lead and every count
    lead = (np.arange(depth)[:, None] * ndim + dims - 1).astype(small)  # level, then dimension: edges sort by level
    key = np.concatenate((lead[..., None], np.cumsum(onehot, axis=0, dtype=small) - onehot), axis=-1)
    _, first, edge = _unique_rows(key.reshape(dims.size, -1))
    bounds = np.searchsorted(first // size, np.arange(depth + 1))
    rows = first % size
    return tuple(rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])), edge.reshape(dims.shape) - bounds[:-1, None]


def _corner_steps(dims: np.ndarray, ndim: int) -> np.ndarray:
    """Corner step of every level, dims (members, L) -> (members, L, ndim):
    entry [j, l, d] is 2^-k when member j's level l makes the k-th split of
    dimension d + 1, else 0.  A leaf's lower corner is the sum of the steps
    of the levels where its bit is 1, a sum of distinct powers of two per
    dimension: exact."""
    onehot = dims[..., None] == np.arange(1, ndim + 1)
    return np.where(onehot, 0.5 ** np.cumsum(onehot, axis=-2), 0.0)


def _nodes(leaves: np.ndarray, depth: int) -> np.ndarray:
    """Flat index of every node on the path of each leaf, leaves (members,
    ...) -> (members, ..., L+1), root first.  Flat counts are level-major:
    level l of every member in turn from offset M (2^l - 1), M members, so
    member j's level-l node over leaf k is M (2^l - 1) + j 2^l + (k >> (L - l))."""
    size, level = leaves.shape[0], np.arange(depth + 1)
    member = np.arange(size).reshape((-1,) + (1,) * leaves.ndim) << level
    return (leaves[..., None] >> (depth - level)) + size * ((1 << level) - 1) + member


def _common_grid(family: "SegmentationFamily") -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The common refinement grid of a family and the members' tables on it.

    The grid halves dimension d as often as any member does, 2^s_d cells,
    so every leaf is a union of cells, and two cells differ in the leaf of
    the member that splits the dimension they differ in most often.
    Returns the shape; each cell's leaf (members, cells), cells numbered
    in C order, the first dimension major; each cell's path as `_nodes`
    into level-major counts, shape (members, L+1, cells); and `ylev`
    (members, B), B the splits of the last dimension: entry [j, b] is the
    0-based level of member j's (b+1)-th split of that dimension, or L
    past its last, so that two cells of one column first differing at bit
    b from the top share member j's path down to depth ylev[j, b].
    """
    shape = tuple(int(n) for n in family._table[1].max(axis=(0, 1)))
    leaves = _leaves((np.indices(shape).reshape(len(shape), -1).T + 0.5) / shape, family)
    depth, size = family.depth, len(family)
    # cell-major in memory: a scoring pass gathers the paths of a few
    # cells, each then one contiguous run of L+1 nodes per member
    nodes = _nodes(leaves, depth).transpose(0, 2, 1)
    last = family._dims == family.ndim
    ylev = np.full((size, int(last.sum(axis=1).max())), depth)
    member, level = np.nonzero(last)
    ylev[member, np.cumsum(last, axis=1)[member, level] - 1] = level
    return shape, leaves, nodes, ylev


def _bin(values, n: int) -> np.ndarray:
    """Index of the cell of [0, 1] split into n that holds each value, min(floor(u n), n - 1):
    the boundary convention, so 1 is in the top cell."""
    return np.minimum((np.asarray(values) * n).astype(np.int64), n - 1)


def _class_cells(pts: np.ndarray, segs: "Segmentation | SegmentationFamily") -> np.ndarray:
    """Cell of validated points (n, P) in every class, shape (classes, n);
    powers of two and integer sums below 2^53 are exact in floating point."""
    _, scale, place, _ = segs._table
    bins = np.floor(pts * scale)
    np.minimum(bins, scale - 1.0, out=bins)  # a coordinate of 1.0 stays in the top bin
    return (bins @ place)[..., 0].astype(np.int64)


def _leaves(pts: np.ndarray, segs: "Segmentation | SegmentationFamily") -> np.ndarray:
    """Leaf of validated points in every member, (members, n)."""
    cls, _, _, table = segs._table
    return table[np.arange(cls.size)[:, None], _class_cells(pts, segs)[cls]]


def _locate(pts: np.ndarray, segs: "Segmentation | SegmentationFamily") -> np.ndarray:
    """Paths of validated points (n, P) in one segmentation or every member
    of a family, shape (members, n, L).

    The child rule is index = 2*parent + bit, with bit 0 for the lower half
    of the split coordinate, so the leaf index holds the bits of all levels
    and the box at a level is the leaf index shifted right by the levels
    below it.
    """
    return _leaves(pts, segs)[..., None] >> np.arange(segs.depth - 1, -1, -1)


def path_indices(points: np.ndarray, seg: Segmentation) -> np.ndarray:
    """0-based box index at every level for each point, shape (n, L)."""
    return _locate(as_points(points, seg.ndim), seg)[0]


def leaf_indices(points: np.ndarray, seg: Segmentation) -> np.ndarray:
    """0-based deepest-level box index for each point, shape (n,)."""
    return _leaves(as_points(points, seg.ndim), seg)[0].astype(np.int64)


def locate(u, seg: Segmentation) -> SubintervalPath:
    """Locate a single point, returning its index chain and box bounds."""
    pts = as_points(u, seg.ndim)
    if pts.shape[0] != 1:
        raise ValueError("locate takes a single point; use path_indices for batches")
    path = path_indices(pts, seg)[0]
    steps = _corner_steps(np.array([seg.dims]), seg.ndim)[0]
    lo = np.cumsum((path & 1)[:, None] * steps, axis=0)  # the child rule's bit: the upper half
    hi = lo + 0.5 ** np.cumsum(steps > 0, axis=0)
    return SubintervalPath(tuple(int(j) + 1 for j in path), tuple(zip(lo, hi)))


@dataclass(frozen=True)
class SegmentationFamily:
    """Nonempty ordered collection of distinct segmentations of one depth
    and one ambient dimension, uniform prior mass each.

    With one depth L the density form of every member's likelihood is its
    leaf-sequence probability times 2^(mL), the same factor for all, so the
    leaf-sequence weights of `fit` are exact and its counts are one stack."""

    members: tuple[Segmentation, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a segmentation family cannot be empty")
        ndim = self.members[0].ndim
        if any(s.ndim != ndim for s in self.members):
            raise ValueError("family members must share the ambient dimension")
        if any(s.depth != self.members[0].depth for s in self.members):
            raise ValueError("family members must share one depth")
        if len(set(self.members)) != len(self.members):
            raise ValueError("family members must be distinct")

    @property
    def ndim(self) -> int:
        return self.members[0].ndim

    @property
    def depth(self) -> int:
        return self.members[0].depth

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _dims(self) -> np.ndarray:
        """Splitting dimensions (members, L)."""
        return np.array([s.dims for s in self.members])

    @cached_property
    def _table(self) -> tuple[np.ndarray, ...]:
        return _cell_table(self._dims, self.ndim)

    @cached_property
    def _edges(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """`_edge_table` of the members: what `fit` weighs."""
        return _edge_table(self._dims, self.ndim)

    @cached_property
    def _steps(self) -> np.ndarray:
        """`_corner_steps` of every member, (members, L, ndim): where
        sampling and box masses place leaves."""
        return _corner_steps(self._dims, self.ndim)

    @cached_property
    def _grid(self) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """`_common_grid` of the members: what grid masses and conformal
        scores read, located once per family on first read."""
        return _common_grid(self)

    def __iter__(self) -> Iterator[Segmentation]:
        return iter(self.members)

    def __getitem__(self, i: int) -> Segmentation:
        return self.members[i]

    def to_json_obj(self) -> dict:
        return {"ndim": self.ndim, "members": [list(s.dims) for s in self.members]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "SegmentationFamily":
        """The family `to_json_obj` wrote: ``ndim`` and a list of member lists."""
        members = obj.get("members") if isinstance(obj, Mapping) and "ndim" in obj else None
        if not (isinstance(members, list) and all(isinstance(m, list) for m in members)):
            raise ValueError("family must be a mapping with ndim and a list of member lists")
        return cls(tuple(Segmentation(tuple(m), obj["ndim"]) for m in members))


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
    _check_count("ndim", ndim, 1)
    for dim, count in per_dim_splits.items():
        _check_dim(dim, ndim)
        _check_count(f"split count for dimension {dim}", count, 0)
    prefix, multiset = tuple(prefix), [dim for dim, count in per_dim_splits.items() for _ in range(count)]
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
