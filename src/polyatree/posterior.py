"""Exact posterior weights over a family of segmentations.

The weight of a segmentation given the data is the Polya-tree marginal
likelihood of its leaf sequence: a product over internal nodes of
B(N_lower + a0, N_upper + a0) / B(a0, a0), B the Beta function and
N_lower, N_upper the counts of the node's children (the beta-binomial
chain times the reciprocal multinomial coefficient of the leaf counts,
whose binomial coefficients cancel).  Sums run in log space over cached
log-gamma values and normalize by log-sum-exp.  The members share one
depth, so the density form of each likelihood differs from its leaf-sequence
form by one common factor, which normalizing cancels.  A fitted model
holds its family, a0, one level-major count buffer (level l of each of M
members in turn, from offset M (2^l - 1), so `_levels` reads every level
as a (members, 2^l) view) and the unnormalized log weights, nothing else,
so fits, weights, densities, sampling, scoring and one-point updates are
array operations; a fit counts each split-count class's cells once, for
all its members' leaves.  A level's sum of node terms depends only on the
lattice edge a member takes there (its split counts before the level and
the dimension split at it), so a fit sums each edge once and a member's
log weight is the sum of its edges' terms.  A one-point move, in
`IncrementalModel` or a conformal scorer, is one gather and one indexed
add for all members at the nodes `segmentation._nodes` gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .hbeta import _check_a0, _log_path_density, counts_from_leaf_counts
from .segmentation import SegmentationFamily, _class_cells, _leaves, _nodes, as_points

__all__ = [
    "LogGammaTables",
    "log_unnormalized_weight",
    "fit",
    "PosteriorModel",
    "IncrementalModel",
]


class LogGammaTables:
    """Cached log-gamma values for integer counts shifted by a0 and 2*a0.

    G1[k] = lgamma(k + a0)
    G2[k] = lgamma(k + 2*a0)
    """

    def __init__(self, a0: float, nmax: int):
        _check_a0(a0)
        self.a0 = float(a0)
        self._const = 2.0 * gammaln(self.a0) - gammaln(2.0 * self.a0)
        self._nmax = -1
        self.ensure(nmax)

    def ensure(self, nmax: int) -> None:
        if nmax <= self._nmax:
            return
        nmax = max(nmax, 2 * max(self._nmax, 16))
        k = np.arange(nmax + 1, dtype=np.float64)
        self.G1 = gammaln(k + self.a0)
        self.G2 = gammaln(k + 2.0 * self.a0)
        self._nmax = nmax


def _node_terms(child, parent, tables: LogGammaTables) -> np.ndarray:
    """log B(N_lower + a0, N_upper + a0) - log B(a0, a0) of every node, from
    the counts of its children (..., 2n), pairs adjacent, and its own (..., n)."""
    g = tables.G1[child]
    return g[..., 0::2] + g[..., 1::2] - tables.G2[parent] - tables._const


def log_unnormalized_weight(counts: tuple[np.ndarray, ...], a0: float, tables: LogGammaTables | None = None):
    """Log numerator of the posterior segmentation probability.

    Every internal node with child counts (N_lower, N_upper) and N =
    N_lower + N_upper adds log B(N_lower + a0, N_upper + a0) - log B(a0, a0)
    = lgamma(N_lower + a0) + lgamma(N_upper + a0) - lgamma(N + 2*a0)
    - [2 lgamma(a0) - lgamma(2*a0)], which is exactly zero for an empty
    node.  All levels' nodes are summed in one pass.  Counts with a leading
    members axis give one weight per member.  A level's sum depends only on
    the lattice edge taken there, the split counts before it and the
    dimension split, so `fit` sums each edge once for all its members.
    """
    nmax = int(counts[0].max())
    if tables is None:
        tables = LogGammaTables(a0, nmax)
    elif tables.a0 != a0:
        raise ValueError("tables were built for a different a0")
    tables.ensure(nmax)
    child, parent = (np.concatenate(lv, axis=-1) for lv in (counts[1:], counts[:-1]))
    total = np.sum(_node_terms(child, parent, tables), axis=-1)
    return total if np.ndim(total) else float(total)


@dataclass(frozen=True, eq=False)
class PosteriorModel:
    """Fitted family: its node counts and unnormalized log weights.

    ``counts`` is the level-major count buffer and ``stack`` its levels
    (members, 2^l) as views; weights, densities, sampling and scoring read
    only these.  The sample size is the root count, and ``log_weights``,
    the normalized log weights, are derived when the model is made."""

    family: SegmentationFamily
    counts: np.ndarray
    a0: float
    log_unnormalized: np.ndarray

    def __post_init__(self):
        _check_a0(self.a0)
        counts, log_w, members = self.counts, self.log_unnormalized, len(self.family)
        size = members * ((2 << self.family.depth) - 1)
        if not isinstance(counts, np.ndarray) or counts.shape != (size,) or counts.dtype.kind != "i":
            raise ValueError(f"counts must be a 1-D signed integer array of {size} node counts")
        if not (isinstance(log_w, np.ndarray) and log_w.shape == (members,) and log_w.dtype.kind == "f"
                and np.all(np.isfinite(log_w))):
            raise ValueError(f"log_unnormalized must be a 1-D array of {members} finite floats, one per member")
        # made here, not on first read, so that a fit pays for normalizing
        # and not the first density or sample that reads the weights
        object.__setattr__(self, "log_weights", _log_normalize(self.log_unnormalized))

    @cached_property
    def stack(self) -> tuple[np.ndarray, ...]:
        return _levels(self.counts, len(self.family))

    @property
    def m(self) -> int:
        return int(self.counts[0])

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @cached_property
    def _grid_mass(self) -> np.ndarray:
        """`predictive._grid_mass` of the model, built on first read."""
        from .predictive import _grid_mass  # predictive imports this module

        return _grid_mass(self)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family.to_json_obj(),
            "a0": self.a0,
            "leaf_counts": self.stack[-1].tolist(),
            "log_unnormalized": self.log_unnormalized.tolist(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PosteriorModel":
        """The model `to_json_obj` wrote: one row of 2^L non-negative integer
        leaf counts per member, every row the same total, whose levels above
        are summed here, so that no parent count can disagree with its children."""
        if not isinstance(obj, dict):
            raise ValueError("model must be a JSON object")
        missing = sorted({"family", "a0", "leaf_counts", "log_unnormalized"} - set(obj))
        if missing:  # such as a model saved in the earlier two-file form
            raise ValueError(f"model has no {', '.join(missing)}")
        _check_a0(obj["a0"])
        family = SegmentationFamily.from_json_obj(obj["family"])
        want = (len(family), 1 << family.depth)
        try:
            leaves = np.asarray(obj["leaf_counts"])
        except ValueError:  # rows of unequal length
            leaves = np.empty(0)
        if leaves.shape != want or leaves.dtype.kind != "i":
            raise ValueError(f"leaf_counts must be a signed integer array of shape {want}")
        if np.any(leaves < 0) or np.any(leaves.sum(axis=1) != leaves[0].sum()):
            raise ValueError("leaf_counts must be non-negative with one total for every member")
        counts = np.concatenate(counts_from_leaf_counts(leaves), axis=None)  # level-major
        return cls(family, counts, float(obj["a0"]), np.asarray(obj["log_unnormalized"]))

    def weight_rows(self) -> list[tuple[str, float, float]]:
        """(segmentation, normalized log weight, unnormalized log weight) rows."""
        return [
            (json.dumps(list(seg.dims)), float(lw), float(lu))
            for seg, lw, lu in zip(self.family, self.log_weights, self.log_unnormalized)
        ]


def _log_normalize(log_w: np.ndarray) -> np.ndarray:
    """Finite log weights less their log-sum-exp, computed as scipy's
    `logsumexp` computes it, to the last bit: the maximal terms are kept
    out of the shifted sum, which enters through log1p."""
    top = log_w.max()
    is_top = log_w == top
    count = float(np.count_nonzero(is_top))
    rest = np.sum(np.exp(np.where(is_top, -np.inf, log_w) - top)) / count
    return log_w - (np.log1p(rest) + np.log(count) + top)


def _levels(counts: np.ndarray, members: int) -> tuple[np.ndarray, ...]:
    """Count stack whose levels (members, 2^l) are views of level-major flat
    counts, level l at offset members (2^l - 1), as `_nodes` reads them."""
    widths = [1 << l for l in range((counts.size // members).bit_length())]
    return tuple(counts[members * (w - 1) : members * (2 * w - 1)].reshape(members, w) for w in widths)


def _moved(counts: np.ndarray, nodes: np.ndarray, sign: int) -> np.ndarray:
    """A copy of flat counts with sign added along one path in every member,
    nodes (members, L+1) as `_nodes` gives them."""
    out = counts.copy()
    out[nodes] += sign
    return out


def _blocks(n: int, width: int):
    """Slices of n points, each holding at most 2^21 entries of `width` per point."""
    step = max(1, (1 << 21) // width)
    return (slice(start, start + step) for start in range(0, n, step))


def fit(points, family: SegmentationFamily, a0: float) -> PosteriorModel:
    """Count the data under every family member and normalize the weights.

    One bincount counts every class's cells; each member's leaf counts are
    its class's cell counts scattered through its leaf table, so no member
    locates a point.  Each level sums the node terms of its lattice edges,
    on one representative row of the stack per edge, and every member adds
    its edge's sum."""
    pts = as_points(points, family.ndim)
    tables = LogGammaTables(a0, pts.shape[0])
    cls, scale, _, table = family._table
    cell_counts = np.zeros((scale.shape[0], table.shape[1]), dtype=np.int64)  # of each class's cells
    for rows in _blocks(pts.shape[0], scale.size):
        cells = _class_cells(pts[rows], family) + np.arange(0, cell_counts.size, table.shape[1])[:, None]
        cell_counts += np.bincount(cells.ravel(), minlength=cell_counts.size).reshape(cell_counts.shape)
    counts = np.empty(len(family) * ((2 << family.depth) - 1), dtype=np.int64)
    levels, (reps, edge) = _levels(counts, len(family)), family._edges
    log_unnorm = np.zeros(len(family))
    np.put_along_axis(levels[-1], table, cell_counts[cls], axis=1)  # a member's cells are its leaves, permuted
    for l in range(family.depth, 0, -1):  # each level above sums its children in place
        np.add(levels[l][:, 0::2], levels[l][:, 1::2], levels[l - 1])
    for l, rows in enumerate(reps, 1):
        log_unnorm += np.sum(_node_terms(levels[l][rows], levels[l - 1][rows], tables), axis=-1)[edge[l - 1]]
    model = PosteriorModel(family, counts, float(a0), log_unnorm)
    model.__dict__["stack"] = levels  # the views summed into above, so they are built once
    return model


class IncrementalModel:
    """Mutable clone of a fitted model supporting one-point updates.

    A member's unnormalized weight is the marginal probability of the
    observed leaf sequence, so by Bayes' rule adding a point multiplies it
    by the predictive probability of the point's leaf given the other
    points, and removing one divides by it.  An update therefore costs
    one count-ratio chain along the point's path per member, O(depth),
    for all members at once: one gather of the path's node counts from
    a copy of the model's flat counts and one indexed add into it.
    Intended for leave-one-out loops; the parent model is never modified.
    """

    def __init__(self, model: PosteriorModel):
        self.family = model.family
        self.a0 = model.a0
        self.counts = model.counts.copy()
        self.log_unnormalized = model.log_unnormalized.copy()

    @property
    def m(self) -> int:
        return int(self.counts[0])

    @property
    def log_weights(self) -> np.ndarray:
        return _log_normalize(self.log_unnormalized)

    def add_point(self, u) -> None:
        self._update(u, +1)

    def remove_point(self, u) -> None:
        self._update(u, -1)

    def _update(self, u, sign: int) -> None:
        """Move one point in (sign +1) or out (sign -1) of every member.

        The weight change is the log predictive leaf probability of the
        point evaluated on the counts without it; a removal is checked
        against every member before any counts change.
        """
        pts = as_points(u, self.family.ndim)
        if pts.shape[0] != 1:
            raise ValueError("an update takes a single point")
        nodes = _nodes(_leaves(pts, self.family)[:, 0], self.family.depth)
        node_counts = self.counts[nodes]
        if sign < 0:
            if self.m == 0:
                raise ValueError("no points to remove")
            if np.any(node_counts[:, -1] <= 0):
                raise ValueError("no observation in that leaf to remove")
            node_counts -= 1
        log_mass = _log_path_density(node_counts, self.a0) - self.family.depth * np.log(2.0)
        self.log_unnormalized += sign * log_mass
        self.counts[nodes] += sign

    def snapshot(self) -> PosteriorModel:
        return PosteriorModel(self.family, self.counts.copy(), self.a0, self.log_unnormalized.copy())
