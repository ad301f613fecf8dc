"""Hierarchical Beta tree: random step densities on one dyadic segmentation.

Each internal node of the segmentation tree carries an independent
Beta(a0, a0) variable giving the conditional probability of its lower
child.  Leaf probabilities are products of those conditionals down the
tree, and the induced density is constant on each depth-L box.  Counting
observations per node makes the model conjugate: node variables update to
Beta(a0 + N_lower, a0 + N_upper), and the predictive density of a new
point has a closed form as a product of count ratios along its path.
The count kernels also take a leading members axis: levels of shape
(members, 2^l) hold a stack of equal-depth members, a single tree being
the one-member case.  Posterior draws pass leading axes through as well:
a stack broadcast to (members, draws, 2^l) takes one Beta call per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .segmentation import Segmentation, _leaves, _nodes, as_points, leaf_indices

__all__ = [
    "BetaTree",
    "CountsTree",
    "sample_phi_prior",
    "sample_phi_posterior",
    "pi_from_phi",
    "accumulate_counts",
    "counts_from_leaf_counts",
    "step_density",
    "conditional_predictive_density",
    "leaf_predictive_masses",
]


def _check_a0(a0: float) -> None:
    """Reject a concentration that is not a finite positive number."""
    if not (np.isfinite(a0) and a0 > 0):
        raise ValueError(f"a0 must be finite and positive, got {a0}")


def _check_count(name: str, value, least: int) -> None:
    """Reject a count that is not an integer >= least; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, eq=False)
class BetaTree:
    """Lower-child conditional probabilities, one array per level.

    ``levels[l]`` has 2^l entries, the variables of the level l+1 split.
    """

    levels: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)


@dataclass(frozen=True, eq=False)
class CountsTree:
    """Observation counts at every node: ``levels[l]`` has 2^l entries.

    ``levels[0]`` is the single root count, the total sample size.
    Every parent count equals the sum of its two children.  Levels of
    shape (members, 2^l) hold a stack of members of one sample, which
    share that root count.
    """

    levels: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def m(self) -> int:
        return int(self.levels[0].flat[0])

    def validate(self) -> None:
        for l in range(1, len(self.levels)):
            lower, upper = self.levels[l][..., 0::2], self.levels[l][..., 1::2]
            if not np.array_equal(self.levels[l - 1], lower + upper):
                raise ValueError(f"parent-sum violated between levels {l - 1} and {l}")
        if np.any(self.levels[-1] < 0):
            raise ValueError("negative counts")

    def to_json_obj(self) -> dict:
        if self.levels[0].ndim > 1:
            raise ValueError("to_json_obj writes one tree; write a stack's members one by one")
        return {"m": self.m, "levels": [lvl.tolist() for lvl in self.levels[1:]]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "CountsTree":
        levels = [np.array([int(obj["m"])], dtype=np.int64)]
        levels.extend(np.asarray(lvl, dtype=np.int64) for lvl in obj["levels"])
        tree = cls(tuple(levels))
        tree.validate()
        return tree


def sample_phi_prior(depth: int, a0: float, rng=None) -> BetaTree:
    """Independent Beta(a0, a0) draws at every node of a depth-L tree."""
    _check_a0(a0)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gen = np.random.default_rng(rng)  # a Generator comes back unaltered
    return BetaTree(tuple(gen.beta(a0, a0, size=1 << l) for l in range(depth)))


def sample_phi_posterior(counts: CountsTree, a0: float, rng=None) -> BetaTree:
    """Conjugate draws Beta(a0 + N_lower, a0 + N_upper) at every node;
    leading axes of the count levels, such as (members, draws), pass through."""
    _check_a0(a0)
    gen = np.random.default_rng(rng)
    levels = counts.levels[1:]
    return BetaTree(tuple(gen.beta(a0 + lvl[..., 0::2], a0 + lvl[..., 1::2]) for lvl in levels))


def pi_from_phi(tree: BetaTree) -> np.ndarray:
    """Leaf probabilities: product of lower/upper conditionals along each
    path, built along the last axis, so leading axes pass through."""
    pi = np.ones(tree.levels[0].shape)
    for phi in tree.levels:
        nxt = np.empty(pi.shape[:-1] + (2 * pi.shape[-1],))
        nxt[..., 0::2] = phi * pi
        nxt[..., 1::2] = (1.0 - phi) * pi
        pi = nxt
    return pi


def accumulate_counts(points, seg: Segmentation) -> CountsTree:
    """Count observations in every box of the segmentation tree."""
    leaves = _leaves(as_points(points, seg.ndim), seg)[0]
    return counts_from_leaf_counts(np.bincount(leaves, minlength=1 << seg.depth))


def counts_from_leaf_counts(leaf_counts) -> CountsTree:
    """Build the full tree from deepest-level counts by pairwise summation."""
    leaves = np.asarray(leaf_counts, dtype=np.int64)
    size = leaves.shape[-1]
    if size < 2 or size & (size - 1):
        raise ValueError("leaf count vector length must be a power of two >= 2")
    levels = [leaves]
    while levels[-1].shape[-1] > 1:
        cur = levels[-1]
        levels.append(cur[..., 0::2] + cur[..., 1::2])
    return CountsTree(tuple(reversed(levels)))


def step_density(points, seg: Segmentation, pi: np.ndarray):
    """Evaluate the leaf-uniform step density pi[leaf] * 2^L at each point."""
    pts = as_points(points, seg.ndim)
    pi = np.asarray(pi, dtype=np.float64)
    if pi.size != 1 << seg.depth:
        raise ValueError(f"expected {1 << seg.depth} leaf probabilities, got {pi.size}")
    vals = pi[leaf_indices(pts, seg)] * (1 << seg.depth)
    return float(vals[0]) if np.ndim(points) == 1 else vals


def conditional_predictive_density(points, counts: CountsTree, seg: Segmentation, a0: float):
    """Closed-form predictive density of the next observation at each point.

    The conjugate posterior mean of the leaf density: the product over
    levels of 2 * (N_level + a0) / (N_parent + 2*a0) along the point's
    path.  Levels whose parent is empty contribute a factor of exactly
    one, so the product effectively stops one level below the deepest
    occupied node, and deepening the segmentation there leaves the value
    unchanged.  An empty sample gives the uniform density 1.  Computed in
    log space so deep trees with sparse counts do not underflow.
    """
    _check_a0(a0)
    if counts.depth != seg.depth:
        raise ValueError("counts tree depth does not match the segmentation")
    nodes = _nodes(leaf_indices(as_points(points, seg.ndim), seg)[None], seg.depth)[0]
    vals = np.exp(_log_path_density(np.concatenate(counts.levels)[nodes], a0))
    return float(vals[0]) if np.ndim(points) == 1 else vals


def _log_path_density(node_counts: np.ndarray, a0: float) -> np.ndarray:
    """Log predictive density at the leaf ending each path, from the node
    counts along it (..., L+1), the root's first, as gathered through
    `segmentation._nodes`.  The result is the log predictive probability
    of the path's leaf plus L*log(2): the sum over levels of
    log(N_level + a0) - log(N_parent + 2*a0) + log(2), with levels below
    an empty parent contributing exactly zero.
    """
    active = node_counts[..., :-1] > 0  # below an empty parent every factor is 1
    terms = (
        np.log(node_counts[..., 1:] + a0)
        - np.log(node_counts[..., :-1] + 2.0 * a0)
        + np.log(2.0)
    )
    return np.sum(np.where(active, terms, 0.0), axis=-1)


def leaf_predictive_masses(counts: CountsTree, a0: float) -> np.ndarray:
    """Predictive probability of the next observation landing in each leaf.

    Children split their parent's mass in proportion to
    (N_child + a0) / (N_parent + 2*a0); masses sum to one exactly.
    """
    _check_a0(a0)
    mass = np.ones(counts.levels[0].shape)
    for l in range(1, counts.depth + 1):
        parent = mass / (counts.levels[l - 1] + 2.0 * a0)
        mass = np.repeat(parent, 2, axis=-1) * (counts.levels[l] + a0)
    return mass
