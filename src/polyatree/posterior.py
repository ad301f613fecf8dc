"""Exact posterior weights over a family of segmentations.

The weight of a segmentation given the data is proportional to the
reciprocal multinomial coefficient of its deepest-level counts times a
chain of beta-binomial probabilities, one per internal node: the lower
child count given the parent count, with symmetric parameters (a0, a0).
Everything is accumulated in log space with cached log-gamma lookups and
normalized by log-sum-exp, so large families and deep trees stay stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .hbeta import (
    CountsTree,
    _check_a0,
    _log_path_density,
    accumulate_counts,
    conditional_predictive_density,
)
from .segmentation import SegmentationFamily, _locate, as_points

__all__ = [
    "LogGammaTables",
    "log_unnormalized_weight",
    "fit",
    "PosteriorModel",
    "mixture_predictive_density",
    "IncrementalModel",
]


class LogGammaTables:
    """Cached log-gamma values for integer counts shifted by a0 and 2*a0.

    F[k]  = lgamma(k + 1)      (log factorials)
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
        self.F = gammaln(k + 1.0)
        self.G1 = gammaln(k + self.a0)
        self.G2 = gammaln(k + 2.0 * self.a0)
        self._nmax = nmax

    def log_betabinom(self, k, n):
        """log BetaBinomial(k; n, a0, a0); exactly 0.0 when n == 0."""
        return (
            self.F[n]
            - self.F[k]
            - self.F[n - k]
            + self.G1[k]
            + self.G1[n - k]
            - self.G2[n]
            - self._const
        )


def log_unnormalized_weight(counts: CountsTree, a0: float, tables: LogGammaTables | None = None) -> float:
    """Log numerator of the posterior segmentation probability.

    Sum of the log reciprocal multinomial coefficient of the leaf counts
    and the log beta-binomial chain over internal nodes.  Nodes with an
    empty parent contribute exactly zero.
    """
    if tables is None:
        tables = LogGammaTables(a0, counts.m)
    elif tables.a0 != a0:
        raise ValueError("tables were built for a different a0")
    tables.ensure(counts.m)
    total = float(np.sum(tables.F[counts.levels[-1]]) - tables.F[counts.m])
    for l in range(1, counts.depth + 1):
        parents = counts.levels[l - 1]
        occupied = parents > 0
        if not occupied.any():
            continue
        lower = counts.levels[l][0::2]
        total += float(np.sum(tables.log_betabinom(lower[occupied], parents[occupied])))
    return total


@dataclass(frozen=True, eq=False)
class PosteriorModel:
    """Fitted family: per-member counts and normalized log weights."""

    family: SegmentationFamily
    counts: tuple[CountsTree, ...]
    a0: float
    m: int
    log_weights: np.ndarray
    log_unnormalized: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family.to_json_obj(),
            "a0": self.a0,
            "m": self.m,
            "log_weights": self.log_weights.tolist(),
            "log_unnormalized": self.log_unnormalized.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def weight_rows(self) -> list[tuple[str, float, float]]:
        """(segmentation, normalized log weight, unnormalized log weight) rows."""
        return [
            (json.dumps(list(seg.dims)), float(lw), float(lu))
            for seg, lw, lu in zip(self.family, self.log_weights, self.log_unnormalized)
        ]


def fit(points, family: SegmentationFamily, a0: float) -> PosteriorModel:
    """Count the data under every family member and normalize the weights."""
    pts = as_points(points, family.ndim)
    m = pts.shape[0]
    tables = LogGammaTables(a0, m)
    counts = tuple(accumulate_counts(pts, seg) for seg in family)
    log_unnorm = np.array([log_unnormalized_weight(c, a0, tables) for c in counts])
    log_weights = log_unnorm - logsumexp(log_unnorm)
    return PosteriorModel(family, counts, float(a0), m, log_weights, log_unnorm)


def mixture_predictive_density(points, model: PosteriorModel):
    """Posterior predictive density: weight-averaged per-member predictives."""
    pts = as_points(points, model.family.ndim)
    vals = np.zeros(pts.shape[0])
    for seg, counts, w in zip(model.family, model.counts, model.weights):
        vals += w * conditional_predictive_density(pts, counts, seg, model.a0)
    return float(vals[0]) if np.ndim(points) == 1 else vals


def _add_along_path(levels, path: np.ndarray, sign: int) -> None:
    """Add sign to the root count and to every node count along path."""
    levels[0][0] += sign
    for l in range(1, len(levels)):
        levels[l][path[l - 1]] += sign


class IncrementalModel:
    """Mutable clone of a fitted model supporting one-point updates.

    A member's unnormalized weight is the marginal probability of the
    observed leaf sequence, so by Bayes' rule adding a point multiplies it
    by the predictive probability of the point's leaf given the other
    points, and removing one divides by it.  An update therefore costs
    one count-ratio chain along the point's path per member, O(depth).
    Intended for leave-one-out loops; the parent model is never modified.
    """

    def __init__(self, model: PosteriorModel):
        self.family = model.family
        self.a0 = model.a0
        self.m = model.m
        self._levels = [[lvl.copy() for lvl in c.levels] for c in model.counts]
        self.log_unnormalized = model.log_unnormalized.copy()

    @property
    def log_weights(self) -> np.ndarray:
        return self.log_unnormalized - logsumexp(self.log_unnormalized)

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
        paths = [p[:, : seg.depth] for p, seg in zip(_locate(pts, self.family), self.family)]
        if sign < 0:
            if self.m == 0:
                raise ValueError("no points to remove")
            if any(levels[-1][path[0, -1]] <= 0 for levels, path in zip(self._levels, paths)):
                raise ValueError("no observation in that leaf to remove")
        for j, (levels, path) in enumerate(zip(self._levels, paths)):
            if sign < 0:
                _add_along_path(levels, path[0], -1)
            log_mass = _log_path_density(levels, path, self.a0)[0] - path.shape[1] * np.log(2.0)
            self.log_unnormalized[j] += sign * log_mass
            if sign > 0:
                _add_along_path(levels, path[0], +1)
        self.m += sign

    def snapshot(self) -> PosteriorModel:
        counts = tuple(
            CountsTree(tuple(lvl.copy() for lvl in levels)) for levels in self._levels
        )
        log_unnorm = self.log_unnormalized.copy()
        return PosteriorModel(
            self.family,
            counts,
            self.a0,
            self.m,
            log_unnorm - logsumexp(log_unnorm),
            log_unnorm,
        )
