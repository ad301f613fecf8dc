"""Full conformal prediction sets from predictive-CDF conformity scores.

The conformity score of a point against a training set is the conditional
predictive CDF Pr(U_y <= u_y | U_x = u_x, training data) of the fitted
family (dimension 1 is x, dimension 2 is y).  For a candidate point, the
rank-based p-value compares its score on the training set against the
scores of each training point on the swapped set (that point replaced by
the candidate); the prediction set keeps candidates whose p-value exceeds
alpha.

By default scores use the exact predictive CDF, which is a closed-form
product of count ratios, so a swapped-set score only needs count
adjustments along two paths.  The scorer below batches all leave-one-out
scores for one candidate.  Column masses are recomputed only on the
subtree of boxes meeting the removed point's x column.  Weight changes
follow from Bayes' rule, p(D + u | S) = p(D | S) p(u | D, S): a member's
weight gains the candidate's predictive leaf mass on the training set
and loses the removed point's leaf mass on its swapped set, which the
column masses already hold.  Setting `draws_per_seg` instead scores with
a freshly seeded finite mixture of posterior draws, matching the
sampling-based evaluation of the predictive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import predictive as pred
from .hbeta import _check_a0
from .posterior import IncrementalModel, PosteriorModel, _add_along_path, fit
from .segmentation import SegmentationFamily, as_points, path_indices

__all__ = [
    "ConformalConfig",
    "ConformalBand",
    "conformity_score",
    "loo_scores",
    "conformal_pvalue",
    "conformal_band",
    "default_y_grid",
]


@dataclass(frozen=True)
class ConformalConfig:
    """How conformity scores are computed.

    draws_per_seg None scores with the exact predictive CDF; a positive
    value scores with a mixture of that many posterior draws per
    segmentation, re-seeded identically for every score so that all m+1
    scores of one candidate share one randomness policy.
    """

    family: SegmentationFamily
    a0: float = 1.0
    draws_per_seg: int | None = None
    seed: int = 0
    endpoint: str = "grid"  # or "interpolated"

    def __post_init__(self):
        if self.family.ndim != 2:
            raise ValueError("conformal scoring is defined for 2-D families")
        _check_a0(self.a0)
        if self.draws_per_seg is not None and self.draws_per_seg < 1:
            raise ValueError("draws_per_seg must be >= 1 when given")
        if self.endpoint not in ("grid", "interpolated"):
            raise ValueError(f"unknown endpoint rule {self.endpoint!r}")


@dataclass(eq=False)
class ConformalBand:
    """Per-x lower/upper endpoints and the p-value tables behind them."""

    x_values: np.ndarray
    y_grid: np.ndarray
    alpha: float
    p_below: np.ndarray  # (n_x, n_y) p-values of the <=-direction score
    p_above: np.ndarray  # same for the >=-direction score
    lower: np.ndarray  # NaN where the band is empty at that x
    upper: np.ndarray
    endpoint: str

    def rows(self) -> list[tuple[float, float, float, float]]:
        return [
            (float(x), float(lo), float(hi), self.alpha)
            for x, lo, hi in zip(self.x_values, self.lower, self.upper)
        ]


class _MemberState:
    """Per-segmentation precomputation for batched leave-one-out scoring."""

    def __init__(self, seg, levels, train_pts):
        self.seg = seg
        self.depth = seg.depth
        self.levels = levels
        self.sx = sum(1 for d in seg.dims if d == 1)
        self.paths = path_indices(train_pts, seg)  # (m, L)
        self.ycell = _cells(seg, self.paths, 2)
        xcell = _cells(seg, self.paths, 1)
        self.groups = {int(c): np.flatnonzero(xcell == c) for c in np.unique(xcell)}
        self._subtrees: dict[int, list[np.ndarray]] = {}

    def subtree(self, xcell: int) -> list[np.ndarray]:
        """Node indices per level whose boxes meet the given x column."""
        cached = self._subtrees.get(xcell)
        if cached is not None:
            return cached
        nodes = [np.zeros(1, dtype=np.int64)]
        used_x = 0
        for dim in self.seg.dims:
            prev = nodes[-1]
            if dim == 1:
                bit = (xcell >> (self.sx - 1 - used_x)) & 1
                used_x += 1
                nodes.append(2 * prev + bit)
            else:
                nxt = np.empty(2 * prev.size, dtype=np.int64)
                nxt[0::2] = 2 * prev
                nxt[1::2] = 2 * prev + 1
                nodes.append(nxt)
        self._subtrees[xcell] = nodes
        return nodes


def _cells(seg, paths: np.ndarray, dim: int) -> np.ndarray:
    """Cell index along `dim` at the member's own resolution, per path (n, L)."""
    cell = np.zeros(paths.shape[0], dtype=np.int64)
    for l, d in enumerate(seg.dims):
        if d == dim:
            cell = 2 * cell + (paths[:, l] & 1)
    return cell


def _cdf_at(masses: np.ndarray, y_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mass below each y, total column mass) per column of masses (ny, n_eval)."""
    ny, n_eval = masses.shape
    cell = np.minimum((y_values * ny).astype(np.int64), ny - 1)
    frac = y_values * ny - cell
    cums = np.vstack([np.zeros(n_eval), np.cumsum(masses, axis=0)])
    cols = np.arange(n_eval)
    below = cums[cell, cols] + frac * masses[cell, cols]
    return below, cums[-1]


def _mix(log_w: np.ndarray, below: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Weight-averaged conditional CDF from per-member arrays (members, n).

    Members are summed one at a time so that equal inputs give equal
    scores whatever n is.
    """
    weights = np.exp(log_w - log_w.max(axis=0, keepdims=True))
    num = np.zeros(below.shape[1])
    den = np.zeros(below.shape[1])
    for j in range(weights.shape[0]):
        num += weights[j] * below[j]
        den += weights[j] * total[j]
    return num / den


class _ExactScorer:
    """Batched leave-one-out conformity scores under the exact predictive CDF."""

    def __init__(self, train, config: ConformalConfig):
        self.pts = as_points(train, 2) if np.size(train) else np.zeros((0, 2))
        self.m = self.pts.shape[0]
        self.a0 = config.a0
        model = fit(self.pts, config.family, config.a0)
        self.log_w0 = model.log_unnormalized
        self.members = [
            _MemberState(seg, c.levels, self.pts) for seg, c in zip(config.family, model.counts)
        ]

    def _column_masses(self, ms: _MemberState, levels, xcell: int, idx):
        """Y-cell leaf masses (ny, n_eval) of one x column under `levels`.

        Each column of the result removes the corresponding training point
        in idx; idx None evaluates `levels` unmodified (one column).
        """
        a0 = self.a0
        nodes = ms.subtree(xcell)
        n_eval = 1 if idx is None else idx.size
        prev = np.full((1, n_eval), float(levels[0][0] - (0 if idx is None else 1)))
        masses = np.ones((1, n_eval))
        for l in range(1, ms.depth + 1):
            s = nodes[l]
            cur = np.repeat(levels[l][s].astype(np.float64)[:, None], n_eval, axis=1)
            if idx is not None:
                ypos = np.searchsorted(s, ms.paths[idx, l - 1])
                cur[ypos, np.arange(n_eval)] -= 1.0
            if s.size == masses.shape[0]:  # x split: one child per subtree node
                masses = masses * (cur + a0) / (prev + 2.0 * a0)
            else:  # y split: both children stay in the column
                masses = np.repeat(masses, 2, axis=0) * (cur + a0) / (
                    np.repeat(prev, 2, axis=0) + 2.0 * a0
                )
            prev = cur
        return masses

    def _own_column(self, ms: _MemberState, pt: np.ndarray):
        """Path of pt and the masses of its x column on the training counts."""
        path = path_indices(pt[None, :], ms.seg)
        return path, self._column_masses(ms, ms.levels, int(_cells(ms.seg, path, 1)[0]), None)

    def loo_scores(self, candidate=None) -> np.ndarray:
        """Score of each training point on the other m-1 points (plus the
        candidate when given): the swapped-set scores of the p-value.

        By Bayes' rule a swapped set's log weight is the training set's,
        plus the candidate's log predictive leaf mass, minus the removed
        point's log leaf mass given the swapped set, read from the same
        column masses that give its score.
        """
        if self.m == 0:
            return np.zeros(0)
        cand = None if candidate is None else np.asarray(candidate, dtype=np.float64)
        shape = (len(self.members), self.m)
        log_w, below, total = np.empty(shape), np.empty(shape), np.empty(shape)
        for j, ms in enumerate(self.members):
            levels, log_cand = ms.levels, 0.0
            if cand is not None:
                cpath, cmasses = self._own_column(ms, cand)
                log_cand = np.log(cmasses[_cells(ms.seg, cpath, 2)[0], 0])
                levels = [lvl.copy() for lvl in levels]
                _add_along_path(levels, cpath[0], +1)
            for xcell, idx in ms.groups.items():
                masses = self._column_masses(ms, levels, xcell, idx)
                below[j, idx], total[j, idx] = _cdf_at(masses, self.pts[idx, 1])
                log_own = np.log(masses[ms.ycell[idx], np.arange(idx.size)])
                # difference first: a swap that leaves the counts unchanged
                # keeps the training weight bit for bit, so exact ties hold
                log_w[j, idx] = self.log_w0[j] + (log_cand - log_own)
        return _mix(log_w, below, total)

    def score_point(self, point) -> float:
        """Conformity score of one point against the unmodified training set."""
        pt = as_points(point, 2)[0]
        below = np.empty((len(self.members), 1))
        total = np.empty((len(self.members), 1))
        for j, ms in enumerate(self.members):
            below[j], total[j] = _cdf_at(self._own_column(ms, pt)[1], pt[1:])
        return float(_mix(self.log_w0[:, None], below, total)[0])


class _MixtureScorer:
    """Scores from a finite posterior-draw mixture, re-seeded per score."""

    def __init__(self, train, config: ConformalConfig):
        self.config = config
        self.pts = as_points(train, 2) if np.size(train) else np.zeros((0, 2))
        self.m = self.pts.shape[0]
        self._train_model = fit(self.pts, config.family, config.a0)

    def _score_model(self, model: PosteriorModel, point) -> float:
        mix = pred.build_mixture(
            model, self.config.draws_per_seg, np.random.default_rng(self.config.seed)
        )
        (nx, _), M = pred.grid_mass_matrix(mix)
        col = M[min(int(point[0] * nx), nx - 1)]
        below, total = _cdf_at(col[:, None], point[1:])
        return float(below[0] / total[0])

    def score_point(self, point) -> float:
        return self._score_model(self._train_model, np.asarray(point, dtype=np.float64))

    def loo_scores(self, candidate=None) -> np.ndarray:
        scores = np.empty(self.m)
        inc = IncrementalModel(self._train_model)
        if candidate is not None:
            inc.add_point(np.asarray(candidate, dtype=np.float64))
        for i in range(self.m):
            inc.remove_point(self.pts[i])
            scores[i] = self._score_model(inc.snapshot(), self.pts[i])
            inc.add_point(self.pts[i])
        return scores


def _make_scorer(train, config: ConformalConfig):
    if config.draws_per_seg is None:
        return _ExactScorer(train, config)
    return _MixtureScorer(train, config)


def conformity_score(train, point, config: ConformalConfig, direction: str = "below") -> float:
    """Conditional predictive CDF score of `point` against `train`.

    direction "below" gives Pr(U_y <= u_y | U_x = u_x, train); "above"
    gives the complementary upper-tail score.
    """
    if direction not in ("below", "above"):
        raise ValueError(f"unknown direction {direction!r}")
    pt = as_points(point, 2)[0]
    if np.size(train) == 0:
        score = float(pt[1])  # empty sample: the predictive is uniform
    else:
        score = _make_scorer(train, config).score_point(pt)
    return score if direction == "below" else 1.0 - score


def loo_scores(train, config: ConformalConfig, direction: str = "below") -> np.ndarray:
    """Score of each training point against the remaining m-1 points."""
    if direction not in ("below", "above"):
        raise ValueError(f"unknown direction {direction!r}")
    scores = _make_scorer(train, config).loo_scores()
    return scores if direction == "below" else 1.0 - scores


def conformal_pvalue(train, candidate, config: ConformalConfig) -> float:
    """Rank of the candidate's score among the swapped-set scores.

    The count uses <= so ties favour inclusion, and the candidate's own
    score is excluded from the numerator range, giving values k/(m+1)
    with k in 0..m.
    """
    pts = as_points(train, 2) if np.size(train) else np.zeros((0, 2))
    cand = as_points(candidate, 2)[0]
    if pts.shape[0] == 0:
        return 0.0
    scorer = _make_scorer(pts, config)
    a_cand = scorer.score_point(cand)
    a_train = scorer.loo_scores(cand)
    return float(np.sum(a_train <= a_cand)) / (pts.shape[0] + 1)


def default_y_grid(config: ConformalConfig) -> np.ndarray:
    """Finest y-bin boundaries plus bin midpoints of the family grid."""
    splits = max(sum(1 for d in seg.dims if d == 2) for seg in config.family)
    ny = 1 << splits
    return np.unique(np.concatenate([np.arange(ny + 1) / ny, (np.arange(ny) + 0.5) / ny]))


def conformal_band(
    train,
    x_values,
    alpha: float,
    config: ConformalConfig,
    y_grid_size: int | None = None,
) -> ConformalBand:
    """Two-sided conformal band over a grid of candidate y values.

    The lower endpoint is the smallest grid y whose below-score p-value
    exceeds alpha, the upper endpoint the largest grid y whose above-score
    p-value does; each side therefore runs at level 1 - alpha.  Empty
    sides are reported as NaN.  With no training points every candidate is
    vacuously conforming and the band is the full y range.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    x_values = np.atleast_1d(np.asarray(x_values, dtype=np.float64))
    if not np.all((x_values >= 0) & (x_values <= 1)):  # NaN fails too
        raise ValueError("x_values must lie in [0, 1]")
    y_grid = (
        default_y_grid(config)
        if y_grid_size is None
        else np.linspace(0.0, 1.0, int(y_grid_size))
    )
    pts = as_points(train, 2) if np.size(train) else np.zeros((0, 2))
    m = pts.shape[0]
    n_x, n_y = x_values.size, y_grid.size
    if m == 0:
        full = np.ones((n_x, n_y))
        return ConformalBand(
            x_values,
            y_grid,
            alpha,
            full,
            full.copy(),
            np.zeros(n_x),
            np.ones(n_x),
            config.endpoint,
        )
    scorer = _make_scorer(pts, config)
    p_below = np.empty((n_x, n_y))
    p_above = np.empty((n_x, n_y))
    for ix, x in enumerate(x_values):
        for iy, y in enumerate(y_grid):
            cand = np.array([x, y])
            a_cand = scorer.score_point(cand)
            a_train = scorer.loo_scores(cand)
            p_below[ix, iy] = np.sum(a_train <= a_cand) / (m + 1)
            p_above[ix, iy] = np.sum(a_train >= a_cand) / (m + 1)
    lower = np.full(n_x, np.nan)
    upper = np.full(n_x, np.nan)
    for ix in range(n_x):
        inside_lo = np.flatnonzero(p_below[ix] > alpha)
        if inside_lo.size:
            k = inside_lo[0]
            if config.endpoint == "interpolated" and k > 0:
                p0, p1 = p_below[ix, k - 1], p_below[ix, k]
                t = (alpha - p0) / (p1 - p0)
                lower[ix] = y_grid[k - 1] + t * (y_grid[k] - y_grid[k - 1])
            else:
                lower[ix] = y_grid[k]
        inside_hi = np.flatnonzero(p_above[ix] > alpha)
        if inside_hi.size:
            k = inside_hi[-1]
            if config.endpoint == "interpolated" and k < n_y - 1:
                p0, p1 = p_above[ix, k], p_above[ix, k + 1]
                t = (p0 - alpha) / (p0 - p1)
                upper[ix] = y_grid[k] + t * (y_grid[k + 1] - y_grid[k])
            else:
                upper[ix] = y_grid[k]
    return ConformalBand(x_values, y_grid, alpha, p_below, p_above, lower, upper, config.endpoint)
