"""Full conformal prediction sets from predictive-CDF conformity scores.

The conformity score of a point against a training set is the conditional
predictive CDF Pr(U_y <= u_y | U_x = u_x, training data) of the fitted
family (dimension 1 is x, dimension 2 is y).  For a candidate point, the
rank-based p-value compares its score on the training set against the
scores of each training point on the swapped set (that point replaced by
the candidate), counting the candidate in its own rank; the prediction set
keeps candidates whose p-value exceeds alpha.

By default scores use the exact predictive CDF.  Every score of one
candidate's p-value is then a leave-one-out score of the augmented sample,
the training set plus the candidate: one of its m+1 points scored against
the other m.  One pass scores any set of such rows on one count state.  It
reads the members' predictive leaf masses on the augmented count stack at
the common-grid cells of a row's x column.  Taking the row out changes
counts only along its own path, so each cell's mass is corrected by one
factor, set by the depth to which the cell's leaf shares that path.  Rows
in one common-grid cell share their leaves, so each occupied cell's column
is built once per pass.  A swapped set's weight follows from Bayes' rule,
p(D + c - u) = p(D) p(c | D) / p(u | D + c - u): the training weight plus
the candidate's log leaf mass less the removed point's, both read in the
same pass.  Candidates that share all their leaves share the augmented
counts and enter one pass as extra rows, so a candidate and a training
point at the same place tie exactly.  Members mix as densities at x:
posterior weight times column mass on the common grid times 2^depth / ny.
Setting `draws_per_seg` changes only where a cell's column masses come
from: the same pass reads them from the mean of a freshly seeded draw of
posterior leaf probabilities on the count stack less the cell's row, so
each occupied cell is drawn once per pass, with the weights above.  This
matches the sampling-based evaluation of the predictive, and since a
candidate's own row leaves the training set, a candidate and a training
point at the same place still tie exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import predictive as pred
from .hbeta import CountsTree, _check_a0, _check_count, _path_counts, leaf_predictive_masses
from .posterior import _add_point, _copy, fit
from .segmentation import SegmentationFamily, _locate, as_points

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

    def __post_init__(self):
        if self.family.ndim != 2:
            raise ValueError("conformal scoring is defined for 2-D families")
        _check_a0(self.a0)
        if self.draws_per_seg is not None:
            _check_count("draws_per_seg", self.draws_per_seg, 1)


@dataclass(eq=False)
class ConformalBand:
    """Per-x lower/upper ends of the band and the p-value tables behind them."""

    x_values: np.ndarray
    y_grid: np.ndarray
    alpha: float
    p_below: np.ndarray  # (n_x, n_y) p-values ranking scores with <=
    p_above: np.ndarray  # same, ranking with >=
    lower: np.ndarray  # never NaN: p_below is 1 at y = 1, p_above at y = 0
    upper: np.ndarray

    def rows(self) -> list[tuple[float, float, float, float]]:
        return [
            (float(x), float(lo), float(hi), self.alpha)
            for x, lo, hi in zip(self.x_values, self.lower, self.upper)
        ]


def _train_points(train) -> np.ndarray:
    """Validated training points (m, 2); an empty sample gives m = 0."""
    return as_points(train, 2) if np.size(train) else np.zeros((0, 2))


def _mix(log_w: np.ndarray, below: np.ndarray, total: np.ndarray, scale: float) -> np.ndarray:
    """Weight-averaged conditional CDF from per-member arrays (members, n).

    A member enters with its posterior weight times its marginal density
    at x, which is its column total times scale, so members of different x
    resolution mix as densities.  Members are summed in order by a
    cumulative sum, so that equal inputs give equal scores whatever n is.
    """
    weights = np.exp(log_w - log_w.max(axis=0, keepdims=True)) * scale
    return np.cumsum(weights * below, axis=0)[-1] / pred._mass(np.cumsum(weights * total, axis=0)[-1])


class _Scorer:
    """Conformity scores as leave-one-out rows of the augmented sample."""

    def __init__(self, train, config: ConformalConfig):
        self.pts = _train_points(train)
        self.m = self.pts.shape[0]
        self.a0, self.family = config.a0, config.family
        self.draws, self.seed = config.draws_per_seg, config.seed
        model = fit(self.pts, config.family, config.a0)
        self.log_w0, self.stack = model.log_unnormalized, model.stack
        self.shape = nx, ny = pred._common_grid_shape(config.family)
        # the paths of the common-grid cells (members, nx*ny, L) and their
        # leaves by column (members, nx, ny)
        self.paths = _locate(pred._grid_centres(self.shape), config.family)
        self.leaves = self.paths[..., -1].reshape(-1, nx, ny)
        # a column's total on the common grid times this is a member's density at x
        self.scale = 2.0**config.family.depth / ny

    def loo_scores(self, candidate=None) -> np.ndarray:
        """Score of each training point on the other m-1 points (plus the
        candidate when given): the swapped-set scores of the p-value."""
        if self.m == 0:
            return np.zeros(0)
        if candidate is None:
            return self._pass(self.stack, self.pts)
        cand = as_points(candidate, 2)
        return self.swapped(cand, _locate(cand, self.family))[0]

    def swapped(self, cands: np.ndarray, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Swapped-set scores (m,) and own scores of candidates (n, 2) that
        share every leaf, located along paths (members, n, L): one pass over
        the training and candidate rows of the augmented sample."""
        scores = self._pass(self._augmented(paths), np.vstack([self.pts, cands]), self.m)
        return scores[: self.m], scores[self.m :]

    def score_point(self, point) -> float:
        """Conformity score of one point against the unmodified training set:
        its own row of the augmented sample."""
        cand = as_points(point, 2)
        return float(self._pass(self._augmented(_locate(cand, self.family)), cand, 0)[0])

    def _augmented(self, paths: np.ndarray) -> CountsTree:
        """A copy of the training count stack with the first candidate added."""
        stack = _copy(self.stack)
        _add_point(stack, paths[:, 0], +1)
        return stack

    def _pass(self, stack: CountsTree, pts: np.ndarray, first_cand: int | None = None) -> np.ndarray:
        """Score of every row of pts (n, 2) against the count `stack` with
        the row itself taken out.

        Taking a row out lowers counts only along its own path.  A cell of
        its x column keeps its leaf's mass on `stack` times corr[a], where
        a is the depth to which that leaf shares the row's path: the product
        over levels l <= a of (o_l-1+a0)/(o_l+a0), for l >= 1, and of
        (o_l+2a0)/(o_l-1+2a0), for l < L, with o_l the count of the row's
        node at level l.  Rows in one cell of the common grid share their
        leaf in every member, so each occupied cell's column is built once;
        with draws, it is read from the mean of a freshly seeded draw of
        `stack` less the cell's row.  By Bayes' rule a row's log weight is
        the training set's, plus the log leaf mass of row first_cand (a
        candidate; none on the training set), less its own.
        """
        a0, (nx, ny) = self.a0, self.shape
        cells, rows = np.unique(pred._bin(pts[:, 0], nx) * ny + pred._bin(pts[:, 1], ny), return_inverse=True)
        path = self.paths[:, cells]  # (members, cells, L)
        o = _path_counts(stack.levels, path).astype(np.float64)
        down, up = (o - 1.0 + a0) / (o + a0), (o + 2.0 * a0) / (o - 1.0 + 2.0 * a0)
        down[..., 0] = up[..., -1] = 1.0  # the root is no child; a leaf has no children
        corr = np.cumprod(down * up, axis=-1)
        column = self.leaves[:, cells // ny]  # (members, cells, ny)
        leaf_mass = leaf_predictive_masses(stack, a0)
        if self.draws is None:
            # a leaf index holds one bit per level, the first level highest, so
            # the shared depth is L less the bit length (frexp's exponent) of the xor
            shared = self.family.depth - np.frexp(column ^ path[..., -1:])[1]
            masses = np.take_along_axis(leaf_mass[:, None], column, axis=-1)
            masses *= np.take_along_axis(corr, shared, axis=-1)
        else:
            masses = np.empty(column.shape)
            for c in range(cells.size):
                less = _copy(stack)
                _add_point(less, path[:, c], -1)
                drawn = pred._draw(less, a0, self.draws, np.random.default_rng(self.seed)).mean(axis=1)
                masses[:, c] = np.take_along_axis(drawn, column[:, c], axis=-1)
        below, total = pred._cdf_at(masses, pts[:, 1], rows)
        log_own = np.log(np.take_along_axis(leaf_mass, path[..., -1], axis=-1) * corr[..., -1])[:, rows]
        # difference first: a candidate's own row keeps the training weight
        # bit for bit, so it ties exactly with a training point at its place
        lc = 0.0 if first_cand is None else log_own[:, first_cand, None]
        return _mix(self.log_w0[:, None] + (lc - log_own), below, total, self.scale)


def conformity_score(train, point, config: ConformalConfig) -> float:
    """Conditional predictive CDF score Pr(U_y <= u_y | U_x = u_x, train) of `point`."""
    pts = as_points(point, 2)
    if pts.shape[0] != 1:
        raise ValueError(f"a conformity score takes a single point, got {pts.shape[0]}")
    if np.size(train) == 0:
        return float(pts[0, 1])  # empty sample: the predictive is uniform
    return _Scorer(train, config).score_point(pts)


def loo_scores(train, config: ConformalConfig) -> np.ndarray:
    """Score of each training point against the remaining m-1 points."""
    return _Scorer(train, config).loo_scores()


def conformal_pvalue(train, candidate, config: ConformalConfig) -> float:
    """Rank of the candidate's score among all m+1 scores of the augmented
    sample, its own included: (1 + #{i: a_i <= a_cand}) / (m+1).

    The count uses <= so ties favour inclusion.  Values are k/(m+1) with k
    in 1..m+1, so with no training points the p-value is 1, and a point
    held out of an exchangeable sample of m+1 gets p <= alpha with
    probability at most alpha.
    """
    cand = as_points(candidate, 2)
    if cand.shape[0] != 1:
        raise ValueError(f"a p-value takes a single point, got {cand.shape[0]}")
    return float(_pvalue_tables(_Scorer(train, config), cand)[0][0])


def _pvalue_tables(scorer, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p-values of candidates (n, 2), ranking scores with <= and with >=.

    Swapped sets depend on a candidate only through its leaf in every
    member, so candidates that share all their leaves share one pass.
    """
    paths = _locate(cands, scorer.family)
    # a path's last entry is the member's leaf
    group = np.unique(paths[..., -1], axis=1, return_inverse=True)[1].ravel()
    p_below, p_above = np.empty((2, cands.shape[0]))
    for g in range(group.max() + 1):
        sel = np.flatnonzero(group == g)
        a_train, a_cand = scorer.swapped(cands[sel], paths[:, sel])
        p_below[sel] = (1 + np.sum(a_train[:, None] <= a_cand, axis=0)) / (scorer.m + 1)
        p_above[sel] = (1 + np.sum(a_train[:, None] >= a_cand, axis=0)) / (scorer.m + 1)
    return p_below, p_above


def default_y_grid(config: ConformalConfig) -> np.ndarray:
    """Finest y-bin boundaries plus bin midpoints of the family grid."""
    ny = pred._common_grid_shape(config.family)[1]
    return np.unique(np.concatenate([np.arange(ny + 1) / ny, (np.arange(ny) + 0.5) / ny]))


def conformal_band(
    train,
    x_values,
    alpha: float,
    config: ConformalConfig,
    y_grid_size: int | None = None,
) -> ConformalBand:
    """Two-sided conformal band over a grid of candidate y values.

    The lower end is the smallest grid y whose p_below exceeds alpha, the
    upper end the largest grid y whose p_above does, so each end is a y the
    conformal set keeps and each side runs at level 1 - alpha.  Neither
    side is empty: the grid holds y = 1, where every p_below is 1, and
    y = 0, where every p_above is.  With no training
    points every p-value is 1 and the band is the full y range.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    x_values = np.atleast_1d(np.asarray(x_values, dtype=np.float64))
    if not x_values.size:
        raise ValueError("x_values must hold at least one value")
    if not np.all((x_values >= 0) & (x_values <= 1)):  # NaN fails too
        raise ValueError("x_values must lie in [0, 1]")
    if y_grid_size is None:
        y_grid = default_y_grid(config)
    else:
        _check_count("y_grid_size", y_grid_size, 2)
        y_grid = np.linspace(0.0, 1.0, y_grid_size)
    n_x, n_y = x_values.size, y_grid.size
    cands = np.column_stack([np.repeat(x_values, n_y), np.tile(y_grid, n_x)])
    p_below, p_above = (p.reshape(n_x, n_y) for p in _pvalue_tables(_Scorer(train, config), cands))
    lower = y_grid[np.argmax(p_below > alpha, axis=1)]
    upper = y_grid[n_y - 1 - np.argmax(p_above[:, ::-1] > alpha, axis=1)]
    return ConformalBand(x_values, y_grid, alpha, p_below, p_above, lower, upper)
