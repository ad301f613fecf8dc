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
the other m.  One pass scores any set of such rows on one count state,
the level-major flat counts of a fit, which `IncrementalModel` moves too.
A row's score reads the members' predictive leaf masses on the augmented
counts at the common-grid cells of its x column, each corrected for
taking the row out.  That changes counts only along the row's path, so a
cell's correction is one factor, set by the depth to which the cell's
leaf shares that path.  Within a column the other cells split into
log2(ny) dyadic sibling intervals of the row's cell, each at one shared
depth in every member, so a member's mass below the row and its column
total are a few differences of the column's prefix sums, each times one
factor; the family caches where each grid cell's path and leaf lie and at
which level each member makes each y split.  Rows in one common-grid cell
share their leaves, so each occupied cell's factors are built once per
pass.  A swapped set's weight follows from Bayes' rule,
p(D + c - u) = p(D) p(c | D) / p(u | D + c - u): the training weight plus
the candidate's log leaf mass less the removed point's, both read in the
same pass.  Candidates in one common-grid cell share all their leaves,
hence the augmented counts, and enter one pass as extra rows, so a
candidate and a training point at the same place tie exactly.  Members
mix as densities at x: posterior weight times column mass on the common
grid (times 2^depth / ny, which cancels).  Setting `draws_per_seg`
changes only where a cell's column comes from: the same pass reads the
prefix sums of the mean of a freshly seeded draw of posterior leaf
probabilities on the counts less the cell's row, every factor 1, so each
occupied cell is drawn once per pass, with the weights above.  This
matches the sampling-based evaluation of the predictive, and since a
candidate's own row leaves the training set, a candidate and a training
point at the same place still tie exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import predictive as pred
from .hbeta import _check_a0, leaf_predictive_masses
from .posterior import _levels, _moved, fit
from .segmentation import SegmentationFamily, _check_count, as_points

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
    scores of one candidate share one randomness policy.  The seed is
    therefore an integer >= 0: None would draw each score afresh.
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
        _check_count("seed", self.seed, 0)


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


def _mix(log_w: np.ndarray, below: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Weight-averaged conditional CDF from per-member arrays (members, n).

    A member enters with its posterior weight times its column total, its
    marginal density at x up to a factor the members share.  Members are
    summed in order by a cumulative sum, so that equal inputs give equal
    scores whatever n is.
    """
    weights = np.exp(log_w - log_w.max(axis=0, keepdims=True))
    return np.cumsum(weights * below, axis=0)[-1] / pred._mass(np.cumsum(weights * total, axis=0)[-1])


def _column_cdf(prefix, col, cy, own, fac, y, rows) -> tuple[np.ndarray, np.ndarray]:
    """Mass below y and total mass of the column of every row, (members, n)
    each: the conditional CDF's numerator and denominator on the grid.

    Row i sits at height y[i] in common-grid cell rows[i], at y index cy
    of column col of prefix (members, k, ny + 1), the cumulative masses of
    the column's cells.  The other cells of the column split into B
    dyadic intervals: interval b holds the cells whose y index first
    differs from cy at bit b from the top, the sibling of cy's block of
    ny / 2^(b+1) cells, and lies below the cell when that bit of cy is 1.
    A cell's mass is own (members, cells) and interval b's is its prefix
    difference times fac[:, b] (members, B, cells).  Intervals add up
    from the widest, each row's alike whatever the rows.
    """
    ny = prefix.shape[-1] - 1
    shift = np.arange(ny.bit_length() - 2, -1, -1)[:, None]  # (B, 1): interval b spans 2^shift cells
    block = cy >> shift  # cy's block at each bit; its low bit is the bit
    lo = col * (ny + 1) + ((block ^ 1) << shift)
    flat = prefix.reshape(prefix.shape[0], -1)
    sibling = (flat[:, lo + (1 << shift)] - flat[:, lo]) * fac
    below, total = np.zeros(own.shape), np.zeros(own.shape)
    for mass, under in zip(sibling.transpose(1, 0, 2), block & 1):
        below += mass * under
        total += mass
    total += own
    frac = y * ny - cy[rows]
    return below[:, rows] + frac * own[:, rows], total[:, rows]


class _Scorer:
    """Conformity scores as leave-one-out rows of the augmented sample."""

    def __init__(self, train, config: ConformalConfig):
        self.pts = _train_points(train)
        self.m = self.pts.shape[0]
        self.a0, self.family = config.a0, config.family
        self.draws, self.seed = config.draws_per_seg, config.seed
        model = fit(self.pts, config.family, config.a0)
        self.log_w0, self.counts = model.log_unnormalized, model.counts
        self.shape, self.leaves, self.nodes, ylev = config.family._grid
        # rows of leaf masses (members * 2^L) and of factors (members * (L+1), cells)
        depth, members = config.family.depth, np.arange(len(config.family))[:, None]
        self.leaf_at, self.ylev_at = self.leaves + (members << depth), ylev + members * (depth + 1)

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Common-grid cell of each point (n, 2)."""
        nx, ny = self.shape
        return pred._bin(pts[:, 0], nx) * ny + pred._bin(pts[:, 1], ny)

    def loo_scores(self) -> np.ndarray:
        """Score of each training point on the other m-1 points."""
        if self.m == 0:
            return np.zeros(0)
        return self._pass(self.counts, self.pts)

    def swapped(self, cands: np.ndarray, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """Swapped-set scores (m,) and own scores of candidates (n, 2) in one
        common-grid cell, so sharing every leaf: one pass over the training
        and candidate rows of the augmented sample."""
        scores = self._pass(_moved(self.counts, self.nodes[..., cell], +1), np.vstack([self.pts, cands]), self.m)
        return scores[: self.m], scores[self.m :]

    def score_point(self, point) -> float:
        """Conformity score of one point against the unmodified training set:
        its own row of the augmented sample."""
        cand = as_points(point, 2)
        return float(self._pass(_moved(self.counts, self.nodes[..., self.cell_of(cand)[0]], +1), cand, 0)[0])

    def _pass(self, counts: np.ndarray, pts: np.ndarray, first_cand: int | None = None) -> np.ndarray:
        """Score of every row of pts (n, 2) against the flat `counts` with
        the row itself taken out.

        Taking a row out lowers counts only along its own path.  A cell of
        its column keeps its leaf's mass on `counts` times corr[a], where a
        is the depth to which that leaf shares the row's path: the product
        over levels l <= a of (o_l-1+a0)/(o_l+a0), for l >= 1, and of
        (o_l+2a0)/(o_l-1+2a0), for l < L, with o_l the count of the row's
        node at level l.  That depth is one value on each of the B sibling
        intervals of the row's cell, ylev[b] on interval b (L past a
        member's last y split, where the interval lies in the row's leaf),
        so each interval's mass is one difference of the column's prefix
        sums times one factor, and the cell's own mass takes corr[L].  Rows
        in one common-grid cell share their leaf in every member, so the
        factors are built once per occupied cell.  With draws, a cell's
        column is instead the mean of a freshly seeded draw of `counts`
        less the cell's row, its prefix sums taken per cell, every factor
        1.  By Bayes' rule a row's log weight is the training set's, plus
        the log leaf mass of row first_cand (a candidate; none on the
        training set), less its own.
        """
        a0, (nx, ny), size = self.a0, self.shape, len(self.family)
        cells, rows = np.unique(self.cell_of(pts), return_inverse=True)
        nodes = self.nodes[..., cells]  # (members, L+1, cells)
        # the factor of a node holding k >= 1 points (the row among them):
        # up only at the root, which is no child, down only at a leaf, which
        # has no children; `start` is each level's part of the table, less 1
        k = np.arange(1.0, counts[0] + 1.0)
        down, up = (k - 1.0 + a0) / (k + a0), (k + 2.0 * a0) / (k - 1.0 + 2.0 * a0)
        start = np.full((nodes.shape[1], 1), k.size - 1)
        start[0], start[-1] = -1, 2 * k.size - 1
        corr = np.concatenate((up, down * up, down))[counts[nodes] + start]
        for level in range(1, corr.shape[1]):
            corr[:, level] *= corr[:, level - 1]
        leaf_mass = leaf_predictive_masses(_levels(counts, size), a0).ravel()
        own = leaf_mass[self.leaf_at[:, cells]] * corr[:, -1]
        cy = cells % ny
        if self.draws is None:
            cols, col = np.unique(cells // ny, return_inverse=True)
            prefix = np.zeros((size, cols.size, ny + 1))
            np.cumsum(leaf_mass[self.leaf_at.reshape(size, nx, ny)[:, cols]], axis=-1, out=prefix[..., 1:])
            fac = corr.reshape(-1, cells.size)[self.ylev_at]
            below, total = _column_cdf(prefix, col, cy, own, fac, pts[:, 1], rows)
        else:
            prefix, drawn_own = np.zeros((size, cells.size, ny + 1)), np.empty(own.shape)
            for c, cell in enumerate(cells):
                less = _levels(_moved(counts, nodes[..., c], -1), size)
                drawn = pred._draw(less, a0, self.draws, np.random.default_rng(self.seed)).mean(axis=1)
                column = np.take_along_axis(drawn, self.leaves[:, cell - cy[c] : cell - cy[c] + ny], axis=1)
                np.cumsum(column, axis=-1, out=prefix[:, c, 1:])
                drawn_own[:, c] = column[:, cy[c]]
            below, total = _column_cdf(prefix, np.arange(cells.size), cy, drawn_own, 1.0, pts[:, 1], rows)
        log_own = np.log(own)[:, rows]
        # difference first: a candidate's own row keeps the training weight
        # bit for bit, so it ties exactly with a training point at its place
        lc = 0.0 if first_cand is None else log_own[:, first_cand, None]
        return _mix(self.log_w0[:, None] + (lc - log_own), below, total)


def conformity_score(train, point, config: ConformalConfig) -> float:
    """Conditional predictive CDF score Pr(U_y <= u_y | U_x = u_x, train) of `point`."""
    pts = as_points(point, 2)
    if pts.shape[0] != 1:
        raise ValueError(f"a conformity score takes a single point, got {pts.shape[0]}")
    if np.size(train) == 0 and config.draws_per_seg is None:
        # the exact predictive of an empty sample is uniform; the pass
        # would give y to rounding.  Drawn columns are not uniform.
        return float(pts[0, 1])
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
    member, so candidates that share all their leaves, those in one
    common-grid cell, share one pass.
    """
    cells, group = np.unique(scorer.cell_of(cands), return_inverse=True)
    p_below, p_above = np.empty((2, cands.shape[0]))
    for g, cell in enumerate(cells):
        sel = np.flatnonzero(group == g)
        a_train, a_cand = scorer.swapped(cands[sel], cell)
        p_below[sel] = (1 + np.sum(a_train[:, None] <= a_cand, axis=0)) / (scorer.m + 1)
        p_above[sel] = (1 + np.sum(a_train[:, None] >= a_cand, axis=0)) / (scorer.m + 1)
    return p_below, p_above


def default_y_grid(config: ConformalConfig) -> np.ndarray:
    """Finest y-bin boundaries plus bin midpoints of the family grid."""
    ny = config.family._grid[0][1]
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
