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
adjustments along two paths.  The scorer below locates each point once
in every member and computes, per member, all m leave-one-out scores of
one candidate in a single array pass: each level gathers the node counts
of every point's x column at once and takes its own point out.  Weight
changes follow from Bayes' rule, p(D + u | S) = p(D | S) p(u | D, S): a
member's weight gains the candidate's predictive leaf mass on the
training set and loses the removed point's leaf mass on its swapped set,
which the column masses already hold.  Swapped-set scores depend on the
candidate only through its leaf in each member, so candidates that share
all their leaves share one pass; the candidates' own scores come from
one pass per member over their columns on the training counts.  Members
mix as densities at x: posterior weight times column mass times the
number of x columns.  Setting `draws_per_seg` instead scores with a
freshly seeded finite mixture of posterior draws, matching the
sampling-based evaluation of the predictive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import predictive as pred
from .hbeta import _check_a0
from .posterior import IncrementalModel, PosteriorModel, _add_along_path, fit
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

    def __init__(self, seg, levels, paths):
        self.seg = seg
        self.levels = levels
        self.yoff = _column_offsets(seg)
        self.xnode, self.ypos = _column_coords(seg, paths)


def _column_offsets(seg) -> list[np.ndarray]:
    """Per level, the node offsets of one x column's boxes, in y order.

    A box's node index is the sum of the contributions of its x bits and
    of its y bits, so a column's boxes at level l are its lowest box plus
    these offsets.
    """
    off = np.zeros(1, dtype=np.int64)
    out = []
    for d in seg.dims:
        off = 2 * off if d == 1 else (2 * off[:, None] + np.arange(2)).ravel()
        out.append(off)
    return out


def _column_coords(seg, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point and level (n, L): the node of its x column's lowest box and
    its own box's position in the column (its y-prefix)."""
    xnode = np.empty(paths.shape, dtype=np.int64)
    ypos = np.empty(paths.shape, dtype=np.int64)
    x = y = np.zeros(paths.shape[0], dtype=np.int64)
    for l, d in enumerate(seg.dims):
        bit = paths[:, l] & 1
        x, y = (2 * x + bit, y) if d == 1 else (2 * x, 2 * y + bit)
        xnode[:, l], ypos[:, l] = x, y
    return xnode, ypos


def _column_masses(a0, levels, yoff, xnode, ypos=None) -> np.ndarray:
    """Y-cell leaf masses (n, ny) of each point's x column under `levels`.

    xnode and ypos come from `_column_coords`.  With ypos given, each row
    removes its own point from the counts first.  Each level is one gather
    of the column's node counts for all n points at once.
    """
    n = xnode.shape[0]
    prev = np.full((n, 1), float(levels[0][0] - (0 if ypos is None else 1)))
    masses = np.ones((n, 1))
    for l in range(1, len(levels)):
        cur = levels[l][xnode[:, l - 1, None] + yoff[l - 1]].astype(np.float64)
        if ypos is not None:
            cur[np.arange(n), ypos[:, l - 1]] -= 1.0
        if cur.shape[1] == masses.shape[1]:  # x split: one child per column box
            masses = masses * (cur + a0) / (prev + 2.0 * a0)
        else:  # y split: both children stay in the column
            masses = np.repeat(masses, 2, axis=1) * (cur + a0) / (
                np.repeat(prev, 2, axis=1) + 2.0 * a0
            )
        prev = cur
    return masses


def _cdf_at(masses: np.ndarray, y_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mass below each y, total column mass) per row of masses (n_eval, ny)."""
    n_eval, ny = masses.shape
    cell = np.minimum((y_values * ny).astype(np.int64), ny - 1)
    frac = y_values * ny - cell
    cums = np.hstack([np.zeros((n_eval, 1)), np.cumsum(masses, axis=1)])
    rows = np.arange(n_eval)
    below = cums[rows, cell] + frac * masses[rows, cell]
    return below, cums[:, -1]


def _mix(log_w: np.ndarray, below: np.ndarray, total: np.ndarray, ncols: np.ndarray) -> np.ndarray:
    """Weight-averaged conditional CDF from per-member arrays (members, n).

    A member enters with its posterior weight times its marginal density
    at x, which is its column mass times its number of x columns (ncols,
    shape (members, 1)), so members of different x resolution mix as
    densities.  Members are summed one at a time so that equal inputs
    give equal scores whatever n is.
    """
    weights = np.exp(log_w - log_w.max(axis=0, keepdims=True)) * ncols
    num = np.zeros(below.shape[1])
    den = np.zeros(below.shape[1])
    for j in range(weights.shape[0]):
        num += weights[j] * below[j]
        den += weights[j] * total[j]
    return num / den


class _Candidates(NamedTuple):
    """Candidates (n, 2) located in every member, with their own scores."""

    points: np.ndarray
    scores: np.ndarray  # (n,) score on the training set
    paths: np.ndarray  # (members, n, deepest L)
    log_mass: np.ndarray | None  # (members, n) log predictive leaf mass


class _ExactScorer:
    """Batched leave-one-out conformity scores under the exact predictive CDF."""

    def __init__(self, train, config: ConformalConfig):
        self.pts = as_points(train, 2) if np.size(train) else np.zeros((0, 2))
        self.m = self.pts.shape[0]
        self.a0 = config.a0
        self.family = config.family
        model = fit(self.pts, config.family, config.a0)
        self.log_w0 = model.log_unnormalized
        paths = _locate(self.pts, config.family)
        self.members = [
            _MemberState(seg, c.levels, p[:, : seg.depth])
            for seg, c, p in zip(config.family, model.counts, paths)
        ]
        self.ncols = np.array([[2.0 ** sum(d == 1 for d in seg.dims)] for seg in config.family])

    def candidates(self, cands: np.ndarray) -> _Candidates:
        """Locate candidates once and score them on the training set.

        Per member, one pass builds every candidate's column masses on the
        training counts; they give its score and its log predictive leaf
        mass, which each of its swapped sets' weights gains.
        """
        paths = _locate(cands, self.family)
        shape = (len(self.members), cands.shape[0])
        log_mass, below, total = np.empty(shape), np.empty(shape), np.empty(shape)
        for j, ms in enumerate(self.members):
            xnode, ypos = _column_coords(ms.seg, paths[j, :, : ms.seg.depth])
            masses = _column_masses(self.a0, ms.levels, ms.yoff, xnode)
            below[j], total[j] = _cdf_at(masses, cands[:, 1])
            log_mass[j] = np.log(masses[np.arange(shape[1]), ypos[:, -1]])
        scores = _mix(self.log_w0[:, None], below, total, self.ncols)
        return _Candidates(cands, scores, paths, log_mass)

    def swapped(self, located: _Candidates, i: int) -> np.ndarray:
        """Swapped-set scores of candidate i of `located`."""
        return self._loo(located.paths[:, i], located.log_mass[:, i])

    def _loo(self, cpaths, log_cand) -> np.ndarray:
        """Score of each training point on the other m-1 points, plus the
        candidate along cpaths (members, L) when given.

        Each member scores all m points in one array pass.  By Bayes' rule
        a swapped set's log weight is the training set's, plus the
        candidate's log predictive leaf mass, minus the removed point's log
        leaf mass given the swapped set, read from the same column masses
        that give its score.
        """
        shape = (len(self.members), self.m)
        log_w, below, total = np.empty(shape), np.empty(shape), np.empty(shape)
        rows = np.arange(self.m)
        for j, ms in enumerate(self.members):
            levels, lc = ms.levels, 0.0
            if cpaths is not None:
                lc = log_cand[j]
                levels = [lvl.copy() for lvl in levels]
                _add_along_path(levels, cpaths[j, : ms.seg.depth], +1)
            masses = _column_masses(self.a0, levels, ms.yoff, ms.xnode, ms.ypos)
            below[j], total[j] = _cdf_at(masses, self.pts[:, 1])
            log_own = np.log(masses[rows, ms.ypos[:, -1]])
            # difference first: a swap that leaves the counts unchanged
            # keeps the training weight bit for bit, so exact ties hold
            log_w[j] = self.log_w0[j] + (lc - log_own)
        return _mix(log_w, below, total, self.ncols)

    def loo_scores(self, candidate=None) -> np.ndarray:
        """Score of each training point on the other m-1 points (plus the
        candidate when given): the swapped-set scores of the p-value."""
        if self.m == 0:
            return np.zeros(0)
        if candidate is None:
            return self._loo(None, None)
        return self.swapped(self.candidates(as_points(candidate, 2)), 0)

    def score_point(self, point) -> float:
        """Conformity score of one point against the unmodified training set."""
        return float(self.candidates(as_points(point, 2)).scores[0])


class _MixtureScorer:
    """Scores from a finite posterior-draw mixture, re-seeded per score."""

    def __init__(self, train, config: ConformalConfig):
        self.config = config
        self.family = config.family
        self.pts = as_points(train, 2) if np.size(train) else np.zeros((0, 2))
        self.m = self.pts.shape[0]
        self._train_model = fit(self.pts, config.family, config.a0)

    def _score_model(self, model: PosteriorModel, point) -> float:
        mix = pred.build_mixture(
            model, self.config.draws_per_seg, np.random.default_rng(self.config.seed)
        )
        (nx, _), M = pred.grid_mass_matrix(mix)
        col = M[min(int(point[0] * nx), nx - 1)]
        below, total = _cdf_at(col[None, :], point[1:])
        return float(below[0] / total[0])

    def score_point(self, point) -> float:
        return self._score_model(self._train_model, np.asarray(point, dtype=np.float64))

    def candidates(self, cands: np.ndarray) -> _Candidates:
        scores = np.array([self._score_model(self._train_model, c) for c in cands])
        return _Candidates(cands, scores, _locate(cands, self.family), None)

    def swapped(self, located: _Candidates, i: int) -> np.ndarray:
        return self.loo_scores(located.points[i])

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
    return float(_pvalue_tables(_make_scorer(pts, config), cand[None, :])[0][0])


def _pvalue_tables(scorer, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p-values of the below- and above-direction scores of candidates (n, 2).

    Swapped-set scores depend on a candidate only through its leaf in
    every member, so candidates that share all their leaves share one
    pass.
    """
    located = scorer.candidates(cands)
    depths = np.array([seg.depth for seg in scorer.family])
    leaves = located.paths[np.arange(depths.size), :, depths - 1]  # (members, n)
    p_below = np.empty(cands.shape[0])
    p_above = np.empty(cands.shape[0])
    passes: dict[bytes, np.ndarray] = {}
    for i, a_cand in enumerate(located.scores):
        key = leaves[:, i].tobytes()
        if key not in passes:
            passes[key] = scorer.swapped(located, i)
        a_train = passes[key]
        p_below[i] = np.sum(a_train <= a_cand) / (scorer.m + 1)
        p_above[i] = np.sum(a_train >= a_cand) / (scorer.m + 1)
    return p_below, p_above


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
    if y_grid_size is None:
        y_grid = default_y_grid(config)
    elif isinstance(y_grid_size, (int, np.integer)) and y_grid_size >= 2:
        y_grid = np.linspace(0.0, 1.0, y_grid_size)
    else:
        raise ValueError(f"y_grid_size must be an integer >= 2, got {y_grid_size!r}")
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
    cands = np.column_stack([np.repeat(x_values, n_y), np.tile(y_grid, n_x)])
    p_below, p_above = (
        p.reshape(n_x, n_y) for p in _pvalue_tables(_make_scorer(pts, config), cands)
    )
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
