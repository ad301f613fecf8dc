import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyatree import conformal, predictive, segmentation
from polyatree.conformal import (
    ConformalConfig,
    _mix,
    _pvalue_tables,
    _Scorer,
    conformal_band,
    conformal_pvalue,
    conformity_score,
    default_y_grid,
    loo_scores,
)
from polyatree.hbeta import leaf_predictive_masses
from polyatree.posterior import _levels, _moved, fit
from polyatree.predictive import _bin, build_mixture, grid_mass_matrix
from polyatree.segmentation import SegmentationFamily, _locate, _nodes, build, enumerate_balanced_family
from polyatree.simharness.studies import quantreg_family, segmentations_2d


def swapped_scores(scorer, cand):
    """Swapped-set scores of the training points with one candidate (2,)."""
    cands = cand[None]
    return scorer.swapped(cands, scorer.cell_of(cands)[0])[0]


def tiny_family():
    return enumerate_balanced_family(2, {1: 2, 2: 2})  # 6 members, depth 4


def ragged_family():
    # depth 4, three split-count classes: x split 2, 0 and 4 times
    dims = [(1, 2, 1, 2), (2, 2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 2)]
    return SegmentationFamily(tuple(build(d, 2) for d in dims))


def five_class_family():
    # depth 4, one member per number of y splits, 0 to 4
    return SegmentationFamily(tuple(build((1,) * (4 - k) + (2,) * k, 2) for k in range(5)))


FAMILIES = {"tiny": tiny_family, "quantreg": quantreg_family, "ragged": ragged_family}


def brute_force_score(train_model_points, family, a0, point, draws=None, seed=0):
    """Independent scoring route: full refit (and a freshly seeded draw
    mixture when draws is given) plus grid-column CDF."""
    model = fit(train_model_points, family, a0)
    obj = model if draws is None else build_mixture(model, draws, np.random.default_rng(seed))
    (nx, ny), M = grid_mass_matrix(obj)
    x, y = float(point[0]), float(point[1])
    col = M[min(int(x * nx), nx - 1)]
    cell = min(int(y * ny), ny - 1)
    frac = y * ny - cell
    return (col[:cell].sum() + frac * col[cell]) / col.sum()


class TestExactScorer:
    def test_matches_brute_force_with_candidate(self, rng):
        fam = tiny_family()
        train = rng.uniform(size=(17, 2))
        # interior, both ends of y, the right edge of x, and the centre of
        # a training point's leaf (the 4 x 4 grid of the depth-4 members)
        candidates = [
            np.array([0.63, 0.31]),
            np.array([0.63, 0.0]),
            np.array([0.2, 1.0]),
            np.array([1.0, 0.45]),
            (np.floor(train[5] * 4) + 0.5) / 4,
        ]
        scorer = _Scorer(train, ConformalConfig(fam))
        for cand in candidates:
            fast = swapped_scores(scorer, cand)
            slow = np.array(
                [
                    brute_force_score(
                        np.vstack([np.delete(train, i, axis=0), cand]), fam, 1.0, train[i]
                    )
                    for i in range(17)
                ]
            )
            assert np.allclose(fast, slow, atol=1e-10)
            assert scorer.score_point(cand) == pytest.approx(
                brute_force_score(train, fam, 1.0, cand), abs=1e-12
            )

    def test_matches_brute_force_on_ragged_family(self, rng):
        # members of different x resolution mix as densities at x
        fam = ragged_family()
        train = rng.uniform(size=(9, 2))
        scorer = _Scorer(train, ConformalConfig(fam, a0=2.0))
        for cand in (np.array([0.63, 0.31]), np.array([1.0, 0.0]), train[3], None):
            fast = scorer.loo_scores() if cand is None else swapped_scores(scorer, cand)
            slow = np.array(
                [
                    brute_force_score(
                        np.delete(train, i, axis=0)
                        if cand is None
                        else np.vstack([np.delete(train, i, axis=0), cand]),
                        fam,
                        2.0,
                        train[i],
                    )
                    for i in range(9)
                ]
            )
            assert np.allclose(fast, slow, atol=1e-10)
            if cand is not None:
                assert scorer.score_point(cand) == pytest.approx(
                    brute_force_score(train, fam, 2.0, cand), abs=1e-12
                )

    @pytest.mark.parametrize("a0", [0.01, 0.5, 50.0])
    @pytest.mark.parametrize("m", [1, 2, 11])
    def test_matches_brute_force_leave_one_out(self, m, a0, rng):
        # m=1 leaves an empty set; nodes holding one point at small a0 push
        # the removal factors (n-1+a0)/(n+a0) hardest
        fam = tiny_family()
        train = rng.uniform(size=(m, 2))
        scorer = _Scorer(train, ConformalConfig(fam, a0=a0))
        fast = scorer.loo_scores()
        slow = np.array(
            [
                brute_force_score(np.delete(train, i, axis=0), fam, a0, train[i])
                for i in range(m)
            ]
        )
        assert np.allclose(fast, slow, atol=1e-10)


def reference_pass(config, train, stack, pts, first_cand=None):
    """The scoring pass as a (members, cells, ny) tensor of column masses,
    each entry times its own removal factor at the depth its leaf shares
    with the row's path, that depth from the bit length of the leaves'
    xor; with draws, every column drawn in full.  Scores `pts` against
    `stack`, each row taken out, with the training set's weights."""
    family, a0 = config.family, config.a0
    nx, ny = (int(n) for n in family._table[1].max(axis=(0, 1)))
    grid = _locate((np.indices((nx, ny)).reshape(2, -1).T + 0.5) / (nx, ny), family)
    leaves = grid[..., -1].reshape(-1, nx, ny)
    cells, rows = np.unique(_bin(pts[:, 0], nx) * ny + _bin(pts[:, 1], ny), return_inverse=True)
    path = grid[:, cells]
    counts, nodes = np.concatenate(stack.levels, axis=None), _nodes(path[..., -1], family.depth)
    o = counts[nodes].astype(np.float64)
    down, up = (o - 1.0 + a0) / (o + a0), (o + 2.0 * a0) / (o - 1.0 + 2.0 * a0)
    down[..., 0] = up[..., -1] = 1.0
    corr = np.cumprod(down * up, axis=-1)
    column = leaves[:, cells // ny]
    leaf_mass = leaf_predictive_masses(stack, a0)
    if config.draws_per_seg is None:
        shared = family.depth - np.frexp(column ^ path[..., -1:])[1]
        masses = np.take_along_axis(leaf_mass[:, None], column, axis=-1)
        masses *= np.take_along_axis(corr, shared, axis=-1)
    else:
        masses = np.empty(column.shape)
        for c in range(cells.size):
            less = _levels(_moved(counts, nodes[:, c], -1), len(family))
            gen = np.random.default_rng(config.seed)
            drawn = predictive._draw(less, a0, config.draws_per_seg, gen).mean(axis=1)
            masses[:, c] = np.take_along_axis(drawn, column[:, c], axis=-1)
    cell = _bin(pts[:, 1], ny)
    cums = np.concatenate([np.zeros(masses.shape[:-1] + (1,)), np.cumsum(masses, axis=-1)], axis=-1)
    below = cums[:, rows, cell] + (pts[:, 1] * ny - cell) * masses[:, rows, cell]
    log_own = np.log(np.take_along_axis(leaf_mass, path[..., -1], axis=-1) * corr[..., -1])[:, rows]
    lc = 0.0 if first_cand is None else log_own[:, first_cand, None]
    log_w0 = fit(train, family, a0).log_unnormalized
    return _mix(log_w0[:, None] + (lc - log_own), below, cums[:, rows, -1])


class TestReferencePass:
    ORACLE_FAMILIES = {"quantreg": quantreg_family, "2d": segmentations_2d, "5classes": five_class_family}

    @pytest.mark.parametrize("draws", [None, 2], ids=["exact", "mixture"])
    @pytest.mark.parametrize("m", [1, 20, 100])
    @pytest.mark.parametrize("a0", [0.3, 1.0])
    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_matches_tensor_pass(self, family, a0, m, draws):
        # sibling intervals and prefix sums give the tensor pass's scores up
        # to rounding, and the same p-value tables
        config = ConformalConfig(self.ORACLE_FAMILIES[family](), a0=a0, draws_per_seg=draws, seed=3)
        gen = np.random.default_rng(m)
        train = gen.beta(2.0, 3.0, size=(m, 2))
        # a training point, random candidates and the ends of y; a mixture
        # pass draws once per occupied cell, so it scores the training point only
        cands = np.vstack([train[:1], gen.uniform(size=(6, 2)), [[0.4, 0.0], [0.7, 1.0]]])[: 1 if draws else None]
        scorer = _Scorer(train, config)
        ref = reference_pass(config, train, fit(train, config.family, a0).stack, train)
        np.testing.assert_allclose(scorer.loo_scores(), ref, rtol=0, atol=1e-12)
        p_below, p_above = _pvalue_tables(scorer, cands)
        for i, cand in enumerate(cands):
            a_train, a_cand = scorer.swapped(cand[None], scorer.cell_of(cand[None])[0])
            augmented = np.vstack([train, cand])
            ref = reference_pass(config, train, fit(augmented, config.family, a0).stack, augmented, m)
            np.testing.assert_allclose(np.append(a_train, a_cand), ref, rtol=0, atol=1e-12)
            assert p_below[i] == (1 + np.sum(ref[:m] <= ref[m])) / (m + 1)
            assert p_above[i] == (1 + np.sum(ref[:m] >= ref[m])) / (m + 1)

    def test_common_grid_located_once_per_family(self, monkeypatch, rng):
        fam = enumerate_balanced_family(2, {1: 4, 2: 4})
        grid_size = np.prod(fam._table[1].max(axis=(0, 1)))
        sizes = []

        def spy(pts, segs):
            sizes.append(len(pts))
            return leaves(pts, segs)

        leaves = segmentation._leaves
        monkeypatch.setattr(segmentation, "_leaves", spy)
        # a module that imports `_leaves` by name calls its own binding
        monkeypatch.setattr(conformal, "_leaves", spy, raising=False)
        config = ConformalConfig(fam)
        train = rng.uniform(size=(30, 2))
        loo_scores(train, config)
        conformal_pvalue(train, [0.3, 0.6], config)
        conformal_pvalue(train, [0.8, 0.1], config)
        conformal_band(train, [0.5], 0.1, config)
        assert sizes.count(grid_size) == 1


class TestConformityScore:
    def test_empty_training_set_gives_uniform_cdf(self):
        config = ConformalConfig(tiny_family())
        assert conformity_score(np.zeros((0, 2)), [0.2, 0.37], config) == 0.37

    @pytest.mark.parametrize("draws", [None, 2], ids=["exact", "mixture"])
    def test_empty_training_set_scores_as_loo_of_the_point(self, draws):
        # a point scored on an empty set is the leave-one-out row of the
        # sample holding it alone; exact scoring gives y itself, which the
        # pass reaches only to rounding
        config = ConformalConfig(quantreg_family(), draws_per_seg=draws, seed=4)
        for p in np.random.default_rng(4).uniform(size=(50, 2)):
            score, loo = conformity_score(np.zeros((0, 2)), p, config), loo_scores([p], config)[0]
            if draws is None:
                assert score == p[1] and loo == pytest.approx(p[1], rel=0, abs=1e-14)
            else:
                assert score == loo

    @pytest.mark.parametrize("m", [0, 8])
    def test_several_points_rejected(self, m, rng):
        config = ConformalConfig(tiny_family())
        with pytest.raises(ValueError, match="a conformity score takes a single point, got 3"):
            conformity_score(rng.uniform(size=(m, 2)), rng.uniform(size=(3, 2)), config)

    def test_top_of_range_scores_one(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(14, 2))
        assert conformity_score(train, [0.5, 1.0], config) == pytest.approx(1.0)
        assert conformity_score(train, [0.5, 0.0], config) == pytest.approx(0.0)

    def test_held_out_scores_are_calibrated_at_large_m(self):
        # at large m the posterior predictive tracks the generator, so
        # fresh-point scores are nearly uniform
        from scipy.stats import kstest

        from polyatree.simharness.densities import LogitNormalRegression

        dens = LogitNormalRegression()
        gen = np.random.default_rng(56)
        train = dens.sample(1000, gen)
        test = dens.sample(300, gen)
        scorer = _Scorer(train, ConformalConfig(quantreg_family()))
        scores = np.array([scorer.score_point(p) for p in test])
        assert kstest(scores, "uniform").pvalue > 0.01

    def test_mixture_scores_approach_exact(self, rng):
        fam = tiny_family()
        train = rng.uniform(size=(12, 2))
        exact = conformity_score(train, [0.4, 0.6], ConformalConfig(fam))
        mc = conformity_score(
            train, [0.4, 0.6], ConformalConfig(fam, draws_per_seg=800, seed=3)
        )
        assert abs(mc - exact) < 0.05

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_mixture_swapped_scores_match_refits(self, family, rng):
        fam = FAMILIES[family]()
        train = rng.uniform(size=(7, 2))
        cand = np.array([0.63, 0.31])
        scorer = _Scorer(train, ConformalConfig(fam, a0=0.8, draws_per_seg=2, seed=5))
        slow = [
            brute_force_score(np.vstack([np.delete(train, i, axis=0), cand]), fam, 0.8, train[i], 2, 5)
            for i in range(7)
        ]
        np.testing.assert_allclose(swapped_scores(scorer, cand), slow, rtol=0, atol=1e-12)
        assert scorer.score_point(cand) == pytest.approx(
            brute_force_score(train, fam, 0.8, cand, 2, 5), abs=1e-12
        )

    @pytest.mark.parametrize("draws", [None, 1], ids=["exact", "mixture"])
    def test_mixture_swap_keeps_exact_tie(self, draws):
        # a candidate equal to training point 3 leaves that point's swapped
        # set equal to the training set, so the two scores tie exactly
        for seed in range(30):
            train = np.random.default_rng(seed).uniform(size=(12, 2))
            scorer = _Scorer(train, ConformalConfig(tiny_family(), draws_per_seg=draws, seed=seed))
            assert swapped_scores(scorer, train[3])[3] == scorer.score_point(train[3])

    def test_mixture_scores_deterministic_given_seed(self, rng):
        fam = tiny_family()
        train = rng.uniform(size=(8, 2))
        config = ConformalConfig(fam, draws_per_seg=20, seed=9)
        a = conformity_score(train, [0.7, 0.3], config)
        b = conformity_score(train, [0.7, 0.3], config)
        assert a == b


    def test_mixture_pass_draws_once_per_occupied_cell(self, monkeypatch, rng):
        # rows in one common-grid cell share their swapped stack, so a pass
        # draws once per distinct cell, however many rows repeat one
        calls = []
        draw = predictive._draw

        def counted(*args):
            calls.append(1)
            return draw(*args)

        monkeypatch.setattr(predictive, "_draw", counted)
        fam = quantreg_family()
        nx, ny = fam._grid[0]
        train = rng.uniform(size=(9, 2))
        train = np.vstack([train, train[:4], train[:2]])
        config = ConformalConfig(fam, draws_per_seg=2, seed=1)

        def occupied(pts):
            return np.unique(_bin(pts[:, 0], nx) * ny + _bin(pts[:, 1], ny)).size

        loo_scores(train, config)
        assert len(calls) == occupied(train) < len(train)
        calls.clear()
        conformal_pvalue(train, train[5], config)  # a candidate in a training point's cell
        assert len(calls) == occupied(train)


class TestPvalue:
    def test_all_scores_tie(self):
        # identical points make every score equal; ties count for inclusion
        config = ConformalConfig(tiny_family())
        pt = np.array([0.3, 0.6])
        for m in (1, 4, 9):
            train = np.tile(pt, (m, 1))
            assert conformal_pvalue(train, pt, config) == 1.0

    def test_candidate_strictly_smallest(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(0.3, 0.9, size=(12, 2))
        assert conformal_pvalue(train, [0.5, 0.0], config) == 1 / 13

    def test_empty_training_set(self):
        config = ConformalConfig(tiny_family())
        assert conformal_pvalue(np.zeros((0, 2)), [0.5, 0.5], config) == 1.0

    @pytest.mark.parametrize("m", [0, 8])
    def test_several_candidates_rejected(self, m, rng):
        # a p-value ranks one candidate: the rest must not be dropped silently
        config = ConformalConfig(tiny_family())
        with pytest.raises(ValueError, match="a p-value takes a single point, got 2"):
            conformal_pvalue(rng.uniform(size=(m, 2)), [[0.5, 0.5], [0.2, 0.9]], config)

    @pytest.mark.parametrize("draws", [None, 2], ids=["exact", "mixture"])
    def test_exchangeable_splits_meet_level(self, draws):
        # every point of one sample held out in turn as the candidate: the
        # splits are exchangeable, so at most a share alpha of them may give
        # p <= alpha, exactly and not only in expectation
        from polyatree.simharness.densities import LogitNormalRegression

        fam, size = (quantreg_family(), 41) if draws is None else (tiny_family(), 21)
        sample = LogitNormalRegression().sample(size, np.random.default_rng(0))
        config = ConformalConfig(fam, draws_per_seg=draws, seed=1)
        p = np.array([conformal_pvalue(np.delete(sample, j, axis=0), sample[j], config) for j in range(size)])
        for alpha in (0.05, 0.1, 0.2):
            assert np.mean(p <= alpha) <= alpha

    def test_permutation_invariance_bit_identical(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(13, 2))
        cand = np.array([0.21, 0.84])
        p1 = conformal_pvalue(train, cand, config)
        p2 = conformal_pvalue(train[rng.permutation(13)], cand, config)
        assert p1 == p2

    @given(seed=st.integers(0, 2_000), m=st.integers(1, 20))
    @settings(max_examples=20)
    def test_pvalues_on_grid(self, seed, m):
        gen = np.random.default_rng(seed)
        config = ConformalConfig(tiny_family())
        train = gen.uniform(size=(m, 2))
        p = conformal_pvalue(train, gen.uniform(size=2), config)
        assert 1 / (m + 1) <= p <= 1.0
        assert p * (m + 1) == pytest.approx(round(p * (m + 1)), abs=1e-9)

    def test_mixture_pvalue_on_grid_and_deterministic(self, rng):
        config = ConformalConfig(tiny_family(), draws_per_seg=15, seed=4)
        train = rng.uniform(size=(6, 2))
        cand = np.array([0.5, 0.5])
        p1 = conformal_pvalue(train, cand, config)
        p2 = conformal_pvalue(train, cand, config)
        assert p1 == p2
        assert p1 * 7 == pytest.approx(round(p1 * 7), abs=1e-9)
        # the per-score reseeding policy makes the p-value order-free
        p3 = conformal_pvalue(train[::-1], cand, config)
        assert p1 == p3


class TestLooScores:
    def test_length_and_range(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(15, 2))
        scores = loo_scores(train, config)
        assert scores.shape == (15,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_empty(self):
        assert loo_scores(np.zeros((0, 2)), ConformalConfig(tiny_family())).size == 0


class TestBand:
    def test_default_y_grid(self):
        grid = default_y_grid(ConformalConfig(quantreg_family()))
        assert grid.size == 33
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_empty_training_set_full_range(self):
        config = ConformalConfig(tiny_family())
        band = conformal_band(np.zeros((0, 2)), [0.25, 0.75], 0.10, config)
        assert np.all(band.lower == 0.0)
        assert np.all(band.upper == 1.0)

    def test_band_straddles_median_and_nests(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(60, 2))
        xs = (np.arange(4) + 0.5) / 4
        wide = conformal_band(train, xs, 0.10, config)
        narrow = conformal_band(train, xs, 0.25, config)
        assert np.all(wide.lower <= 0.5 + 1e-9)
        assert np.all(wide.upper >= 0.5 - 1e-9)
        ok = ~np.isnan(narrow.lower)
        assert np.all(wide.lower[ok] <= narrow.lower[ok])
        ok = ~np.isnan(narrow.upper)
        assert np.all(wide.upper[ok] >= narrow.upper[ok])

    def test_both_endpoints_exist_at_high_alpha(self, rng):
        # p_below is 1 at y = 1 and p_above is 1 at y = 0, so neither side
        # is empty even where every other p-value is at most alpha
        config = ConformalConfig(tiny_family())
        band = conformal_band(rng.uniform(size=(3, 2)), [0.2, 0.5, 1.0], 0.9, config)
        assert np.all(band.p_below[:, -1] == 1.0) and np.all(band.p_above[:, 0] == 1.0)
        assert np.all((0.0 <= band.lower) & (band.lower <= 1.0))
        assert np.all((0.0 <= band.upper) & (band.upper <= 1.0))

    def test_p_monotone_below_median(self, rng):
        # the below-score p-value rises with y underneath the conditional median
        config = ConformalConfig(tiny_family())
        for trial in range(20):
            train = rng.uniform(size=(12, 2))
            band = conformal_band(train, [0.5], 0.05, config)
            p = band.p_below[0]
            med_idx = np.searchsorted(band.y_grid, 0.5)
            assert np.all(np.diff(p[:med_idx]) >= -1e-12)

    @pytest.mark.parametrize("draws", [None, 1], ids=["exact", "mixture"])
    def test_endpoints_are_kept_by_their_own_pvalues(self, draws):
        # each end of the band is a y that the conformal set keeps: the
        # lower end's p-value, and the upper end's ranked with >=, exceed alpha
        from polyatree.simharness.densities import LogitNormalRegression

        fam, m = (quantreg_family(), 20) if draws is None else (tiny_family(), 12)
        config = ConformalConfig(fam, draws_per_seg=draws, seed=3)
        xs, alpha = [0.1, 0.40625, 0.7, 1.0], 0.1
        for seed in range(3):
            train = LogitNormalRegression().sample(m, np.random.default_rng(seed))
            band = conformal_band(train, xs, alpha, config)
            for x, lo, hi in zip(xs, band.lower, band.upper):
                assert conformal_pvalue(train, [x, lo], config) > alpha
                p_above = _pvalue_tables(_Scorer(train, config), np.array([[x, hi]]))[1]
                assert p_above[0] > alpha

    def test_custom_y_grid_size(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(8, 2))
        band = conformal_band(train, [0.5], 0.2, config, y_grid_size=9)
        assert band.y_grid.size == 9
        assert band.p_below.shape == (1, 9)

    def test_rows_format(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(8, 2))
        band = conformal_band(train, [0.25, 0.75], 0.2, config)
        rows = band.rows()
        assert len(rows) == 2 and rows[0][3] == 0.2

    def test_rejects_bad_alpha(self, rng):
        config = ConformalConfig(tiny_family())
        with pytest.raises(ValueError):
            conformal_band(rng.uniform(size=(5, 2)), [0.5], 0.0, config)

    def test_rejects_no_x_values(self, rng):
        config = ConformalConfig(tiny_family())
        with pytest.raises(ValueError, match="x_values must hold at least one value"):
            conformal_band(rng.uniform(size=(5, 2)), [], 0.1, config)


class TestBandReuse:
    @pytest.mark.parametrize("draws", [None, 1], ids=["exact", "mixture"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_per_candidate_scoring(self, family, draws, rng):
        # candidates sharing every leaf share one swapped-set pass; the
        # tables equal scoring each grid point on its own, bit for bit
        config = ConformalConfig(FAMILIES[family](), draws_per_seg=draws, seed=2)
        # 18 grid values fall in at most 16 finest y-cells
        m, xs, size = (12, [0.53125, 1.0], None) if draws is None else (2, [0.3], 18)
        train = rng.uniform(size=(m, 2))
        band = conformal_band(train, xs, 0.2, config, size)
        scorer = _Scorer(train, config)
        for ix, x in enumerate(xs):
            for iy, y in enumerate(band.y_grid):
                cand = np.array([x, y])
                a_cand = scorer.score_point(cand)
                a_train = swapped_scores(scorer, cand)
                assert band.p_below[ix, iy] == (1 + np.sum(a_train <= a_cand)) / (m + 1)
                assert band.p_above[ix, iy] == (1 + np.sum(a_train >= a_cand)) / (m + 1)


class TestConfigValidation:
    def test_requires_2d_family(self):
        with pytest.raises(ValueError):
            ConformalConfig(SegmentationFamily((build((1, 1), 1),)))

    def test_rejects_bad_values(self):
        fam = tiny_family()
        with pytest.raises(ValueError):
            ConformalConfig(fam, a0=0.0)
        with pytest.raises(ValueError):
            ConformalConfig(fam, draws_per_seg=0)


class TestCoverageSmoke:
    def test_small_scale_coverage(self):
        # reduced version of the validity experiment: 60 trials at m=30
        from polyatree.simharness.densities import LogitNormalRegression

        config = ConformalConfig(tiny_family())
        dens = LogitNormalRegression()
        covered = 0
        for stream in np.random.SeedSequence(99).spawn(60):
            gen = np.random.default_rng(stream)
            train = dens.sample(30, gen)
            test = dens.sample(1, gen)[0]
            covered += conformal_pvalue(train, test, config) > 0.10
        # binomial 3 s.e. below the nominal level
        assert covered / 60 >= 0.90 - 3 * np.sqrt(0.9 * 0.1 / 60)
