import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyatree.conformal import (
    ConformalConfig,
    _ExactScorer,
    _make_scorer,
    conformal_band,
    conformal_pvalue,
    conformity_score,
    default_y_grid,
    loo_scores,
)
from polyatree.posterior import fit
from polyatree.predictive import grid_mass_matrix
from polyatree.segmentation import SegmentationFamily, build, enumerate_balanced_family
from polyatree.simharness.studies import quantreg_family


def tiny_family():
    return enumerate_balanced_family(2, {1: 2, 2: 2})  # 6 members, depth 4


def ragged_family():
    # depths 2 to 5; one member never splits x, one never splits y
    dims = [(1, 2, 1, 2), (2, 2, 2), (1, 1), (2, 1, 1, 2, 2)]
    return SegmentationFamily(tuple(build(d, 2) for d in dims))


FAMILIES = {"tiny": tiny_family, "quantreg": quantreg_family, "ragged": ragged_family}


def brute_force_score(train_model_points, family, a0, point):
    """Independent scoring route: full refit plus grid-column CDF."""
    model = fit(train_model_points, family, a0)
    (nx, ny), M = grid_mass_matrix(model)
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
        scorer = _ExactScorer(train, ConformalConfig(fam))
        for cand in candidates:
            fast = scorer.loo_scores(cand)
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
        scorer = _ExactScorer(train, ConformalConfig(fam, a0=2.0))
        for cand in (np.array([0.63, 0.31]), np.array([1.0, 0.0]), train[3], None):
            fast = scorer.loo_scores(cand)
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

    def test_matches_brute_force_leave_one_out(self, rng):
        fam = tiny_family()
        train = rng.uniform(size=(11, 2))
        scorer = _ExactScorer(train, ConformalConfig(fam, a0=0.5))
        fast = scorer.loo_scores(None)
        slow = np.array(
            [
                brute_force_score(np.delete(train, i, axis=0), fam, 0.5, train[i])
                for i in range(11)
            ]
        )
        assert np.allclose(fast, slow, atol=1e-10)


class TestConformityScore:
    def test_empty_training_set_gives_uniform_cdf(self):
        config = ConformalConfig(tiny_family())
        assert conformity_score(np.zeros((0, 2)), [0.2, 0.37], config) == 0.37

    def test_top_of_range_scores_one(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(14, 2))
        assert conformity_score(train, [0.5, 1.0], config) == pytest.approx(1.0)
        assert conformity_score(train, [0.5, 0.0], config) == pytest.approx(0.0)

    def test_above_direction_complements(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(10, 2))
        below = conformity_score(train, [0.4, 0.6], config)
        above = conformity_score(train, [0.4, 0.6], config, direction="above")
        assert below + above == pytest.approx(1.0)

    def test_held_out_scores_are_calibrated_at_large_m(self):
        # at large m the posterior predictive tracks the generator, so
        # fresh-point scores are nearly uniform
        from scipy.stats import kstest

        from polyatree.simharness.densities import LogitNormalRegression

        dens = LogitNormalRegression()
        gen = np.random.default_rng(56)
        train = dens.sample(1000, gen)
        test = dens.sample(300, gen)
        scorer = _ExactScorer(train, ConformalConfig(quantreg_family()))
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

    def test_mixture_scores_deterministic_given_seed(self, rng):
        fam = tiny_family()
        train = rng.uniform(size=(8, 2))
        config = ConformalConfig(fam, draws_per_seg=20, seed=9)
        a = conformity_score(train, [0.7, 0.3], config)
        b = conformity_score(train, [0.7, 0.3], config)
        assert a == b


class TestPvalue:
    def test_all_scores_tie(self):
        # identical points make every score equal; ties count for inclusion
        config = ConformalConfig(tiny_family())
        pt = np.array([0.3, 0.6])
        for m in (1, 4, 9):
            train = np.tile(pt, (m, 1))
            assert conformal_pvalue(train, pt, config) == pytest.approx(m / (m + 1))

    def test_candidate_strictly_smallest(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(0.3, 0.9, size=(12, 2))
        assert conformal_pvalue(train, [0.5, 0.0], config) == 0.0

    def test_empty_training_set(self):
        config = ConformalConfig(tiny_family())
        assert conformal_pvalue(np.zeros((0, 2)), [0.5, 0.5], config) == 0.0

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
        assert 0.0 <= p <= m / (m + 1)
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
        above = loo_scores(train, config, direction="above")
        assert np.allclose(scores + above, 1.0)

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

    def test_band_empty_reported_as_nan(self, rng):
        config = ConformalConfig(tiny_family())
        train = rng.uniform(size=(3, 2))
        band = conformal_band(train, [0.5], 0.9, config)  # max p is 3/4 <= 0.9
        assert np.isnan(band.lower[0]) and np.isnan(band.upper[0])

    def test_p_monotone_below_median(self, rng):
        # the below-score p-value rises with y underneath the conditional median
        config = ConformalConfig(tiny_family())
        for trial in range(20):
            train = rng.uniform(size=(12, 2))
            band = conformal_band(train, [0.5], 0.05, config)
            p = band.p_below[0]
            med_idx = np.searchsorted(band.y_grid, 0.5)
            assert np.all(np.diff(p[:med_idx]) >= -1e-12)

    def test_interpolated_endpoint_between_grid_points(self, rng):
        config_grid = ConformalConfig(tiny_family())
        config_interp = ConformalConfig(tiny_family(), endpoint="interpolated")
        train = rng.uniform(size=(30, 2))
        xs = [0.3]
        a = conformal_band(train, xs, 0.10, config_grid)
        b = conformal_band(train, xs, 0.10, config_interp)
        assert b.lower[0] <= a.lower[0] + 1e-12
        assert b.upper[0] >= a.upper[0] - 1e-12

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
        scorer = _make_scorer(train, config)
        for ix, x in enumerate(xs):
            for iy, y in enumerate(band.y_grid):
                cand = np.array([x, y])
                a_cand = scorer.score_point(cand)
                a_train = scorer.loo_scores(cand)
                assert band.p_below[ix, iy] == np.sum(a_train <= a_cand) / (m + 1)
                assert band.p_above[ix, iy] == np.sum(a_train >= a_cand) / (m + 1)


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
        with pytest.raises(ValueError):
            ConformalConfig(fam, endpoint="nearest")


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
