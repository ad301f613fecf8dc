import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import betabinom

from polyatree.hbeta import accumulate_counts, counts_from_leaf_counts
from polyatree.posterior import (
    IncrementalModel,
    LogGammaTables,
    fit,
    log_unnormalized_weight,
    mixture_predictive_density,
)
from polyatree.predictive import grid_mass_matrix
from polyatree.segmentation import SegmentationFamily, build, enumerate_balanced_family
from polyatree.simharness.studies import TABLE1_TARGETS, table1_family, table1_points


class TestLogGammaTables:
    def test_against_scipy_betabinom(self, rng):
        for a0 in (0.1, 1.0, 2.7, 10.0):
            tables = LogGammaTables(a0, 60)
            n = rng.integers(0, 60, size=200)
            k = (rng.uniform(size=200) * (n + 1)).astype(np.int64)
            ours = tables.log_betabinom(k, n)
            ref = betabinom.logpmf(k, n, a0, a0)
            assert np.allclose(ours, ref, atol=1e-10)

    def test_empty_parent_is_exact_zero(self):
        tables = LogGammaTables(0.37, 10)
        assert tables.log_betabinom(np.array([0]), np.array([0]))[0] == 0.0

    def test_rejects_nonpositive_a0(self):
        with pytest.raises(ValueError):
            LogGammaTables(0.0, 10)


class TestUnnormalizedWeight:
    def test_single_occupied_leaf(self):
        # uniform chains: 1/5 at the root split, 1/5 at the occupied node
        counts = counts_from_leaf_counts([0, 0, 0, 4])
        assert log_unnormalized_weight(counts, 1.0) == pytest.approx(np.log(1 / 25))

    def test_balanced_leaves(self):
        # 1/5 * 1/3 * 1/3 chain times 1/24 multinomial reciprocal
        counts = counts_from_leaf_counts([1, 1, 1, 1])
        assert log_unnormalized_weight(counts, 1.0) == pytest.approx(np.log(1 / 1080))

    def test_empty_sample(self):
        counts = counts_from_leaf_counts([0, 0, 0, 0])
        assert log_unnormalized_weight(counts, 1.0) == 0.0

    def test_mirror_symmetry(self):
        a = log_unnormalized_weight(counts_from_leaf_counts([0, 0, 0, 4]), 1.0)
        b = log_unnormalized_weight(counts_from_leaf_counts([0, 0, 4, 0]), 1.0)
        assert a == pytest.approx(b, rel=1e-12)


class TestFit:
    def test_published_weight_table(self):
        family, points = table1_family(), table1_points()
        for a0, target in TABLE1_TARGETS.items():
            model = fit(points, family, a0)
            assert np.all(np.abs(model.weights - np.array(target)) <= 0.005)

    def test_single_member(self, rng):
        fam = SegmentationFamily((build((1, 2), 2),))
        model = fit(rng.uniform(size=(10, 2)), fam, 1.0)
        assert model.weights[0] == pytest.approx(1.0)

    def test_weights_normalize(self, rng):
        fam = enumerate_balanced_family(2, {1: 2, 2: 2})
        model = fit(rng.uniform(size=(40, 2)), fam, 0.5)
        assert abs(np.exp(model.log_weights).sum() - 1.0) < 1e-10

    def test_empty_sample_uniform_weights(self):
        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        model = fit(np.zeros((0, 2)), fam, 1.0)
        assert np.allclose(model.weights, 1 / len(fam))

    def test_exchangeability_bit_identical(self, rng):
        fam = enumerate_balanced_family(2, {1: 2, 2: 2})
        pts = rng.uniform(size=(30, 2))
        a = fit(pts, fam, 1.0)
        b = fit(pts[rng.permutation(30)], fam, 1.0)
        assert np.array_equal(a.log_weights, b.log_weights)

    def test_family_reorder_permutes_weights(self, rng):
        fam = enumerate_balanced_family(2, {1: 2, 2: 2})
        perm = rng.permutation(len(fam))
        fam2 = SegmentationFamily(tuple(fam[i] for i in perm))
        pts = rng.uniform(size=(25, 2))
        a = fit(pts, fam, 1.0)
        b = fit(pts, fam2, 1.0)
        assert np.allclose(b.log_weights, a.log_weights[perm], atol=1e-12)

    def test_a0_evens_out_weights(self):
        # the balanced-counts member gains weight as a0 grows, the
        # concentrated member loses it
        family, points = table1_family(), table1_points()
        balanced, spike = [], []
        for a0 in (0.1, 1.0, 10.0):
            w = fit(points, family, a0).weights
            balanced.append(w[0])
            spike.append(w[3])
        assert balanced[0] < balanced[1] < balanced[2]
        assert spike[0] > spike[1] > spike[2]

    def test_rejects_point_outside(self):
        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        with pytest.raises(ValueError):
            fit(np.array([[0.5, 1.4]]), fam, 1.0)

    def test_export_obj(self, rng):
        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        model = fit(rng.uniform(size=(6, 2)), fam, 1.0)
        obj = model.to_json_obj()
        assert set(obj) == {"family", "a0", "m", "log_weights", "log_unnormalized"}
        rows = model.weight_rows()
        assert len(rows) == len(fam) and rows[0][0] == "[1, 2]"


class TestMixtureDensity:
    def test_empty_sample_is_uniform(self):
        fam = enumerate_balanced_family(2, {1: 2, 2: 2})
        model = fit(np.zeros((0, 2)), fam, 1.0)
        pts = np.array([[0.1, 0.9], [0.5, 0.5], [0.99, 0.01]])
        assert np.allclose(mixture_predictive_density(pts, model), 1.0)

    def test_single_member_matches_conditional(self, rng):
        from polyatree.hbeta import conditional_predictive_density

        seg = build((1, 2, 1), 2)
        fam = SegmentationFamily((seg,))
        data = rng.uniform(size=(15, 2))
        model = fit(data, fam, 0.8)
        pts = rng.uniform(size=(20, 2))
        assert np.allclose(
            mixture_predictive_density(pts, model),
            conditional_predictive_density(pts, model.counts[0], seg, 0.8),
        )

    def test_integrates_to_one_on_refinement_grid(self, rng):
        # exact box sum over the common refinement of all members
        fam = enumerate_balanced_family(2, {1: 2, 2: 2})
        model = fit(rng.uniform(size=(35, 2)), fam, 1.0)
        (nx, ny), M = grid_mass_matrix(model)
        centers = np.column_stack(
            [
                np.repeat((np.arange(nx) + 0.5) / nx, ny),
                np.tile((np.arange(ny) + 0.5) / ny, nx),
            ]
        )
        dens = mixture_predictive_density(centers, model)
        assert abs(dens.sum() / (nx * ny) - 1.0) < 1e-8
        assert np.allclose(M.ravel(), dens / (nx * ny), atol=1e-14)


class TestIncrementalModel:
    @given(seed=st.integers(0, 5_000), a0=st.floats(0.05, 20.0))
    def test_matches_refit_after_updates(self, seed, a0):
        # the second family mixes depths and leaves empty parents under
        # the first split, where the count-ratio chain stops early
        families = [
            enumerate_balanced_family(2, {1: 2, 2: 1}),
            SegmentationFamily((build((1, 1), 2), build((2, 2, 1), 2))),
        ]
        for fam, a in zip(families, (1.0, a0)):
            gen = np.random.default_rng(seed)
            pts = gen.uniform(size=(12, 2))
            model = fit(pts, fam, a)
            inc = IncrementalModel(model)
            extra = gen.uniform(size=(3, 2))
            for u in extra:
                inc.add_point(u)
            inc.remove_point(pts[4])
            target = np.vstack([np.delete(pts, 4, axis=0), extra])
            ref = fit(target, fam, a)
            assert np.allclose(inc.log_unnormalized, ref.log_unnormalized, atol=1e-9)
            assert np.allclose(inc.log_weights, ref.log_weights, atol=1e-9)
            snap = inc.snapshot()
            for ca, cb in zip(snap.counts, ref.counts):
                for la, lb in zip(ca.levels, cb.levels):
                    assert np.array_equal(la, lb)

    def test_remove_then_add_restores(self, rng):
        fam = enumerate_balanced_family(2, {1: 1, 2: 2})
        pts = rng.uniform(size=(9, 2))
        model = fit(pts, fam, 0.6)
        inc = IncrementalModel(model)
        inc.remove_point(pts[0])
        inc.add_point(pts[0])
        assert np.allclose(inc.log_unnormalized, model.log_unnormalized, atol=1e-10)

    def test_remove_from_empty_leaf_rejected(self, rng):
        fam = enumerate_balanced_family(2, {1: 2})
        model = fit(np.full((3, 2), 0.1), fam, 1.0)
        inc = IncrementalModel(model)
        with pytest.raises(ValueError):
            inc.remove_point(np.array([0.9, 0.9]))

    def test_rejected_removal_changes_nothing(self):
        # member 0 holds the point in that leaf, member 1 does not: the
        # removal must be refused before member 0 is touched
        fam = SegmentationFamily((build((1, 1), 2), build((2, 2), 2)))
        model = fit(np.array([[0.1, 0.9]]), fam, 1.0)
        inc = IncrementalModel(model)
        with pytest.raises(ValueError, match="no observation in that leaf"):
            inc.remove_point(np.array([0.1, 0.1]))
        assert inc.m == 1
        assert np.array_equal(inc.log_unnormalized, model.log_unnormalized)
        for ca, cb in zip(inc.snapshot().counts, model.counts):
            for la, lb in zip(ca.levels, cb.levels):
                assert np.array_equal(la, lb)

    def test_parent_model_untouched(self, rng):
        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        pts = rng.uniform(size=(5, 2))
        model = fit(pts, fam, 1.0)
        before = model.log_unnormalized.copy()
        counts_before = [lvl.copy() for lvl in model.counts[0].levels]
        inc = IncrementalModel(model)
        inc.add_point(np.array([0.3, 0.3]))
        assert np.array_equal(model.log_unnormalized, before)
        for a, b in zip(model.counts[0].levels, counts_before):
            assert np.array_equal(a, b)


class TestTable1Geometry:
    def test_counts_match_published_rows(self):
        # the four points realize all five leaf-count patterns simultaneously
        family, points = table1_family(), table1_points()
        expected = [
            (1, 1, 1, 1),
            (0, 2, 0, 2),
            (0, 0, 2, 2),
            (0, 0, 0, 4),
            (0, 0, 4, 0),
        ]
        for seg, leaf in zip(family, expected):
            counts = accumulate_counts(points, seg)
            assert tuple(counts.levels[-1]) == leaf
