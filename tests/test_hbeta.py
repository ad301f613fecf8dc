import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyatree.hbeta import (
    BetaTree,
    CountsTree,
    accumulate_counts,
    conditional_predictive_density,
    counts_from_leaf_counts,
    leaf_predictive_masses,
    pi_from_phi,
    sample_phi_posterior,
    sample_phi_prior,
    step_density,
)
from polyatree.segmentation import Segmentation, build, leaf_indices


def brute_force_leaf_products(tree: BetaTree) -> np.ndarray:
    """Independent per-leaf path-product recomputation."""
    depth = tree.depth
    out = np.empty(2**depth)
    for leaf in range(2**depth):
        value = 1.0
        for level in range(1, depth + 1):
            node = leaf >> (depth - level)
            parent, side = node >> 1, node & 1
            phi = tree.levels[level - 1][parent]
            value *= phi if side == 0 else 1.0 - phi
        out[leaf] = value
    return out


FOUR_POINTS_1D = np.array([[0.1], [0.2], [0.6], [0.9]])


def stacked(counts: CountsTree, n: int) -> CountsTree:
    """n copies of a tree in one stack: each level broadcast to (n, 2^l),
    so `sample_phi_posterior` draws n trees in one Beta call per level."""
    return CountsTree(tuple(np.broadcast_to(c, (n,) + c.shape) for c in counts.levels))


class TestPriorSampling:
    def test_rejects_nonpositive_a0(self):
        with pytest.raises(ValueError):
            sample_phi_prior(3, 0.0, 0)
        with pytest.raises(ValueError):
            sample_phi_prior(3, -1.0, 0)

    def test_reproducible(self):
        a = sample_phi_prior(5, 0.7, 42)
        b = sample_phi_prior(5, 0.7, 42)
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la, lb)

    def test_huge_a0_concentrates_at_half(self):
        tree = sample_phi_prior(6, 1e8, 3)
        pi = pi_from_phi(tree)
        assert np.allclose(pi, 2.0**-6, atol=1e-3)

    def test_mean_leaf_probability_is_uniform(self):
        # E pi_leaf = 2^-L for any a0; Monte Carlo with +-3 s.e.
        depth, a0, n = 3, 0.7, 100_000
        empty = counts_from_leaf_counts(np.zeros(2**depth, dtype=np.int64))
        # the prior draw is the empty-sample posterior draw, stream included,
        # so the n trees come from one stacked call
        prior, posterior = sample_phi_prior(depth, a0, 9), sample_phi_posterior(empty, a0, 9)
        assert all(np.array_equal(a, b) for a, b in zip(prior.levels, posterior.levels))
        gen = np.random.default_rng(9)
        pi = pi_from_phi(sample_phi_posterior(stacked(empty, n), a0, gen))
        mean = pi.mean(axis=0)
        se = np.sqrt((np.mean(pi * pi, axis=0) - mean**2) / n)
        assert np.all(np.abs(mean - 2.0**-depth) <= 3 * se)

    def test_gini_dispersion_decreases_in_a0(self):
        def gini(p):
            p = np.sort(p)
            n = p.size
            return np.sum((2 * np.arange(1, n + 1) - n - 1) * p) / (n * p.sum())

        gen = np.random.default_rng(5)
        medians = []
        for a0 in (0.1, 1.0, 10.0):
            vals = [
                gini(pi_from_phi(sample_phi_prior(10, a0, gen))) for _ in range(50)
            ]
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2]


class TestPiFromPhi:
    def test_all_half_gives_uniform(self):
        tree = BetaTree((np.array([0.5]), np.array([0.5, 0.5])))
        assert np.allclose(pi_from_phi(tree), 0.25)

    def test_degenerate_left_subtree(self):
        tree = BetaTree((np.array([1.0]), np.array([0.3, 0.9])))
        assert np.allclose(pi_from_phi(tree), [0.3, 0.7, 0.0, 0.0])

    def test_brute_force_oracle(self, rng):
        for _ in range(10):
            depth = int(rng.integers(1, 9))
            tree = BetaTree(
                tuple(rng.uniform(0.01, 0.99, size=1 << l) for l in range(depth))
            )
            assert np.allclose(
                pi_from_phi(tree), brute_force_leaf_products(tree), atol=1e-14
            )

    @given(
        depth=st.integers(1, 6),
        members=st.integers(1, 4),
        draws=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_stacked_tree_matches_rows(self, depth, members, draws, seed):
        # leading (members, draws) axes pass through, bit for bit
        gen = np.random.default_rng(seed)
        tree = BetaTree(tuple(gen.uniform(size=(members, draws, 1 << l)) for l in range(depth)))
        stacked = pi_from_phi(tree)
        assert stacked.shape == (members, draws, 1 << depth)
        for j in range(members):
            for h in range(draws):
                row = pi_from_phi(BetaTree(tuple(lvl[j, h] for lvl in tree.levels)))
                assert np.array_equal(stacked[j, h], row)

    @given(depth=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_sums_to_one(self, depth, seed):
        pi = pi_from_phi(sample_phi_prior(depth, 0.5, seed))
        assert abs(pi.sum() - 1.0) < 1e-12


class TestStepDensity:
    def test_uniform(self):
        seg = build((1, 2), 2)
        pi = np.full(4, 0.25)
        assert step_density([0.9, 0.1], seg, pi) == pytest.approx(1.0)

    def test_half_mass_box(self):
        seg = build((1, 1), 1)
        pi = np.array([0.5, 0.5, 0.0, 0.0])
        assert step_density([0.1], seg, pi) == pytest.approx(2.0)

    def test_box_sum_integrates_to_one(self, rng):
        # exact: density is constant per box, so sum(value * volume) is the integral
        from polyatree.predictive import leaf_boxes

        for _ in range(10):
            ndim = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 7))
            seg = build(rng.integers(1, ndim + 1, size=depth), ndim)
            pi = rng.dirichlet(np.ones(1 << depth))
            lo, hi = leaf_boxes(seg)
            centers = 0.5 * (lo + hi)
            total = np.sum(step_density(centers, seg, pi) * np.prod(hi - lo, axis=1))
            assert abs(total - 1.0) < 1e-12

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            step_density([1.5], build((1,), 1), np.array([0.5, 0.5]))


class TestCounts:
    def test_1d_example(self):
        counts = accumulate_counts(FOUR_POINTS_1D, build((1, 1), 1))
        assert counts.m == 4
        assert counts.levels[1].tolist() == [2, 2]
        assert counts.levels[2].tolist() == [2, 0, 1, 1]

    def test_empty_data(self):
        counts = accumulate_counts(np.zeros((0, 2)), build((1, 2), 2))
        assert counts.m == 0
        assert counts.levels[2].tolist() == [0, 0, 0, 0]

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            accumulate_counts(np.array([[1.3]]), build((1,), 1))

    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 7))
    def test_parent_sums(self, seed, depth):
        gen = np.random.default_rng(seed)
        seg = build(gen.integers(1, 3, size=depth), 2)
        counts = accumulate_counts(gen.uniform(size=(30, 2)), seg)
        for parent, child in zip(counts.levels, counts.levels[1:]):
            assert np.array_equal(parent, child[0::2] + child[1::2])
        assert counts.levels[0][0] == 30 and np.all(counts.levels[-1] >= 0)

    def test_counts_from_leaf_counts_validates(self):
        with pytest.raises(ValueError):
            counts_from_leaf_counts([1, 2, 3])


class TestPredictiveDensity:
    def test_worked_example(self):
        seg = build((1, 1), 1)
        counts = accumulate_counts(FOUR_POINTS_1D, seg)
        assert conditional_predictive_density([0.1], counts, seg, 1.0) == pytest.approx(
            1.5, abs=1e-12
        )

    def test_small_a0_limit(self):
        # with every level occupied the limit is the raw histogram density
        seg = build((1, 1), 1)
        counts = accumulate_counts(FOUR_POINTS_1D, seg)
        val = conditional_predictive_density([0.1], counts, seg, 1e-9)
        assert abs(val - 2.0) < 1e-6

    def test_large_a0_limit(self):
        seg = build((1, 1), 1)
        counts = accumulate_counts(FOUR_POINTS_1D, seg)
        val = conditional_predictive_density([0.1], counts, seg, 1e9)
        assert abs(val - 1.0) < 1e-6

    def test_empty_sample_is_uniform(self):
        seg = build((1, 2), 2)
        counts = accumulate_counts(np.zeros((0, 2)), seg)
        assert conditional_predictive_density([0.7, 0.2], counts, seg, 0.3) == 1.0

    def test_matches_leaf_masses(self, rng):
        # same closed form two ways: path product vs downward mass recursion
        for _ in range(20):
            ndim = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 8))
            seg = build(rng.integers(1, ndim + 1, size=depth), ndim)
            data = rng.uniform(size=(int(rng.integers(1, 40)), ndim))
            a0 = float(rng.uniform(0.1, 10))
            counts = accumulate_counts(data, seg)
            masses = leaf_predictive_masses(counts, a0)
            u = rng.uniform(size=(5, ndim))

            direct = conditional_predictive_density(u, counts, seg, a0)
            via_masses = masses[leaf_indices(u, seg)] * (1 << depth)
            assert np.allclose(direct, via_masses, rtol=1e-12)

    def test_monte_carlo_conjugacy_oracle(self):
        # average step density over conjugate posterior draws reproduces the
        # closed form within 3 standard errors
        seg = build((1, 1), 1)
        counts = accumulate_counts(FOUR_POINTS_1D, seg)
        gen = np.random.default_rng(8)
        n = 100_000
        u = np.array([0.1])
        pi = pi_from_phi(sample_phi_posterior(stacked(counts, n), 1.0, gen))
        vals = pi[:, leaf_indices(u, seg)[0]] * (1 << seg.depth)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.5) <= 3 * se

    def test_refinement_invariance(self, rng):
        # where the path count dies out before the deepest level, appending
        # further splits leaves the value unchanged
        for _ in range(20):
            ndim = int(rng.integers(1, 3))
            depth = int(rng.integers(2, 6))
            seg = build(rng.integers(1, ndim + 1, size=depth), ndim)
            data = rng.uniform(0.0, 0.45, size=(10, ndim))
            a0 = float(rng.uniform(0.2, 5))
            counts = accumulate_counts(data, seg)
            u = rng.uniform(0.55, 1.0, size=ndim)  # empty region, so depth is spare
            deeper = Segmentation(
                seg.dims + tuple(rng.integers(1, ndim + 1, size=2)), ndim
            )
            v1 = conditional_predictive_density(u, counts, seg, a0)
            v2 = conditional_predictive_density(
                u, accumulate_counts(data, deeper), deeper, a0
            )
            assert v1 == pytest.approx(v2, rel=1e-12)

    def test_density_integrates_to_one(self, rng):
        for _ in range(10):
            depth = int(rng.integers(1, 8))
            seg = build(rng.integers(1, 3, size=depth), 2)
            counts = accumulate_counts(rng.uniform(size=(25, 2)), seg)
            masses = leaf_predictive_masses(counts, 0.7)
            assert abs(masses.sum() - 1.0) < 1e-12


class TestPosteriorSampling:
    def test_conjugate_node_mean(self):
        # a node with 2 lower / 0 upper observations at a0=1 draws Beta(3, 1)
        counts = counts_from_leaf_counts([2, 0])
        gen = np.random.default_rng(17)
        draws = sample_phi_posterior(stacked(counts, 100_000), 1.0, gen).levels[0][:, 0]
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.75) <= 3 * se

    def test_empty_sample_reduces_to_prior(self):
        counts = counts_from_leaf_counts([0, 0, 0, 0])
        gen = np.random.default_rng(2)
        draws = sample_phi_posterior(stacked(counts, 20_000), 2.0, gen).levels[1]
        se = draws.std(ddof=1, axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) <= 3 * se)

    def test_one_tree_reproduces_per_level_draws(self):
        # a single tree draws level by level, one Beta call per level
        counts = counts_from_leaf_counts([3, 0, 1, 4, 0, 0, 2, 5])
        gen = np.random.default_rng(31)
        expect = [gen.beta(0.7 + lvl[0::2], 0.7 + lvl[1::2]) for lvl in counts.levels[1:]]
        got = sample_phi_posterior(counts, 0.7, 31).levels
        assert len(got) == 3
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    def test_rejects_nonpositive_a0(self):
        with pytest.raises(ValueError):
            sample_phi_posterior(counts_from_leaf_counts([1, 1]), 0.0, 0)
