import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyatree import predictive
from polyatree.encoding import ColumnSchema, encode, fit_encoding
from polyatree.hbeta import leaf_predictive_masses, pi_from_phi, sample_phi_posterior
from polyatree.posterior import fit
from polyatree.predictive import (
    Box,
    MixtureApproximation,
    build_mixture,
    conditional_quantile,
    credible_prediction_set,
    grid_mass_matrix,
    leaf_boxes,
    mixture_predictive_density,
    predictive_probability,
    quantile_curve,
    sample_posterior_predictive,
    sample_predictive,
)
from polyatree.segmentation import SegmentationFamily, build, enumerate_balanced_family
from polyatree.simharness import densities, studies


def small_family():
    return enumerate_balanced_family(2, {1: 2, 2: 2})  # 6 members, depth 4


def ragged_family():
    # depth 4, three split-count classes: x split 2, 0 and 4 times
    dims = [(1, 2, 1, 2), (2, 2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 2)]
    return SegmentationFamily(tuple(build(d, 2) for d in dims))


def member_counts(model, j):
    """Member j's counts: row j of every level of the model's count stack."""
    return tuple(l[j] for l in model.stack)


@pytest.fixture
def fitted(rng):
    return fit(rng.uniform(size=(40, 2)), small_family(), 1.0)


class TestBuildMixture:
    def test_shapes_and_component_weights(self, fitted, rng):
        mix = build_mixture(fitted, 7, rng)
        assert mix.pis.shape == (len(small_family()), 7, 16) and mix.draws_per_seg == 7
        # each (member, draw) component weighs weights[j] / draws_per_seg
        assert np.repeat(mix.weights / mix.draws_per_seg, mix.draws_per_seg).sum() == pytest.approx(1.0)
        assert np.allclose(mix.pis.sum(axis=2), 1.0)

    def test_ragged_family_rows(self, rng):
        fam = ragged_family()
        model = fit(rng.uniform(size=(30, 2)), fam, 0.8)
        mix = build_mixture(model, 4000, 3)
        for j, (seg, pis) in enumerate(zip(fam, mix.pis)):
            counts = member_counts(model, j)
            assert pis.shape == (4000, 1 << seg.depth) and pis.flags.c_contiguous
            np.testing.assert_allclose(pis.sum(axis=1), 1.0, rtol=1e-12)
            se = pis.std(axis=0, ddof=1) / np.sqrt(pis.shape[0])
            assert np.all(np.abs(pis.mean(axis=0) - leaf_predictive_masses(counts, 0.8)) <= 4 * se)

    def test_single_member_single_draw(self, rng):
        fam = SegmentationFamily((build((1, 2), 2),))
        model = fit(rng.uniform(size=(5, 2)), fam, 1.0)
        mix = build_mixture(model, 1, 0)
        assert mix.pis[0].shape == (1, 4)

    def test_seed_recorded_and_reproducible(self, fitted):
        a = build_mixture(fitted, 3, 11)
        b = build_mixture(fitted, 3, 11)
        assert a.seed == 11
        for pa, pb in zip(a.pis, b.pis):
            assert np.array_equal(pa, pb)

    def test_draws_are_one_block(self, fitted):
        # one (members, draws, 2^L) block: the conjugate draw of the count
        # stack broadcast over the draws, under the same seed
        mix = build_mixture(fitted, 5, 3)
        levels = tuple(np.broadcast_to(l[:, None], (len(small_family()), 5) + l.shape[1:]) for l in fitted.stack)
        ref = pi_from_phi(sample_phi_posterior(levels, 1.0, np.random.default_rng(3)))
        assert mix.pis.shape == (len(small_family()), 5, 16) and mix.draws_per_seg == mix.pis.shape[1]
        assert mix.pis.dtype == np.float64 and mix.pis.flags.c_contiguous
        assert np.array_equal(mix.pis, ref)

    @pytest.mark.parametrize("shape", [(5, 3, 16), (6, 3, 8), (6, 0, 16), (6, 16), (6, 3, 16, 1)])
    def test_misshaped_draws_rejected(self, fitted, shape):
        with pytest.raises(ValueError, match="pis must have shape"):
            MixtureApproximation(fitted.family, fitted.weights, np.full(shape, 1.0 / 16))

    def test_rebuild_mean_matches_exact_predictive(self, rng):
        # averaging the approximation over fresh rebuilds recovers the
        # closed-form mixture density within Monte Carlo error
        model = fit(rng.uniform(size=(30, 2)), small_family(), 1.0)
        u = np.array([0.3, 0.7])
        exact = mixture_predictive_density(u, model)
        vals = np.array(
            [mixture_predictive_density(u, build_mixture(model, 5, rng)) for _ in range(300)]
        )
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 3 * se

    def test_rejects_bad_draw_count(self, fitted):
        with pytest.raises(ValueError):
            build_mixture(fitted, 0)


class TestSampling:
    def test_empty_sample_mixture_is_near_uniform(self):
        # a finite-draw prior mixture is lumpy, so box counts are compared
        # at a combined binomial + mixture-realization standard error
        fam = SegmentationFamily((build((1, 1), 1),))
        model = fit(np.zeros((0, 1)), fam, 1.0)
        draws_per_seg, n = 2000, 20000
        mix = build_mixture(model, draws_per_seg, 3)
        sample = sample_predictive(mix, n, 4)
        counts = np.bincount(
            np.minimum((sample.points[:, 0] * 4).astype(int), 3), minlength=4
        )
        var_pi = 1 / 9 - 1 / 16  # Var(pi_leaf) at a0=1, depth 2
        se = np.sqrt(n * 0.25 * 0.75 + n**2 * var_pi / draws_per_seg)
        assert np.all(np.abs(counts - n / 4) <= 3 * se)

    def test_empty_sample_exact_predictive_is_uniform(self):
        from scipy.stats import chisquare

        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        model = fit(np.zeros((0, 2)), fam, 1.0)
        pts = sample_posterior_predictive(model, 40_000, 5).points
        ix = np.minimum((pts[:, 0] * 2).astype(int), 1)
        iy = np.minimum((pts[:, 1] * 2).astype(int), 1)
        assert chisquare(np.bincount(ix * 2 + iy, minlength=4)).pvalue > 0.01

    def test_point_mass_data_concentrates(self):
        fam = SegmentationFamily((build((1, 1, 1, 1), 1),))
        model = fit(np.full((30, 1), 0.03), fam, 1e-9)
        mix = build_mixture(model, 50, 4)
        sample = sample_predictive(mix, 5000, 5)
        assert np.mean(sample.points[:, 0] < 1 / 16) >= 0.99

    def test_leaf_frequencies_match_component_masses(self, fitted):
        from scipy.stats import chisquare

        mix = build_mixture(fitted, 10, 6)
        n = 100_000
        sample = sample_predictive(mix, n, 7)
        (nx, ny), M = grid_mass_matrix(mix)
        ix = np.minimum((sample.points[:, 0] * nx).astype(int), nx - 1)
        iy = np.minimum((sample.points[:, 1] * ny).astype(int), ny - 1)
        counts = np.bincount(ix * ny + iy, minlength=nx * ny)
        assert chisquare(counts, f_exp=M.ravel() * n).pvalue > 0.001

    def test_provenance(self, fitted):
        mix = build_mixture(fitted, 4, 0)
        sample = sample_predictive(mix, 100, 9)
        assert sample.seed == 9
        assert sample.points.shape == (100, 2)
        assert sample.member_index.shape == (100,)
        assert np.all((sample.draw_index >= 0) & (sample.draw_index < 4))
        exact = sample_posterior_predictive(fitted, 50, 1)
        assert np.all(exact.draw_index == -1)

    def test_rejects_bad_n(self, fitted):
        mix = build_mixture(fitted, 2, 0)
        with pytest.raises(ValueError):
            sample_predictive(mix, 0)


class TestPredictiveProbability:
    def test_whole_cube(self, fitted):
        mix = build_mixture(fitted, 5, 0)
        res = predictive_probability(Box((0.0, 0.0), (1.0, 1.0)), mix)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_finest_box_of_empty_model_has_its_volume(self):
        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        model = fit(np.zeros((0, 2)), fam, 1.0)
        box = Box((0.0, 0.5), (0.5, 1.0))
        assert predictive_probability(box, model).value == pytest.approx(0.25)

    def test_analytic_matches_monte_carlo(self, fitted, rng):
        # the samplers are the oracle: the share of predictive draws in an
        # overlapping union, each draw counted once
        mix = build_mixture(fitted, 5, 1)
        region = [Box((0.05, 0.1), (0.4, 0.55)), Box((0.3, 0.4), (0.9, 0.8)), Box((0.6, 0.0), (0.9, 0.5))]
        n = 100_000
        for obj, sampler in ((mix, sample_predictive), (fitted, sample_posterior_predictive)):
            pts = sampler(obj, n, 2).points
            inside = np.any([np.all((pts >= b.lower) & (pts <= b.upper), axis=1) for b in region], axis=0)
            exact = predictive_probability(region, obj).value
            assert abs(inside.mean() - exact) <= 3 * np.sqrt(exact * (1 - exact) / n)

    def test_ragged_family_matches_member_loop(self, rng):
        fam = ragged_family()
        model = fit(rng.uniform(size=(25, 2)), fam, 1.0)
        mix = build_mixture(model, 3, 8)
        region = [Box((0.05, 0.1), (0.4, 0.55)), Box((0.6, 0.0), (0.9, 0.3)), Box((0.4, 0.6), (1.0, 1.0))]
        tables = {
            "exact": (model, [leaf_predictive_masses(member_counts(model, j), 1.0) for j in range(len(fam))]),
            "mixture": (mix, [p.mean(axis=0) for p in mix.pis]),
        }
        for obj, leaf_probs in tables.values():
            ref = 0.0
            for seg, w, pi in zip(fam, obj.weights, leaf_probs):
                lo, hi = leaf_boxes(seg)
                for b in region:
                    ov = np.clip(np.minimum(hi, b.upper) - np.maximum(lo, b.lower), 0.0, None)
                    ref += w * float(pi @ np.prod(ov / (hi - lo), axis=1))
            assert predictive_probability(region, obj).value == pytest.approx(ref, rel=1e-12)

    def test_malformed_region_rejected(self, fitted):
        with pytest.raises(ValueError):
            Box((0.5, 0.0), (0.4, 1.0))
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.1, 1.0))
        with pytest.raises(ValueError):
            predictive_probability([], fitted)
        with pytest.raises(ValueError):
            predictive_probability(Box((0.0,), (1.0,)), fitted)


class TestConditionalQuantile:
    def test_empty_sample_quantile_is_q(self):
        fam = enumerate_balanced_family(2, {1: 2, 2: 2})
        model = fit(np.zeros((0, 2)), fam, 1.0)
        for q in (0.05, 0.31, 0.5, 0.9):
            for x in (0.01, 0.47, 0.99):
                assert conditional_quantile(x, q, model) == pytest.approx(q, abs=1e-12)

    def test_mirrored_counts_have_median_half(self, rng):
        # data symmetric under y -> 1-y makes the exact conditional median 0.5
        fam = small_family()
        xs = rng.uniform(size=30)
        ys = rng.uniform(size=30)
        pts = np.vstack(
            [np.column_stack([xs, ys]), np.column_stack([xs, 1.0 - ys])]
        )
        model = fit(pts, fam, 1.0)
        for x in (0.1, 0.5, 0.93):
            assert conditional_quantile(x, 0.5, model) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_q(self, fitted):
        mix = build_mixture(fitted, 8, 0)
        qs = np.linspace(0.05, 0.95, 19)
        vals = [conditional_quantile(0.3, q, mix) for q in qs]
        assert np.all(np.diff(vals) >= 0)

    def test_sampling_consistency(self, fitted):
        # per x column, the fraction of draws below the q-quantile is q
        mix = build_mixture(fitted, 10, 2)
        n = 100_000
        sample = sample_predictive(mix, n, 3)
        (nx, _), _ = grid_mass_matrix(mix)
        q = 0.3
        curve = quantile_curve(q, mix)
        ix = np.minimum((sample.points[:, 0] * nx).astype(int), nx - 1)
        for col in range(nx):
            sel = ix == col
            n_col = sel.sum()
            frac = np.mean(sample.points[sel, 1] <= curve[col])
            se = np.sqrt(q * (1 - q) / n_col)
            assert abs(frac - q) <= 3 * se

    def test_columns_match_per_column_reference(self, rng):
        # all columns are inverted in one array call; the per-column loop it
        # replaced is the reference, bit for bit, on cell edges and empty cells
        def reference(col, q):
            total = col.sum()
            cum = np.concatenate([[0.0], np.cumsum(col)])
            k = int(np.searchsorted(cum, q * total, side="right")) - 1
            k = min(max(k, 0), col.size - 1)
            frac = (q * total - cum[k]) / col[k] if col[k] > 0 else 0.0
            return (k + min(max(frac, 0.0), 1.0)) / col.size

        M = np.array([[0, 0, 1, 1], [1, 0, 0, 1], [0, 1, 1, 0], [2, 0, 0, 0], [1, 1, 1, 1]], float)
        for q in (0.25, 0.3, 0.5, 0.75):
            assert predictive._column_quantile(M, q).tolist() == [reference(c, q) for c in M]
        for pts, a0 in ((np.zeros((0, 2)), 1.0), (rng.uniform(size=(30, 2)), 0.4)):
            model = fit(pts, ragged_family(), a0)
            for obj in (model, build_mixture(model, 3, 1)):
                (nx, _), grid = grid_mass_matrix(obj)
                for q in (0.05, 0.5, 0.95):
                    expected = [reference(c, q) for c in grid]
                    assert quantile_curve(q, obj).tolist() == expected
                    assert [conditional_quantile((ix + 0.5) / nx, q, obj) for ix in range(nx)] == expected
                lo, hi = ([reference(c, q) for c in grid] for q in (0.05, 0.95))
                assert credible_prediction_set(obj, 0.1) == [
                    Box((ix / nx, lo[ix]), ((ix + 1) / nx, hi[ix])) for ix in range(nx)
                ]

    def test_rejects_bad_levels(self, fitted):
        with pytest.raises(ValueError):
            conditional_quantile(0.5, 0.0, fitted)
        with pytest.raises(ValueError):
            conditional_quantile(1.5, 0.5, fitted)


class TestCredibleSet:
    def test_empty_sample_band(self):
        fam = small_family()
        model = fit(np.zeros((0, 2)), fam, 1.0)
        boxes = credible_prediction_set(model, 0.10)
        for b in boxes:
            assert b.lower[1] == pytest.approx(0.05, abs=1e-12)
            assert b.upper[1] == pytest.approx(0.95, abs=1e-12)
        assert predictive_probability(boxes, model).value == pytest.approx(0.9)

    def test_alpha_zero_is_cube(self, fitted):
        assert credible_prediction_set(fitted, 0.0) == [Box((0.0, 0.0), (1.0, 1.0))]

    def test_mass_is_exact(self, fitted):
        mix = build_mixture(fitted, 10, 4)
        for alpha in (0.05, 0.10, 0.32):
            boxes = credible_prediction_set(mix, alpha)
            mass = predictive_probability(boxes, mix).value
            assert abs(mass - (1 - alpha)) < 1e-9

    def test_sample_count_binomial(self, fitted):
        mix = build_mixture(fitted, 10, 5)
        boxes = credible_prediction_set(mix, 0.10)
        sample = sample_predictive(mix, 2000, 6)
        inside = np.zeros(2000, dtype=bool)
        for b in boxes:
            inside |= np.all(
                (sample.points >= b.lower) & (sample.points <= b.upper), axis=1
            )
        se = np.sqrt(2000 * 0.9 * 0.1)
        assert abs(inside.sum() - 1800) <= 3 * se

    def test_nesting(self, fitted):
        mix = build_mixture(fitted, 6, 7)
        wide = credible_prediction_set(mix, 0.10)
        narrow = credible_prediction_set(mix, 0.20)
        for w, n in zip(wide, narrow):
            assert w.lower[1] <= n.lower[1] + 1e-12
            assert w.upper[1] >= n.upper[1] - 1e-12


class TestRegionJson:
    def test_roundtrip(self):
        from polyatree.predictive import region_from_json_obj, region_to_json_obj

        region = [Box((0.0, 0.5), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 0.25))]
        obj = region_to_json_obj(region)
        assert obj[0] == {"lower": [0.0, 0.5], "upper": [0.5, 1.0]}
        assert region_from_json_obj(obj) == region


class TestGridMassMatrix:
    def test_total_mass_and_shape(self, fitted):
        (nx, ny), M = grid_mass_matrix(fitted)
        assert (nx, ny) == (4, 4)
        assert M.shape == (4, 4)
        assert M.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mixture_matches_model_in_expectation(self, fitted):
        # the approximation's grid converges to the model's exact grid
        big = build_mixture(fitted, 4000, 8)
        (_, _), M_mix = grid_mass_matrix(big)
        (_, _), M_exact = grid_mass_matrix(fitted)
        assert np.max(np.abs(M_mix - M_exact)) < 0.01

    def test_built_once_per_object(self, fitted, monkeypatch):
        # three curves and one set read one grid of each object, read-only
        calls = []
        components = predictive._components

        def spy(obj):
            calls.append(obj)
            return components(obj)

        mix = build_mixture(fitted, 3, 1)
        model = fit(np.random.default_rng(2).uniform(size=(15, 2)), fitted.family, 1.0)
        monkeypatch.setattr(predictive, "_components", spy)
        for obj in (model, mix):
            for q in (0.1, 0.5, 0.9):
                quantile_curve(q, obj)
            credible_prediction_set(obj, 0.2)
            assert sum(c is obj for c in calls) == 1
            M = grid_mass_matrix(obj)[1]
            assert M is grid_mass_matrix(obj)[1] and not M.flags.writeable

    def test_leaf_boxes_shapes(self):
        lo, hi = leaf_boxes(build((1, 2, 2), 2))
        assert lo.shape == (8, 2)
        assert np.all(hi > lo)

    def test_requires_2d(self, rng):
        fam = SegmentationFamily((build((1, 1), 1),))
        model = fit(rng.uniform(size=(5, 1)), fam, 1.0)
        with pytest.raises(ValueError):
            grid_mass_matrix(model)

    @pytest.mark.parametrize(
        "call",
        [
            lambda obj: grid_mass_matrix(obj),
            lambda obj: credible_prediction_set(obj, 0.1),
            lambda obj: mixture_predictive_density([0.5, 0.5], obj),
            lambda obj: sample_predictive(obj, 3),
        ],
        ids=["grid", "credible", "density", "sample"],
    )
    def test_rejects_other_types(self, call):
        with pytest.raises(TypeError, match="expected MixtureApproximation or PosteriorModel"):
            call(small_family())

    def test_masses_match_leaf_masses_for_single_member(self, rng):
        seg = build((1, 2), 2)
        fam = SegmentationFamily((seg,))
        model = fit(rng.uniform(size=(20, 2)), fam, 1.0)
        (nx, ny), M = grid_mass_matrix(model)
        masses = leaf_predictive_masses(member_counts(model, 0), 1.0)
        # leaf order of an x-then-y segmentation is x-major on the 2x2 grid
        assert np.allclose(M.ravel(), masses)


# ---------------------------------------------------------------------------
# The sampling kernel and the leaf-corner kernel against plain loops kept
# here as references: outputs must be equal bit for bit.


def _reference_leaf_boxes(seg):
    """Leaf boxes by halving every box once per level."""
    lo = np.zeros((1, seg.ndim))
    hi = np.ones((1, seg.ndim))
    for dim in seg.dims:
        d = dim - 1
        mid = 0.5 * (lo[:, d] + hi[:, d])
        lo = np.repeat(lo, 2, axis=0)
        hi = np.repeat(hi, 2, axis=0)
        hi[0::2, d] = mid
        lo[1::2, d] = mid
    return lo, hi


def _reference_sample_components(family, weights, leaf_laws, n, gen, draw_of_member):
    """Member ~ weights, then one stream in sample order: each sample's leaf
    by a right search of its (member, draw) CDF, as ``Generator.choice``
    searches, and each sample's uniform offsets in its leaf box."""
    member = gen.choice(len(family), size=n, p=weights / weights.sum())
    draw = draw_of_member(member, gen)
    stream = gen.random(n * (1 + family.ndim))
    u, offset = stream[:n], stream[n:].reshape(n, family.ndim)
    points = np.empty((n, family.ndim))
    leaf = np.empty(n, dtype=np.int64)
    cdfs, boxes = {}, {}
    for i, (j, h) in enumerate(zip(member.tolist(), draw.tolist())):
        if (j, h) not in cdfs:
            laws = leaf_laws(j)
            law = laws if laws.ndim == 1 else laws[h]
            cdf = np.cumsum(law / law.sum())
            cdfs[j, h] = cdf / cdf[-1]
        if j not in boxes:
            boxes[j] = _reference_leaf_boxes(family[j])
        leaf[i] = np.searchsorted(cdfs[j, h], u[i], side="right")
        lo, hi = (corner[leaf[i]] for corner in boxes[j])
        points[i] = lo + offset[i] * (hi - lo)
    return points, member, draw, leaf


def _reference_samples(obj, n, seed):
    gen = np.random.default_rng(seed)
    if isinstance(obj, MixtureApproximation):
        draws = lambda member, g: g.integers(0, obj.draws_per_seg, size=member.size)
        return _reference_sample_components(obj.family, obj.weights, lambda j: obj.pis[j], n, gen, draws)
    laws = lambda j: leaf_predictive_masses(member_counts(obj, j), obj.a0)
    draws = lambda member, g: np.full(member.size, -1, dtype=np.int64)
    return _reference_sample_components(obj.family, obj.weights, laws, n, gen, draws)


def _assert_samplers_match(model, mix, n, seed):
    for obj, sampler in (
        (mix, sample_predictive), (model, sample_predictive), (model, sample_posterior_predictive),
    ):
        got = sampler(obj, n, seed)
        for a, b in zip((got.points, got.member_index, got.draw_index, got.leaf_index), _reference_samples(obj, n, seed)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _reference_box_mass(region, obj):
    """The analytic box mass over stacked per-member reference boxes."""
    family, weights, table = predictive._components(obj)
    lo, hi = map(np.stack, zip(*map(_reference_leaf_boxes, family)))
    overlap = (np.minimum(hi, b.upper) - np.maximum(lo, b.lower) for b in region)
    share = sum(np.prod(np.clip(ov, 0.0, None) / (hi - lo), axis=-1) for ov in overlap)
    return float(weights @ np.sum(table * share, axis=-1))


def ragged5_family():
    # all 32 depth-5 orderings over {x, y}: six split-count classes, x split 0 to 5 times
    return SegmentationFamily(tuple(build(d, 2) for d in itertools.product((1, 2), repeat=5)))


STREAM_FAMILIES = {
    "ragged5": ragged5_family,
    "balanced3": lambda: enumerate_balanced_family(3, {1: 1, 2: 1, 3: 2}),
}


class TestSamplingKernel:
    @pytest.mark.parametrize("m", [0, 1, 37, 300])
    @pytest.mark.parametrize("name", sorted(STREAM_FAMILIES))
    def test_samplers_match_member_loop(self, name, m):
        fam = STREAM_FAMILIES[name]()
        pts = np.random.default_rng(m).beta(2.0, 3.0, size=(m, fam.ndim))
        for a0 in (0.3, 1.0):
            model = fit(pts, fam, a0)
            for seed in range(3):
                mix = build_mixture(model, 4, seed)
                for n in (1, 7, 2000):
                    _assert_samplers_match(model, mix, n, seed + 10)

    @pytest.mark.parametrize("m", [100, 1000])
    def test_quantreg_matches_member_loop(self, m):
        model = fit(np.random.default_rng(m).beta(2.0, 3.0, size=(m, 2)), studies.quantreg_family(), 1.0)
        mix = build_mixture(model, 50, 1)
        for seed in range(3):
            _assert_samplers_match(model, mix, 2000, seed)

    def test_highdim_matches_member_loop(self):
        # the highdim study's model: 8 continuous columns and a 3-level
        # categorical encoded onto the 10-cube, 1960 members of depth 10
        density = densities.CategoricalGaussianMixture()
        labels, y = density.sample(400, np.random.default_rng(2))
        table = {f"y{j}": y[:, j - 1] for j in range(1, 9)}
        table["x"] = labels
        schema = [ColumnSchema(f"y{j}", "continuous") for j in range(1, 9)]
        schema.append(ColumnSchema("x", "categorical", density.levels))
        points, _ = encode(table, fit_encoding(table, schema, bins=16))
        model = fit(points, studies.highdim_family(candidate_dims=range(1, 9)), 1.0)
        mix = build_mixture(model, 2, 1)
        for seed in range(2):
            _assert_samplers_match(model, mix, 1000, seed)

    def test_no_law_row_for_undrawn_members(self, monkeypatch):
        fam = ragged5_family()
        model = fit(np.random.default_rng(0).beta(2.0, 3.0, size=(50, 2)), fam, 1.0)
        rows = []
        masses = predictive.leaf_predictive_masses

        def counted(counts, a0):
            rows.append(counts[0].shape[0])
            return masses(counts, a0)

        monkeypatch.setattr(predictive, "leaf_predictive_masses", counted)
        drawn = np.unique(sample_posterior_predictive(model, 4, 3).member_index)
        assert drawn.size < len(fam) and sum(rows) == drawn.size

        read = set()

        class Pis(np.ndarray):
            def __getitem__(self, index):
                read.update(np.unique(index[0]).tolist())
                return np.asarray(self)[index]

        mix = build_mixture(model, 3, 0)
        spied = MixtureApproximation(fam, mix.weights, mix.pis.view(Pis))
        drawn = np.unique(sample_predictive(spied, 4, 3).member_index)
        assert drawn.size < len(fam) and read == set(drawn.tolist())

    def test_uniform_on_a_cdf_step_takes_the_next_leaf(self):
        # Generator.choice searches its CDF to the right: a uniform equal to
        # the CDF at leaf i picks leaf i + 1
        class Stub(np.random.Generator):
            def choice(self, k, size, p):
                return np.zeros(size, np.int64)

            def integers(self, low, high, size):
                return np.zeros(size, np.int64)

            def random(self, size):
                return np.array([0.25, 0.5, 0.75, 0.0] + [0.5] * 4)[:size]

        fam = SegmentationFamily((build((1, 1), 1),))
        mix = MixtureApproximation(fam, np.ones(1), np.full((1, 1, 4), 0.25))
        sample = sample_predictive(mix, 4, Stub(np.random.PCG64(0)))
        points, leaf = sample.points, sample.leaf_index
        assert leaf.tolist() == [1, 2, 3, 0]
        assert points[:, 0].tolist() == [0.375, 0.625, 0.875, 0.125]

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, "zeros"])
    def test_rejects_a_malformed_drawn_law(self, fitted, bad):
        # a hand-built mixture's drawn rows are checked as Generator.choice
        # checks its probabilities
        mix = build_mixture(fitted, 2, 0)
        pis = np.zeros_like(mix.pis) if bad == "zeros" else np.where(np.arange(mix.pis.shape[-1]) == 3, bad, mix.pis)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="leaf probabilities"):
            sample_predictive(MixtureApproximation(mix.family, mix.weights, pis), 20, 0)

    @given(st.integers(1, 5).flatmap(lambda ndim: st.lists(st.integers(1, ndim), min_size=1, max_size=12).map(lambda dims: build(dims, ndim))))
    def test_leaf_boxes_match_halving_loop(self, seg):
        for a, b in zip(leaf_boxes(seg), _reference_leaf_boxes(seg)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("family", [ragged5_family, studies.quantreg_family, STREAM_FAMILIES["balanced3"]])
    def test_analytic_box_mass_matches_reference_boxes(self, family):
        fam = family()
        model = fit(np.random.default_rng(4).beta(2.0, 3.0, size=(60, fam.ndim)), fam, 0.5)
        pad = (0.0,) * (fam.ndim - 2), (1.0,) * (fam.ndim - 2)
        region = [Box((0.05, 0.1) + pad[0], (0.4, 0.55) + pad[1]), Box((0.6, 0.0) + pad[0], (0.9, 0.3) + pad[1])]
        for obj in (model, build_mixture(model, 3, 2)):
            assert predictive_probability(region, obj).value == _reference_box_mass(region, obj)

    @pytest.mark.parametrize(
        "family", [ragged5_family, studies.quantreg_family, STREAM_FAMILIES["balanced3"]], ids=["ragged5", "quantreg", "balanced3"]
    )
    def test_overlapping_union_equals_disjoint_partition(self, family):
        # a box inside another, a corner overlap and a box sharing a face:
        # the union, and the same region cut by hand into disjoint boxes
        fam = family()
        model = fit(np.random.default_rng(5).beta(2.0, 3.0, size=(60, fam.ndim)), fam, 0.5)
        pad = (0.0,) * (fam.ndim - 2), (1.0,) * (fam.ndim - 2)
        box = lambda lo, hi: Box(lo + pad[0], hi + pad[1])
        union = [box((0.1, 0.1), (0.6, 0.5)), box((0.2, 0.2), (0.3, 0.3)), box((0.4, 0.3), (0.8, 0.9)), box((0.6, 0.1), (0.8, 0.3))]
        partition = [box((0.1, 0.1), (0.6, 0.5)), box((0.6, 0.1), (0.8, 0.9)), box((0.4, 0.5), (0.6, 0.9))]
        for obj in (model, build_mixture(model, 3, 2)):
            got, want = (predictive_probability(r, obj).value for r in (union, partition))
            assert got == pytest.approx(want, abs=1e-12)


RNG_FORMS = {
    "int": lambda: 5,
    "numpy-int": lambda: np.int64(5),
    "seed-sequence": lambda: np.random.SeedSequence(5),
    "bit-generator": lambda: np.random.PCG64(5),
    "generator": lambda: np.random.default_rng(5),
}


@pytest.mark.parametrize("form", sorted(RNG_FORMS))
def test_every_rng_form_gives_the_same_stream(fitted, form):
    # default_rng takes each form, and all five name the same PCG64 stream
    make, seed = RNG_FORMS[form], (5 if form.endswith("int") else None)
    ref = build_mixture(fitted, 3, 5)
    mix = build_mixture(fitted, 3, make())
    assert mix.seed == seed and all(np.array_equal(a, b) for a, b in zip(mix.pis, ref.pis))
    for sampler, obj in ((sample_predictive, ref), (sample_posterior_predictive, fitted)):
        got, want = sampler(obj, 50, make()), sampler(obj, 50, 5)
        assert got.seed == seed and np.array_equal(got.points, want.points)
