import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp
from scipy.stats import betabinom

from polyatree.hbeta import accumulate_counts, conditional_predictive_density, counts_from_leaf_counts
from polyatree.posterior import (
    IncrementalModel,
    LogGammaTables,
    PosteriorModel,
    _levels,
    _log_normalize,
    fit,
    log_unnormalized_weight,
)
from polyatree.predictive import grid_mass_matrix, mixture_predictive_density
from polyatree.segmentation import (
    SegmentationFamily,
    _leaves,
    _locate,
    _nodes,
    build,
    enumerate_balanced_family,
    union_families,
)
from polyatree.simharness.studies import (
    TABLE1_TARGETS,
    highdim_family,
    move_prefix_to_suffix,
    quantreg_family,
    table1_family,
    table1_points,
)


def member_counts(model, j):
    """Member j's counts: row j of every level of the model's count stack."""
    return tuple(l[j] for l in model.stack)


def oracle_log_weight(points, seg, a0):
    """Beta-binomial chain down the tree plus the log reciprocal multinomial
    coefficient of the leaf counts, from an independent recount: floor
    binning per level, node counts by np.unique, scipy's betabinom."""
    node = np.zeros(points.shape[0], dtype=np.int64)
    done = np.zeros(seg.ndim, dtype=np.int64)
    total = 0.0
    for d in seg.dims:
        done[d - 1] += 1
        cells = 2 ** done[d - 1]
        cell = np.minimum(np.floor(points[:, d - 1] * cells), cells - 1).astype(np.int64)
        child = 2 * node + cell % 2
        parents, n = np.unique(node, return_counts=True)
        lower = np.array([np.sum(child == 2 * p) for p in parents])
        total += np.sum(betabinom.logpmf(lower, n, a0, a0))
        node = child
    _, leaf = np.unique(node, return_counts=True)
    return total + np.sum(gammaln(leaf + 1.0)) - gammaln(points.shape[0] + 1.0)


def oracle_points(seed, m, ndim):
    """Uniform points with a share on dyadic boundaries and at 1.0."""
    gen = np.random.default_rng(seed)
    pts = gen.uniform(size=(m, ndim))
    edge = gen.uniform(size=pts.shape) < 0.3
    pts[edge] = gen.integers(0, 33, size=int(edge.sum())) / 32
    return pts


# one depth from 2 to 5, then 2 to 6 distinct orderings over {x, y} of it
dims_2_to_5 = st.integers(2, 5).flatmap(
    lambda depth: st.lists(
        st.lists(st.integers(1, 2), min_size=depth, max_size=depth).map(tuple),
        min_size=2,
        max_size=min(6, 2**depth),
        unique=True,
    )
)


def pair_union(pairs, prefix, splits):
    """As the highdim study's family, in 3-D: one balanced pair family per
    pair behind a common prefix, one split-count class each."""
    fams = [enumerate_balanced_family(3, {a: splits, b: splits}, prefix) for a, b in pairs]
    return union_families(fams)


def small_highdim():
    return highdim_family(ndim=5, prefix=(5,), candidate_dims=range(1, 4), splits=2)


EDGE_FAMILIES = {
    "quantreg": quantreg_family,
    "highdim": small_highdim,
    # depth 4, three split-count classes; one member never splits x, one never splits y
    "ragged": lambda: SegmentationFamily(
        tuple(build(d, 2) for d in [(1, 2, 1, 2), (2, 2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 2)])
    ),
    "union": lambda: pair_union([(1, 2), (1, 3), (2, 3)], (3,), 2),
    "table1": table1_family,
    "swapped": lambda: SegmentationFamily(tuple(map(move_prefix_to_suffix, small_highdim()))),
}


class TestLogGammaTables:
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

    @pytest.mark.parametrize("m", [0, 1, 37, 400])
    def test_counts_match_per_member_counts(self, m):
        # three split-count classes of six members each; each member's count
        # stack is its class's cell counts permuted through its leaf table
        fam = highdim_family(ndim=5, prefix=(5,), candidate_dims=range(1, 4), splits=2)
        pts = oracle_points(m, m, 5)
        model = fit(pts, fam, 1.0)
        for j, seg in enumerate(fam):
            counts, ref = member_counts(model, j), accumulate_counts(pts, seg)
            assert all(np.array_equal(a, b) for a, b in zip(counts, ref))

    @pytest.mark.parametrize("m", [0, 1, 37])
    def test_m_and_log_weights_read_from_stack(self, m):
        # a fit holds family, flat counts, a0 and unnormalized log weights;
        # the sample size is the stack's root and the weights are normalized
        fam = highdim_family(ndim=5, prefix=(5,), candidate_dims=range(1, 4), splits=2)
        model = fit(oracle_points(m, m, 5), fam, 1.0)
        assert [f.name for f in dataclasses.fields(model)] == ["family", "counts", "a0", "log_unnormalized"]
        assert model.m == m and np.all(model.stack[0] == m)
        lu = model.log_unnormalized
        assert np.array_equal(model.log_weights, lu - logsumexp(lu)) and model.log_weights is model.log_weights
        assert np.array_equal(model.weights, np.exp(model.log_weights))

    def test_stack_root_count_is_m(self):
        # every member of a stack shares the root count
        model = fit(np.random.default_rng(3).uniform(size=(50, 2)), quantreg_family(), 1.0)
        assert model.m == 50 and np.all(model.stack[0] == 50)

    def test_rejects_malformed_counts(self):
        # counts are one flat signed integer buffer holding every member's
        # nodes; unsigned counts could not take a removal's -1
        model = fit(np.random.default_rng(3).uniform(size=(5, 2)), quantreg_family(), 1.0)
        family, counts, lu = model.family, model.counts, model.log_unnormalized
        bad = [counts[:-1], np.append(counts, 0), counts.reshape(len(family), -1), counts.astype(float), list(counts)]
        for wrong in bad + [counts.astype(np.uint64), model.stack]:
            with pytest.raises(ValueError, match="1-D signed integer array"):
                PosteriorModel(family, wrong, 1.0, lu)
        assert PosteriorModel(family, counts.copy(), 1.0, lu).m == 5

    @pytest.mark.parametrize("name", EDGE_FAMILIES)
    @pytest.mark.parametrize("m", [0, 1, 37, 400])
    def test_edge_weights_match_member_weights(self, name, m):
        # each member's weight is the sum of its lattice edges' terms, each
        # summed on another member's stack row; the oracle weighs the member
        fam = EDGE_FAMILIES[name]()
        pts = oracle_points(m + 3, m, fam.ndim)
        for a0 in (0.05, 1.0):
            got = fit(pts, fam, a0).log_unnormalized
            ref = np.array([log_unnormalized_weight(accumulate_counts(pts, seg), a0) for seg in fam])
            assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize(
        "fam, per_level",
        [
            (quantreg_family(), [2, 4, 6, 8, 8, 6, 4, 2]),
            (highdim_family(), [1, 1, 8, 64, 120, 176, 224, 168, 112, 56]),
        ],
    )
    def test_edge_counts(self, fam, per_level):
        # quantreg: 40 edges for 560 member-levels; highdim: 930 for 19,600
        reps, edge = fam._edges
        assert [r.size for r in reps] == per_level
        assert edge.shape == (len(per_level), len(fam))
        assert np.array_equal(edge.max(axis=1) + 1, per_level)
        dims = np.array([seg.dims for seg in fam])
        for l, rows in enumerate(reps):
            # a representative takes its own edge, and an edge's members split
            # the same dimension at l after the same split counts before it
            assert np.array_equal(edge[l, rows], np.arange(rows.size))
            rep = rows[edge[l]]
            assert np.array_equal(dims[rep, l], dims[:, l])
            before = [np.sort(dims[:, :l], axis=1), np.sort(dims[rep, :l], axis=1)]
            assert np.array_equal(*before)

    def test_export_obj(self, rng):
        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        model = fit(rng.uniform(size=(6, 2)), fam, 1.0)
        obj = model.to_json_obj()
        assert set(obj) == {"family", "a0", "leaf_counts", "log_unnormalized"}
        rows = model.weight_rows()
        assert len(rows) == len(fam) and rows[0][0] == "[1, 2]"


class TestLogNormalize:
    @given(
        values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=200),
        scale=st.floats(1e-3, 5000.0),
        ties=st.integers(0, 5),
    )
    def test_equals_scipy_bit_for_bit(self, values, scale, ties):
        # the first `ties` entries are set to the maximum, so maximal terms
        # come alone and tied
        x = np.array(values) * scale
        x[:ties] = x.max()
        assert np.array_equal(_log_normalize(x), x - logsumexp(x))

    def test_incremental_log_weights_equal_scipy(self, rng):
        inc = IncrementalModel(fit(rng.uniform(size=(30, 2)), quantreg_family(), 0.7))
        inc.add_point(np.array([0.3, 0.8]))
        lu = inc.log_unnormalized
        assert np.array_equal(inc.log_weights, lu - logsumexp(lu))


class TestWeightOracle:
    @given(
        splits=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda k: 2 <= sum(k) <= 5),
        m=st.integers(0, 60),
        a0=st.floats(0.05, 20.0),
        seed=st.integers(0, 10_000),
    )
    def test_balanced_family(self, splits, m, a0, seed):
        fam = enumerate_balanced_family(2, {1: splits[0], 2: splits[1]})
        pts = oracle_points(seed, m, 2)
        ref = [oracle_log_weight(pts, seg, a0) for seg in fam]
        np.testing.assert_allclose(fit(pts, fam, a0).log_unnormalized, ref, rtol=1e-12)

    @given(
        dims=dims_2_to_5,
        m=st.integers(0, 60),
        a0=st.floats(0.05, 20.0),
        seed=st.integers(0, 10_000),
    )
    def test_ragged_family(self, dims, m, a0, seed):
        fam = SegmentationFamily(tuple(build(d, 2) for d in dims))
        pts = oracle_points(seed, m, 2)
        ref = [oracle_log_weight(pts, seg, a0) for seg in fam]
        np.testing.assert_allclose(fit(pts, fam, a0).log_unnormalized, ref, rtol=1e-12)

    @given(
        pairs=st.lists(st.sampled_from([(1, 2), (1, 3), (2, 3)]), min_size=1, max_size=3, unique=True),
        prefix=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        splits=st.integers(1, 2),
        m=st.integers(0, 60),
        a0=st.floats(0.05, 20.0),
        seed=st.integers(0, 10_000),
    )
    def test_union_of_pair_families(self, pairs, prefix, splits, m, a0, seed):
        fam = pair_union(pairs, prefix, splits)
        pts = oracle_points(seed, m, 3)
        ref = [oracle_log_weight(pts, seg, a0) for seg in fam]
        np.testing.assert_allclose(fit(pts, fam, a0).log_unnormalized, ref, rtol=1e-12)


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
            conditional_predictive_density(pts, member_counts(model, 0), seg, 0.8),
        )

    @given(
        dims=dims_2_to_5,
        a0=st.floats(0.05, 20.0),
        seed=st.integers(0, 10_000),
    )
    def test_ragged_family_matches_weighted_chains(self, dims, a0, seed):
        fam = SegmentationFamily(tuple(build(d, 2) for d in dims))
        model = fit(oracle_points(seed, 25, 2), fam, a0)
        pts = np.vstack([oracle_points(seed + 1, 40, 2), [[1.0, 1.0], [0.5, 1.0], [1.0, 0.25]]])
        ref = sum(
            w * conditional_predictive_density(pts, member_counts(model, j), seg, a0)
            for j, (seg, w) in enumerate(zip(fam, model.weights))
        )
        np.testing.assert_allclose(mixture_predictive_density(pts, model), ref, rtol=1e-12)

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


class TestFlatCounts:
    @given(data=st.data(), ndim=st.integers(1, 4), depth=st.integers(1, 10))
    def test_nodes_gather_each_path_from_the_levels(self, data, ndim, depth):
        # flat counts are level-major, every member's level 0, then level 1,
        # and so on; a path's flat nodes read what each level holds on it,
        # and every level of the stack is a view of the model's counts
        member = st.lists(st.integers(1, ndim), min_size=depth, max_size=depth).map(tuple)
        family = SegmentationFamily(
            tuple(build(d, ndim) for d in data.draw(st.lists(member, min_size=1, max_size=5, unique=True)))
        )
        point = st.lists(st.floats(0.0, 1.0), min_size=ndim, max_size=ndim)
        rows = lambda least: st.lists(point, min_size=least, max_size=8)
        train, query = (np.array(data.draw(rows(least)), dtype=np.float64).reshape(-1, ndim) for least in (0, 1))
        model = fit(train, family, 1.0)
        stack, counts = model.stack, model.counts
        paths = _locate(query, family)  # (members, n, L)
        want = np.stack(
            [np.broadcast_to(stack[0], paths.shape[:2])]
            + [np.take_along_axis(stack[l], paths[..., l - 1], axis=1) for l in range(1, depth + 1)],
            axis=-1,
        )
        assert np.array_equal(counts[_nodes(_leaves(query, family), depth)], want)
        assert np.array_equal(counts, np.concatenate(stack, axis=None))
        assert all(np.shares_memory(level, counts) for level in stack)
        for a, b in zip(_levels(counts, len(family)), stack, strict=True):
            assert np.array_equal(a, b) and np.shares_memory(a, counts)


class TestIncrementalModel:
    @given(seed=st.integers(0, 5_000), a0=st.floats(0.05, 20.0))
    def test_matches_refit_after_updates(self, seed, a0):
        # the second family has two split-count classes and leaves empty
        # parents under the first split, where the count-ratio chain stops
        # early; the third is 3-D, 30 members at distinct flat offsets
        families = [
            enumerate_balanced_family(2, {1: 2, 2: 1}),
            SegmentationFamily((build((1, 1, 1), 2), build((2, 2, 1), 2))),
            enumerate_balanced_family(3, {1: 2, 2: 2, 3: 1}, prefix=(3,)),
        ]
        for fam, a in zip(families, (1.0, a0, a0)):
            gen = np.random.default_rng(seed)
            pts = gen.uniform(size=(12, fam.ndim))
            model = fit(pts, fam, a)
            inc = IncrementalModel(model)
            extra = gen.uniform(size=(3, fam.ndim))
            for u in extra:
                inc.add_point(u)
            inc.remove_point(pts[4])
            target = np.vstack([np.delete(pts, 4, axis=0), extra])
            ref = fit(target, fam, a)
            assert np.allclose(inc.log_unnormalized, ref.log_unnormalized, atol=1e-9)
            assert np.allclose(inc.log_weights, ref.log_weights, atol=1e-9)
            snap = inc.snapshot()
            assert snap.m == ref.m
            for la, lb in zip(snap.stack, ref.stack):
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
        for la, lb in zip(inc.snapshot().stack, model.stack):
            assert np.array_equal(la, lb)

    def test_parent_model_untouched(self, rng):
        fam = enumerate_balanced_family(2, {1: 1, 2: 1})
        pts = rng.uniform(size=(5, 2))
        model = fit(pts, fam, 1.0)
        before = model.log_unnormalized.copy()
        counts_before = [lvl.copy() for lvl in model.stack]
        inc = IncrementalModel(model)
        inc.add_point(np.array([0.3, 0.3]))
        assert np.array_equal(model.log_unnormalized, before)
        for a, b in zip(model.stack, counts_before):
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
            assert tuple(counts[-1]) == leaf
