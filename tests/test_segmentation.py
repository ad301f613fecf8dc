import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyatree.segmentation import (
    Segmentation,
    SegmentationFamily,
    _locate,
    _unique_rows,
    build,
    enumerate_balanced_family,
    leaf_indices,
    locate,
    path_indices,
    union_families,
)
from polyatree.predictive import leaf_boxes


class TestBuild:
    def test_anisotropic_square(self):
        seg = build((1, 1, 1, 1), 2)
        assert seg.depth == 4
        assert tuple(seg.splits_per_dim()) == (4, 0)

    def test_single_split_halves(self):
        seg = build((1,), 1)
        lo, hi = leaf_boxes(seg)
        assert lo.tolist() == [[0.0], [0.5]]
        assert hi.tolist() == [[0.5], [1.0]]

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            build((1, 3), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build((), 2)

    def test_json_roundtrip(self):
        seg = build((1, 1, 2, 2), 2)
        assert Segmentation.from_json_obj(seg.to_json_obj(), 2) == seg


class TestLocate:
    def test_1d_interior(self):
        assert locate([0.3], build((1, 1), 1)).indices == (1, 2)

    def test_all_small_corner(self):
        for dims, ndim in [((1, 2, 1), 2), ((3, 1, 2, 2), 3)]:
            assert locate([0.0] * ndim, build(dims, ndim)).indices == tuple(
                [1] * len(dims)
            )

    def test_closed_upper_boundary(self):
        assert locate([1.0], build((1, 1), 1)).indices == (2, 4)

    def test_quadrants_small_values_first(self):
        # level-2 boxes of an x-then-y segmentation, enumerated lower half first
        seg = build((1, 2), 2)
        expected = {
            (0.25, 0.25): 1,
            (0.25, 0.75): 2,
            (0.75, 0.25): 3,
            (0.75, 0.75): 4,
        }
        for center, leaf in expected.items():
            path = locate(center, seg)
            assert path.leaf == leaf
        # box geometry of the four quadrants
        p = locate((0.25, 0.75), seg)
        lo, hi = p.bounds[-1]
        assert lo.tolist() == [0.0, 0.5] and hi.tolist() == [0.5, 1.0]

    def test_rejects_outside_cube(self):
        with pytest.raises(ValueError):
            locate([1.2], build((1,), 1))
        with pytest.raises(ValueError):
            locate([-0.1, 0.5], build((1, 2), 2))

    def test_bounds_track_splits(self):
        seg = build((2, 1, 2), 2)
        path = locate((0.6, 0.2), seg)
        # sides halve once per split of that dimension
        for level in range(seg.depth):
            lo, hi = path.bounds[level]
            splits = np.zeros(2)
            for d in seg.dims[: level + 1]:
                splits[d - 1] += 1
            assert np.allclose(hi - lo, 0.5**splits)


class TestPathIndices:
    def test_child_index_law_bulk(self, rng):
        # child is one of 2*parent-1, 2*parent in 1-based indexing
        for _ in range(20):
            ndim = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 9))
            seg = build(rng.integers(1, ndim + 1, size=depth), ndim)
            pts = rng.uniform(size=(500, ndim))
            paths = path_indices(pts, seg)
            assert np.all(paths[:, 0] <= 1)
            for l in range(1, depth):
                assert np.all(paths[:, l] >> 1 == paths[:, l - 1])

    def test_matches_locate(self, rng):
        seg = build((2, 1, 1, 2), 2)
        pts = rng.uniform(size=(50, 2))
        paths = path_indices(pts, seg)
        for i in range(50):
            assert tuple(paths[i] + 1) == locate(pts[i], seg).indices

    @given(data=st.data(), ndim=st.integers(1, 3))
    def test_family_location_matches_inline_binning(self, data, ndim):
        # after its k-th split of dimension d, a path has put the point in
        # bin min(floor(u_d * 2^k), 2^k - 1) along d, in every member
        # one depth, then distinct orderings of it: members of several classes
        member = lambda depth: st.lists(st.integers(1, ndim), min_size=depth, max_size=depth)
        members = st.integers(1, 7).flatmap(lambda depth: st.lists(member(depth), min_size=1, max_size=5, unique_by=tuple))
        ragged = members.map(lambda ms: SegmentationFamily(tuple(build(dims, ndim) for dims in ms)))
        # unions of pair families behind a prefix, as in the highdim study:
        # several classes of one depth
        pair = st.sampled_from(list(itertools.combinations(range(1, ndim + 1), 2)))
        pairs = st.lists(pair, min_size=1, unique=True)
        prefix = st.lists(st.integers(1, ndim), max_size=2).map(tuple)
        unions = st.builds(
            lambda pairs, prefix, splits: union_families(
                [enumerate_balanced_family(ndim, {a: splits, b: splits}, prefix) for a, b in pairs]
            ),
            pairs,
            prefix,
            st.integers(1, 2),
        )
        family = data.draw(st.one_of(ragged, unions) if ndim > 1 else ragged)
        dyadic = st.integers(0, 7).flatmap(lambda j: st.integers(0, 2**j).map(lambda k: k / 2**j))
        coord = st.one_of(st.floats(0.0, 1.0, allow_nan=False), dyadic, st.just(1.0))
        rows = st.lists(st.lists(coord, min_size=ndim, max_size=ndim), min_size=1, max_size=6)
        pts = np.array(data.draw(rows), dtype=np.float64)
        paths = _locate(pts, family)
        for j, seg in enumerate(family):
            assert np.array_equal(paths[j], path_indices(pts, seg))
            for u, path in zip(pts, paths[j]):
                cells, splits, parent = [0] * ndim, [0] * ndim, 0
                for level, d in enumerate(seg.dims):
                    assert path[level] >> 1 == parent
                    parent = int(path[level])
                    cells[d - 1] = 2 * cells[d - 1] + (parent & 1)
                    splits[d - 1] += 1
                    k = splits[d - 1]
                    assert cells[d - 1] == min(math.floor(u[d - 1] * 2**k), 2**k - 1)

    @given(
        data=st.data(),
        ndim=st.integers(1, 3),
        depth=st.integers(1, 6),
    )
    def test_located_box_contains_point(self, data, ndim, depth):
        dims = data.draw(
            st.lists(st.integers(1, ndim), min_size=depth, max_size=depth)
        )
        coords = data.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=ndim, max_size=ndim
            )
        )
        seg = build(dims, ndim)
        path = locate(coords, seg)
        lo, hi = path.bounds[-1]
        for x, a, b in zip(coords, lo, hi):
            assert a <= x <= b or (x == b)  # half-open except at the top face
        assert 1 <= path.leaf <= 2**depth

    @given(data=st.data(), ndim=st.integers(1, 5), depth=st.integers(1, 12))
    def test_bounds_match_halving_loop(self, data, ndim, depth):
        # the bounds that halving the located box once per level gives
        seg = build(data.draw(st.lists(st.integers(1, ndim), min_size=depth, max_size=depth)), ndim)
        coords = data.draw(st.lists(st.floats(0.0, 1.0), min_size=ndim, max_size=ndim))
        path = locate(coords, seg)
        lo, hi = np.zeros(ndim), np.ones(ndim)
        for box, dim, (a, b) in zip(path.indices, seg.dims, path.bounds):
            mid = 0.5 * (lo[dim - 1] + hi[dim - 1])
            if (box - 1) & 1:
                lo[dim - 1] = mid
            else:
                hi[dim - 1] = mid
            assert np.array_equal(a, lo) and np.array_equal(b, hi)


class TestTiling:
    def test_boxes_tile_cube(self, rng):
        for _ in range(10):
            ndim = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 8))
            seg = build(rng.integers(1, ndim + 1, size=depth), ndim)
            lo, hi = leaf_boxes(seg)
            assert np.isclose(np.prod(hi - lo, axis=1).sum(), 1.0, atol=0, rtol=0)

    def test_center_location_is_identity(self, rng):
        for _ in range(10):
            ndim = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 8))
            seg = build(rng.integers(1, ndim + 1, size=depth), ndim)
            lo, hi = leaf_boxes(seg)
            centers = 0.5 * (lo + hi)
            assert np.array_equal(
                leaf_indices(centers, seg), np.arange(2**depth)
            )


class TestFamilies:
    def test_balanced_70(self):
        fam = enumerate_balanced_family(2, {1: 4, 2: 4})
        assert len(fam) == 70
        assert fam[0].dims == (1, 1, 1, 1, 2, 2, 2, 2)
        assert fam[-1].dims == (2, 2, 2, 2, 1, 1, 1, 1)
        assert len({f.dims for f in fam}) == 70

    def test_canonical_1d(self):
        fam = enumerate_balanced_family(1, {1: 10})
        assert len(fam) == 1
        assert fam[0].dims == (1,) * 10

    def test_lexicographic_order(self):
        fam = enumerate_balanced_family(3, {1: 1, 2: 1, 3: 1})
        assert [f.dims for f in fam] == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (2, 3, 1),
            (3, 1, 2),
            (3, 2, 1),
        ]

    def test_prefix(self):
        fam = enumerate_balanced_family(3, {1: 1, 2: 1}, prefix=(3, 3))
        assert all(f.dims[:2] == (3, 3) for f in fam)
        assert len(fam) == 2

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            enumerate_balanced_family(2, {3: 2})
        with pytest.raises(ValueError):
            enumerate_balanced_family(2, {1: -1})
        with pytest.raises(ValueError):
            enumerate_balanced_family(2, {})

    def test_family_validation(self):
        seg = build((1, 2), 2)
        with pytest.raises(ValueError):
            SegmentationFamily((seg, seg))
        with pytest.raises(ValueError):
            SegmentationFamily(())

    def test_members_of_different_depths_rejected(self):
        with pytest.raises(ValueError, match="share one depth"):
            SegmentationFamily((build((1, 2), 2), build((1, 2, 1), 2)))
        obj = {"ndim": 2, "members": [[1], [1, 2]]}
        with pytest.raises(ValueError, match="share one depth"):
            SegmentationFamily.from_json_obj(obj)
        fam = SegmentationFamily((build((2, 1, 1), 2), build((1, 1, 2), 2)))
        assert fam.depth == 3 and fam._dims.shape == (2, 3)

    def test_union_of_different_depths_rejected(self):
        deep = enumerate_balanced_family(2, {1: 4, 2: 4})  # depth 8
        shallow = enumerate_balanced_family(2, {1: 2, 2: 2})  # depth 4
        with pytest.raises(ValueError, match="share one depth"):
            union_families([deep, shallow])

    def test_union_preserves_order_and_distinctness(self):
        a = enumerate_balanced_family(2, {1: 2})
        b = enumerate_balanced_family(2, {2: 2})
        fam = union_families([a, b])
        assert len(fam) == 2
        with pytest.raises(ValueError):
            union_families([a, a])

    def test_json_roundtrip(self):
        fam = enumerate_balanced_family(2, {1: 2, 2: 1})
        again = SegmentationFamily.from_json_obj(fam.to_json_obj())
        assert [s.dims for s in again] == [s.dims for s in fam]
        assert fam.to_json_obj()["members"][0] == [1, 1, 2]

    @pytest.mark.parametrize("shape, high", [((200, 3), 4), ((60, 70), 2), ((1, 5), 9), ((50, 4), 300)])
    def test_unique_rows_matches_record_unique(self, shape, high):
        rows = np.random.default_rng(shape[1]).integers(0, high, size=shape)
        ref = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        got = _unique_rows(rows)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
