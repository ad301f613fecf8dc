import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyatree.segmentation import (
    Segmentation,
    SegmentationFamily,
    _locate,
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
        member = st.lists(st.integers(1, ndim), min_size=1, max_size=7)
        members = data.draw(st.lists(member, min_size=1, max_size=5, unique_by=tuple))
        family = SegmentationFamily(tuple(build(dims, ndim) for dims in members))
        dyadic = st.integers(0, 7).flatmap(lambda j: st.integers(0, 2**j).map(lambda k: k / 2**j))
        coord = st.one_of(st.floats(0.0, 1.0, allow_nan=False), dyadic, st.just(1.0))
        rows = st.lists(st.lists(coord, min_size=ndim, max_size=ndim), min_size=1, max_size=6)
        pts = np.array(data.draw(rows), dtype=np.float64)
        paths = _locate(pts, family)
        for j, seg in enumerate(family):
            assert np.array_equal(paths[j, :, : seg.depth], path_indices(pts, seg))
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
