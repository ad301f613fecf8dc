import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from polyatree.encoding import (
    ColumnSchema,
    EncodingSpec,
    decode,
    encode,
    fit_encoding,
    read_schema,
    read_table,
)


def continuous_schema(names=("y",)):
    return [ColumnSchema(n, "continuous") for n in names]


CAT3 = ColumnSchema("x", "categorical", ("a", "b", "c"))


class TestFitEncoding:
    def test_sixteen_distinct_values_map_to_midpoints(self, rng):
        v = np.sort(rng.normal(size=16))
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        u, clamped = encode({"y": v}, spec)
        assert np.allclose(np.sort(u[:, 0]), (2 * np.arange(16) + 1) / 32)
        assert not clamped.any()

    def test_support_inflated_by_two_percent(self, rng):
        v = rng.uniform(size=200)
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        edges = spec.continuous[0].edges
        pad = (v.max() - v.min()) / 100
        assert edges[0] == pytest.approx(v.min() - pad)
        assert edges[-1] == pytest.approx(v.max() + pad)

    def test_balanced_bin_occupancy(self, rng):
        v = rng.normal(size=160)
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        u, _ = encode({"y": v}, spec)
        counts = np.bincount(np.minimum((u[:, 0] * 16).astype(int), 15), minlength=16)
        assert counts.min() >= 10 and counts.max() <= 10 + 1

    def test_rejects_too_few_distinct(self):
        with pytest.raises(ValueError):
            fit_encoding({"y": np.arange(10) % 5}, continuous_schema(), bins=16)

    def test_rejects_tied_quantile_edges(self):
        v = np.concatenate([np.zeros(100), np.arange(20)])
        with pytest.raises(ValueError):
            fit_encoding({"y": v}, continuous_schema(), bins=16)

    def test_rejects_non_power_of_two_bins(self, rng):
        with pytest.raises(ValueError):
            fit_encoding({"y": rng.normal(size=40)}, continuous_schema(), bins=12)

    def test_rejects_unknown_level(self):
        tab = {"x": np.array(["a", "d"], dtype=object)}
        with pytest.raises(ValueError):
            fit_encoding(tab, [CAT3], bins=4)

    def test_coordinates_continuous_then_dummies(self, rng):
        schema = continuous_schema(("p", "q")) + [CAT3]
        table = {
            "p": rng.normal(size=40),
            "q": rng.normal(size=40),
            "x": np.array(["a", "b", "c", "a"] * 10, dtype=object),
        }
        spec = fit_encoding(table, schema, bins=8)
        assert spec.ndim == 4
        assert [c.coord for c in spec.continuous] == [1, 2]
        assert spec.categorical[0].coords == (3, 4)


class TestEncode:
    def test_three_level_dummy_scheme(self, rng):
        table = {"y": rng.normal(size=30), "x": np.array(["a"] * 10 + ["b"] * 10 + ["c"] * 10, dtype=object)}
        spec = fit_encoding(table, continuous_schema() + [CAT3], bins=8)
        u, _ = encode(
            {"y": np.zeros(3), "x": np.array(["b", "c", "a"], dtype=object)}, spec
        )
        assert u[0, 1:].tolist() == [0.75, 0.25]
        assert u[1, 1:].tolist() == [0.25, 0.75]
        assert u[2, 1:].tolist() == [0.25, 0.25]

    def test_never_produces_double_high(self, rng):
        table = {"x": np.array(rng.choice(["a", "b", "c"], size=100), dtype=object)}
        spec = fit_encoding(table, [CAT3], bins=4)
        u, _ = encode(table, spec)
        assert not np.any((u[:, 0] >= 0.5) & (u[:, 1] >= 0.5))

    def test_value_in_inflated_margin_goes_to_boundary_bin(self, rng):
        v = np.arange(32, dtype=float)
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        low = spec.continuous[0].edges[0]
        u, clamped = encode({"y": np.array([low + 1e-9])}, spec)
        assert u[0, 0] == pytest.approx(1 / 32)
        assert not clamped[0]

    def test_outside_support_clamps_and_flags(self):
        v = np.arange(32, dtype=float)
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        u, clamped = encode({"y": np.array([-100.0, 200.0])}, spec)
        assert clamped.tolist() == [True, True]
        assert u[0, 0] == pytest.approx(1 / 32)
        assert u[1, 0] == pytest.approx(31 / 32)

    def test_unknown_level_rejected(self, rng):
        table = {"x": np.array(["a", "b", "c"] * 4, dtype=object)}
        spec = fit_encoding(table, [CAT3], bins=4)
        with pytest.raises(ValueError):
            encode({"x": np.array(["zzz"], dtype=object)}, spec)

    def test_four_level_categorical_uses_three_dummies(self, rng):
        col = ColumnSchema("x", "categorical", ("w", "x", "y", "z"))
        table = {"x": np.array(["w", "x", "y", "z"], dtype=object)}
        spec = fit_encoding(table, [col], bins=4)
        u, _ = encode(table, spec)
        assert u.shape == (4, 3)
        assert u[0].tolist() == [0.25, 0.25, 0.25]
        assert u[3].tolist() == [0.25, 0.25, 0.75]


class TestDecode:
    def test_midpoint_decodes_into_first_bin(self, rng):
        v = np.sort(rng.normal(size=64))
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        out = decode(np.array([[1 / 32]]), spec, rng)
        edges = spec.continuous[0].edges
        assert edges[0] <= out["y"][0] <= edges[1]

    def test_round_trip_lands_in_original_bin(self, rng):
        for _ in range(25):
            v = rng.normal(size=80) * rng.uniform(0.5, 3)
            spec = fit_encoding({"y": v}, continuous_schema(), bins=8)
            u, _ = encode({"y": v}, spec)
            back = decode(u, spec, rng)["y"]
            u2, _ = encode({"y": back}, spec)
            assert np.allclose(u[:, 0], u2[:, 0])

    def test_categorical_round_trip_exact(self, rng):
        labels = np.array(rng.choice(["a", "b", "c"], size=200), dtype=object)
        table = {"y": rng.normal(size=200), "x": labels}
        spec = fit_encoding(table, continuous_schema() + [CAT3], bins=16)
        u, _ = encode(table, spec)
        back = decode(u, spec, rng)
        assert np.array_equal(back["x"], labels)

    def test_double_high_dummies_rejected(self, rng):
        table = {"x": np.array(["a", "b", "c"] * 4, dtype=object)}
        spec = fit_encoding(table, [CAT3], bins=4)
        with pytest.raises(ValueError):
            decode(np.array([[0.75, 0.75]]), spec, rng)

    def test_off_grid_coordinates_accepted(self, rng):
        # predictive samples are uniform within bins, not on the midpoint grid
        v = np.sort(rng.normal(size=64))
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        pts = rng.uniform(size=(500, 1))
        out = decode(pts, spec, rng)["y"]
        edges = spec.continuous[0].edges
        assert np.all((out >= edges[0]) & (out <= edges[-1]))

    def test_marginal_preserved_through_uniform_resampling(self, rng):
        # decoding uniform bin draws reproduces the raw marginal, which is
        # what happens to variables the segmentation never splits
        v = rng.normal(size=400)
        spec = fit_encoding({"y": v}, continuous_schema(), bins=16)
        u = rng.uniform(size=(400, 1))
        decoded = decode(u, spec, rng)["y"]
        assert ks_2samp(v, decoded).pvalue > 0.01


class TestSerialization:
    def test_spec_json_roundtrip(self, rng):
        table = {"y": rng.normal(size=50), "x": np.array(["a", "b", "c"] * 16 + ["a", "b"], dtype=object)}
        spec = fit_encoding(table, continuous_schema() + [CAT3], bins=8)
        again = EncodingSpec.from_json_obj(json.loads(json.dumps(spec.to_json_obj())))
        assert again.bins == spec.bins and again.ndim == spec.ndim
        assert np.allclose(again.continuous[0].edges, spec.continuous[0].edges)
        assert again.categorical[0] == spec.categorical[0]

    def test_schema_and_table_io(self, tmp_path, rng):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "y", "kind": "continuous"},
                        {"name": "x", "kind": "categorical", "levels": ["a", "b", "c"]},
                    ]
                }
            )
        )
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("# {\"note\": 1}\ny,x\n0.5,a\n1.25,c\n")
        schema = read_schema(schema_path)
        table = read_table(csv_path, schema)
        assert table["y"].tolist() == [0.5, 1.25]
        assert table["x"].tolist() == ["a", "c"]

    @pytest.mark.parametrize("kind", ["continuous", "categorical"])
    def test_short_row_rejected(self, tmp_path, kind):
        # csv.DictReader fills the fields a short row lacks with None
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,b\n1,2\n3\n")
        schema = [ColumnSchema("a", "continuous"), ColumnSchema("b", kind, ("1", "2") if kind == "categorical" else ())]
        with pytest.raises(ValueError, match="column 'b' has no value in data row 2"):
            read_table(csv_path, schema)

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            ColumnSchema("x", "categorical", ("only",))
        with pytest.raises(ValueError):
            ColumnSchema("x", "other")

    def test_repeated_level_rejected(self):
        # a repeated level would be encoded as a non-reference dummy of its own
        with pytest.raises(ValueError, match="categorical column 'x' repeats a level"):
            ColumnSchema("x", "categorical", ("a", "b", "a"))

    @pytest.mark.parametrize(
        "obj, key", [({"columns": [{"name": "a"}]}, "kind"), ({"columns": [{"kind": "continuous"}]}, "name"),
                     ({"cols": []}, "columns")]
    )
    def test_schema_missing_key_rejected(self, tmp_path, obj, key):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"schema .* has no '{key}'"):
            read_schema(path)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15)
def test_encode_decode_bins_stable(seed):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=64)
    spec = fit_encoding({"y": v}, continuous_schema(), bins=8)
    u, _ = encode({"y": v}, spec)
    assert set(np.round(u[:, 0] * 16).astype(int) % 2) == {1}  # odd numerators only
    back = decode(u, spec, gen)["y"]
    u2, _ = encode({"y": back}, spec)
    assert np.array_equal(u, u2)
