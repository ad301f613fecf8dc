import json

import numpy as np
import pytest

from polyatree.simharness import studies
from polyatree.simharness.densities import LogisticStripDensity, PiecewiseLinearDensity


def read_meta(path):
    with open(path) as fh:
        first = fh.readline()
    assert first.startswith("# ")
    return json.loads(first[2:])


class TestWriteCsv:
    def test_meta_header_then_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        studies.write_csv(path, ["a", "b"], [(1, 2), (3, 4)], {"seed": 7})
        meta = read_meta(path)
        assert meta == {"seed": 7}
        lines = path.read_text().splitlines()
        assert lines[1] == "a,b" and lines[2] == "1,2"


class TestFamilies:
    def test_quantreg_family(self):
        fam = studies.quantreg_family()
        assert len(fam) == 70
        assert all(seg.depth == 8 for seg in fam)

    def test_highdim_family_size(self):
        fam = studies.highdim_family()
        assert len(fam) == 1960
        assert all(seg.dims[:2] == (10, 9) for seg in fam)
        assert all(seg.depth == 10 for seg in fam)

    def test_move_prefix_to_suffix(self):
        seg = studies.highdim_family()[0]
        rotated = studies.move_prefix_to_suffix(seg)
        assert rotated.dims == seg.dims[2:] + (10, 9)


class TestTable1:
    def test_weights_and_csv(self, tmp_path):
        res = studies.run_table1(out=tmp_path)
        for a0, target in studies.TABLE1_TARGETS.items():
            assert np.all(np.abs(res.weights[a0] - np.array(target)) <= 0.005)
        meta = read_meta(tmp_path / "table1.csv")
        assert meta["study"] == "table1"

    def test_repeated_a0_counts_once(self, tmp_path):
        studies.run_table1((1.0, 1.0), out=tmp_path / "twice")
        studies.run_table1((1.0,), out=tmp_path / "once")
        assert (tmp_path / "twice" / "table1.csv").read_text() == (tmp_path / "once" / "table1.csv").read_text()


class TestPriorCdf:
    def test_dispersion_decreases_and_curves_are_cdfs(self, tmp_path):
        res = studies.run_prior_cdf_study((0.1, 1.0, 10.0), draws=20, depth=8, seed=3, out=tmp_path)
        d = res.dispersion_median
        assert d[0.1] > d[1.0] > d[10.0]
        for mat in res.curves.values():
            assert np.allclose(mat[:, 0], 0.0)
            assert np.allclose(mat[:, -1], 1.0)
            assert np.all(np.diff(mat, axis=1) >= -1e-15)
        assert (tmp_path / "prior_cdf.csv").exists()

    def test_repeated_a0_counts_once(self):
        twice = studies.run_prior_cdf_study((1.0, 1.0), draws=3, depth=4)
        once = studies.run_prior_cdf_study((1.0,), draws=3, depth=4)
        assert list(twice.curves) == [1.0] and np.array_equal(twice.curves[1.0], once.curves[1.0])
        assert twice.dispersion_median == once.dispersion_median

    def test_huge_a0_tracks_the_diagonal(self):
        res = studies.run_prior_cdf_study((1e6,), draws=10, depth=10, seed=0)
        mat = res.curves[1e6]
        grid = np.arange(mat.shape[1]) / (mat.shape[1] - 1)
        assert np.max(np.abs(mat - grid)) < 1e-2

    def test_reproducible(self):
        a = studies.run_prior_cdf_study((1.0,), draws=5, depth=6, seed=11)
        b = studies.run_prior_cdf_study((1.0,), draws=5, depth=6, seed=11)
        assert np.array_equal(a.curves[1.0], b.curves[1.0])


class TestOneDimStudy:
    def test_smoothing_wins_at_fine_depth(self):
        rep = studies.run_1d_study(m=50, a0=1.0, runs=300, depths=(10,), seed=11)
        ratio = rep.rmse_curves["counts_analytic_L10"] / rep.rmse_curves["hbeta_L10"]
        assert ratio.mean() >= 2.0

    def test_equal_error_regime(self):
        # coarse depth, larger sample, light smoothing: estimators match
        rep = studies.run_1d_study(m=200, a0=0.1, runs=500, depths=(3,), seed=12)
        ratio = rep.rmse_curves["counts_analytic_L3"] / rep.rmse_curves["hbeta_L3"]
        assert ratio.mean() == pytest.approx(1.0, abs=0.15)

    def test_simulated_counts_match_analytic_baseline(self):
        rep = studies.run_1d_study(m=100, a0=1.0, runs=400, depths=(4,), seed=5)
        sim = rep.rmse_curves["counts_L4"]
        ana = rep.rmse_curves["counts_analytic_L4"]
        assert np.median(np.abs(sim - ana) / ana) < 0.15

    def test_repeated_depth_counts_once(self):
        a = studies.run_1d_study(m=50, a0=1.0, runs=3, depths=(3, 3), seed=1)
        b = studies.run_1d_study(m=50, a0=1.0, runs=3, depths=(3,), seed=1)
        for x, y in ((a.mean_curves, b.mean_curves), (a.rmse_curves, b.rmse_curves)):
            assert x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)

    def test_csv_output(self, tmp_path):
        studies.run_1d_study(m=20, a0=1.0, runs=5, depths=(3,), seed=0, out=tmp_path)
        meta = read_meta(tmp_path / "sim1d.csv")
        assert meta["study"] == "sim1d" and meta["seed"] == 0

    def test_bit_reproducible(self):
        a = studies.run_1d_study(m=20, a0=1.0, runs=10, depths=(4,), seed=42)
        b = studies.run_1d_study(m=20, a0=1.0, runs=10, depths=(4,), seed=42)
        assert np.array_equal(a.rmse_curves["hbeta_L4"], b.rmse_curves["hbeta_L4"])
        c = studies.run_2d_study(m=20, a0=1.0, runs=8, seed=7, grid=64)
        d = studies.run_2d_study(m=20, a0=1.0, runs=8, seed=7, grid=64)
        assert np.array_equal(c.x2["XXXX"], d.x2["XXXX"])


class TestTwoDimStudy:
    def test_approximation_errors_match_published(self):
        density = LogisticStripDensity()
        fam = studies.segmentations_2d()
        expected = {"XXXX": 0.066, "YYYY": 0.894, "XXYY": 0.199, "YYXX": 0.199}
        for name, seg in zip(studies.SEG_2D_NAMES, fam):
            val = studies.approximation_rmse(seg, density, grid=512)
            assert val == pytest.approx(expected[name], abs=0.002)

    def test_run_invariants(self, tmp_path):
        rep = studies.run_2d_study(m=50, a0=1.0, runs=40, seed=13, grid=128, out=tmp_path)
        for name in studies.SEG_2D_NAMES:
            # X2 is the sum of squared residuals by construction
            assert np.allclose(
                rep.x2[name], np.sum(rep.pearson_residuals[name] ** 2, axis=1)
            )
            assert rep.posterior_weights[name].shape == (40,)
        weights = np.column_stack([rep.posterior_weights[n] for n in studies.SEG_2D_NAMES])
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert (tmp_path / "sim2d_runs.csv").exists()

    def test_histogram_x2_has_expected_mean(self):
        rep = studies.run_2d_study(m=50, a0=1.0, runs=400, seed=21, grid=64)
        # expectation is exactly #cells - 1 = 15; heavy tails need slack
        assert np.mean(rep.x2["counts_YYYY"]) == pytest.approx(15.0, abs=1.5)


class TestQuantregStudy:
    def test_empty_sample_quantiles_flat(self):
        res = studies.run_quantreg_study(
            m=0, seed=0, draws_per_seg=5, n_samples=50, y_grid_size=5
        )
        for q, curve in res.posterior_quantiles_exact.items():
            assert np.allclose(curve, q, atol=1e-12)
        assert np.all(res.band.lower == 0.0)
        assert np.all(res.band.upper == 1.0)

    def test_small_run_outputs(self, tmp_path):
        res = studies.run_quantreg_study(
            m=25, seed=4, draws_per_seg=5, n_samples=100, y_grid_size=9, out=tmp_path
        )
        assert res.observations.shape == (25, 2)
        assert res.samples.points.shape == (100, 2)
        assert res.loo_scores.shape == (25,)
        for name in (
            "quantreg_observations.csv",
            "quantreg_samples.csv",
            "quantreg_true_quantiles.csv",
            "quantreg_posterior_quantiles.csv",
            "quantreg_scores.csv",
            "quantreg_band.csv",
        ):
            assert (tmp_path / name).exists()
        meta = read_meta(tmp_path / "quantreg_band.csv")
        assert meta["m"] == 25 and meta["seed"] == 4
        region = json.loads((tmp_path / "quantreg_credible_region.json").read_text())
        assert region["alpha"] == 0.10 and len(region["boxes"]) == 16


class TestHighdimStudy:
    def test_structure_recovery_and_outputs(self, tmp_path):
        res = studies.run_highdim_study(m=400, n=500, seed=1, out=tmp_path)
        assert len(res.model.family) == 1960
        best = int(np.argmax(res.log_unnormalized))
        assert res.pairs[best] == (1, 2)
        drops = res.log_unnormalized - res.log_unnormalized_swapped
        assert np.all(drops > 0)
        assert sum(res.predictive_props.values()) == pytest.approx(1.0)
        for name in ("highdim_logweights.csv", "highdim_samples.csv", "highdim_xprops.csv"):
            assert (tmp_path / name).exists()
        meta = read_meta(tmp_path / "highdim_logweights.csv")
        assert meta["n_members"] == 1960


def test_default_density_positive_everywhere():
    d = PiecewiseLinearDensity((0.0, 0.25, 0.75, 1.0), (0.5, 0.5, 1.5, 1.5))
    grid = np.linspace(0, 1, 101)
    assert np.all(d.pdf(grid) > 0)
