import json

import numpy as np
import pytest

from polyatree.simharness.cli import main


def read_meta(path):
    with open(path) as fh:
        line = fh.readline()
    assert line.startswith("# ")
    return json.loads(line[2:])


def write_points_csv(path, points):
    with open(path, "w") as fh:
        fh.write(",".join(f"u{i+1}" for i in range(points.shape[1])) + "\n")
        for row in points:
            fh.write(",".join(f"{v:.8f}" for v in row) + "\n")


class TestStudyCommands:
    def test_table1(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["table1", "--out", str(out)]) == 0
        meta = read_meta(out / "table1.csv")
        assert meta["study"] == "table1"

    def test_prior_cdf(self, tmp_path):
        out = tmp_path / "pc"
        code = main(
            ["prior-cdf", "--a0", "0.5,2", "--levels", "5", "--runs", "4", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        meta = read_meta(out / "prior_cdf.csv")
        assert meta["draws"] == 4 and meta["depth"] == 5

    def test_sim1d(self, tmp_path):
        out = tmp_path / "s1"
        code = main(
            ["sim1d", "--m", "20", "--runs", "4", "--levels", "3,4", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert (out / "sim1d.csv").exists()

    def test_sim2d(self, tmp_path):
        out = tmp_path / "s2"
        code = main(
            ["sim2d", "--m", "20", "--runs", "4", "--grid", "64", "--out", str(out)]
        )
        assert code == 0
        assert (out / "sim2d_approx.csv").exists()
        assert (out / "sim2d_runs.csv").exists()

    def test_quantreg(self, tmp_path):
        out = tmp_path / "qr"
        code = main(
            [
                "quantreg",
                "--m", "15",
                "--draws-per-seg", "4",
                "--n-samples", "40",
                "--grid", "5",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "quantreg_band.csv").exists()

    def test_highdim(self, tmp_path):
        out = tmp_path / "hd"
        code = main(
            ["highdim", "--m", "120", "--n", "60", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        assert (out / "highdim_xprops.csv").exists()


class TestModelCommands:
    def test_fit_sample_density_roundtrip(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(30, 2)))
        model_dir = tmp_path / "model"
        assert (
            main(
                [
                    "fit",
                    "--data", str(data_path),
                    "--splits", "1:2,2:2",
                    "--a0", "1.0",
                    "--out", str(model_dir),
                ]
            )
            == 0
        )
        assert (model_dir / "model.json").exists()
        assert (model_dir / "counts.json").exists()
        weights_meta = read_meta(model_dir / "weights.csv")
        assert weights_meta["members"] == 6

        out = tmp_path / "samples"
        assert (
            main(
                [
                    "sample",
                    "--model", str(model_dir),
                    "--n", "50",
                    "--seed", "2",
                    "--draws-per-seg", "3",
                    "--out", str(out),
                ]
            )
            == 0
        )
        rows = (out / "samples.csv").read_text().splitlines()
        assert rows[1] == "u1,u2,member,draw"
        assert len(rows) == 52

        out2 = tmp_path / "dens"
        assert (
            main(
                ["density", "--model", str(model_dir), "--grid", "4", "--out", str(out2)]
            )
            == 0
        )
        lines = (out2 / "density.csv").read_text().splitlines()
        vals = np.array([float(line.split(",")[-1]) for line in lines[2:]])
        assert vals.size == 16
        assert vals.mean() == pytest.approx(1.0, abs=1e-8)  # density integrates to one

    def test_sample_exact_predictive_mode(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(10, 2)))
        model_dir = tmp_path / "model"
        main(["fit", "--data", str(data_path), "--splits", "1:1,2:1", "--out", str(model_dir)])
        out = tmp_path / "s"
        code = main(
            ["sample", "--model", str(model_dir), "--n", "20", "--draws-per-seg", "0", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "samples.csv").read_text().splitlines()[2:]
        assert all(row.split(",")[-1] == "-1" for row in rows)

    def test_conformal_command(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(8, 2)))
        out = tmp_path / "conf"
        code = main(
            [
                "conformal",
                "--data", str(data_path),
                "--alpha", "0.2",
                "--grid", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        band_lines = (out / "band.csv").read_text().splitlines()
        assert band_lines[1] == "x,y_lower,y_upper,alpha"
        assert len(band_lines) == 18  # 16 columns
        scores = (out / "scores.csv").read_text().splitlines()
        assert len(scores) == 10


class TestValidationFailures:
    def test_bad_split_dimension_exits_2(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(5, 2)))
        code = main(
            ["fit", "--data", str(data_path), "--splits", "5:2", "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code = main(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--splits", "1:1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_points_outside_cube_exit_2(self, tmp_path):
        data_path = tmp_path / "bad.csv"
        data_path.write_text("u1,u2\n0.5,1.7\n")
        code = main(
            ["fit", "--data", str(data_path), "--splits", "1:1,2:1", "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_density_needs_points_or_grid(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(6, 2)))
        model_dir = tmp_path / "model"
        main(["fit", "--data", str(data_path), "--splits", "1:1,2:1", "--out", str(model_dir)])
        assert main(["density", "--model", str(model_dir), "--out", str(tmp_path / "d")]) == 2

    def test_conformal_grid_below_two_exits_2(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(5, 2)))
        code = main(
            ["conformal", "--data", str(data_path), "--grid", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
