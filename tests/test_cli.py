import json

import numpy as np
import pytest

from polyatree.posterior import fit, mixture_predictive_density
from polyatree.predictive import build_mixture, sample_posterior_predictive, sample_predictive
from polyatree.segmentation import SegmentationFamily, build
from polyatree.simharness.cli import _load_model, _save_model, main


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


    def test_saved_model_reloads_bit_for_bit(self, tmp_path, rng):
        # seven depth-4 members in four split-count classes; the loader
        # stacks the per-member trees into one stack again
        dims = [(1, 2, 1, 2), (2, 2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 1)]
        fam = SegmentationFamily(tuple(build(d, 2) for d in dims))
        model = fit(rng.uniform(size=(57, 2)) ** 2, fam, 0.7)
        _save_model(model, tmp_path / "m")
        loaded = _load_model(tmp_path / "m")
        assert len(loaded.stack.levels) == len(model.stack.levels) == 5
        for x, y in zip(model.stack.levels, loaded.stack.levels):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        saved = json.loads((tmp_path / "m" / "counts.json").read_text())["counts"]
        assert len(saved) == len(fam)
        for j, tree in enumerate(saved):  # one tree per member: row j of every level
            assert tree == {"m": 57, "levels": [l[j].tolist() for l in model.stack.levels[1:]]}
        for name in ("a0", "m"):
            assert getattr(model, name) == getattr(loaded, name)
        assert np.array_equal(model.log_weights, loaded.log_weights)
        assert np.array_equal(model.log_unnormalized, loaded.log_unnormalized)
        pts = rng.uniform(size=(300, 2))
        assert np.array_equal(mixture_predictive_density(pts, model), mixture_predictive_density(pts, loaded))
        for draw in (
            lambda obj: sample_posterior_predictive(obj, 500, 3),
            lambda obj: sample_predictive(build_mixture(obj, 4, 5), 500, 6),
        ):
            a, b = draw(model), draw(loaded)
            for name in ("points", "member_index", "draw_index", "leaf_index"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


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

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_density_grid_below_one_exits_2(self, tmp_path, rng, capsys, grid):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(6, 2)))
        model_dir = tmp_path / "model"
        main(["fit", "--data", str(data_path), "--splits", "1:1,2:1", "--out", str(model_dir)])
        assert main(["density", "--model", str(model_dir), "--grid", grid, "--out", str(tmp_path / "d")]) == 2
        assert "grid must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_conformal_grid_below_two_exits_2(self, tmp_path, rng):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(5, 2)))
        code = main(
            ["conformal", "--data", str(data_path), "--grid", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda model, counts: counts["counts"].pop(),  # fewer trees than members
            lambda model, counts: model.update(m=model["m"] + 1),  # m disagrees with the trees
            lambda model, counts: counts["counts"][0].update(
                levels=counts["counts"][0]["levels"][:-1]  # tree shallower than its member
            ),
        ],
        ids=["fewer-trees", "m-mismatch", "depth-mismatch"],
    )
    @pytest.mark.parametrize("command", [["density", "--grid", "2"], ["sample", "--n", "5"]])
    def test_counts_not_matching_model_exit_2(self, tmp_path, rng, corrupt, command):
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(12, 2)))
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data_path), "--splits", "1:1,2:1", "--out", str(model_dir)]) == 0
        model = json.loads((model_dir / "model.json").read_text())
        counts = json.loads((model_dir / "counts.json").read_text())
        corrupt(model, counts)
        (model_dir / "model.json").write_text(json.dumps(model))
        (model_dir / "counts.json").write_text(json.dumps(counts))
        code = main([command[0], "--model", str(model_dir), *command[1:], "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command", [["density", "--grid", "2"], ["sample", "--n", "5"]])
    def test_model_mixing_depths_exits_2(self, tmp_path, rng, capsys, command):
        # model.json and counts.json agree, but member 0 is cut to depth 1
        data_path = tmp_path / "data.csv"
        write_points_csv(data_path, rng.uniform(size=(12, 2)))
        model_dir = tmp_path / "model"
        assert main(["fit", "--data", str(data_path), "--splits", "1:1,2:1", "--out", str(model_dir)]) == 0
        model = json.loads((model_dir / "model.json").read_text())
        counts = json.loads((model_dir / "counts.json").read_text())
        model["family"]["members"][0] = model["family"]["members"][0][:1]
        counts["counts"][0]["levels"] = counts["counts"][0]["levels"][:1]
        (model_dir / "model.json").write_text(json.dumps(model))
        (model_dir / "counts.json").write_text(json.dumps(counts))
        code = main([command[0], "--model", str(model_dir), *command[1:], "--out", str(tmp_path / "o")])
        assert code == 2 and "share one depth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sim1d", "--m", "0", "--runs", "2", "--levels", "3"], "m"),
            (["sim1d", "--runs", "0", "--levels", "3"], "runs"),
            (["sim2d", "--m", "0", "--runs", "2", "--grid", "8"], "m"),
            (["sim2d", "--runs", "0", "--grid", "8"], "runs"),
            (["sim2d", "--m", "5", "--runs", "2", "--grid", "0"], "grid"),
            (["prior-cdf", "--runs", "0", "--levels", "3"], "draws"),
        ],
        ids=["sim1d-m", "sim1d-runs", "sim2d-m", "sim2d-runs", "sim2d-grid", "prior-cdf-runs"],
    )
    def test_study_size_below_one_exits_2(self, tmp_path, capsys, argv, name):
        # a study divides by these sizes: zero would write nan rows
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert f"{name} must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
