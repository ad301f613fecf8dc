"""Command-line interface to the studies and to generic fit/sample/density runs.

Every output is CSV with a one-line JSON metadata comment.  Exit code 0
on success, 2 on validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .. import conformal as conf
from .. import predictive as pred
from ..posterior import PosteriorModel, fit
from ..segmentation import _check_count, as_points, enumerate_balanced_family
from . import studies


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_splits(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for tok in text.split(","):
        if not tok.strip():
            continue
        dim, _, count = tok.partition(":")
        out[int(dim)] = int(count)
    return out


def _read_points(path: str) -> np.ndarray:
    """Numeric CSV rows, of which only the first non-comment line may be a header."""
    rows, first = [], True
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(p) for p in line.split(",")])
            except ValueError:
                if not first:
                    raise ValueError(f"{path} line {number} is not a numeric row: {line!r}") from None
            first = False
    if not rows:
        raise ValueError(f"no numeric rows in {path}")
    return np.asarray(rows)


def _save_model(model: PosteriorModel, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "model.json"), "w") as fh:
        json.dump(model.to_json_obj(), fh)
    studies.write_csv(
        os.path.join(outdir, "weights.csv"),
        ["segmentation", "log_weight", "log_unnormalized"],
        model.weight_rows(),
        {"a0": model.a0, "m": model.m, "members": len(model.family)},
    )


def _load_model(indir: str) -> PosteriorModel:
    with open(os.path.join(indir, "model.json")) as fh:
        return PosteriorModel.from_json_obj(json.load(fh))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyatree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="conditional segmentation probability table")
    p.add_argument("--a0", default="0.1,1,10", help="comma-separated values")
    _add_common(p)

    p = sub.add_parser("prior-cdf", help="dispersion of the random step CDF")
    p.add_argument("--a0", default="0.1,1,10")
    p.add_argument("--levels", type=int, default=10)
    p.add_argument("--runs", type=int, default=50, help="CDF draws per a0")
    _add_common(p)

    p = sub.add_parser("sim1d", help="1-D estimation error study")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=500)
    p.add_argument("--levels", default="10,5,3")
    _add_common(p)

    p = sub.add_parser("sim2d", help="2-D estimation error and weight study")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=500)
    p.add_argument("--grid", type=int, default=1024, help="integration grid per axis")
    _add_common(p)

    p = sub.add_parser("quantreg", help="quantile regression and band study")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.05, help="per-side conformal level")
    p.add_argument("--draws-per-seg", type=int, default=50)
    p.add_argument("--n-samples", type=int, default=2000)
    p.add_argument("--grid", type=int, default=None, help="conformal y-grid size")
    _add_common(p)

    p = sub.add_parser("conformal", help="conformal band for a 2-D data file")
    p.add_argument("--data", required=True, help="CSV of points in the unit square")
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=None, help="y-grid size (default bins+midpoints)")
    p.add_argument(
        "--draws-per-seg",
        type=int,
        default=0,
        help="posterior draws per segmentation for scores; 0 = exact predictive CDF",
    )
    _add_common(p)

    p = sub.add_parser("highdim", help="mixed-data structure recovery study")
    p.add_argument("--m", type=int, default=400)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--a0", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("fit", help="fit a model to cube points")
    p.add_argument("--data", required=True, help="CSV of points in the unit cube")
    p.add_argument("--splits", required=True, help="per-dim split counts, e.g. 1:4,2:4")
    p.add_argument("--prefix", default="", help="fixed leading dims, e.g. 10,9")
    p.add_argument("--a0", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("sample", help="predictive samples from a saved model")
    p.add_argument("--model", required=True, help="directory written by fit")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument(
        "--draws-per-seg",
        type=int,
        default=50,
        help="mixture draws per segmentation; 0 samples the exact predictive",
    )
    _add_common(p)

    p = sub.add_parser("density", help="predictive density from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--points", default=None, help="CSV of evaluation points")
    p.add_argument("--grid", type=int, default=None, help="2-D evaluation grid per axis")
    _add_common(p)

    return parser


def _cmd_table1(args) -> None:
    studies.run_table1(_parse_floats(args.a0), out=args.out)


def _cmd_prior_cdf(args) -> None:
    studies.run_prior_cdf_study(
        _parse_floats(args.a0), draws=args.runs, depth=args.levels, seed=args.seed, out=args.out
    )


def _cmd_sim1d(args) -> None:
    studies.run_1d_study(
        args.m, args.a0, args.runs, depths=_parse_ints(args.levels), seed=args.seed, out=args.out
    )


def _cmd_sim2d(args) -> None:
    studies.run_2d_study(
        m=args.m, a0=args.a0, runs=args.runs, seed=args.seed, grid=args.grid, out=args.out
    )


def _cmd_quantreg(args) -> None:
    studies.run_quantreg_study(
        m=args.m,
        seed=args.seed,
        a0=args.a0,
        draws_per_seg=args.draws_per_seg,
        n_samples=args.n_samples,
        conformal_alpha=args.alpha,
        y_grid_size=args.grid,
        out=args.out,
    )


def _cmd_conformal(args) -> None:
    points = as_points(_read_points(args.data), 2)
    config = conf.ConformalConfig(
        studies.quantreg_family(),
        a0=args.a0,
        draws_per_seg=args.draws_per_seg or None,
        seed=args.seed,
    )
    band = conf.conformal_band(points, studies._BAND_X, args.alpha, config, args.grid)
    meta = {"command": "conformal", "alpha": args.alpha, "a0": args.a0, "seed": args.seed, "m": len(points),
            "grid": args.grid, "draws_per_seg": args.draws_per_seg}
    studies._write_conformal(args.out, "", conf.loo_scores(points, config), band, meta)


def _cmd_highdim(args) -> None:
    studies.run_highdim_study(m=args.m, n=args.n, seed=args.seed, a0=args.a0, out=args.out)


def _cmd_fit(args) -> None:
    points = _read_points(args.data)
    splits = _parse_splits(args.splits)
    prefix = _parse_ints(args.prefix) if args.prefix else ()
    ndim = points.shape[1]
    family = enumerate_balanced_family(ndim, splits, prefix=prefix)
    model = fit(as_points(points, ndim), family, args.a0)
    _save_model(model, args.out)


def _cmd_sample(args) -> None:
    model = _load_model(args.model)
    gen = np.random.default_rng(args.seed)
    obj = pred.build_mixture(model, args.draws_per_seg, gen) if args.draws_per_seg else model
    sample = pred.sample_predictive(obj, args.n, gen)
    header = [f"u{j}" for j in range(1, model.family.ndim + 1)] + ["member", "draw"]
    rows = [
        tuple(f"{v:.8f}" for v in p) + (int(j), int(h))
        for p, j, h in zip(sample.points, sample.member_index, sample.draw_index)
    ]
    meta = {"command": "sample", "n": args.n, "seed": args.seed, "draws_per_seg": args.draws_per_seg}
    studies.write_csv(os.path.join(args.out, "samples.csv"), header, rows, meta)


def _cmd_density(args) -> None:
    model = _load_model(args.model)
    if args.points:
        pts = as_points(_read_points(args.points), model.family.ndim)
    elif args.grid is not None:
        _check_count("grid", args.grid, 1)
        if model.family.ndim != 2:
            raise ValueError("--grid evaluation needs a 2-D model")
        g = args.grid
        xs = (np.arange(g) + 0.5) / g
        pts = np.column_stack([np.repeat(xs, g), np.tile(xs, g)])
    else:
        raise ValueError("give either --points or --grid")
    vals = pred.mixture_predictive_density(pts, model)
    header = [f"u{j}" for j in range(1, model.family.ndim + 1)] + ["density"]
    rows = [tuple(f"{v:.8f}" for v in p) + (f"{d:.8f}",) for p, d in zip(pts, vals)]
    meta = {"command": "density", "m": model.m, "a0": model.a0}
    studies.write_csv(os.path.join(args.out, "density.csv"), header, rows, meta)


_COMMANDS = {
    "table1": _cmd_table1,
    "prior-cdf": _cmd_prior_cdf,
    "sim1d": _cmd_sim1d,
    "sim2d": _cmd_sim2d,
    "quantreg": _cmd_quantreg,
    "conformal": _cmd_conformal,
    "highdim": _cmd_highdim,
    "fit": _cmd_fit,
    "sample": _cmd_sample,
    "density": _cmd_density,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
