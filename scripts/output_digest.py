#!/usr/bin/env python3
"""Print one sha256 per output of the studies, the library and the CLI:
``PYTHONPATH=src python scripts/output_digest.py > digest.txt``.

Run it on two checkouts and diff: a line that differs names an output that
is not bit-identical.  An array hashes its dtype, shape and bytes, a scalar
its repr, a file that a study or the CLI wrote its bytes.  Sizes are small.
"""

import dataclasses
import hashlib
import os
import tempfile

import numpy as np

import polyatree as pt
from polyatree.simharness import cli, studies


def emit(name, obj):
    if isinstance(obj, pt.PosteriorModel):  # its public read-outs, every count in one array, member by member
        # level l of the level-major buffer starts at M (2^l - 1) and holds (M, 2^l)
        M, widths = len(obj.family), [1 << l for l in range(obj.family.depth + 1)]
        levels = [obj.counts[M * (w - 1) : M * (2 * w - 1)].reshape(M, w) for w in widths]
        obj = dict(counts=np.concatenate([level[j] for j in range(M) for level in levels]),
                   log_weights=obj.log_weights, log_unnormalized=obj.log_unnormalized)
    if isinstance(obj, pt.MixtureApproximation):  # its fields, the draw block as per-member rows, draws_per_seg too
        for key, item in dict(family=obj.family, weights=obj.weights, pis=tuple(obj.pis), draws_per_seg=obj.draws_per_seg, seed=obj.seed).items():
            emit(f"{name}.{key}", item)
        return
    obj = repr(obj.to_json_obj()) if isinstance(obj, pt.SegmentationFamily) else obj
    if isinstance(obj, np.ndarray) and obj.dtype != object:
        print(name, hashlib.sha256(f"{obj.dtype.str}{obj.shape}".encode() + obj.tobytes()).hexdigest())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            emit(f"{name}.{f.name}", getattr(obj, f.name))
    elif isinstance(obj, (dict, list, tuple)):
        for key, item in (sorted(obj.items(), key=repr) if isinstance(obj, dict) else enumerate(obj)):
            emit(f"{name}[{key!r}]", item)
    else:  # scalars, strings, object arrays
        print(name, hashlib.sha256(repr(obj.tolist() if isinstance(obj, np.ndarray) else obj).encode()).hexdigest())


def library(family, m):
    pts = np.random.default_rng(m).beta(2.0, 3.0, size=(m, family.ndim))
    model, unit = pt.fit(pts, family, 0.3), np.ones(family.ndim)
    mix, inc = pt.build_mixture(model, 4, 1), pt.IncrementalModel(model)
    inc.add_point(0.4 * unit)
    overlapping = [pt.Box(tuple(0.1 * unit), tuple(0.6 * unit)), pt.Box(tuple(0.4 * unit), tuple(0.9 * unit))]
    at = np.random.default_rng(9).uniform(size=(50, family.ndim))
    out = dict(model=model, mixture=mix, update=inc.snapshot(), box=pt.predictive_probability(overlapping[0], mix),
               overlap=[pt.predictive_probability(overlapping, obj) for obj in (model, mix)],
               density=pt.mixture_predictive_density(at, model), mixture_density=pt.mixture_predictive_density(at, mix),
               exact=pt.sample_posterior_predictive(model, 300, 2), drawn=pt.sample_predictive(mix, 300, 3))
    if family.ndim == 2:
        out.update(curve=pt.quantile_curve(0.3, model), boxes=pt.credible_prediction_set(mix, 0.2))
        for draws in (None, 2):
            config = pt.ConformalConfig(family, a0=0.3, draws_per_seg=draws, seed=4)
            out[f"loo{draws}"] = pt.loo_scores(pts[:12], config)
            # three candidates, the first a training point when there is one, so it ties with that point
            cands = np.vstack([pts[:1], np.random.default_rng(6).uniform(size=(3 - min(m, 1), 2))])
            out[f"score{draws}"] = [pt.conformity_score(pts[:12], c, config) for c in cands]
            out[f"pvalue{draws}"] = [pt.conformal_pvalue(pts[:12], c, config) for c in cands]
            out[f"band{draws}"] = pt.conformal_band(pts[:12], [0.3, 1.0], 0.2, config, 9)
    return out


def main(out) -> None:
    emit("table1", studies.run_table1(out=out))
    emit("prior", studies.run_prior_cdf_study(draws=3, depth=6, seed=1, out=out))
    # a repeated depth counts once
    emit("sim1d", {d: studies.run_1d_study(50, 1.0, 4, d, seed=1, out=os.path.join(out, str(d))) for d in ((10, 5, 3, 1), (3, 3))})
    emit("sim2d", studies.run_2d_study(m=40, runs=3, seed=1, grid=64, out=out))
    emit("quantreg", {m: studies.run_quantreg_study(m, 1, 1.0, 5, 200, y_grid_size=9, out=os.path.join(out, f"q{m}")) for m in (0, 30)})
    emit("highdim", studies.run_highdim_study(m=60, n=100, seed=1, out=out))
    families = {"quantreg": studies.quantreg_family(), "2d": studies.segmentations_2d(), "3d": pt.enumerate_balanced_family(3, {1: 2, 2: 1}, (3,)),
                "5classes": pt.SegmentationFamily(tuple(pt.build((1,) * (4 - k) + (2,) * k, 2) for k in range(5)))}
    emit("library", {(name, m): library(family, m) for name, family in families.items() for m in (0, 1, 37)})
    data, model = os.path.join(out, "points.csv"), os.path.join(out, "model")
    np.savetxt(data, np.random.default_rng(5).beta(2.0, 3.0, size=(40, 2)), delimiter=",")
    for argv in (["fit", "--data", data, "--splits", "1:3,2:2", "--a0", "0.5"], ["sample", "--model", model, "--n", "50"],
                 ["sample", "--model", model, "--n", "50", "--draws-per-seg", "0"], ["density", "--model", model, "--grid", "8"],
                 ["conformal", "--data", data, "--grid", "9"]):
        assert cli.main(argv + ["--seed", "3", "--out", model if argv[0] == "fit" else os.path.join(out, argv[0] + argv[-1])]) == 0
    for path in sorted(os.path.join(root, f) for root, _, files in os.walk(out) for f in files):
        with open(path, "rb") as fh:
            print(os.path.relpath(path, out), hashlib.sha256(fh.read()).hexdigest())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
