"""Scripted simulation studies at configurable desk scale.

Every study is a pure function of (parameters, seed): run streams are
spawned from one seed sequence so results are bit-reproducible, and every
emitted CSV starts with a one-line JSON metadata comment carrying the
seed and parameters.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .. import conformal as conf
from .. import predictive as pred
from ..encoding import ColumnSchema, decode, encode, fit_encoding
from ..hbeta import (
    accumulate_counts,
    leaf_predictive_masses,
    pi_from_phi,
    sample_phi_prior,
    step_density,
)
from ..posterior import PosteriorModel, fit
from ..segmentation import (
    Segmentation,
    SegmentationFamily,
    _check_count,
    build,
    enumerate_balanced_family,
    union_families,
)
from .densities import (
    DEFAULT_1D_DENSITY,
    CategoricalGaussianMixture,
    LogisticStripDensity,
    LogitNormalRegression,
    PiecewiseLinearDensity,
)

__all__ = [
    "ErrorReport",
    "write_csv",
    "table1_family",
    "table1_points",
    "TABLE1_TARGETS",
    "run_table1",
    "run_prior_cdf_study",
    "run_1d_study",
    "run_2d_study",
    "run_quantreg_study",
    "run_highdim_study",
    "quantreg_family",
    "highdim_family",
    "move_prefix_to_suffix",
]


def write_csv(path, header, rows, meta: dict) -> None:
    """CSV with a one-line JSON metadata comment before the header."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(eq=False)
class ErrorReport:
    """Simulation error summaries; which fields are filled depends on the study."""

    grid: np.ndarray | None = None
    mean_curves: dict = field(default_factory=dict)
    rmse_curves: dict = field(default_factory=dict)
    pearson_residuals: dict = field(default_factory=dict)  # name -> (runs, cells)
    x2: dict = field(default_factory=dict)  # name -> (runs,)
    posterior_weights: dict = field(default_factory=dict)  # name -> (runs,)
    approx_rmse: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Families


def quantreg_family() -> SegmentationFamily:
    """The 70 orderings of four x splits and four y splits of the square."""
    return enumerate_balanced_family(2, {1: 4, 2: 4})


def highdim_family(
    ndim: int = 10, prefix=(10, 9), candidate_dims=range(1, 9), splits: int = 4
) -> SegmentationFamily:
    """Both dummies first, then four splits each of two continuous dims.

    One balanced subfamily per (lexicographic) pair of candidate dims:
    28 pairs x 70 orderings = 1960 members for the defaults.
    """
    subfamilies = [
        enumerate_balanced_family(ndim, {j1: splits, j2: splits}, prefix=prefix)
        for j1, j2 in itertools.combinations(candidate_dims, 2)
    ]
    return union_families(subfamilies)


def move_prefix_to_suffix(seg: Segmentation, k: int = 2) -> Segmentation:
    """Rotate the first k splitting dims to the end of the ordering."""
    return Segmentation(seg.dims[k:] + seg.dims[:k], seg.ndim)


# ---------------------------------------------------------------------------
# Conditional segmentation probability table


def table1_family() -> SegmentationFamily:
    """Five depth-2 segmentations of the 5-cube realizing the classic count patterns."""
    return SegmentationFamily(
        (build((5, 5), 5), build((4, 1), 5), build((1, 1), 5), build((1, 2), 5), build((2, 3), 5))
    )


def table1_points() -> np.ndarray:
    """Four observations giving leaf counts (1,1,1,1), (0,2,0,2), (0,0,2,2),
    (0,0,0,4), (0,0,4,0) under the five members of table1_family()."""
    return np.array(
        [
            [0.60, 0.60, 0.20, 0.20, 0.10],
            [0.60, 0.60, 0.20, 0.20, 0.30],
            [0.80, 0.60, 0.20, 0.70, 0.60],
            [0.80, 0.60, 0.20, 0.70, 0.90],
        ]
    )


TABLE1_LEAF_COUNTS = ((1, 1, 1, 1), (0, 2, 0, 2), (0, 0, 2, 2), (0, 0, 0, 4), (0, 0, 4, 0))

# published two-decimal weights for a0 = 0.1, 1, 10 (row order as above)
TABLE1_TARGETS = {
    0.1: (0.00, 0.00, 0.01, 0.49, 0.49),
    1.0: (0.01, 0.04, 0.07, 0.44, 0.44),
    10.0: (0.13, 0.16, 0.19, 0.26, 0.26),
}


@dataclass(eq=False)
class Table1Result:
    a0_values: tuple[float, ...]
    weights: dict  # a0 -> (5,) normalized weights
    log_unnormalized: dict  # a0 -> (5,)

    def write(self, outdir: str) -> None:
        rows = []
        for a0 in self.a0_values:
            for cfg, w, lu in zip(TABLE1_LEAF_COUNTS, self.weights[a0], self.log_unnormalized[a0]):
                rows.append(("".join(map(str, cfg)), a0, f"{w:.6f}", f"{lu:.6f}"))
        write_csv(
            os.path.join(outdir, "table1.csv"),
            ["leaf_counts", "a0", "weight", "log_unnormalized"],
            rows,
            {"study": "table1", "a0_values": list(self.a0_values)},
        )


def run_table1(a0_values=(0.1, 1.0, 10.0), out: str | None = None) -> Table1Result:
    family, points = table1_family(), table1_points()
    weights, log_unnorm = {}, {}
    for a0 in a0_values:
        model = fit(points, family, a0)
        weights[a0] = model.weights
        log_unnorm[a0] = model.log_unnormalized
    result = Table1Result(tuple(a0_values), weights, log_unnorm)
    if out:
        result.write(out)
    return result


# ---------------------------------------------------------------------------
# Prior dispersion of the random step CDF


@dataclass(eq=False)
class PriorCdfResult:
    depth: int
    draws: int
    curves: dict  # a0 -> (draws, 2^depth + 1) cumulative sums, including 0 and 1
    dispersion_median: dict  # a0 -> median over draws of mean |pi - 2^-depth|

    def write(self, outdir: str) -> None:
        n_leaf = 1 << self.depth
        xs = np.arange(n_leaf + 1) / n_leaf
        rows = []
        for a0, mat in self.curves.items():
            for d in range(mat.shape[0]):
                for k in range(0, n_leaf + 1, max(1, n_leaf // 256)):
                    rows.append((a0, d, xs[k], f"{mat[d, k]:.8f}"))
        meta = {
            "study": "prior-cdf",
            "depth": self.depth,
            "draws": self.draws,
            "dispersion_median": {str(k): v for k, v in self.dispersion_median.items()},
        }
        write_csv(os.path.join(outdir, "prior_cdf.csv"), ["a0", "draw", "u", "cdf"], rows, meta)


def run_prior_cdf_study(
    a0_values=(0.1, 1.0, 10.0), draws: int = 50, depth: int = 10, seed: int = 0, out=None
) -> PriorCdfResult:
    _check_count("draws", draws, 1)
    streams = np.random.SeedSequence(seed).spawn(len(a0_values))
    curves, dispersion = {}, {}
    n_leaf = 1 << depth
    for a0, stream in zip(a0_values, streams):
        gen = np.random.default_rng(stream)
        mat = np.empty((draws, n_leaf + 1))
        mad = np.empty(draws)
        for d in range(draws):
            pi = pi_from_phi(sample_phi_prior(depth, a0, gen))
            mat[d, 0] = 0.0
            np.cumsum(pi, out=mat[d, 1:])
            mad[d] = np.abs(pi - 1.0 / n_leaf).mean()
        curves[a0] = mat
        dispersion[a0] = float(np.median(mad))
    result = PriorCdfResult(depth, draws, curves, dispersion)
    if out:
        result.write(out)
    return result


# ---------------------------------------------------------------------------
# 1-D estimation error study


def run_1d_study(
    m: int,
    a0: float,
    runs: int,
    depths=(10, 5, 3),
    seed: int = 0,
    density: PiecewiseLinearDensity | None = None,
    out=None,
) -> ErrorReport:
    """Pointwise mean and root-MSE of the tree-smoothed density estimator
    against the raw histogram estimator, one canonical segmentation per
    distinct depth.  Each run counts once, at the deepest depth; depth L
    reads the first L + 1 levels of that tree.

    The reported counts baseline is the analytic histogram root-MSE
    2^L * sqrt(p (1-p) / m) with p the true bin mass; the simulated
    histogram curves are emitted as well.
    """
    _check_count("m", m, 1)
    _check_count("runs", runs, 1)
    density = density or DEFAULT_1D_DENSITY
    depths = tuple(depths)
    if not depths:
        raise ValueError("depths must name at least one depth")
    for L in depths:
        _check_count("depth", L, 1)
    depths = tuple(dict.fromkeys(int(L) for L in depths))  # a repeated depth counts once
    n_eval = 4 << max(depths)
    grid = (np.arange(n_eval) + 0.5) / n_eval
    true_pdf = density.pdf(grid)

    seg = build((1,) * max(depths), 1)  # built once: it caches its leaf table
    sums = {(L, name): np.zeros(1 << L) for L in depths for name in ("hbeta", "counts")}
    sqsums = {k: np.zeros_like(v) for k, v in sums.items()}
    streams = np.random.SeedSequence(seed).spawn(runs)
    for stream in streams:
        gen = np.random.default_rng(stream)
        tree = accumulate_counts(density.sample(m, gen)[:, None], seg)
        for L in depths:
            n_bins = 1 << L
            est_h = leaf_predictive_masses(tree[: L + 1], a0) * n_bins
            est_c = tree[L] / m * n_bins
            for name, est in (("hbeta", est_h), ("counts", est_c)):
                sums[(L, name)] += est
                sqsums[(L, name)] += est * est

    report = ErrorReport(grid=grid, meta={"study": "sim1d", "m": m, "a0": a0, "runs": runs, "seed": seed})
    for L in depths:
        expand = n_eval >> L
        p_bin = density.bin_masses(1 << L)
        for name in ("hbeta", "counts"):
            mean_bin = sums[(L, name)] / runs
            msq_bin = sqsums[(L, name)] / runs
            mean = np.repeat(mean_bin, expand)
            msq = np.repeat(msq_bin, expand)
            # E[(est - pdf(u))^2] from bin-level moments, pointwise in u
            mse = msq - 2.0 * mean * true_pdf + true_pdf**2
            report.mean_curves[f"{name}_L{L}"] = mean
            report.rmse_curves[f"{name}_L{L}"] = np.sqrt(np.maximum(mse, 0.0))
        rmse_analytic = (1 << L) * np.sqrt(p_bin * (1.0 - p_bin) / m)
        report.rmse_curves[f"counts_analytic_L{L}"] = np.repeat(rmse_analytic, expand)
    report.mean_curves["true"] = true_pdf
    if out:
        rows = []
        for i, u_val in enumerate(grid):
            for key in sorted(report.rmse_curves):
                rows.append(
                    (
                        f"{u_val:.6f}",
                        key,
                        f"{report.mean_curves.get(key, true_pdf)[i]:.6f}",
                        f"{report.rmse_curves[key][i]:.6f}",
                    )
                )
        write_csv(
            os.path.join(out, "sim1d.csv"),
            ["u", "estimator", "mean", "rmse"],
            rows,
            report.meta,
        )
    return report


# ---------------------------------------------------------------------------
# 2-D estimation error and posterior weight study


SEG_2D_NAMES = ("XXXX", "YYYY", "XXYY", "YYXX")


def segmentations_2d() -> SegmentationFamily:
    dims_by_name = {
        "XXXX": (1, 1, 1, 1),
        "YYYY": (2, 2, 2, 2),
        "XXYY": (1, 1, 2, 2),
        "YYXX": (2, 2, 1, 1),
    }
    return SegmentationFamily(tuple(build(dims_by_name[n], 2) for n in SEG_2D_NAMES))


def _box_masses(seg: Segmentation, density: LogisticStripDensity) -> np.ndarray:
    """True probability of each of the segmentation's deepest boxes."""
    lo, hi = pred.leaf_boxes(seg)
    return np.array(
        [density.box_mass(lo[j, 0], hi[j, 0], lo[j, 1], hi[j, 1]) for j in range(lo.shape[0])]
    )


def approximation_rmse(seg: Segmentation, density: LogisticStripDensity, grid: int = 1024) -> float:
    """Root integrated squared distance between the density and its best
    step approximation on the segmentation's deepest boxes (midpoint rule)."""
    masses = _box_masses(seg, density)
    xs = (np.arange(grid) + 0.5) / grid
    ys = (np.arange(grid) + 0.5) / grid
    centers = np.column_stack([np.repeat(xs, grid), np.tile(ys, grid)])
    step = step_density(centers, seg, masses)
    true_vals = np.repeat(density.pdf(np.column_stack([xs, np.full(grid, 0.5)])), grid)
    return float(np.sqrt(np.mean((true_vals - step) ** 2)))


def run_2d_study(
    m: int = 50, a0: float = 1.0, runs: int = 500, seed: int = 0, grid: int = 1024, out=None
) -> ErrorReport:
    _check_count("m", m, 1)
    _check_count("runs", runs, 1)
    _check_count("grid", grid, 1)
    density = LogisticStripDensity()
    family = segmentations_2d()
    report = ErrorReport(
        meta={"study": "sim2d", "m": m, "a0": a0, "runs": runs, "seed": seed, "grid": grid}
    )
    for name, seg in zip(SEG_2D_NAMES, family):
        report.approx_rmse[name] = approximation_rmse(seg, density, grid)

    true_masses = np.array([_box_masses(seg, density) for seg in family])  # (members, cells)
    # standard (observed - expected)/sqrt(expected) scaling, so the
    # raw-histogram X2 has expectation exactly #cells - 1
    scale = np.sqrt(m / true_masses)
    pearson, pearson_counts = (np.empty((runs,) + true_masses.shape) for _ in range(2))
    weights = np.empty((runs, len(family)))
    streams = np.random.SeedSequence(seed).spawn(runs)
    for r, stream in enumerate(streams):
        gen = np.random.default_rng(stream)
        model = fit(density.sample(m, gen), family, a0)
        pearson[r] = (leaf_predictive_masses(model.stack, a0) - true_masses) * scale
        pearson_counts[r] = (model.stack[-1] / m - true_masses) * scale
        weights[r] = model.weights

    for k, name in enumerate(SEG_2D_NAMES):
        report.pearson_residuals[name] = pearson[:, k]
        report.pearson_residuals[f"counts_{name}"] = pearson_counts[:, k]
        report.x2[name] = np.sum(pearson[:, k] ** 2, axis=1)
        report.x2[f"counts_{name}"] = np.sum(pearson_counts[:, k] ** 2, axis=1)
        report.posterior_weights[name] = weights[:, k]
    if out:
        write_csv(
            os.path.join(out, "sim2d_approx.csv"),
            ["segmentation", "sqrt_mse"],
            [(n, f"{report.approx_rmse[n]:.6f}") for n in SEG_2D_NAMES],
            report.meta,
        )
        rows = []
        for r in range(runs):
            for name in SEG_2D_NAMES:
                rows.append(
                    (
                        r,
                        name,
                        f"{report.x2[name][r]:.6f}",
                        f"{np.abs(report.pearson_residuals[name][r]).mean():.6f}",
                        f"{report.posterior_weights[name][r]:.6f}",
                    )
                )
        write_csv(
            os.path.join(out, "sim2d_runs.csv"),
            ["run", "segmentation", "x2", "mean_abs_pearson", "weight"],
            rows,
            report.meta,
        )
    return report


# ---------------------------------------------------------------------------
# Quantile regression study


_BAND_X = (np.arange(16) + 0.5) / 16  # the quantreg family's 16 x-column centres: the study's and CLI's bands


def _write_conformal(outdir: str, prefix: str, scores, band: conf.ConformalBand, meta: dict) -> None:
    """LOO scores and band as `<prefix>scores.csv` and `<prefix>band.csv`."""
    score_rows = [(i, f"{s:.8f}") for i, s in enumerate(scores)]
    band_rows = [(f"{x:.6f}", f"{lo:.8f}", f"{hi:.8f}", a) for x, lo, hi, a in band.rows()]
    write_csv(os.path.join(outdir, f"{prefix}scores.csv"), ["index", "score"], score_rows, meta)
    write_csv(os.path.join(outdir, f"{prefix}band.csv"), ["x", "y_lower", "y_upper", "alpha"], band_rows, meta)


@dataclass(eq=False)
class QuantregResult:
    observations: np.ndarray
    model: PosteriorModel
    mixture: pred.MixtureApproximation
    samples: pred.PredictiveSample
    posterior_quantiles: dict  # q -> (16,) per-column values from the draw mixture
    posterior_quantiles_exact: dict  # same from the closed-form predictive
    true_quantile_grid: np.ndarray
    true_quantiles: dict  # q -> values on the grid
    credible_boxes: list
    loo_scores: np.ndarray
    band: conf.ConformalBand
    meta: dict

    def write(self, outdir: str) -> None:
        write_csv(
            os.path.join(outdir, "quantreg_observations.csv"),
            ["u_x", "u_y"],
            [(f"{x:.8f}", f"{y:.8f}") for x, y in self.observations],
            self.meta,
        )
        write_csv(
            os.path.join(outdir, "quantreg_samples.csv"),
            ["u_x", "u_y", "member", "draw"],
            [
                (f"{p[0]:.8f}", f"{p[1]:.8f}", int(j), int(h))
                for p, j, h in zip(
                    self.samples.points, self.samples.member_index, self.samples.draw_index
                )
            ],
            self.meta,
        )
        rows = [
            (f"{x:.6f}", q, f"{v:.8f}")
            for q, vals in sorted(self.true_quantiles.items())
            for x, v in zip(self.true_quantile_grid, vals)
        ]
        write_csv(
            os.path.join(outdir, "quantreg_true_quantiles.csv"),
            ["u_x", "q", "u_y"],
            rows,
            self.meta,
        )
        n_col = len(next(iter(self.posterior_quantiles.values())))
        rows = [
            (f"{(i + 0.5) / n_col:.6f}", q, f"{vals[i]:.8f}", source)
            for source, table in (
                ("mixture", self.posterior_quantiles),
                ("exact", self.posterior_quantiles_exact),
            )
            for q, vals in sorted(table.items())
            for i in range(n_col)
        ]
        write_csv(
            os.path.join(outdir, "quantreg_posterior_quantiles.csv"),
            ["u_x", "q", "u_y", "source"],
            rows,
            self.meta,
        )
        _write_conformal(outdir, "quantreg_", self.loo_scores, self.band, self.meta)
        with open(os.path.join(outdir, "quantreg_credible_region.json"), "w") as fh:
            json.dump(
                {"alpha": self.meta["credible_alpha"], "boxes": pred.region_to_json_obj(self.credible_boxes)},
                fh,
            )


def run_quantreg_study(
    m: int = 100,
    seed: int = 0,
    a0: float = 1.0,
    draws_per_seg: int = 50,
    n_samples: int = 2000,
    credible_alpha: float = 0.10,
    conformal_alpha: float = 0.05,
    conformal_draws: int | None = None,
    y_grid_size: int | None = None,
    out=None,
) -> QuantregResult:
    _check_count("m", m, 0)  # an empty sample is a supported case
    density = LogitNormalRegression()
    data_rng, mix_rng, sample_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    observations = density.sample(m, data_rng)
    family = quantreg_family()
    model = fit(observations, family, a0)
    mixture = pred.build_mixture(model, draws_per_seg, mix_rng)
    samples = pred.sample_predictive(mixture, n_samples, sample_rng)
    q_levels = (0.05, 0.5, 0.95)
    posterior_quantiles = {q: pred.quantile_curve(q, mixture) for q in q_levels}
    posterior_quantiles_exact = {q: pred.quantile_curve(q, model) for q in q_levels}
    xs = np.linspace(0.005, 0.995, 199)
    true_quantiles = {q: density.conditional_quantile(xs, q) for q in q_levels}
    credible_boxes = pred.credible_prediction_set(mixture, credible_alpha)
    config = conf.ConformalConfig(family, a0=a0, draws_per_seg=conformal_draws, seed=seed)
    scores = conf.loo_scores(observations, config)
    band = conf.conformal_band(observations, _BAND_X, conformal_alpha, config, y_grid_size)
    meta = {
        "study": "quantreg",
        "m": m,
        "seed": seed,
        "a0": a0,
        "draws_per_seg": draws_per_seg,
        "n_samples": n_samples,
        "credible_alpha": credible_alpha,
        "conformal_alpha": conformal_alpha,
    }
    result = QuantregResult(
        observations,
        model,
        mixture,
        samples,
        posterior_quantiles,
        posterior_quantiles_exact,
        xs,
        true_quantiles,
        credible_boxes,
        scores,
        band,
        meta,
    )
    if out:
        result.write(out)
    return result


# ---------------------------------------------------------------------------
# High-dimensional mixed-data study


@dataclass(eq=False)
class HighdimResult:
    model: PosteriorModel
    pairs: list  # per member, the sorted pair of continuous dims
    log_unnormalized: np.ndarray
    log_unnormalized_swapped: np.ndarray
    train_labels: np.ndarray
    train_y: np.ndarray
    decoded_labels: np.ndarray
    decoded_y: np.ndarray
    n_invalid: int
    train_props: dict
    predictive_props: dict
    meta: dict

    def write(self, outdir: str) -> None:
        rows = []
        for k, seg in enumerate(self.model.family):
            rows.append(
                (
                    k,
                    json.dumps(list(seg.dims)),
                    "-".join(map(str, self.pairs[k])),
                    f"{self.log_unnormalized[k]:.6f}",
                    f"{self.model.log_weights[k]:.6f}",
                    f"{self.log_unnormalized_swapped[k]:.6f}",
                )
            )
        write_csv(
            os.path.join(outdir, "highdim_logweights.csv"),
            ["member", "dims", "pair", "log_unnormalized", "log_weight", "log_unnormalized_swapped"],
            rows,
            self.meta,
        )
        header = ["x"] + [f"y{j}" for j in range(1, self.decoded_y.shape[1] + 1)]
        rows = [
            tuple([lbl] + [f"{v:.6f}" for v in yrow])
            for lbl, yrow in zip(self.decoded_labels, self.decoded_y)
        ]
        write_csv(os.path.join(outdir, "highdim_samples.csv"), header, rows, self.meta)
        rows = [
            (lvl, f"{self.train_props[lvl]:.6f}", f"{self.predictive_props[lvl]:.6f}")
            for lvl in sorted(self.train_props)
        ]
        write_csv(
            os.path.join(outdir, "highdim_xprops.csv"),
            ["level", "train_proportion", "predictive_proportion"],
            rows,
            self.meta,
        )


def run_highdim_study(
    m: int = 400, n: int = 1000, seed: int = 0, a0: float = 1.0, out=None
) -> HighdimResult:
    _check_count("m", m, 1)
    density = CategoricalGaussianMixture()
    data_rng, sample_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    labels, y = density.sample(m, data_rng)
    schema = [ColumnSchema(f"y{j}", "continuous") for j in range(1, 9)]
    schema.append(ColumnSchema("x", "categorical", density.levels))
    table = {f"y{j}": y[:, j - 1] for j in range(1, 9)}
    table["x"] = labels
    spec = fit_encoding(table, schema, bins=16)
    points, _ = encode(table, spec)

    family = highdim_family()
    model = fit(points, family, a0)
    pairs = [tuple(sorted(set(d for d in seg.dims if d <= 8))) for seg in family]
    swapped_family = SegmentationFamily(tuple(move_prefix_to_suffix(seg) for seg in family))
    swapped = fit(points, swapped_family, a0).log_unnormalized
    sample = pred.sample_posterior_predictive(model, n, sample_rng)
    dummy_high = sample.points[:, 8:10] >= 0.5
    valid = ~(dummy_high[:, 0] & dummy_high[:, 1])  # both dummies high names no level
    decoded = decode(sample.points[valid], spec, sample_rng)
    decoded_labels = decoded["x"]
    decoded_y = np.column_stack([decoded[f"y{j}"] for j in range(1, 9)])
    train_props = {lvl: float(np.mean(labels == lvl)) for lvl in density.levels}
    predictive_props = {lvl: float(np.mean(decoded_labels == lvl)) for lvl in density.levels}
    meta = {
        "study": "highdim",
        "m": m,
        "n": n,
        "seed": seed,
        "a0": a0,
        "n_members": len(family),
        "n_invalid_samples": int(np.sum(~valid)),
    }
    result = HighdimResult(
        model,
        pairs,
        model.log_unnormalized,
        swapped,
        labels,
        y,
        decoded_labels,
        decoded_y,
        int(np.sum(~valid)),
        train_props,
        predictive_props,
        meta,
    )
    if out:
        result.write(out)
    return result
