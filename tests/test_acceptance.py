"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Every check runs at a fixed seed and at its stated
tolerance; run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import numpy as np
import pytest
from scipy.stats import chisquare, kstest

import polyatree as pt
from polyatree.conformal import ConformalConfig, conformal_band, conformal_pvalue, loo_scores
from polyatree.posterior import fit
from polyatree.predictive import (
    build_mixture,
    credible_prediction_set,
    predictive_probability,
    quantile_curve,
    sample_posterior_predictive,
    sample_predictive,
)
from polyatree.segmentation import build, path_indices
from polyatree.simharness import studies
from polyatree.simharness.densities import LogisticStripDensity, LogitNormalRegression


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}  {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_weight_table_reproduction():
    """Published two-decimal segmentation weights, three prior strengths."""
    res = studies.run_table1()
    worst = 0.0
    for a0, target in studies.TABLE1_TARGETS.items():
        worst = max(worst, float(np.max(np.abs(res.weights[a0] - np.array(target)))))
    report("1 weight-table", worst <= 0.005, f"max deviation {worst:.4f} (tol 0.005)")


def test_c02_prior_predictive_uniformity():
    """Empty sample: predictive draws over a 2-D family are uniform."""
    fam = studies.quantreg_family()
    model = fit(np.zeros((0, 2)), fam, 1.0)
    pts = sample_posterior_predictive(model, 100_000, np.random.default_rng(4)).points
    ix = np.minimum((pts[:, 0] * 16).astype(int), 15)
    iy = np.minimum((pts[:, 1] * 16).astype(int), 15)
    counts = np.bincount(ix * 16 + iy, minlength=256)
    p = chisquare(counts).pvalue
    report("2 prior-uniformity", p > 0.001, f"chi-square p = {p:.4f} (need > 0.001)")


def test_c03_limit_identities():
    """Predictive density approaches the raw histogram as a0 -> 0 and the
    uniform density as a0 -> infinity, on fully occupied paths."""
    gen = np.random.default_rng(271828)
    worst_small = worst_large = 0.0
    for _ in range(100):
        ndim = int(gen.integers(1, 4))
        depth = int(gen.integers(2, 7))
        m = int(gen.integers(1, 51))
        seg = build(gen.integers(1, ndim + 1, size=depth), ndim)
        data = gen.uniform(size=(m, ndim))
        counts = pt.accumulate_counts(data, seg)
        u = data[int(gen.integers(0, m))]  # occupied leaf, so every level is nonzero
        path = path_indices(u[None, :], seg)[0]
        n_leaf = counts[depth][path[-1]]
        histogram = (1 << depth) * n_leaf / m
        small = pt.conditional_predictive_density(u, counts, seg, 1e-9)
        large = pt.conditional_predictive_density(u, counts, seg, 1e9)
        worst_small = max(worst_small, abs(small - histogram))
        worst_large = max(worst_large, abs(large - 1.0))
    ok = worst_small <= 1e-6 and worst_large <= 1e-6
    report(
        "3 limit-identities",
        ok,
        f"max |a0->0 dev| {worst_small:.2e}, max |a0->inf dev| {worst_large:.2e} (tol 1e-6)",
    )


def test_c04_conjugacy_oracle():
    """Monte Carlo mean of the leaf density over conjugate posterior draws
    reproduces the closed form within 3 standard errors, 100 configurations."""
    gen = np.random.default_rng(11)
    n_draws = 10_000
    worst = 0.0
    for _ in range(100):
        ndim = int(gen.integers(1, 4))
        depth = int(gen.integers(2, 7))
        m = int(gen.integers(1, 51))
        a0 = float(gen.uniform(0.2, 5.0))
        seg = build(gen.integers(1, ndim + 1, size=depth), ndim)
        counts = pt.accumulate_counts(gen.uniform(size=(m, ndim)), seg)
        u = gen.uniform(size=ndim)
        analytic = pt.conditional_predictive_density(u, counts, seg, a0)
        path = path_indices(u[None, :], seg)[0]
        prod = np.ones(n_draws)
        for level in range(1, depth + 1):
            lower = counts[level][0::2]
            upper = counts[level][1::2]
            phi = gen.beta(a0 + lower, a0 + upper, size=(n_draws, lower.size))
            parent = path[level - 2] if level >= 2 else 0
            node = path[level - 1]
            prod *= phi[:, parent] if node == 2 * parent else 1.0 - phi[:, parent]
        dens = prod * (1 << depth)
        se = dens.std(ddof=1) / np.sqrt(n_draws)
        worst = max(worst, abs(dens.mean() - analytic) / (3.0 * se))
    report("4 conjugacy-oracle", worst <= 1.0, f"worst |dev|/3se = {worst:.3f} (need <= 1)")


def test_c05_approximation_errors():
    """Integrated step-approximation errors of the four named segmentations."""
    density = LogisticStripDensity()
    expected = {"XXXX": 0.066, "YYYY": 0.894, "XXYY": 0.199, "YYXX": 0.199}
    worst = 0.0
    values = {}
    for name, seg in zip(studies.SEG_2D_NAMES, studies.segmentations_2d()):
        values[name] = studies.approximation_rmse(seg, density, grid=1024)
        worst = max(worst, abs(values[name] - expected[name]))
    detail = ", ".join(f"{k}={v:.4f}" for k, v in values.items())
    report("5 approximation-errors", worst <= 0.002, f"{detail} (tol 0.002)")


def test_c06_posterior_weight_ordering():
    """Median posterior weights over 500 draws of 50 points order the four
    segmentations by how well (and how estimably) they fit."""
    rep = studies.run_2d_study(m=50, a0=1.0, runs=500, seed=13, grid=128)
    med = {n: float(np.median(rep.posterior_weights[n])) for n in studies.SEG_2D_NAMES}
    ok = (
        med["XXXX"] == max(med.values())
        and med["YYYY"] < 0.01
        and med["XXYY"] > med["YYXX"]
    )
    detail = ", ".join(f"{k}={v:.4f}" for k, v in med.items())
    report("6 weight-ordering", ok, detail)


def test_c07_shrinkage_benefit():
    """Fine-depth smoothing beats the raw histogram by at least 2x in
    pointwise root-MSE, averaged over the grid."""
    rep = studies.run_1d_study(m=50, a0=1.0, runs=500, depths=(10,), seed=11)
    ratio = rep.rmse_curves["counts_analytic_L10"] / rep.rmse_curves["hbeta_L10"]
    mean_ratio = float(ratio.mean())
    report("7 shrinkage-benefit", mean_ratio >= 2.0, f"mean ratio {mean_ratio:.2f} (need >= 2)")


def test_c08_credible_set_calibration():
    """2000 predictive draws land in the analytic 0.90 band at a binomial rate."""
    s1, s2, s3 = np.random.SeedSequence(20).spawn(3)
    train = LogitNormalRegression().sample(100, np.random.default_rng(s1))
    model = fit(train, studies.quantreg_family(), 1.0)
    mix = build_mixture(model, 50, np.random.default_rng(s2))
    boxes = credible_prediction_set(mix, 0.10)
    mass = predictive_probability(boxes, mix).value
    sample = sample_predictive(mix, 2000, np.random.default_rng(s3))
    inside = np.zeros(2000, dtype=bool)
    for b in boxes:
        inside |= np.all((sample.points >= b.lower) & (sample.points <= b.upper), axis=1)
    count = int(inside.sum())
    se3 = 3 * np.sqrt(2000 * 0.9 * 0.1)
    ok = abs(mass - 0.9) < 1e-9 and abs(count - 1800) <= se3
    report(
        "8 credible-calibration",
        ok,
        f"band mass {mass:.10f}, {count}/2000 inside (want 1800 +- {se3:.0f})",
    )


def test_c09_conformal_validity():
    """Finite-sample coverage of the level-0.90 conformal p-value at m=100
    over 400 fresh-data trials, p-values on the k/101 grid."""
    config = ConformalConfig(studies.quantreg_family(), a0=1.0)
    density = LogitNormalRegression()
    pvals = np.empty(400)
    for k, stream in enumerate(np.random.SeedSequence(20250808).spawn(400)):
        gen = np.random.default_rng(stream)
        train = density.sample(100, gen)
        test_point = density.sample(1, gen)[0]
        pvals[k] = conformal_pvalue(train, test_point, config)
    coverage = float(np.mean(pvals > 0.10))
    on_grid = bool(np.allclose(pvals * 101, np.round(pvals * 101), atol=1e-9))
    threshold = 0.90 - 3 * np.sqrt(0.9 * 0.1 / 400)
    ok = coverage >= threshold and on_grid
    report(
        "9 conformal-validity",
        ok,
        f"coverage {coverage:.3f} (need >= {threshold:.3f}), p-values on k/101 grid: {on_grid}",
    )


def test_c10_large_sample_agreement():
    """At m=1000 the leave-one-out scores are uniform and the conformal band
    tracks the mixture quantile band to within one grid cell."""
    density = LogitNormalRegression()
    train = density.sample(1000, np.random.default_rng(77))
    config = ConformalConfig(studies.quantreg_family(), a0=1.0)
    ks_p = kstest(loo_scores(train, config), "uniform").pvalue
    x_cols = (np.arange(16) + 0.5) / 16
    band = conformal_band(train, x_cols, 0.05, config)
    model = fit(train, studies.quantreg_family(), 1.0)
    mix = build_mixture(model, 50, np.random.default_rng(78))
    gap_lo = float(np.max(np.abs(band.lower - quantile_curve(0.05, mix))))
    gap_hi = float(np.max(np.abs(band.upper - quantile_curve(0.95, mix))))
    cell = 1 / 16
    ok = ks_p > 0.01 and gap_lo <= cell and gap_hi <= cell
    report(
        "10 large-sample-agreement",
        ok,
        f"KS p {ks_p:.3f} (need > 0.01); band gaps {gap_lo:.4f}/{gap_hi:.4f} (cell {cell:.4f})",
    )


def test_c11_structure_recovery():
    """Mixed-data study: the correlated-pair group dominates, fronting the
    dummy splits is worth >100 log-units, and predictive label proportions
    match training within 3 binomial standard errors."""
    res = studies.run_highdim_study(m=400, n=1000, seed=1)
    best_pair = res.pairs[int(np.argmax(res.log_unnormalized))]
    min_drop = float(np.min(res.log_unnormalized - res.log_unnormalized_swapped))
    prop_ok = all(
        abs(res.predictive_props[lvl] - res.train_props[lvl])
        <= 3 * np.sqrt(res.train_props[lvl] * (1 - res.train_props[lvl]) / 1000)
        for lvl in res.train_props
    )
    ok = best_pair == (1, 2) and min_drop > 100.0 and prop_ok
    report(
        "11 structure-recovery",
        ok,
        f"top pair {best_pair}, min prefix-swap drop {min_drop:.1f} (need > 100), proportions ok: {prop_ok}",
    )
