"""The benchmark's own tests: every output check fails on a wrong result.

    python3 -m pytest -q bench/test_bench.py

Each workload runs one round at reduced sizes; its checks must pass on the
package's outputs and fail once one output is made wrong (a perturbed
weight, a shifted score, a credible set with the wrong mass, ...).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import polyatree as pt  # noqa: E402

import metrics  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import run_ops  # noqa: E402
from tracing import Tracer  # noqa: E402


class SmallWideFit(workloads.WideFit):
    candidate_dims = range(1, 4)  # 3 pairs: 210 members
    setup_repeats = 1


class SmallSquarePredict(workloads.SquarePredict):
    m = 200
    draws = 5
    n_samples = 300


class SmallSquareConformal(workloads.SquareConformal):
    m = 24
    candidates = 2
    mixture_m = 6


def run_round(cls, seed=3):
    wl = cls()
    wl.setup(seed)
    ops, ctx = wl.round(0)
    times, _, failed = run_ops(ops, ctx)
    assert failed == 0
    return wl, ctx, times


def checked(wl, ctx) -> oracle.Checks:
    checks = oracle.Checks()
    wl.check(ctx, checks, full=True)
    return checks


@pytest.fixture(scope="module")
def wide():
    return run_round(SmallWideFit)


@pytest.fixture(scope="module")
def predict():
    return run_round(SmallSquarePredict)


@pytest.fixture(scope="module")
def conformal():
    return run_round(SmallSquareConformal)


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    assert e2e == [tuple(row) for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- wide-fit ----------------------------------------------------------------


def test_wide_fit_passes(wide):
    wl, ctx, _ = wide
    checks = checked(wl, ctx)
    assert checks.ok, checks.failures
    assert checks.count >= 9


@pytest.mark.parametrize(
    "key, index",
    [("log_unnormalized", 5), ("log_weights", 0)],
)
def test_wide_fit_perturbed_weight(wide, key, index):
    wl, ctx, _ = wide
    arr = getattr(ctx["model"], key)
    arr[index] += 1e-7
    try:
        assert not checked(wl, ctx).ok
    finally:
        arr[index] -= 1e-7


@pytest.mark.parametrize("key", ["swapped", "density"])
def test_wide_fit_perturbed_output(wide, key):
    wl, ctx, _ = wide
    arr = ctx[key]
    saved = arr.copy()
    arr[1] *= 1 + 1e-7
    try:
        assert not checked(wl, ctx).ok
    finally:
        arr[:] = saved


def test_wide_fit_bad_label_and_sample(wide):
    wl, ctx, _ = wide
    labels = ctx["decoded"]["x"]
    saved = labels[0]
    labels[0] = "z"
    try:
        assert not checked(wl, ctx).ok
    finally:
        labels[0] = saved
    pts = ctx["sample"].points
    saved = pts[0, 0]
    pts[0, 0] = 1.5
    try:
        assert not checked(wl, ctx).ok
    finally:
        pts[0, 0] = saved


# -- square-predict ----------------------------------------------------------


def test_square_predict_passes(predict):
    wl, ctx, _ = predict
    checks = checked(wl, ctx)
    assert checks.ok, checks.failures


def test_credible_set_with_wrong_mass_fails(predict):
    wl, ctx, _ = predict
    for key in ("cred_exact", "cred_mix"):
        saved = ctx[key][3]
        b = saved
        ctx[key][3] = pt.Box(b.lower, (b.upper[0], min(1.0, b.upper[1] + 0.01)))
        try:
            assert not checked(wl, ctx).ok, key
        finally:
            ctx[key][3] = saved


def test_quantiles_not_monotone_fail(predict):
    wl, ctx, _ = predict
    curves = ctx["q_mix"]
    saved = dict(curves)
    curves[0.05], curves[0.5] = saved[0.5], saved[0.05]
    try:
        assert not checked(wl, ctx).ok
    finally:
        curves.update(saved)


def test_incremental_weights_off_fail(predict):
    wl, ctx, _ = predict
    inc = ctx["inc"]
    inc.log_unnormalized[2] += 1e-6
    try:
        assert not checked(wl, ctx).ok
    finally:
        inc.log_unnormalized[2] -= 1e-6


def test_mixture_weight_off_fails(predict):
    wl, ctx, _ = predict
    weights = ctx["mix"].weights
    weights[0] += 1e-7
    try:
        assert not checked(wl, ctx).ok
    finally:
        weights[0] -= 1e-7


@pytest.mark.parametrize("key", ["p_exact", "p_mix"])
def test_box_union_probability_off_fails(predict, key):
    wl, ctx, _ = predict
    saved = ctx[key]
    ctx[key] = saved._replace(value=saved.value * (1 + 1e-6))
    try:
        assert not checked(wl, ctx).ok
    finally:
        ctx[key] = saved


@pytest.mark.parametrize("key", ["s_exact", "s_mix"])
def test_sample_outside_square_fails(predict, key):
    wl, ctx, _ = predict
    pts = ctx[key].points
    saved = pts[0, 1]
    pts[0, 1] = -0.01
    try:
        assert not checked(wl, ctx).ok
    finally:
        pts[0, 1] = saved


def test_grid_density_off_fails(predict):
    wl, ctx, _ = predict
    saved = ctx["density"].copy()
    ctx["density"][7] += 1e-6
    try:
        assert not checked(wl, ctx).ok
    finally:
        ctx["density"] = saved


# -- square-conformal --------------------------------------------------------


def test_square_conformal_passes(conformal):
    wl, ctx, _ = conformal
    checks = checked(wl, ctx)
    assert checks.ok, checks.failures


def test_shifted_pvalue_fails(conformal):
    wl, ctx, _ = conformal
    saved = ctx["pvalues"][0]
    ctx["pvalues"][0] = saved + 2.0 / (wl.m + 1) if saved < 0.5 else saved - 2.0 / (wl.m + 1)
    try:
        assert not checked(wl, ctx).ok
    finally:
        ctx["pvalues"][0] = saved


def test_shifted_mixture_pvalue_fails(conformal):
    wl, ctx, _ = conformal
    saved = ctx["mixture_pvalue"]
    step = 2.0 / (wl.mixture_m + 1)
    ctx["mixture_pvalue"] = saved + step if saved < 0.5 else saved - step
    try:
        assert not checked(wl, ctx).ok
    finally:
        ctx["mixture_pvalue"] = saved


@pytest.mark.parametrize("table", ["p_below", "p_above"])
def test_shifted_band_pvalue_fails(conformal, table):
    wl, ctx, _ = conformal
    p = getattr(ctx["band"], table)
    iy = int(np.searchsorted(wl.y_grid, 0.5))  # the band candidate the check refits
    saved = p[0, iy]
    step = 2.0 / (wl.m + 1)
    p[0, iy] = saved + step if saved < 0.5 else saved - step
    try:
        assert not checked(wl, ctx).ok
    finally:
        p[0, iy] = saved


@pytest.mark.parametrize("draws", [None, SmallSquareConformal.mixture_draws])
def test_shifted_swapped_set_score_fails(conformal, monkeypatch, draws):
    """The package's swapped-set scores, exact or mixture-scored, are
    computed inside the check; shift one of them on the way out."""
    wl, ctx, _ = conformal
    original = pt.loo_scores

    def shifted(train, config, *args, **kwargs):
        scores = original(train, config, *args, **kwargs)
        if config.draws_per_seg == draws:
            scores = scores.copy()
            scores[1] += 1e-6
        return scores

    monkeypatch.setattr(pt, "loo_scores", shifted)
    checks = checked(wl, ctx)
    assert not checks.ok
    kind = "mixture swapped-set" if draws else "swapped-set"
    assert any(f"square-conformal: {kind} scores vs refits" in msg for msg in checks.failures), checks.failures


def test_shifted_loo_score_fails(conformal):
    wl, ctx, _ = conformal
    ctx["loo"][4] += 1e-6
    try:
        assert not checked(wl, ctx).ok
    finally:
        ctx["loo"][4] -= 1e-6


def test_band_endpoint_off_grid_fails(conformal):
    wl, ctx, _ = conformal
    band = ctx["band"]
    saved = band.lower[0]
    band.lower[0] = saved + 0.01
    try:
        assert not checked(wl, ctx).ok
    finally:
        band.lower[0] = saved


def test_pvalue_check_brackets():
    brute = np.array([0.1, 0.2, 0.3, 0.4])
    # two brute-force scores are <= 0.25, so p must lie in [2/5, 3/5]
    for p, ok in ((2 / 5, True), (3 / 5, True), (1 / 5, False), (4 / 5, False)):
        checks = oracle.Checks()
        oracle.check_pvalue(checks, p, brute, 0.25, m=4)
        assert checks.ok is ok, p


def test_swapped_scores_match_package():
    family = pt.enumerate_balanced_family(2, {1: 2, 2: 2})
    rng = np.random.default_rng(5)
    train = rng.uniform(size=(15, 2))
    cand = np.array([0.4, 0.7])
    brute, cand_score = oracle.swapped_scores(train, cand, family, 1.0)
    program = pt.loo_scores(np.vstack([train, cand]), pt.ConformalConfig(family))
    np.testing.assert_allclose(program[:-1], brute, atol=1e-12)
    checks = oracle.Checks()
    checks.close(program[:-1] + np.eye(15)[3] * 1e-6, brute, 1e-9, "shifted score")
    assert not checks.ok


# -- tracing and the command -------------------------------------------------


def test_tracer_restores_package_and_counts(predict):
    wl, _, _ = predict
    original = pt.posterior.accumulate_counts
    tracer = Tracer(pt)
    ops, ctx = wl.round(1)
    tracer.install()
    try:
        assert pt.posterior.accumulate_counts is not original
        run_ops(ops, ctx, tracer)
    finally:
        tracer.uninstall()
    assert pt.posterior.accumulate_counts is original
    layers = tracer.layer_self_s()
    assert layers["conformal"] == 0.0 and layers["predictive"] > 0.0
    assert tracer.counters["posterior.members_weighted"] == len(wl.family)
    assert tracer.counters["predictive.draws"] == len(wl.family) * wl.draws
    assert len(tracer.spans["id"]) == sum(tracer.calls.values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide-fit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
