"""Names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the root of the repository lists the same end-to-end
and per-layer metrics; ``test_bench.py`` keeps the two in step.
"""

from __future__ import annotations

from statistics import median

from tracing import COUNTERS, LAYERS

# (name, unit, better, bound): bound is the share of the baseline median by
# which the metric may worsen before a change counts as a regression.
# Every workload reports every one of these.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("fit_s", "s", "lower", 0.25),
    ("density_points_per_s", "points/s", "higher", 0.25),
    ("samples_per_s", "samples/s", "higher", 0.25),
)

# Reported by one workload only, so they appear in the full record written
# with --out and in the comparison, not in BENCHMARK.json (whose end-to-end
# metrics every workload reports).
WORKLOAD_METRICS = {
    "square-predict": (("credible_band_s", "s", "lower", 0.25), ("update_us", "us", "lower", 0.25)),
    "square-conformal": (
        ("loo_s", "s", "lower", 0.25),
        ("pvalues_per_s", "1/s", "higher", 0.25),
        ("band_s", "s", "lower", 0.25),
        ("mixture_pvalue_s", "s", "lower", 0.25),
    ),
}

# Public functions and methods that some workload calls in its rounds.
FUNCTIONS = (
    "segmentation.path_indices",
    "segmentation.leaf_indices",
    "segmentation.Segmentation.splits_per_dim",
    "hbeta.accumulate_counts",
    "hbeta.counts_from_leaf_counts",
    "hbeta.conditional_predictive_density",
    "hbeta.leaf_predictive_masses",
    "hbeta.sample_phi_posterior",
    "hbeta.pi_from_phi",
    "posterior.fit",
    "posterior.log_unnormalized_weight",
    "posterior.mixture_predictive_density",
    "posterior.LogGammaTables.__init__",
    "posterior.LogGammaTables.ensure",
    "posterior.LogGammaTables.log_betabinom",
    "posterior.PosteriorModel.weights",
    "posterior.IncrementalModel.__init__",
    "posterior.IncrementalModel.add_point",
    "posterior.IncrementalModel.remove_point",
    "posterior.IncrementalModel.snapshot",
    "posterior.IncrementalModel.log_weights",
    "predictive.build_mixture",
    "predictive.sample_predictive",
    "predictive.sample_posterior_predictive",
    "predictive.quantile_curve",
    "predictive.credible_prediction_set",
    "predictive.predictive_probability",
    "predictive.grid_mass_matrix",
    "predictive.leaf_boxes",
    "conformal.conformal_pvalue",
    "conformal.conformal_band",
    "conformal.loo_scores",
    "conformal.default_y_grid",
    "encoding.fit_encoding",
    "encoding.encode",
    "encoding.decode",
)

# name -> unit, in report order.  Every per-layer figure is per traced round.
PER_LAYER_UNITS = {}
for _fn in FUNCTIONS:
    PER_LAYER_UNITS[f"{_fn}.calls"] = "count"
    PER_LAYER_UNITS[f"{_fn}.self_s"] = "s"
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
for _counter in COUNTERS:
    PER_LAYER_UNITS[_counter] = "count"
PER_LAYER_UNITS["conformal.distinct_cell_share"] = "ratio"
PER_LAYER_UNITS["unattributed_s"] = "s"
PER_LAYER_UNITS["trace.run_s"] = "s"
PER_LAYER_UNITS["trace.overhead_s"] = "s"
PER_LAYER = tuple(PER_LAYER_UNITS)

UNITS = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update(PER_LAYER_UNITS)
for _metrics in WORKLOAD_METRICS.values():
    UNITS.update({name: unit for name, unit, *_ in _metrics})

BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
BETTER = {name: better for name, _, better, _ in END_TO_END}
for _metrics in WORKLOAD_METRICS.values():
    BOUNDS.update({name: bound for name, _, _, bound in _metrics})
    BETTER.update({name: better for name, _, better, _ in _metrics})


def per_layer(tracer, traced_walls, untraced_walls) -> dict:
    """Per-round layer figures from a tracer that ran len(traced_walls) rounds.

    unattributed_s is the mean traced round minus every layer's self time:
    the benchmark's own glue and the tracer's bookkeeping.  The overhead is
    the median traced round minus the median untraced one.
    """
    n = len(traced_walls)
    out = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = tracer.calls.get(fn, 0) / n
        out[f"{fn}.self_s"] = tracer.self_s.get(fn, 0.0) / n
    layers = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer] / n
    for counter in COUNTERS:
        out[counter] = tracer.counters[counter] / n
    out["conformal.distinct_cell_share"] = tracer.distinct_cell_share()
    out["unattributed_s"] = sum(traced_walls) / n - sum(layers.values()) / n
    out["trace.run_s"] = median(traced_walls)
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    return out
