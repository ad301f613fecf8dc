"""Distribution-free Bayesian predictive inference on the unit cube.

A hierarchical model mixes finite Polya trees over a family of dyadic
segmentations: exact posterior weights per segmentation, closed-form and
sampled posterior predictives, conditional quantiles and credible bands,
and full conformal prediction sets with finite-sample coverage.
"""

from .segmentation import (
    Segmentation,
    SegmentationFamily,
    SubintervalPath,
    build,
    enumerate_balanced_family,
    leaf_indices,
    locate,
    path_indices,
    union_families,
)
from .hbeta import (
    accumulate_counts,
    conditional_predictive_density,
    counts_from_leaf_counts,
    leaf_predictive_masses,
    pi_from_phi,
    sample_phi_posterior,
    sample_phi_prior,
    step_density,
)
from .posterior import (
    IncrementalModel,
    PosteriorModel,
    fit,
    log_unnormalized_weight,
)
from .predictive import (
    Box,
    MixtureApproximation,
    PredictiveSample,
    build_mixture,
    conditional_quantile,
    credible_prediction_set,
    grid_mass_matrix,
    mixture_predictive_density,
    predictive_probability,
    quantile_curve,
    sample_posterior_predictive,
    sample_predictive,
)
from .conformal import (
    ConformalBand,
    ConformalConfig,
    conformal_band,
    conformal_pvalue,
    conformity_score,
    loo_scores,
)
from .encoding import (
    ColumnSchema,
    EncodingSpec,
    decode,
    encode,
    fit_encoding,
    read_schema,
    read_table,
)

__version__ = "0.1.0"
