"""Non-finite input is rejected where it enters the package."""

import numpy as np
import pytest

from polyatree.conformal import ConformalConfig, conformal_band, conformal_pvalue
from polyatree.hbeta import (
    accumulate_counts,
    conditional_predictive_density,
    leaf_predictive_masses,
    sample_phi_posterior,
    sample_phi_prior,
)
from polyatree.posterior import (
    IncrementalModel,
    LogGammaTables,
    fit,
    mixture_predictive_density,
)
from polyatree.segmentation import enumerate_balanced_family, path_indices

FAMILY = enumerate_balanced_family(2, {1: 1, 2: 1})
SEG = FAMILY[0]
TRAIN = np.array([[0.2, 0.3], [0.7, 0.6], [0.4, 0.9]])
COUNTS = accumulate_counts(TRAIN, SEG)

POINT_ENTRIES = {
    "path_indices": lambda u: path_indices(u, SEG),
    "accumulate_counts": lambda u: accumulate_counts(u, SEG),
    "fit": lambda u: fit(np.vstack([TRAIN, u]), FAMILY, 1.0),
    "conditional_predictive_density": lambda u: conditional_predictive_density(u, COUNTS, SEG, 1.0),
    "mixture_predictive_density": lambda u: mixture_predictive_density(u, fit(TRAIN, FAMILY, 1.0)),
    "add_point": lambda u: IncrementalModel(fit(TRAIN, FAMILY, 1.0)).add_point(u),
    "conformal_pvalue": lambda u: conformal_pvalue(TRAIN, u, ConformalConfig(FAMILY)),
    "conformal_band": lambda u: conformal_band(np.zeros((0, 2)), u, 0.1, ConformalConfig(FAMILY)),
}


@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
@pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf]])
def test_non_finite_point_rejected(entry, bad):
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        POINT_ENTRIES[entry](np.array(bad))


A0_ENTRIES = {
    "LogGammaTables": lambda a0: LogGammaTables(a0, 10),
    "fit": lambda a0: fit(TRAIN, FAMILY, a0),
    "sample_phi_prior": lambda a0: sample_phi_prior(3, a0, 0),
    "sample_phi_posterior": lambda a0: sample_phi_posterior(COUNTS, a0, 0),
    "conditional_predictive_density": lambda a0: conditional_predictive_density(
        [0.5, 0.5], COUNTS, SEG, a0
    ),
    "leaf_predictive_masses": lambda a0: leaf_predictive_masses(COUNTS, a0),
    "ConformalConfig": lambda a0: ConformalConfig(FAMILY, a0=a0),
}


@pytest.mark.parametrize("entry", sorted(A0_ENTRIES))
@pytest.mark.parametrize("a0", [np.nan, np.inf, 0.0, -1.0])
def test_bad_a0_rejected(entry, a0):
    with pytest.raises(ValueError, match="a0 must be finite and positive"):
        A0_ENTRIES[entry](a0)


@pytest.mark.parametrize("train", [TRAIN, np.zeros((0, 2))], ids=["train", "empty"])
@pytest.mark.parametrize("size", [0, 1, 2.7, -3, "9"])
def test_bad_y_grid_size_rejected(train, size):
    with pytest.raises(ValueError, match="y_grid_size must be an integer >= 2"):
        conformal_band(train, [0.5], 0.1, ConformalConfig(FAMILY), y_grid_size=size)
