"""Non-finite input, and input with no mass to condition on, is rejected
where it enters the package."""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import polyatree
from polyatree.conformal import ConformalConfig, conformal_band, conformal_pvalue, conformity_score, loo_scores
from polyatree.encoding import ColumnSchema, decode, encode, fit_encoding, read_table
from polyatree.hbeta import (
    accumulate_counts,
    conditional_predictive_density,
    leaf_predictive_masses,
    sample_phi_posterior,
    sample_phi_prior,
)
from polyatree.posterior import IncrementalModel, LogGammaTables, PosteriorModel, fit
from polyatree.predictive import (
    MixtureApproximation,
    build_mixture,
    mixture_predictive_density,
    sample_posterior_predictive,
    sample_predictive,
)
from polyatree.segmentation import Segmentation, SegmentationFamily, build, enumerate_balanced_family, path_indices
from polyatree.simharness import studies

FAMILY = enumerate_balanced_family(2, {1: 1, 2: 1})
SEG = FAMILY[0]
TRAIN = np.array([[0.2, 0.3], [0.7, 0.6], [0.4, 0.9]])
COUNTS = accumulate_counts(TRAIN, SEG)
MODEL = fit(TRAIN, FAMILY, 1.0)

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


SCHEMA = [ColumnSchema("y", "continuous"), ColumnSchema("x", "categorical", ("a", "b"))]
VALUES = np.linspace(-1.0, 1.0, 20)
LABELS = np.array(["a", "b"] * 10, dtype=object)
SPEC = fit_encoding({"y": VALUES, "x": LABELS}, SCHEMA, bins=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_encoding_rejects_non_finite_value(bad):
    with pytest.raises(ValueError, match="non-finite"):
        fit_encoding({"y": np.append(VALUES, bad), "x": np.append(LABELS, "a")}, SCHEMA, bins=4)


def test_encode_rejects_nan_and_clamps_inf():
    with pytest.raises(ValueError, match="NaN"):
        encode({"y": np.array([0.3, np.nan]), "x": LABELS[:2]}, SPEC)
    pts, clamped = encode({"y": np.array([-np.inf, 0.3, np.inf]), "x": LABELS[:3]}, SPEC)
    assert clamped.tolist() == [True, False, True]
    assert pts[[0, 2], 0].tolist() == [1 / 8, 7 / 8]


@pytest.mark.parametrize("bad", [[np.nan, 0.25], [0.5, np.nan], [np.inf, 0.25], [-np.inf, 0.75], [1.5, 0.25]])
def test_decode_rejects_point_off_the_cube(bad):
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        decode(np.array([[0.5, 0.25], bad]), SPEC, 0)


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
    # a model read from a file is checked too: a bad a0 made later weights NaN
    "PosteriorModel": lambda a0: PosteriorModel(FAMILY, MODEL.counts, a0, MODEL.log_unnormalized),
}


@pytest.mark.parametrize("entry", sorted(A0_ENTRIES))
@pytest.mark.parametrize("a0", [np.nan, np.inf, 0.0, -1.0])
def test_bad_a0_rejected(entry, a0):
    with pytest.raises(ValueError, match="a0 must be finite and positive"):
        A0_ENTRIES[entry](a0)


@pytest.mark.parametrize("entry", sorted(A0_ENTRIES))
@pytest.mark.parametrize("a0", [True, "1"])
def test_non_number_a0_rejected(entry, a0):
    # a bool is no a0 (it ran as 1.0), nor a string (it failed inside numpy)
    with pytest.raises(ValueError, match="a0 must be a number"):
        A0_ENTRIES[entry](a0)


def test_long_row_rejected(tmp_path):
    # csv.DictReader files the fields past the header under the key None, which no column reads
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="data row 2 of .* has more fields than the header"):
        read_table(path, [ColumnSchema("a", "continuous"), ColumnSchema("b", "continuous")])


@pytest.mark.parametrize("train", [TRAIN, np.zeros((0, 2))], ids=["train", "empty"])
@pytest.mark.parametrize("size", [0, 1, 2.7, -3, "9"])
def test_bad_y_grid_size_rejected(train, size):
    with pytest.raises(ValueError, match="y_grid_size must be an integer >= 2"):
        conformal_band(train, [0.5], 0.1, ConformalConfig(FAMILY), y_grid_size=size)


DRAWS_ENTRIES = {
    "ConformalConfig": lambda draws: ConformalConfig(FAMILY, draws_per_seg=draws),
    "build_mixture": lambda draws: build_mixture(fit(TRAIN, FAMILY, 1.0), draws),
}


@pytest.mark.parametrize("entry", sorted(DRAWS_ENTRIES))
@pytest.mark.parametrize("draws", [0, 1.5, 2.0, True])
def test_bad_draws_per_seg_rejected(entry, draws):
    with pytest.raises(ValueError, match="draws_per_seg must be an integer >= 1"):
        DRAWS_ENTRIES[entry](draws)


@pytest.mark.parametrize("seed", [None, -1, 1.5, True])
def test_bad_conformal_seed_rejected(seed):
    # every score of one p-value must share one reproducible seed
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        ConformalConfig(FAMILY, draws_per_seg=2, seed=seed)


COUNT_ENTRIES = {
    "sample_predictive": ("n", lambda n: sample_predictive(build_mixture(fit(TRAIN, FAMILY, 1.0), 2), n)),
    "sample_posterior_predictive": ("n", lambda n: sample_posterior_predictive(fit(TRAIN, FAMILY, 1.0), n)),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
@pytest.mark.parametrize("count", [0, 1.5, 2.0, 2.5, True])
def test_bad_sample_count_rejected(entry, count):
    name, call = COUNT_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        call(count)


SIZE_ENTRIES = {
    "fit_encoding-float": (lambda: fit_encoding({"y": VALUES, "x": LABELS}, SCHEMA, bins=16.0), "bins", 2),
    "fit_encoding-one": (lambda: fit_encoding({"y": VALUES, "x": LABELS}, SCHEMA, bins=1), "bins", 2),
    # m = 0 is a supported quantreg sample; highdim fits its encoding to the sample
    "run_quantreg_study": (lambda: studies.run_quantreg_study(m=-1), "m", 0),
    "run_highdim_study": (lambda: studies.run_highdim_study(m=-1), "m", 1),
    "run_highdim_study-empty": (lambda: studies.run_highdim_study(m=0), "m", 1),
}


@pytest.mark.parametrize("entry", sorted(SIZE_ENTRIES))
def test_bad_size_rejected(entry):
    call, name, least = SIZE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"{name} must be an integer >= {least}"):
        call()


ZERO_MASS_ENTRIES = {
    "conformity_score": lambda train, cand, config: conformity_score(train, cand, config),
    "conformal_pvalue": lambda train, cand, config: conformal_pvalue(train, cand, config),
    # the candidate's own row, scored against the training set
    "loo_scores": lambda train, cand, config: loo_scores(np.vstack([train, cand]), config),
}


@pytest.mark.parametrize("entry", sorted(ZERO_MASS_ENTRIES))
def test_zero_mass_column_rejected(entry):
    # with a tiny a0 the drawn probability of the empty right half underflows to 0
    family = SegmentationFamily((build((1, 1, 2, 2), 2),))
    train = np.array([[0.05, 0.1], [0.15, 0.05], [0.1, 0.18]])
    config = ConformalConfig(family, a0=1e-4, draws_per_seg=1)
    with pytest.raises(ValueError, match="conditional mass is zero in this column"):
        ZERO_MASS_ENTRIES[entry](train, [0.9, 0.5], config)


@pytest.mark.parametrize(
    "log_w",
    [np.array([0.0, np.nan]), np.array([0.0, np.inf]), np.array([-np.inf, 0.0]), np.zeros(1), np.zeros(3),
     np.zeros((2, 1)), np.array([0, 0]), [0.0, 0.0]],
    ids=["nan", "inf", "-inf", "short", "long", "2-D", "int", "list"],
)
def test_model_rejects_malformed_log_weights(log_w):
    model = fit(TRAIN, FAMILY, 1.0)
    with pytest.raises(ValueError, match="log_unnormalized must be a 1-D array of 2 finite floats"):
        PosteriorModel(FAMILY, model.counts, 1.0, log_w)


@pytest.mark.parametrize(
    "weights",
    [-MODEL.weights, 2.0 * MODEL.weights, np.full(2, np.nan), np.ones(1)],
    ids=["negated", "doubled", "nan", "short"],
)
def test_mixture_rejects_malformed_weights(weights):
    pis = build_mixture(MODEL, 3, 0).pis
    with pytest.raises(ValueError, match="weights must be a 1-D array of 2 finite, non-negative floats"):
        MixtureApproximation(FAMILY, weights, pis)


MODEL_EDITS = {
    "not-an-object": (lambda obj: [obj], "model must be a JSON object"),
    "family-empty": (lambda obj: {**obj, "family": {}}, "family must be a mapping with ndim"),
    "family-list": (lambda obj: {**obj, "family": obj["family"]["members"]}, "family must be a mapping with ndim"),
    "members-number": (lambda obj: {**obj, "family": {**obj["family"], "members": 5}}, "list of member lists"),
    "member-number": (lambda obj: {**obj, "family": {**obj["family"], "members": [1, 2]}}, "list of member lists"),
    "a0-null": (lambda obj: {**obj, "a0": None}, "a0 must be a number"),
    "a0-list": (lambda obj: {**obj, "a0": [1]}, "a0 must be a number"),
    "a0-string": (lambda obj: {**obj, "a0": "1"}, "a0 must be a number"),
    "a0-bool": (lambda obj: {**obj, "a0": True}, "a0 must be a number"),
}


@pytest.mark.parametrize("entry", sorted(MODEL_EDITS))
def test_malformed_model_json_rejected(entry):
    edit, message = MODEL_EDITS[entry]
    obj = json.loads(json.dumps(MODEL.to_json_obj()))
    with pytest.raises(ValueError, match=message):
        PosteriorModel.from_json_obj(edit(obj))


def test_integer_a0_in_model_json_loads():
    assert PosteriorModel.from_json_obj({**MODEL.to_json_obj(), "a0": 1}).a0 == 1.0


@pytest.mark.parametrize(
    "depths, message",
    [((2.5,), "depth must be an integer >= 1, got 2.5"), ((True, 3), "depth must be an integer >= 1, got True"),
     ((3, 0), "depth must be an integer >= 1, got 0"), ((), "depths must name at least one depth")],
    ids=["float", "bool", "zero", "empty"],
)
def test_bad_1d_study_depths_rejected(depths, message):
    # a depth is an integer >= 1: no float or bool is truncated to one
    with pytest.raises(ValueError, match=message):
        studies.run_1d_study(5, 1.0, 1, depths)


SEGMENTATION_ENTRIES = {
    "build-dim": lambda v: build((v, 2), 2),
    "build-ndim": lambda v: build((1, 2), v),
    "Segmentation-dim": lambda v: Segmentation((v,), 2),
    "Segmentation-ndim": lambda v: Segmentation((1,), v),
    "family-count": lambda v: enumerate_balanced_family(2, {1: v, 2: 1}),
    "family-key": lambda v: enumerate_balanced_family(2, {v: 1, 2: 1}),
    "family-prefix": lambda v: enumerate_balanced_family(2, {2: 1}, prefix=(v,)),
    "family-ndim": lambda v: enumerate_balanced_family(v, {1: 1}),
    "sample_phi_prior": lambda v: sample_phi_prior(v, 1.0, 0),
}


@pytest.mark.parametrize("entry", sorted(SEGMENTATION_ENTRIES))
@pytest.mark.parametrize("value", [1.9, 1.0, 2.5, True, "1"])
def test_non_integer_segmentation_input_rejected(entry, value):
    # an integer-valued float is no integer either: nothing is truncated
    with pytest.raises(ValueError, match="must be an integer"):
        SEGMENTATION_ENTRIES[entry](value)


def test_numpy_integer_dims_are_stored_as_ints():
    seg = build(np.array([1, 2]), np.int64(2))
    assert seg == build((1, 2), 2) and all(type(d) is int for d in seg.dims + (seg.ndim,))


@pytest.mark.parametrize("module", sorted(name for _, name, _ in pkgutil.walk_packages(polyatree.__path__, "polyatree.")))
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
