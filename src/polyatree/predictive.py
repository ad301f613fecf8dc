"""Predictive inference from a fitted segmentation family.

Two interchangeable representations of the posterior predictive are
supported by every function here:

* a ``PosteriorModel`` - the exact predictive, whose per-leaf masses have
  a closed form (product of count ratios down the tree), and
* a ``MixtureApproximation`` - a fixed collection of posterior draws of
  the leaf probabilities, `draws_per_seg` per segmentation, each mixture
  component carrying weight Pr(segmentation | data) / draws_per_seg.

Since every component density is constant within leaf boxes, conditional
distributions over a 2-D grid, region probabilities, quantiles and
credible bands are all available in closed form given the component leaf
probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .hbeta import leaf_predictive_masses, pi_from_phi, sample_phi_posterior
from .posterior import PosteriorModel
from .segmentation import Segmentation, SegmentationFamily, as_points, leaf_indices

__all__ = [
    "MixtureApproximation",
    "PredictiveSample",
    "Box",
    "PredictiveProbability",
    "build_mixture",
    "leaf_boxes",
    "mixture_density",
    "sample_predictive",
    "sample_posterior_predictive",
    "predictive_probability",
    "grid_mass_matrix",
    "conditional_quantile",
    "quantile_curve",
    "credible_prediction_set",
    "region_to_json_obj",
    "region_from_json_obj",
]


def _as_rng_and_seed(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = None if rng is None else int(rng)
    return np.random.default_rng(rng), seed


@dataclass(eq=False)
class MixtureApproximation:
    """Posterior draws of leaf probabilities, `draws_per_seg` per member.

    ``pis[j]`` has shape (draws_per_seg, 2^L): one row per drawn
    probability vector for family member j.
    """

    family: SegmentationFamily
    weights: np.ndarray
    pis: tuple[np.ndarray, ...]
    draws_per_seg: int
    seed: int | None = None

    @property
    def n_components(self) -> int:
        return len(self.family) * self.draws_per_seg

    def component_weights(self) -> np.ndarray:
        """Weight of every (member, draw) component; sums to one."""
        return np.repeat(self.weights / self.draws_per_seg, self.draws_per_seg)


@dataclass(eq=False)
class PredictiveSample:
    """Draws from the predictive with their provenance."""

    points: np.ndarray
    seed: int | None
    member_index: np.ndarray
    draw_index: np.ndarray  # -1 when the leaf law was the exact predictive
    leaf_index: np.ndarray


class PredictiveProbability(NamedTuple):
    value: float
    stderr: float
    method: str


@dataclass(frozen=True)
class Box:
    """Axis-aligned box inside the unit cube."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("box lower/upper dimension mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"malformed box: [{lo}, {hi}] not within [0, 1]")

    def to_json_obj(self) -> dict:
        return {"lower": list(self.lower), "upper": list(self.upper)}

    @classmethod
    def from_json_obj(cls, obj) -> "Box":
        return cls(tuple(float(v) for v in obj["lower"]), tuple(float(v) for v in obj["upper"]))


def region_to_json_obj(region) -> list[dict]:
    """Serialize a box or box union as a JSON list of boxes."""
    return [b.to_json_obj() for b in _as_boxes(region)]


def region_from_json_obj(obj) -> list[Box]:
    return [Box.from_json_obj(b) for b in obj]


def build_mixture(model: PosteriorModel, draws_per_seg: int = 50, rng=None) -> MixtureApproximation:
    """Draw `draws_per_seg` conjugate-posterior probability vectors per member."""
    if draws_per_seg < 1:
        raise ValueError("draws_per_seg must be >= 1")
    gen, seed = _as_rng_and_seed(rng)
    pis = []
    for counts in model.counts:
        rows = [pi_from_phi(sample_phi_posterior(counts, model.a0, gen)) for _ in range(draws_per_seg)]
        pis.append(np.vstack(rows))
    return MixtureApproximation(model.family, model.weights.copy(), tuple(pis), draws_per_seg, seed)


def _components(obj) -> tuple[SegmentationFamily, np.ndarray, list[np.ndarray]]:
    """Family, member weights and mean leaf probabilities of either representation."""
    if isinstance(obj, MixtureApproximation):
        return obj.family, obj.weights, [p.mean(axis=0) for p in obj.pis]
    if isinstance(obj, PosteriorModel):
        probs = [leaf_predictive_masses(c, obj.a0) for c in obj.counts]
        return obj.family, obj.weights, probs
    raise TypeError(f"expected MixtureApproximation or PosteriorModel, got {type(obj)!r}")


def mixture_density(points, obj):
    """Evaluate the (approximate) predictive density at each point."""
    family, weights, probs = _components(obj)
    pts = as_points(points, family.ndim)
    vals = np.zeros(pts.shape[0])
    for seg, w, pi in zip(family, weights, probs):
        vals += w * pi[leaf_indices(pts, seg)] * (1 << seg.depth)
    return float(vals[0]) if np.ndim(points) == 1 else vals


def leaf_boxes(seg: Segmentation) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper corners of the 2^L deepest boxes, arrays (2^L, ndim)."""
    lo = np.zeros((1, seg.ndim))
    hi = np.ones((1, seg.ndim))
    for dim in seg.dims:
        d = dim - 1
        mid = 0.5 * (lo[:, d] + hi[:, d])
        lo = np.repeat(lo, 2, axis=0)
        hi = np.repeat(hi, 2, axis=0)
        hi[0::2, d] = mid
        lo[1::2, d] = mid
    return lo, hi


def _sample_components(family, weights, leaf_laws, n, gen, draw_of_member):
    """Common sampling core: member ~ weights, leaf ~ member law, uniform in box."""
    member = gen.choice(len(family), size=n, p=weights / weights.sum())
    draw = draw_of_member(member, gen)
    points = np.empty((n, family.ndim))
    leaf = np.empty(n, dtype=np.int64)
    for j in np.unique(member):
        sel = np.flatnonzero(member == j)
        laws = leaf_laws(j)
        if laws.ndim == 1:
            p = laws / laws.sum()
            leaf[sel] = gen.choice(laws.size, size=sel.size, p=p)
        else:
            for h in np.unique(draw[sel]):
                sub = sel[draw[sel] == h]
                p = laws[h] / laws[h].sum()
                leaf[sub] = gen.choice(laws.shape[1], size=sub.size, p=p)
        lo, hi = leaf_boxes(family[j])
        u = gen.uniform(size=(sel.size, family.ndim))
        points[sel] = lo[leaf[sel]] + u * (hi[leaf[sel]] - lo[leaf[sel]])
    return points, member, draw, leaf


def sample_predictive(mix: MixtureApproximation, n: int, rng=None) -> PredictiveSample:
    """n independent draws from the mixture approximation.

    A component (member, draw) is chosen with weight Pr(member)/draws_per_seg,
    a leaf with that component's leaf probabilities, and the point uniformly
    within the leaf box.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen, seed = _as_rng_and_seed(rng)
    points, member, draw, leaf = _sample_components(
        mix.family,
        mix.weights,
        lambda j: mix.pis[j],
        n,
        gen,
        lambda member, g: g.integers(0, mix.draws_per_seg, size=member.size),
    )
    return PredictiveSample(points, seed, member, draw, leaf)


def sample_posterior_predictive(model: PosteriorModel, n: int, rng=None) -> PredictiveSample:
    """n independent draws from the exact posterior predictive.

    Marginalizing the node variables per draw makes the leaf law the
    closed-form predictive leaf masses, so no probability vectors need to
    be drawn; each sample behaves as if it used its own fresh draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen, seed = _as_rng_and_seed(rng)
    points, member, draw, leaf = _sample_components(
        model.family,
        model.weights,
        lambda j: leaf_predictive_masses(model.counts[j], model.a0),
        n,
        gen,
        lambda member, g: np.full(member.size, -1, dtype=np.int64),
    )
    return PredictiveSample(points, seed, member, draw, leaf)


def _as_boxes(region) -> list[Box]:
    if isinstance(region, Box):
        return [region]
    boxes = list(region)
    if not boxes or not all(isinstance(b, Box) for b in boxes):
        raise ValueError("region must be a Box or a nonempty sequence of Box")
    return boxes


def _boxes_disjoint(boxes: Sequence[Box]) -> bool:
    for i in range(len(boxes)):
        for k in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[k]
            if all(
                min(ua, ub) > max(la, lb)
                for la, ua, lb, ub in zip(a.lower, a.upper, b.lower, b.upper)
            ):
                return False
    return True


def predictive_probability(
    region,
    obj,
    method: str = "auto",
    mc_samples: int = 100_000,
    rng=None,
) -> PredictiveProbability:
    """Predictive probability of a union of boxes.

    Component densities are uniform within leaf boxes, so the mass of any
    axis-aligned box is an exact sum of fractional leaf overlaps; that
    analytic path is used whenever the boxes are pairwise disjoint.
    Overlapping unions (or method="mc") fall back to Monte Carlo over
    predictive samples, with the binomial standard error reported.
    """
    boxes = _as_boxes(region)
    family, weights, probs = _components(obj)
    for b in boxes:
        if len(b.lower) != family.ndim:
            raise ValueError("box dimension does not match the family")
    if method not in ("auto", "analytic", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "analytic" and not _boxes_disjoint(boxes):
        raise ValueError("analytic mass needs pairwise-disjoint boxes")
    if method in ("auto", "analytic") and _boxes_disjoint(boxes):
        total = 0.0
        for seg, w, pi in zip(family, weights, probs):
            lo, hi = leaf_boxes(seg)
            side = hi - lo
            for b in boxes:
                ov = np.minimum(hi, b.upper) - np.maximum(lo, b.lower)
                np.clip(ov, 0.0, None, out=ov)
                total += w * float(pi @ np.prod(ov / side, axis=1))
        return PredictiveProbability(total, 0.0, "analytic")
    gen, _ = _as_rng_and_seed(rng)
    if isinstance(obj, MixtureApproximation):
        pts = sample_predictive(obj, mc_samples, gen).points
    else:
        pts = sample_posterior_predictive(obj, mc_samples, gen).points
    inside = np.zeros(mc_samples, dtype=bool)
    for b in boxes:
        inside |= np.all((pts >= b.lower) & (pts <= b.upper), axis=1)
    p = float(inside.mean())
    return PredictiveProbability(p, float(np.sqrt(p * (1.0 - p) / mc_samples)), "mc")


def _common_grid_shape(family: SegmentationFamily) -> tuple[int, ...]:
    max_splits = np.zeros(family.ndim, dtype=np.int64)
    for seg in family:
        np.maximum(max_splits, seg.splits_per_dim(), out=max_splits)
    return tuple(1 << int(s) for s in max_splits)


def grid_mass_matrix(obj) -> tuple[tuple[int, int], np.ndarray]:
    """Predictive mass of every cell of the common refinement grid (2-D only).

    Returns ((nx, ny), M) with M[ix, iy] the mass of cell
    [ix/nx, (ix+1)/nx) x [iy/ny, (iy+1)/ny); dimension 1 is x.
    """
    family, weights, probs = _components(obj)
    if family.ndim != 2:
        raise ValueError("grid mass matrix is defined for 2-D families only")
    nx, ny = _common_grid_shape(family)
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    centers = np.column_stack([np.repeat(xs, ny), np.tile(ys, nx)])
    M = np.zeros(nx * ny)
    for seg, w, pi in zip(family, weights, probs):
        leaf = leaf_indices(centers, seg)
        M += w * pi[leaf] * ((1 << seg.depth) / (nx * ny))
    return (nx, ny), M.reshape(nx, ny)


def _column_quantile(col: np.ndarray, q: float) -> float:
    """Invert the within-column CDF, linear within cells."""
    total = col.sum()
    if total <= 0.0:
        raise ValueError("conditional mass is zero in this column")
    target = q * total
    cum = np.concatenate([[0.0], np.cumsum(col)])
    k = int(np.searchsorted(cum, target, side="right")) - 1
    k = min(max(k, 0), col.size - 1)
    frac = (target - cum[k]) / col[k] if col[k] > 0 else 0.0
    return (k + min(max(frac, 0.0), 1.0)) / col.size


def conditional_quantile(x_value: float, q: float, obj) -> float:
    """Quantile of dimension 2 given that dimension 1 falls at x_value.

    The conditional density is constant within grid cells, so the CDF is
    piecewise linear in y and the quantile profile is piecewise constant
    across the x columns.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    if not 0.0 <= x_value <= 1.0:
        raise ValueError("x_value must lie in [0, 1]")
    (nx, _), M = grid_mass_matrix(obj)
    ix = min(int(x_value * nx), nx - 1)
    return _column_quantile(M[ix], q)


def quantile_curve(q: float, obj) -> np.ndarray:
    """Conditional quantile per x column; entry i covers [i/nx, (i+1)/nx)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    (nx, _), M = grid_mass_matrix(obj)
    return np.array([_column_quantile(M[ix], q) for ix in range(nx)])


def credible_prediction_set(obj, alpha: float) -> list[Box]:
    """Equal-tail band: per x column, the y interval between the alpha/2
    and 1 - alpha/2 conditional quantiles.  Has predictive mass exactly
    1 - alpha under the supplied representation."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    family, _, _ = _components(obj)
    if family.ndim != 2:
        raise ValueError("credible bands are defined for 2-D families only")
    if alpha == 0.0:
        return [Box((0.0, 0.0), (1.0, 1.0))]
    (nx, _), M = grid_mass_matrix(obj)
    boxes = []
    for ix in range(nx):
        lo = _column_quantile(M[ix], alpha / 2.0)
        hi = _column_quantile(M[ix], 1.0 - alpha / 2.0)
        boxes.append(Box((ix / nx, lo), ((ix + 1) / nx, hi)))
    return boxes
