"""Predictive inference from a fitted segmentation family.

Two interchangeable representations of the posterior predictive are
supported by every function here:

* a ``PosteriorModel`` - the exact predictive, whose per-leaf masses have
  a closed form (product of count ratios down the tree), and
* a ``MixtureApproximation`` - a fixed collection of posterior draws of
  the leaf probabilities, one block (members, draws_per_seg, 2^L), each
  mixture component carrying weight Pr(segmentation | data) /
  draws_per_seg; the whole block comes from one Beta call per level.

Since every component density is constant within leaf boxes, densities,
conditional distributions over a 2-D grid, the probability of any union
of boxes, quantiles and credible bands are all available in closed form
given the component leaf probabilities, each read through one path for
both representations.  A leaf box's lower corner is its bits times its
member's per-level corner steps, and its widths follow from the member's
split counts, so no member's boxes are built one at a time.

Both samplers run one kernel over the whole family: leaf laws only for
the distinct drawn (member, draw) rows, every leaf by bisection of its
row's CDF, every point in its leaf's box.  After the members (and draws),
the doubles come from one call in sample order: every sample's leaf
uniform, then every sample's in-box offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hbeta import CountsTree, leaf_predictive_masses, pi_from_phi, sample_phi_posterior
from .posterior import PosteriorModel, _blocks
from .segmentation import Segmentation, SegmentationFamily, _check_count, _corner_steps, _leaves, as_points

__all__ = [
    "MixtureApproximation",
    "PredictiveSample",
    "Box",
    "PredictiveProbability",
    "build_mixture",
    "leaf_boxes",
    "mixture_predictive_density",
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
    """A generator from anything `np.random.default_rng` takes; the seed is
    recorded for an integer only."""
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    return np.random.default_rng(rng), seed  # a Generator comes back unaltered


@dataclass(frozen=True, eq=False)
class MixtureApproximation:
    """Posterior draws of leaf probabilities, `draws_per_seg` per member.

    ``pis`` is one block (members, draws_per_seg, 2^L): ``pis[j]`` holds one
    row per drawn probability vector for family member j, and the number of
    draws is read from its shape.  Fields are fixed once made, as the grid
    masses are built from them on first read.
    """

    family: SegmentationFamily
    weights: np.ndarray
    pis: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        shape, want = np.shape(self.pis), (len(self.family), 1 << self.family.depth)
        if len(shape) != 3 or shape[::2] != want or not shape[1]:
            raise ValueError(f"pis must have shape ({want[0]}, draws >= 1, {want[1]}), got {shape}")

    @property
    def draws_per_seg(self) -> int:
        return self.pis.shape[1]

    @cached_property
    def _grid_mass(self) -> np.ndarray:
        """`_grid_mass` of the mixture, built on first read."""
        return _grid_mass(self)


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


def _draw(stack: CountsTree, a0: float, draws: int, gen: np.random.Generator) -> np.ndarray:
    """Conjugate-posterior leaf probabilities (members, draws, 2^L) of a count
    stack: one Beta call per level, the stack broadcast over the draws
    without copying."""
    shape = (stack.levels[0].shape[0], draws)
    levels = tuple(np.broadcast_to(c[:, None], shape + c.shape[1:]) for c in stack.levels)
    return pi_from_phi(sample_phi_posterior(CountsTree(levels), a0, gen))


def build_mixture(model: PosteriorModel, draws_per_seg: int = 50, rng=None) -> MixtureApproximation:
    """Draw `draws_per_seg` conjugate-posterior probability vectors per member
    of the model's count stack, one (members, draws, 2^L) block."""
    _check_count("draws_per_seg", draws_per_seg, 1)
    gen, seed = _as_rng_and_seed(rng)
    pis = _draw(model.stack, model.a0, draws_per_seg, gen)
    return MixtureApproximation(model.family, model.weights.copy(), pis, seed)


def _family(obj) -> SegmentationFamily:
    if isinstance(obj, (MixtureApproximation, PosteriorModel)):
        return obj.family
    raise TypeError(f"expected MixtureApproximation or PosteriorModel, got {type(obj)!r}")


def _components(obj) -> tuple[SegmentationFamily, np.ndarray, np.ndarray]:
    """Family, member weights and mean leaf probabilities (members, 2^L) of
    either representation."""
    family = _family(obj)
    if isinstance(obj, PosteriorModel):
        return family, obj.weights, leaf_predictive_masses(obj.stack, obj.a0)
    return family, obj.weights, obj.pis.mean(axis=1)


def _mixture_at(pts: np.ndarray, family: SegmentationFamily, weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Sum over members of w_j * table_j[leaf] * 2^L at validated points,
    table (members, 2^L)."""
    vals = np.zeros(pts.shape[0])
    for rows in _blocks(pts.shape[0], len(family) * family.ndim):
        vals[rows] = _mixture_of(_leaves(pts[rows], family), weights, table)
    return vals


def _mixture_of(leaves: np.ndarray, weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """`_mixture_at` at points with leaves (members, n).  Members add up in
    order (a cumulative sum), whatever the number of points."""
    mass = np.take_along_axis(table, leaves, axis=1)
    return np.cumsum(weights[:, None] * mass * table.shape[1], axis=0)[-1]


def mixture_predictive_density(points, obj):
    """Predictive density at each point: the weighted members' leaf masses
    times 2^L at the point's leaves.  A model's masses are its exact
    predictive leaf masses, a mixture's the means of its drawn rows."""
    family, weights, table = _components(obj)
    vals = _mixture_at(as_points(points, family.ndim), family, weights, table)
    return float(vals[0]) if np.ndim(points) == 1 else vals


def _lower_corners(depth: int, steps: np.ndarray) -> np.ndarray:
    """Lower corners (..., 2^depth, ndim) of every leaf, from corner steps
    (..., depth, ndim): the leaf's bits, first level highest, times the steps."""
    bits = (np.arange(1 << depth)[:, None] >> np.arange(depth - 1, -1, -1)) & 1
    return bits @ steps


def leaf_boxes(seg: Segmentation) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper corners of the 2^L deepest boxes, arrays (2^L, ndim)."""
    lo = _lower_corners(seg.depth, _corner_steps(np.array([seg.dims]), seg.ndim)[0])
    return lo, lo + 0.5 ** seg.splits_per_dim()


def _sample_components(family, weights, n, gen, draw_of_member, leaf_laws):
    """Common sampling core: member ~ weights, leaf ~ its law, uniform in box.

    ``leaf_laws(members, draws)`` gives the leaf laws (rows, 2^L) of the
    distinct drawn (member, draw) rows, sorted; draw -1 is the exact law.
    A leaf is ``Generator.choice``'s right bisection of its row's CDF,
    formed as choice forms it: each step finds one leaf bit and adds that
    level's corner step."""
    member = gen.choice(len(family), size=n, p=weights / weights.sum())
    draw = draw_of_member(member, gen)
    ndim = family.ndim
    stream = gen.random(n * (1 + ndim))
    u, offset = stream[:n], stream[n:].reshape(n, ndim)  # leaf uniforms, then in-box offsets
    span = int(draw.max()) + 2  # (member, draw + 1) keys of leaf-law rows
    keys, row = np.unique(member * span + draw + 1, return_inverse=True)
    law = leaf_laws(keys // span, keys % span - 1)
    p = law / law.sum(axis=1, keepdims=True)
    if not np.all(p >= 0.0):  # NaN fails too: Generator.choice's check
        raise ValueError("leaf probabilities must be finite, non-negative and not all zero")
    cdf = np.cumsum(p, axis=1)
    cdf = (cdf / cdf[:, -1:]).ravel()
    depth = family.depth
    leaf, lo = np.zeros(n, np.int64), np.zeros((n, ndim))
    base = row * (1 << depth) - 1
    for l in range(depth):
        bit = cdf[base + leaf + (1 << (depth - 1 - l))] <= u
        leaf += bit << (depth - 1 - l)
        lo += bit[:, None] * family._steps[member, l]
    cls, scale = family._table[:2]
    return lo + offset * (1.0 / scale[cls[member], 0]), member, draw, leaf


def sample_predictive(mix: MixtureApproximation, n: int, rng=None) -> PredictiveSample:
    """n independent draws from the mixture approximation.

    A component (member, draw) is chosen with weight Pr(member)/draws_per_seg,
    a leaf with that component's leaf probabilities, and the point uniformly
    within the leaf box.  One kernel samples the whole family; only the
    drawn components' rows of ``pis`` are read.
    """
    _check_count("n", n, 1)
    gen, seed = _as_rng_and_seed(rng)
    points, member, draw, leaf = _sample_components(
        mix.family,
        mix.weights,
        n,
        gen,
        lambda member, g: g.integers(0, mix.draws_per_seg, size=member.size),
        lambda members, draws: mix.pis[members, draws],
    )
    return PredictiveSample(points, seed, member, draw, leaf)


def sample_posterior_predictive(model: PosteriorModel, n: int, rng=None) -> PredictiveSample:
    """n independent draws from the exact posterior predictive.

    Marginalizing the node variables per draw makes the leaf law the
    closed-form predictive leaf masses, so no probability vectors need to
    be drawn; each sample behaves as if it used its own fresh draw.  One
    kernel samples the whole family; leaf masses are computed only for the
    drawn members' rows of the count stack.
    """
    _check_count("n", n, 1)
    gen, seed = _as_rng_and_seed(rng)

    def laws(members, _):
        return leaf_predictive_masses(CountsTree(tuple(c[members] for c in model.stack.levels)), model.a0)

    points, member, draw, leaf = _sample_components(
        model.family,
        model.weights,
        n,
        gen,
        lambda member, g: np.full(member.size, -1, dtype=np.int64),
        laws,
    )
    return PredictiveSample(points, seed, member, draw, leaf)


def _as_boxes(region) -> list[Box]:
    if isinstance(region, Box):
        return [region]
    boxes = list(region)
    if not boxes or not all(isinstance(b, Box) for b in boxes):
        raise ValueError("region must be a Box or a nonempty sequence of Box")
    return boxes


def _outside(lower: tuple, upper: tuple, box: Box) -> list[tuple[tuple, tuple]]:
    """Disjoint boxes (lower, upper) covering [lower, upper] less `box`:
    the box itself when the two share no volume (a shared face is none),
    else the slabs cut off at `box`'s faces, up to two per dimension."""
    if not all(max(a, c) < min(b, e) for a, b, c, e in zip(lower, upper, box.lower, box.upper)):
        return [(lower, upper)]
    parts, lo, hi = [], list(lower), list(upper)
    for d, (c, e) in enumerate(zip(box.lower, box.upper)):
        if lo[d] < c:
            parts.append((tuple(lo), tuple(hi[:d] + [c] + hi[d + 1 :])))
            lo[d] = c
        if e < hi[d]:
            parts.append((tuple(lo[:d] + [e] + lo[d + 1 :]), tuple(hi)))
            hi[d] = e
    return parts  # what is left, [lo, hi], lies inside `box`


def _pieces(boxes: list[Box]) -> list[tuple[tuple, tuple]]:
    """Disjoint boxes (lower, upper) whose union is the boxes' union: each
    box less every earlier box.  Pairwise disjoint boxes are their own
    pieces, in order."""
    pieces = []
    for i, box in enumerate(boxes):
        parts = [(box.lower, box.upper)]
        for earlier in boxes[:i]:
            parts = [part for lower, upper in parts for part in _outside(lower, upper, earlier)]
        pieces += parts
    return pieces


def predictive_probability(region, obj) -> PredictiveProbability:
    """Predictive probability of a box or a union of boxes, exact.

    Component densities are uniform within leaf boxes, so the mass of any
    axis-aligned box is a sum of fractional leaf overlaps.  A union is
    first cut into disjoint pieces, each box less the earlier boxes it
    overlaps, so that no volume counts twice, and the pieces' masses add.
    """
    boxes = _as_boxes(region)
    family, weights, table = _components(obj)
    if any(len(b.lower) != family.ndim for b in boxes):
        raise ValueError("box dimension does not match the family")
    cls, scale = family._table[:2]
    width = 1.0 / scale[cls, 0]  # (members, ndim)
    share = 0
    for lower, upper in _pieces(boxes):  # a piece's share of every leaf, one dimension at a time
        part = 1.0
        for d in range(family.ndim):
            lo = _lower_corners(family.depth, family._steps[..., d, None])[..., 0]  # (members, 2^L)
            hi = lo + width[:, d, None]
            part = part * (np.clip(np.minimum(hi, upper[d]) - np.maximum(lo, lower[d]), 0.0, None) / (hi - lo))
        share = share + part
    return PredictiveProbability(float(weights @ np.sum(table * share, axis=-1)))


def grid_mass_matrix(obj) -> tuple[tuple[int, int], np.ndarray]:
    """Predictive mass of every cell of the common refinement grid (2-D only).

    Returns ((nx, ny), M) with M[ix, iy] the mass of cell
    [ix/nx, (ix+1)/nx) x [iy/ny, (iy+1)/ny); dimension 1 is x.  M is built
    once per model or mixture and is read-only.
    """
    family = _family(obj)
    if family.ndim != 2:
        raise ValueError("grid mass matrix is defined for 2-D families only")
    return family._grid[0], obj._grid_mass


def _grid_mass(obj) -> np.ndarray:
    """The grid masses of `grid_mass_matrix`, read-only.  Every member's
    density is constant on each cell, so the mass is the density at the
    cell centre divided by nx * ny, a power of two: exact."""
    family, weights, table = _components(obj)
    (nx, ny), leaves = family._grid[:2]
    mass = (_mixture_of(leaves, weights, table) / (nx * ny)).reshape(nx, ny)
    mass.flags.writeable = False
    return mass


def _bin(values: np.ndarray, n: int) -> np.ndarray:
    """Index of the cell of [0, 1] split into n that holds each value; 1 is in the top cell."""
    return np.minimum((values * n).astype(np.int64), n - 1)


def _mass(total: np.ndarray) -> np.ndarray:
    """Column totals, checked: a column without mass has no conditional law."""
    if np.any(total <= 0.0):  # drawn leaf probabilities can underflow to 0
        raise ValueError("conditional mass is zero in this column")
    return total


def _column_quantile(M: np.ndarray, q: float) -> np.ndarray:
    """Invert every column's CDF of grid cell masses M (nx, ny) at q, linear within cells."""
    target = q * _mass(M.sum(axis=1))
    cum = np.concatenate([np.zeros((M.shape[0], 1)), np.cumsum(M, axis=1)], axis=1)
    # a count of cum <= target is searchsorted(side="right") on each row
    k = np.clip(np.sum(cum <= target[:, None], axis=1) - 1, 0, M.shape[1] - 1)
    cell, below = np.take_along_axis(M, k[:, None], 1)[:, 0], np.take_along_axis(cum, k[:, None], 1)[:, 0]
    frac = np.divide(target - below, cell, out=np.zeros_like(target), where=cell > 0)
    return (k + np.clip(frac, 0.0, 1.0)) / M.shape[1]


def conditional_quantile(x_value: float, q: float, obj) -> float:
    """Quantile of dimension 2 given that dimension 1 falls at x_value.

    The conditional density is constant within grid cells, so the CDF is
    piecewise linear in y and the quantile profile is piecewise constant
    across the x columns.
    """
    if not 0.0 <= x_value <= 1.0:
        raise ValueError("x_value must lie in [0, 1]")
    curve = quantile_curve(q, obj)
    return curve[min(int(x_value * curve.size), curve.size - 1)]


def quantile_curve(q: float, obj) -> np.ndarray:
    """Conditional quantile per x column; entry i covers [i/nx, (i+1)/nx)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    return _column_quantile(grid_mass_matrix(obj)[1], q)


def credible_prediction_set(obj, alpha: float) -> list[Box]:
    """Equal-tail band: per x column, the y interval between the alpha/2
    and 1 - alpha/2 conditional quantiles.  Has predictive mass exactly
    1 - alpha under the supplied representation."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    family = _family(obj)
    if family.ndim != 2:
        raise ValueError("credible bands are defined for 2-D families only")
    if alpha == 0.0:
        return [Box((0.0, 0.0), (1.0, 1.0))]
    lo, hi = (quantile_curve(q, obj) for q in (alpha / 2.0, 1.0 - alpha / 2.0))
    nx = lo.size
    return [Box((ix / nx, lo[ix]), ((ix + 1) / nx, hi[ix])) for ix in range(nx)]
