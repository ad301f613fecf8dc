"""Ground-truth densities used by the simulation studies.

Every generator pairs an exact (or high-accuracy) pointwise density with
a sampler, plus a goodness-of-fit self check comparing histogram counts
of its own draws against its own cell probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.stats import chisquare, multivariate_normal, norm

from ..segmentation import _bin

__all__ = [
    "PiecewiseLinearDensity",
    "LogisticStripDensity",
    "LogitNormalRegression",
    "CategoricalGaussianMixture",
    "DEFAULT_1D_DENSITY",
    "chi_square_gof",
]


def chi_square_gof(observed: np.ndarray, cell_probs: np.ndarray) -> tuple[float, float]:
    """Chi-square statistic and p-value for counts against cell probabilities."""
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(cell_probs, dtype=np.float64) * observed.sum()
    stat, pvalue = chisquare(observed, f_exp=expected)
    return float(stat), float(pvalue)


@dataclass(eq=False)
class PiecewiseLinearDensity:
    """Density on [0,1] linear between knots, rescaled to integrate to one.

    Knot placement controls constant and linear regions; the default
    instance below has a constant low shelf, a rising ramp, and a constant
    high shelf, with region boundaries on dyadic points.
    """

    knots_x: Sequence[float]
    knots_y: Sequence[float]
    _x: np.ndarray = field(init=False, repr=False)
    _y: np.ndarray = field(init=False, repr=False)
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.knots_x, dtype=np.float64)
        y = np.asarray(self.knots_y, dtype=np.float64)
        if x.size != y.size or x.size < 2:
            raise ValueError("need matching knot arrays with at least two knots")
        if x[0] != 0.0 or x[-1] != 1.0 or np.any(np.diff(x) <= 0):
            raise ValueError("knots_x must increase strictly from 0 to 1")
        if np.any(y < 0):
            raise ValueError("knot densities must be nonnegative")
        areas = np.diff(x) * (y[:-1] + y[1:]) / 2.0
        total = areas.sum()
        if total <= 0:
            raise ValueError("density integrates to zero")
        self._x = x
        self._y = y / total
        self._cum = np.concatenate([[0.0], np.cumsum(areas / total)])

    def pdf(self, u) -> np.ndarray:
        return np.interp(np.asarray(u, dtype=np.float64), self._x, self._y)

    def cdf(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        k = np.clip(np.searchsorted(self._x, u, side="right") - 1, 0, self._x.size - 2)
        x0, x1 = self._x[k], self._x[k + 1]
        y0, y1 = self._y[k], self._y[k + 1]
        t = (u - x0) / (x1 - x0)
        return self._cum[k] + (x1 - x0) * (y0 * t + 0.5 * (y1 - y0) * t * t)

    def ppf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        k = np.clip(np.searchsorted(self._cum, t, side="right") - 1, 0, self._x.size - 2)
        x0, x1 = self._x[k], self._x[k + 1]
        y0, y1 = self._y[k], self._y[k + 1]
        w = x1 - x0
        s = (t - self._cum[k]) / w
        slope = y1 - y0
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = s / y0
            quad = (np.sqrt(y0 * y0 + 2.0 * slope * s) - y0) / slope
        frac = np.where(np.abs(slope) < 1e-12 * (y0 + y1 + 1.0), lin, quad)
        frac = np.where(s <= 0.0, 0.0, frac)
        return x0 + w * np.clip(frac, 0.0, 1.0)

    def sample(self, n: int, rng=None) -> np.ndarray:
        gen = np.random.default_rng(rng)
        return self.ppf(gen.uniform(size=n))

    def bin_masses(self, n_bins: int) -> np.ndarray:
        edges = np.arange(n_bins + 1) / n_bins
        return np.diff(self.cdf(edges))

    def gof_check(self, n: int = 100_000, rng=None, bins: int = 32) -> tuple[float, float]:
        draws = self.sample(n, rng)
        counts = np.bincount(_bin(draws, bins), minlength=bins)
        return chi_square_gof(counts, self.bin_masses(bins))


DEFAULT_1D_DENSITY = PiecewiseLinearDensity((0.0, 0.25, 0.75, 1.0), (0.5, 0.5, 1.5, 1.5))


@dataclass(eq=False)
class LogisticStripDensity:
    """2-D density 2*sigmoid(slope*(x - center)), constant in y.

    Integrates to one exactly when center = 1/2; the x marginal CDF and
    its inverse are closed-form, so sampling is exact.
    """

    slope: float = 20.0
    center: float = 0.5

    def _softplus(self, t):
        return np.logaddexp(0.0, t)

    def x_cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        s, c = self.slope, self.center
        return (2.0 / s) * (self._softplus(s * (x - c)) - self._softplus(-s * c))

    def x_ppf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        s, c = self.slope, self.center
        w = s * t / 2.0 + self._softplus(-s * c)
        # inverse softplus, stable for positive w
        inner = w + np.log1p(-np.exp(-w))
        return c + inner / s

    def pdf(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return 2.0 / (1.0 + np.exp(-self.slope * (pts[:, 0] - self.center)))

    def sample(self, n: int, rng=None) -> np.ndarray:
        gen = np.random.default_rng(rng)
        x = np.clip(self.x_ppf(gen.uniform(size=n)), 0.0, 1.0)
        return np.column_stack([x, gen.uniform(size=n)])

    def box_mass(self, x0: float, x1: float, y0: float, y1: float) -> float:
        return float((self.x_cdf(x1) - self.x_cdf(x0)) * (y1 - y0))

    def gof_check(self, n: int = 100_000, rng=None, shape=(8, 4)) -> tuple[float, float]:
        nx, ny = shape
        pts = self.sample(n, rng)
        counts = np.bincount(_bin(pts[:, 0], nx) * ny + _bin(pts[:, 1], ny), minlength=nx * ny)
        xs = np.arange(nx + 1) / nx
        probs = np.repeat(np.diff(self.x_cdf(xs)), ny) / ny
        return chi_square_gof(counts, probs)


@dataclass(eq=False)
class LogitNormalRegression:
    """Bivariate density: U_x = sigmoid(X) for X ~ N(0, x_sd^2), and
    U_y = sigmoid(Y) with Y | X normal around a kinked regression line."""

    x_sd: float = 2.0
    y_sd: float = 0.5
    threshold: float = -1.0
    slope: float = 0.9
    level_below: float = -0.9

    def mean_y(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < self.threshold, self.level_below, self.slope * x)

    def sample(self, n: int, rng=None) -> np.ndarray:
        gen = np.random.default_rng(rng)
        x = gen.normal(0.0, self.x_sd, size=n)
        y = self.mean_y(x) + gen.normal(0.0, self.y_sd, size=n)
        return np.column_stack([_sigmoid(x), _sigmoid(y)])

    def pdf(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ux, uy = pts[:, 0], pts[:, 1]
        x, y = _logit(ux), _logit(uy)
        fx = norm.pdf(x, scale=self.x_sd) / (ux * (1.0 - ux))
        fy = norm.pdf(y, loc=self.mean_y(x), scale=self.y_sd) / (uy * (1.0 - uy))
        return fx * fy

    def conditional_quantile(self, u_x, q: float) -> np.ndarray:
        x = _logit(np.asarray(u_x, dtype=np.float64))
        return _sigmoid(self.mean_y(x) + self.y_sd * norm.ppf(q))

    def cell_probs(self, nx: int, ny: int, n_sub: int = 256) -> np.ndarray:
        """Cell probabilities on an nx-by-ny grid by x-quadrature."""
        probs = np.empty((nx, ny))
        y_edges = _logit_clipped(np.arange(ny + 1) / ny)
        for i in range(nx):
            xs = (i + (np.arange(n_sub) + 0.5) / n_sub) / nx
            x = _logit(xs)
            wx = norm.pdf(x, scale=self.x_sd) / (xs * (1.0 - xs)) / (nx * n_sub)
            cdf = norm.cdf((y_edges[None, :] - self.mean_y(x)[:, None]) / self.y_sd)
            probs[i] = wx @ np.diff(cdf, axis=1)
        return probs

    def gof_check(self, n: int = 100_000, rng=None, shape=(8, 4)) -> tuple[float, float]:
        nx, ny = shape
        pts = self.sample(n, rng)
        counts = np.bincount(_bin(pts[:, 0], nx) * ny + _bin(pts[:, 1], ny), minlength=nx * ny)
        probs = self.cell_probs(nx, ny).ravel()
        return chi_square_gof(counts, probs / probs.sum())


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=np.float64)))


def _logit(u):
    u = np.asarray(u, dtype=np.float64)
    return np.log(u) - np.log1p(-u)


def _logit_clipped(u, eps: float = 1e-12):
    return _logit(np.clip(np.asarray(u, dtype=np.float64), eps, 1.0 - eps))


@dataclass(eq=False)
class CategoricalGaussianMixture:
    """One 3-level categorical plus 8 Gaussians, correlated under level "a".

    All levels share zero mean and unit marginal variances; under the
    first level the leading two coordinates have the given covariance.
    """

    level_probs: tuple[float, ...] = (0.5, 0.3, 0.2)
    levels: tuple[str, ...] = ("a", "b", "c")
    n_continuous: int = 8
    pair_cov: float = 0.8

    def _cov(self, level: str) -> np.ndarray:
        cov = np.eye(self.n_continuous)
        if level == self.levels[0]:
            cov[0, 1] = cov[1, 0] = self.pair_cov
        return cov

    def sample(self, n: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
        gen = np.random.default_rng(rng)
        labels = gen.choice(np.array(self.levels, dtype=object), size=n, p=self.level_probs)
        y = gen.standard_normal((n, self.n_continuous))
        mask = labels == self.levels[0]
        rho = self.pair_cov
        y[mask, 1] = rho * y[mask, 0] + np.sqrt(1.0 - rho * rho) * y[mask, 1]
        return labels, y

    def pdf(self, labels, y) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        labels = np.asarray(labels, dtype=object)
        out = np.empty(y.shape[0])
        for level, p in zip(self.levels, self.level_probs):
            mask = labels == level
            if mask.any():
                mvn = multivariate_normal(mean=np.zeros(self.n_continuous), cov=self._cov(level))
                out[mask] = p * mvn.pdf(y[mask])
        return out

    def _pair_rect_probs(self, level: str, nx: int, ny: int) -> np.ndarray:
        """Rectangle probabilities of (Y1, Y2) on a quantile-edged grid."""
        xe = norm.ppf(np.arange(nx + 1) / nx)
        ye = norm.ppf(np.arange(ny + 1) / ny)
        if level != self.levels[0]:
            return np.outer(np.diff(norm.cdf(xe)), np.diff(norm.cdf(ye)))
        mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, self.pair_cov], [self.pair_cov, 1.0]])

        def cdf(a, b):
            if np.isneginf(a) or np.isneginf(b):
                return 0.0
            big = 12.0
            return float(mvn.cdf([min(a, big), min(b, big)]))

        out = np.empty((nx, ny))
        for i in range(nx):
            for j in range(ny):
                out[i, j] = (
                    cdf(xe[i + 1], ye[j + 1])
                    - cdf(xe[i], ye[j + 1])
                    - cdf(xe[i + 1], ye[j])
                    + cdf(xe[i], ye[j])
                )
        return out

    def gof_check(self, n: int = 100_000, rng=None) -> tuple[float, float]:
        """32-cell check: level "a" on a 4x4 (Y1, Y2) grid, others on 2x4."""
        labels, y = self.sample(n, rng)
        shapes = {self.levels[0]: (4, 4), self.levels[1]: (2, 4), self.levels[2]: (2, 4)}
        counts, probs = [], []
        for level, p in zip(self.levels, self.level_probs):
            nx, ny = shapes[level]
            mask = labels == level
            ix = np.clip(np.searchsorted(norm.ppf(np.arange(1, nx) / nx), y[mask, 0]), 0, nx - 1)
            iy = np.clip(np.searchsorted(norm.ppf(np.arange(1, ny) / ny), y[mask, 1]), 0, ny - 1)
            counts.append(np.bincount(ix * ny + iy, minlength=nx * ny))
            probs.append(p * self._pair_rect_probs(level, nx, ny).ravel())
        counts = np.concatenate(counts)
        probs = np.concatenate(probs)
        return chi_square_gof(counts, probs / probs.sum())
