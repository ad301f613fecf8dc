"""Reference computations and output checks, made apart from polyatree.

Nothing here calls the package.  Counts come from the benchmark's own
binning of every split: after k halvings of dimension d a coordinate sits
in cell ``min(floor(u_d * 2^k), 2^k - 1)``, and a box is the tuple of its
cells, packed into one integer.  Weights follow from those counts with
``scipy.special.gammaln``, and predictive densities from the count-ratio
product 2 (N_child + a0) / (N_parent + 2 a0) along a point's boxes.

The one convention taken from the package's documentation is the order of
leaf probabilities in a drawn mixture: leaf index bits, most significant
first, say lower (0) or upper (1) half of each level's split.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp


def family_dims(family) -> list[tuple[np.ndarray, np.ndarray]]:
    """(member indices, split dimensions as a (members, depth) int array)
    for each depth in the family."""
    rows = [tuple(seg.dims) for seg in family]
    groups: dict[int, list[int]] = {}
    for j, dims in enumerate(rows):
        groups.setdefault(len(dims), []).append(j)
    return [
        (np.array(idx), np.array([rows[j] for j in idx], dtype=np.int64))
        for _, idx in sorted(groups.items())
    ]


def _log_betabinom(k, n, a0):
    return (
        gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - gammaln(n - k + 1.0)
        + gammaln(k + a0)
        + gammaln(n - k + a0)
        - gammaln(n + 2.0 * a0)
        - (2.0 * gammaln(a0) - gammaln(2.0 * a0))
    )


def _recount_group(points, query, dims, a0):
    """Log weights (M,) and log predictive densities (M, q) for one depth."""
    M, L = dims.shape
    m = points.shape[0]
    ndim = points.shape[1]
    cols = np.ascontiguousarray(np.vstack([points, query]).T)  # (ndim, n)
    totals = np.stack([(dims == d + 1).sum(axis=1) for d in range(ndim)], axis=1)
    shifts = np.zeros_like(totals)
    shifts[:, 1:] = np.cumsum(totals, axis=1)[:, :-1]
    done = np.zeros_like(totals)
    member = np.arange(M)
    offset = (member << L)[:, None]
    keys = np.zeros((M, cols.shape[1]), dtype=np.int64)
    nbins = M << L
    prev_counts = np.bincount((offset + keys[:, :m]).ravel(), minlength=nbins)
    log_w = np.zeros(M)
    log_dens = np.zeros((M, query.shape[0]))
    for level in range(L):
        d = dims[:, level] - 1
        k = done[member, d]
        u = cols[d]  # (M, n)
        old_n = (1 << k)[:, None]
        new_n = (2 << k)[:, None]
        c_old = np.minimum(np.floor(u * old_n).astype(np.int64), old_n - 1)
        c_new = np.minimum(np.floor(u * new_n).astype(np.int64), new_n - 1)
        lower = c_new % 2 == 0
        parent = offset + keys
        parent_train = parent[:, :m].ravel()
        n_parent = prev_counts
        n_lower = np.bincount(parent_train, weights=lower[:, :m].ravel(), minlength=nbins)
        occ = np.flatnonzero(n_parent)
        terms = _log_betabinom(np.rint(n_lower[occ]), n_parent[occ].astype(np.float64), a0)
        log_w += np.bincount(occ >> L, weights=terms, minlength=M)
        keys = keys + ((c_new - c_old) << shifts[member, d][:, None])
        done[member, d] += 1
        counts = np.bincount((offset + keys[:, :m]).ravel(), minlength=nbins)
        child_q = counts[(offset + keys[:, m:])]
        parent_q = prev_counts[parent[:, m:]]
        log_dens += np.log(2.0) + np.log(child_q + a0) - np.log(parent_q + 2.0 * a0)
        prev_counts = counts
    occ = np.flatnonzero(prev_counts)
    log_w += np.bincount(occ >> L, weights=gammaln(prev_counts[occ] + 1.0), minlength=M)
    log_w -= gammaln(m + 1.0)
    return log_w, log_dens


def recount(points, family, a0, query=None):
    """Unnormalized log weight of every member, and the log predictive
    density of every member at each query point (None without queries)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, family.ndim)
    q = np.zeros((0, family.ndim)) if query is None else np.asarray(query, dtype=np.float64)
    log_w = np.empty(len(family))
    log_dens = np.empty((len(family), q.shape[0]))
    for idx, dims in family_dims(family):
        lw, ld = _recount_group(pts, q, dims, float(a0))
        log_w[idx] = lw
        log_dens[idx] = ld
    return log_w, (None if query is None else log_dens)


def predictive_density(points, family, a0, query):
    """Exact posterior predictive density at the query points."""
    log_w, log_dens = recount(points, family, a0, query)
    log_norm = log_w - logsumexp(log_w)
    return np.exp(logsumexp(log_norm[:, None] + log_dens, axis=0))


def grid_shape(family) -> tuple[int, int]:
    """Finest common grid of a 2-D family: 2^(most splits) cells per axis."""
    sx = max(sum(1 for d in seg.dims if d == 1) for seg in family)
    sy = max(sum(1 for d in seg.dims if d == 2) for seg in family)
    return 1 << sx, 1 << sy


def cell_centres(nx: int, ny: int) -> np.ndarray:
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    return np.column_stack([np.repeat(xs, ny), np.tile(ys, nx)])


def exact_grid_mass(points, family, a0) -> np.ndarray:
    """Predictive mass of each cell of the common grid, shape (nx, ny)."""
    nx, ny = grid_shape(family)
    dens = predictive_density(points, family, a0, cell_centres(nx, ny))
    return dens.reshape(nx, ny) / (nx * ny)


def mixture_grid_mass(family, weights, pis) -> np.ndarray:
    """Grid mass of a draw mixture from its member weights and leaf draws."""
    nx, ny = grid_shape(family)
    out = np.zeros((nx, ny))
    for seg, w, draws in zip(family, weights, pis):
        depth = len(seg.dims)
        leaf = np.arange(1 << depth)
        cx = np.zeros_like(leaf)
        cy = np.zeros_like(leaf)
        for level, d in enumerate(seg.dims):
            bit = (leaf >> (depth - 1 - level)) & 1
            if d == 1:
                cx = 2 * cx + bit
            else:
                cy = 2 * cy + bit
        sx = sum(1 for d in seg.dims if d == 1)
        sy = depth - sx
        mean = np.asarray(draws, dtype=np.float64).mean(axis=0)
        member = np.zeros((1 << sx, 1 << sy))
        member[cx, cy] = mean
        rx, ry = nx >> sx, ny >> sy
        out += w * np.repeat(np.repeat(member, rx, axis=0), ry, axis=1) / (rx * ry)
    return out


def column_score(M: np.ndarray, point) -> float:
    """Conditional CDF of y given x's column, linear within cells."""
    nx, ny = M.shape
    x, y = float(point[0]), float(point[1])
    col = M[min(int(x * nx), nx - 1)]
    cell = min(int(y * ny), ny - 1)
    frac = y * ny - cell
    return float((col[:cell].sum() + frac * col[cell]) / col.sum())


def box_mass(M: np.ndarray, lower, upper) -> float:
    """Mass of an axis-aligned box under a grid mass matrix."""
    nx, ny = M.shape

    def overlap(n, lo, hi):
        edges = np.arange(n + 1) / n
        return np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None) * n

    return float(overlap(nx, lower[0], upper[0]) @ M @ overlap(ny, lower[1], upper[1]))


def swapped_scores(train, candidate, family, a0) -> tuple[np.ndarray, float]:
    """Brute force: score of each training point on its swapped set (that
    point replaced by the candidate), and the candidate's score on train."""
    train = np.asarray(train, dtype=np.float64)
    scores = np.empty(train.shape[0])
    for i in range(train.shape[0]):
        swapped = train.copy()
        swapped[i] = candidate
        scores[i] = column_score(exact_grid_mass(swapped, family, a0), train[i])
    return scores, column_score(exact_grid_mass(train, family, a0), candidate)


def loo_scores(train, family, a0) -> np.ndarray:
    """Brute force: score of each training point on the other m-1 points."""
    train = np.asarray(train, dtype=np.float64)
    keep = np.ones(train.shape[0], dtype=bool)
    scores = np.empty(train.shape[0])
    for i in range(train.shape[0]):
        keep[i] = False
        scores[i] = column_score(exact_grid_mass(train[keep], family, a0), train[i])
        keep[i] = True
    return scores


def default_y_grid(family) -> np.ndarray:
    """Finest y-cell boundaries and midpoints, the documented default grid."""
    _, ny = grid_shape(family)
    return np.unique(np.concatenate([np.arange(ny + 1) / ny, (np.arange(ny) + 0.5) / ny]))


# ---------------------------------------------------------------------------
# Checks.  Each appends a message to ``failures`` when the output is wrong.


class Checks:
    """Collects failed checks; ``ok`` is true while none has failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, cond: bool, what: str) -> None:
        self.count += 1
        if not cond:
            self.failures.append(what)

    def close(self, got, want, tol: float, what: str) -> None:
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.require(False, f"{what}: shape {got.shape} != {want.shape}")
            return
        err = np.abs(got - want)
        worst = float(np.max(err)) if err.size else 0.0
        self.require(bool(np.all(np.isfinite(got))) and worst <= tol, f"{what}: error {worst:.3g} > {tol:g}")


def check_weights(checks, log_unnormalized, log_weights, reference, what="weights"):
    """Log weights equal the recount, and normalized weights log-sum-exp to 0."""
    ref = np.asarray(reference, dtype=np.float64)
    checks.close(log_unnormalized, ref, 1e-9, f"{what}: unnormalized log weights vs recount")
    checks.close(log_weights, ref - logsumexp(ref), 1e-9, f"{what}: normalized log weights vs recount")
    checks.close(logsumexp(log_weights), 0.0, 1e-9, f"{what}: log-sum-exp of normalized weights")


def check_density(checks, values, reference, what="density"):
    """Predictive density equals the count-ratio product, to relative 1e-9."""
    ref = np.asarray(reference, dtype=np.float64)
    checks.close(np.asarray(values, dtype=np.float64) / ref, np.ones_like(ref), 1e-9, f"{what}: vs count-ratio product")


def check_in_cube(checks, samples, what="samples"):
    s = np.asarray(samples)
    checks.require(s.size > 0 and bool(np.all((s >= 0.0) & (s <= 1.0))), f"{what}: outside the unit cube")


def check_grid_average(checks, values, what="density"):
    """A density that is constant on grid cells averages to 1 over cell centres."""
    checks.close(np.mean(values), 1.0, 1e-9, f"{what}: grid average")


def check_credible_mass(checks, boxes, M, alpha, what="credible set"):
    mass = sum(box_mass(M, b.lower, b.upper) for b in boxes)
    checks.close(mass, 1.0 - alpha, 1e-9, f"{what}: mass")


def check_quantiles_monotone(checks, curves, what="quantile curves"):
    """curves: dict q -> per-column values; nondecreasing in q, inside [0, 1]."""
    qs = sorted(curves)
    stack = np.array([curves[q] for q in qs])
    checks.require(bool(np.all((stack >= 0.0) & (stack <= 1.0))), f"{what}: outside [0, 1]")
    checks.require(bool(np.all(np.diff(stack, axis=0) >= 0.0)), f"{what}: decreasing in q")


def check_pvalue(checks, p, brute_scores, cand_score, m, direction="below", tol=1e-9, what="p-value"):
    """p lies in [k/(m+1), (k+1)/(m+1)], k counting brute-force scores on the
    conforming side of the candidate's; ties within tol may go either way."""
    s = np.asarray(brute_scores)
    if direction == "below":
        k_lo, k_hi = np.sum(s < cand_score - tol), np.sum(s <= cand_score + tol)
    else:
        k_lo, k_hi = np.sum(s > cand_score + tol), np.sum(s >= cand_score - tol)
    lo, hi = k_lo / (m + 1), (k_hi + 1) / (m + 1)
    checks.require(lo - 1e-12 <= p <= hi + 1e-12, f"{what}: {p:.6f} outside [{lo:.6f}, {hi:.6f}]")


def check_band(checks, band, y_grid, what="band"):
    """Endpoints on the y-grid, lower <= upper where both sides are present."""
    checks.require(np.array_equal(np.asarray(band.y_grid), y_grid), f"{what}: y-grid differs from the default")
    for lo, hi in zip(band.lower, band.upper):
        for v in (lo, hi):
            checks.require(np.isnan(v) or bool(np.any(y_grid == v)), f"{what}: endpoint {v} off the y-grid")
        if not (np.isnan(lo) or np.isnan(hi)):
            checks.require(lo <= hi, f"{what}: lower {lo} > upper {hi}")
