"""The benchmark's workloads.

A workload builds its family and fixed inputs in ``setup`` and then yields
rounds.  A round is a fixed list of operations, each one call sequence into
the package's public API, run one after another by a single caller.  Its
inputs are drawn from the study densities with ``SeedSequence([seed, r])``,
so a seed and a round index name them exactly.  ``check`` compares a
round's outputs with the references in ``oracle``; ``metrics`` turns the
per-operation times of all rounds into the reported figures.
"""

from __future__ import annotations

import numpy as np
import polyatree as pt
from polyatree.simharness import densities, studies

import oracle

A0 = 1.0
SETUP_ROUND = 2**31  # stream of the set-up's warm-up input; rounds never reach it


def _rng(seq) -> np.random.Generator:
    return np.random.default_rng(seq)


def _streams(seed: int, r: int, n: int):
    return np.random.SeedSequence([seed, r]).spawn(n)


def _put(key, fn):
    """An operation that stores fn(ctx) in the context under key."""
    return lambda c: c.__setitem__(key, fn(c))


def _update_ops(add_point, remove_point):
    """One incremental add and one remove, each followed by a weight read
    appended to ctx["reads"]; the points are functions of the context."""

    def read(c):
        c.setdefault("reads", []).append(c["inc"].log_weights)

    return [
        ("add", lambda c: c["inc"].add_point(add_point(c))),
        ("read_weights", read),
        ("remove", lambda c: c["inc"].remove_point(remove_point(c))),
        ("read_weights", read),
    ]


def _grid(n: int) -> np.ndarray:
    g = (np.arange(n) + 0.5) / n
    return np.column_stack([np.repeat(g, n), np.tile(g, n)])


class Workload:
    name = ""
    setup_repeats = 10

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def round(self, r: int):
        """(operations, context) of round r; operations are (name, fn(ctx))."""
        raise NotImplementedError

    def check(self, ctx: dict, checks: oracle.Checks, full: bool) -> None:
        raise NotImplementedError

    def metrics(self, rounds: list[dict]) -> tuple[dict, dict]:
        """(end-to-end metrics common to all workloads, this workload's own)."""
        raise NotImplementedError

    @staticmethod
    def _common(rounds, density_points, sample_ops) -> dict:
        """fit_s, density_points_per_s and samples_per_s."""
        return {
            "fit_s": med(rounds, "fit"),
            "density_points_per_s": density_points / med(rounds, "density"),
            "samples_per_s": sum(n for _, n in sample_ops) / sum(med(rounds, name) for name, _ in sample_ops),
        }


def med(rounds, name) -> float:
    """Median time of one operation over all its calls in all rounds of a run."""
    return float(np.median([t for times in rounds for t in times.get(name, ())]))


# ---------------------------------------------------------------------------


class WideFit(Workload):
    """Highdim study set-up: 8 continuous columns and one 3-level categorical,
    encoded onto the 10-cube and fitted with the 1960-member family."""

    name = "wide-fit"
    setup_repeats = 5
    candidate_dims = range(1, 9)  # the study's 28 pairs: 1960 members
    m = 400
    held_out = 200
    n_samples = 1000

    def setup(self, seed):
        self.seed = seed
        self.density = densities.CategoricalGaussianMixture()
        self.schema = [pt.ColumnSchema(f"y{j}", "continuous") for j in range(1, 9)]
        self.schema.append(pt.ColumnSchema("x", "categorical", self.density.levels))
        self.family = studies.highdim_family(candidate_dims=self.candidate_dims)
        self.swapped = pt.SegmentationFamily(
            tuple(studies.move_prefix_to_suffix(seg) for seg in self.family)
        )
        table, _ = self._tables(_rng(np.random.SeedSequence([seed, SETUP_ROUND])))
        spec = pt.fit_encoding(table, self.schema, bins=16)
        points, _ = pt.encode(table, spec)
        pt.fit(points, self.family, A0)

    def _tables(self, gen):
        labels, y = self.density.sample(self.m + self.held_out, gen)

        def table(rows):
            t = {f"y{j}": y[rows, j - 1] for j in range(1, 9)}
            t["x"] = labels[rows]
            return t

        return table(slice(0, self.m)), table(slice(self.m, None))

    def round(self, r):
        data, sample, decode = _streams(self.seed, r, 3)
        table, held = self._tables(_rng(data))
        ctx = {"table": table, "held": held, "sample_rng": _rng(sample), "decode_rng": _rng(decode)}

        def encode(c):
            c["spec"] = pt.fit_encoding(c["table"], self.schema, bins=16)
            c["points"], _ = pt.encode(c["table"], c["spec"])
            c["held_points"], _ = pt.encode(c["held"], c["spec"])

        def swapped_weights(c):
            tables = pt.posterior.LogGammaTables(A0, self.m)
            return np.array(
                [
                    pt.log_unnormalized_weight(pt.accumulate_counts(c["points"], seg), A0, tables)
                    for seg in self.swapped
                ]
            )

        def decode(c):
            pts = c["sample"].points
            valid = ~((pts[:, 8] >= 0.5) & (pts[:, 9] >= 0.5))  # two high dummies name no level
            return pt.decode(pts[valid], c["spec"], c["decode_rng"])

        ops = [
            ("encode", encode),
            ("fit", _put("model", lambda c: pt.fit(c["points"], self.family, A0))),
            ("swapped_weights", _put("swapped", swapped_weights)),
            ("sample", _put("sample", lambda c: pt.sample_posterior_predictive(c["model"], self.n_samples, c["sample_rng"]))),
            ("decode", _put("decoded", decode)),
            ("density", _put("density", lambda c: pt.mixture_predictive_density(c["held_points"], c["model"]))),
        ]
        return ops, ctx

    def check(self, ctx, checks, full):
        model, points = ctx["model"], ctx["points"]
        checks.close(np.logaddexp.reduce(model.log_weights), 0.0, 1e-9, "wide-fit: weights log-sum-exp")
        oracle.check_in_cube(checks, ctx["sample"].points, "wide-fit: samples")
        labels = ctx["decoded"]["x"]
        checks.require(
            labels.size > 0 and set(labels.tolist()) <= set(self.density.levels),
            "wide-fit: decoded labels outside the schema levels",
        )
        checks.require(
            all(np.all(np.isfinite(ctx["decoded"][f"y{j}"])) for j in range(1, 9)),
            "wide-fit: decoded continuous values not finite",
        )
        if not full:
            return
        ref, ref_dens = oracle.recount(points, self.family, A0, ctx["held_points"])
        oracle.check_weights(checks, model.log_unnormalized, model.log_weights, ref, "wide-fit: fit")
        log_w = ref - np.logaddexp.reduce(ref)
        oracle.check_density(
            checks, ctx["density"], np.exp(np.logaddexp.reduce(log_w[:, None] + ref_dens, axis=0)), "wide-fit"
        )
        swapped_ref, _ = oracle.recount(points, self.swapped, A0)
        checks.close(ctx["swapped"], swapped_ref, 1e-9, "wide-fit: prefix-swapped weights")

    def metrics(self, rounds):
        return self._common(rounds, self.held_out, [("sample", self.n_samples)]), {}


# ---------------------------------------------------------------------------


class _Square(Workload):
    def _base_setup(self, seed, m):
        self.seed = seed
        self.density = densities.LogitNormalRegression()
        self.family = studies.quantreg_family()
        self.config = pt.ConformalConfig(self.family, a0=A0)
        pt.fit(self.density.sample(m, _rng(np.random.SeedSequence([seed, SETUP_ROUND]))), self.family, A0)


class SquarePredict(_Square):
    """Quantile-regression family at the larger study size, m = 1000."""

    name = "square-predict"
    m = 1000
    draws = 50
    n_samples = 2000
    alpha = 0.10
    q_levels = (0.05, 0.5, 0.95)
    grid_side = 32
    boxes = (
        ((0.0, 0.0), (0.5, 0.5)),
        ((0.5, 0.3), (0.9, 0.8)),
        ((0.1, 0.6), (0.45, 0.97)),
    )
    stream = 4  # incremental add/remove pairs per round

    def setup(self, seed):
        self._base_setup(seed, self.m)
        self.grid = _grid(self.grid_side)
        self.region = [pt.Box(lo, hi) for lo, hi in self.boxes]

    def round(self, r):
        data, mix, smix, sexact, pick = _streams(self.seed, r, 5)
        pts = self.density.sample(self.m + self.stream, _rng(data))
        train, adds = pts[: self.m], pts[self.m :]
        removes = _rng(pick).choice(self.m, size=self.stream, replace=False)
        ctx = {"train": train, "adds": adds, "removes": removes}
        rngs = {"mix": _rng(mix), "smix": _rng(smix), "sexact": _rng(sexact)}
        slots = [_update_ops(lambda c, i=i: adds[i], lambda c, i=i: train[removes[i]]) for i in range(self.stream)]
        ops = [
            ("fit", _put("model", lambda c: pt.fit(c["train"], self.family, A0))),
            ("incremental_init", _put("inc", lambda c: pt.IncrementalModel(c["model"]))),
            *slots[0],
            ("build_mixture", _put("mix", lambda c: pt.build_mixture(c["model"], self.draws, rngs["mix"]))),
            *slots[1],
            ("quantiles_mixture", _put("q_mix", lambda c: {q: pt.quantile_curve(q, c["mix"]) for q in self.q_levels})),
            ("credible_mixture", _put("cred_mix", lambda c: pt.credible_prediction_set(c["mix"], self.alpha))),
            ("sample_mixture", _put("s_mix", lambda c: pt.sample_predictive(c["mix"], self.n_samples, rngs["smix"]))),
            *slots[2],
            (
                "sample_exact",
                _put("s_exact", lambda c: pt.sample_posterior_predictive(c["model"], self.n_samples, rngs["sexact"])),
            ),
            ("quantiles_exact", _put("q_exact", lambda c: {q: pt.quantile_curve(q, c["model"]) for q in self.q_levels})),
            ("credible_exact", _put("cred_exact", lambda c: pt.credible_prediction_set(c["model"], self.alpha))),
            ("probability_mixture", _put("p_mix", lambda c: pt.predictive_probability(self.region, c["mix"]))),
            ("probability_exact", _put("p_exact", lambda c: pt.predictive_probability(self.region, c["model"]))),
            *slots[3],
            ("density", _put("density", lambda c: pt.mixture_predictive_density(self.grid, c["model"]))),
        ]
        return ops, ctx

    def check(self, ctx, checks, full):
        model, mix, train = ctx["model"], ctx["mix"], ctx["train"]
        checks.close(np.logaddexp.reduce(model.log_weights), 0.0, 1e-9, "square-predict: weights log-sum-exp")
        oracle.check_grid_average(checks, ctx["density"], "square-predict: exact density")
        oracle.check_in_cube(checks, ctx["s_mix"].points, "square-predict: mixture samples")
        oracle.check_in_cube(checks, ctx["s_exact"].points, "square-predict: exact samples")
        masses = {"mix": oracle.mixture_grid_mass(self.family, mix.weights, mix.pis)}
        if full:
            ref, ref_dens = oracle.recount(train, self.family, A0, self.grid)
            log_w = ref - np.logaddexp.reduce(ref)
            oracle.check_weights(checks, model.log_unnormalized, model.log_weights, ref, "square-predict: fit")
            checks.close(mix.weights, np.exp(log_w), 1e-9, "square-predict: mixture weights")
            dens = np.exp(np.logaddexp.reduce(log_w[:, None] + ref_dens, axis=0))
            oracle.check_density(checks, ctx["density"], dens, "square-predict")
            masses["exact"] = oracle.exact_grid_mass(train, self.family, A0)
            keep = np.ones(self.m, dtype=bool)
            keep[ctx["removes"]] = False
            ref, _ = oracle.recount(np.vstack([train[keep], ctx["adds"]]), self.family, A0)
            checks.close(ctx["inc"].log_weights, ref - np.logaddexp.reduce(ref), 1e-9, "square-predict: weights after updates")
        for label in ("exact", "mix"):
            what = f"square-predict: {label}"
            oracle.check_quantiles_monotone(checks, ctx[f"q_{label}"], what)
            if label in masses:
                grid_mass = masses[label]
                oracle.check_credible_mass(checks, ctx[f"cred_{label}"], grid_mass, self.alpha, what)
                want = sum(oracle.box_mass(grid_mass, b.lower, b.upper) for b in self.region)
                checks.close(ctx[f"p_{label}"].value, want, 1e-9, f"{what}: box-union probability")

    def metrics(self, rounds):
        common = self._common(
            rounds, self.grid.shape[0], [("sample_mixture", self.n_samples), ("sample_exact", self.n_samples)]
        )
        band = sum(med(rounds, name) for name in ("build_mixture", "quantiles_mixture", "credible_mixture"))
        update = 1e6 * float(np.median([t for times in rounds for name in ("add", "remove") for t in times[name]]))
        return common, {"credible_band_s": band, "update_us": update}


# ---------------------------------------------------------------------------


class SquareConformal(_Square):
    """Quantile-regression family at the study's conformal size, m = 100."""

    name = "square-conformal"
    m = 100
    candidates = 6
    band_x = (0.53125,)  # centre of x column 8 of 16
    alpha = 0.05
    mixture_m = 20
    mixture_draws = 2
    n_samples = 2000
    grid_side = 16

    def setup(self, seed):
        self._base_setup(seed, self.m)
        self.mixture_config = pt.ConformalConfig(
            self.family, a0=A0, draws_per_seg=self.mixture_draws, seed=seed
        )
        self.grid = _grid(self.grid_side)
        self.y_grid = oracle.default_y_grid(self.family)

    def round(self, r):
        data, cand, sample = _streams(self.seed, r, 3)
        train = self.density.sample(self.m, _rng(data))
        cands = self.density.sample(self.candidates, _rng(cand))
        ctx = {"train": train, "cands": cands, "pvalues": []}
        srng = _rng(sample)

        def pvalue(i):
            return lambda c: c["pvalues"].append(pt.conformal_pvalue(c["train"], c["cands"][i], self.config))

        fit = ("fit", _put("model", lambda c: pt.fit(c["train"], self.family, A0)))
        short = [
            fit,
            ("density", _put("density", lambda c: pt.mixture_predictive_density(self.grid, c["model"]))),
            ("sample", _put("sample", lambda c: pt.sample_posterior_predictive(c["model"], self.n_samples, srng))),
        ]
        long_ops = [("loo", _put("loo", lambda c: pt.loo_scores(c["train"], self.config)))]
        long_ops += [("pvalue", pvalue(i)) for i in range(self.candidates)]
        long_ops += [
            ("band", _put("band", lambda c: pt.conformal_band(c["train"], self.band_x, self.alpha, self.config))),
            (
                "mixture_pvalue",
                _put(
                    "mixture_pvalue",
                    lambda c: pt.conformal_pvalue(c["train"][: self.mixture_m], c["cands"][0], self.mixture_config),
                ),
            ),
        ]
        # fit_s, density_points_per_s and samples_per_s are end-to-end metrics
        # of every workload: a short fit/density/sample block before each long
        # call gives them samples spread over the round
        ops = [op for long_op in long_ops for op in (*short, long_op)]
        return ops, ctx

    def check(self, ctx, checks, full):
        train, cands, m = ctx["train"], ctx["cands"], self.m
        oracle.check_grid_average(checks, ctx["density"], "square-conformal: exact density")
        oracle.check_in_cube(checks, ctx["sample"].points, "square-conformal: samples")
        loo = np.asarray(ctx["loo"])
        checks.require(loo.shape == (m,) and bool(np.all((loo >= 0) & (loo <= 1))), "square-conformal: LOO scores outside [0, 1]")
        for p in ctx["pvalues"] + [ctx["mixture_pvalue"]]:
            checks.require(0.0 <= p <= 1.0, f"square-conformal: p-value {p} outside [0, 1]")
        oracle.check_band(checks, ctx["band"], self.y_grid, "square-conformal: band")
        if not full:
            return
        checks.close(loo, oracle.loo_scores(train, self.family, A0), 1e-9, "square-conformal: LOO scores vs refits")
        # swapped-set scores of the first candidate: the program's LOO scores of
        # train + candidate are exactly the scores of each swapped set
        brute, cand_score = oracle.swapped_scores(train, cands[0], self.family, A0)
        program = pt.loo_scores(np.vstack([train, cands[0]]), self.config)
        checks.close(program[:-1], brute, 1e-9, "square-conformal: swapped-set scores vs refits")
        checks.close(program[-1], cand_score, 1e-9, "square-conformal: candidate score vs refit")
        oracle.check_pvalue(checks, ctx["pvalues"][0], brute, cand_score, m, what="square-conformal: exact p-value")
        band = ctx["band"]
        iy = int(np.searchsorted(self.y_grid, 0.5))
        cand = np.array([self.band_x[0], self.y_grid[iy]])
        brute, cand_score = oracle.swapped_scores(train, cand, self.family, A0)
        oracle.check_pvalue(checks, band.p_below[0, iy], brute, cand_score, m, "below", what="square-conformal: band p_below")
        oracle.check_pvalue(checks, band.p_above[0, iy], brute, cand_score, m, "above", what="square-conformal: band p_above")
        self._check_mixture(checks, ctx)

    def _check_mixture(self, checks, ctx):
        """Refit every swapped set, draw a freshly seeded mixture, score it."""
        train = ctx["train"][: self.mixture_m]
        cand = ctx["cands"][0]
        cfg = self.mixture_config

        def score(points, at):
            model = pt.fit(points, self.family, A0)
            ref, _ = oracle.recount(points, self.family, A0)
            checks.close(model.log_weights, ref - np.logaddexp.reduce(ref), 1e-9, "square-conformal: refit weights")
            mix = pt.build_mixture(model, cfg.draws_per_seg, np.random.default_rng(cfg.seed))
            return oracle.column_score(oracle.mixture_grid_mass(self.family, mix.weights, mix.pis), at)

        brute = np.empty(self.mixture_m)
        for i in range(self.mixture_m):
            swapped = train.copy()
            swapped[i] = cand
            brute[i] = score(swapped, train[i])
        cand_score = score(train, cand)
        program = pt.loo_scores(np.vstack([train, cand]), cfg)
        checks.close(program[:-1], brute, 1e-9, "square-conformal: mixture swapped-set scores vs refits")
        oracle.check_pvalue(
            checks, ctx["mixture_pvalue"], brute, cand_score, self.mixture_m, what="square-conformal: mixture p-value"
        )

    def metrics(self, rounds):
        own = {
            "loo_s": med(rounds, "loo"),
            "pvalues_per_s": 1.0 / med(rounds, "pvalue"),
            "band_s": med(rounds, "band"),
            "mixture_pvalue_s": med(rounds, "mixture_pvalue"),
        }
        return self._common(rounds, self.grid.shape[0], [("sample", self.n_samples)]), own


WORKLOADS = {w.name: w for w in (WideFit, SquarePredict, SquareConformal)}
