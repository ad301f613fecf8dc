"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install()`` replaces every public function of the six layer
modules wherever it is bound (the package namespace, the defining module,
and every module that imported the name, such as ``posterior.accumulate_counts``
or ``conformal.path_indices``), and every public method of the classes
those modules export, constructors included.  Properties are attribute
reads and stay unwrapped, except the two that compute normalized weights.  Each wrapped call records a span
(id, parent id, name, start, end, the benchmark operation it serves) in
memory and adds its self time, its duration minus the time covered by its
child spans, to its function's total.  Counters are derived from the
call's arguments.  ``uninstall()`` restores the originals, so untraced
rounds run the package exactly as shipped.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("segmentation", "hbeta", "posterior", "predictive", "conformal", "encoding")

COMPUTED_PROPERTIES = ("posterior.PosteriorModel.weights", "posterior.IncrementalModel.log_weights")

COUNTERS = (
    "segmentation.points_located",
    "hbeta.nodes_counted",
    "posterior.members_weighted",
    "posterior.updates",
    "predictive.draws",
    "predictive.samples",
    "conformal.candidates",
    "conformal.loo_passes",
    "encoding.rows",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(points) -> int:
    a = np.asarray(points)
    return 1 if a.ndim == 1 else a.shape[0]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS
        }
        self.functions, self.methods = self._discover()
        self._patches: list[tuple[object, str, object]] = []
        # one entry per span: id, parent id, name index, start, end, operation id
        self.spans = {
            "id": array("q"),
            "parent": array("q"),
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "op": array("q"),
        }
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {name: 0 for name in COUNTERS}
        self.cell_keys: set = set()
        self._next_id = 1
        self._stack = [[0, 0.0]]  # [span id, child time]; the bottom frame is the root
        self._op = 0

    # -- discovery ---------------------------------------------------------

    def _discover(self):
        functions = {}
        methods = {}  # key -> (class, attribute, original attribute value)
        for layer, mod in self.modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[f"{layer}.{name}"] = obj
                elif inspect.isclass(obj):
                    for attr, val in vars(obj).items():
                        if attr.startswith("_") and not (
                            attr == "__init__" and not dataclasses.is_dataclass(obj)
                        ):
                            continue
                        key = f"{layer}.{name}.{attr}"
                        if isinstance(val, property):
                            if key in COMPUTED_PROPERTIES:
                                methods[key] = (obj, attr, val)
                        elif inspect.isfunction(val) or isinstance(val, (classmethod, staticmethod)):
                            methods[key] = (obj, attr, val)
        return functions, methods

    def _index(self, key: str) -> int:
        idx = self._name_index.get(key)
        if idx is None:
            idx = self._name_index[key] = len(self.names)
            self.names.append(key)
            self.calls[key] = 0
            self.self_s[key] = 0.0
        return idx

    # -- spans -------------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, key, frame, t0, t1):
        self._stack.pop()
        parent = self._stack[-1]
        dur = t1 - t0
        parent[1] += dur
        idx = self._index(key)
        self.calls[key] += 1
        self.self_s[key] += dur - frame[1]
        spans = self.spans
        spans["id"].append(frame[0])
        spans["parent"].append(parent[0])
        spans["name"].append(idx)
        spans["start"].append(t0)
        spans["end"].append(t1)
        spans["op"].append(self._op)

    def op(self, name: str):
        """Context manager: a benchmark operation, parent of the spans it causes."""
        tracer = self

        class _Op:
            def __enter__(self):
                self.frame = tracer._enter()
                tracer._op = self.frame[0]
                self.t0 = perf_counter()

            def __exit__(self, *exc):
                tracer._exit(f"bench.{name}", self.frame, self.t0, perf_counter())
                tracer._op = 0
                return False

        return _Op()

    def _wrap(self, key, fn):
        tracer = self
        count = _COUNTS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(key, frame, t0, perf_counter())
                if count is not None:
                    count(tracer, args, kwargs)

        return wrapper

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        prefix = self.package.__name__
        mods = [m for name, m in list(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")]
        for key, fn in self.functions.items():
            wrapper = self._wrap(key, fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        for key, (cls, attr, val) in self.methods.items():
            if isinstance(val, property):
                new = property(self._wrap(key, val.fget), val.fset, val.fdel, val.__doc__)
            elif isinstance(val, classmethod):
                new = classmethod(self._wrap(key, val.__func__))
            elif isinstance(val, staticmethod):
                new = staticmethod(self._wrap(key, val.__func__))
            else:
                new = self._wrap(key, val)
            self._patches.append((cls, attr, val))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches = []

    # -- reports -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, s in self.self_s.items():
            layer = key.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out

    def distinct_cell_share(self) -> float:
        passes = self.counters["conformal.loo_passes"]
        return len(self.cell_keys) / passes if passes else 0.0

    def write(self, path: str) -> int:
        """Write spans as gzip-compressed JSON lines; returns the span count.

        Every line is one span {id, parent, name, start, end, op}: times in
        seconds from the benchmark's clock, parent 0 for a top-level span,
        and op the id of the benchmark operation the span serves.
        """
        s = self.spans
        names = [json.dumps(n) for n in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, parent, idx, t0, t1, op in zip(s["id"], s["parent"], s["name"], s["start"], s["end"], s["op"]):
                fh.write(
                    f'{{"id": {sid}, "parent": {parent}, "name": {names[idx]}, '
                    f'"start": {t0!r}, "end": {t1!r}, "op": {op}}}\n'
                )
        return len(s["id"])


# ---------------------------------------------------------------------------
# Counters, derived from the arguments of the call that did the work.


def _add(name, fn):
    def count(tracer, args, kwargs):
        tracer.counters[name] += fn(tracer, args, kwargs)

    return count


def _finest_cell(config, x, y):
    nx = ny = 1
    for seg in config.family:
        nx = max(nx, 1 << sum(1 for d in seg.dims if d == 1))
        ny = max(ny, 1 << sum(1 for d in seg.dims if d == 2))
    return min(int(x * nx), nx - 1), min(int(y * ny), ny - 1)


def _cell_owner(train, config):
    """Which LOO work a candidate can share: same training set and scorer."""
    data = np.ascontiguousarray(np.asarray(train, dtype=np.float64)).tobytes()
    return hash(data), config.draws_per_seg, config.seed, config.a0


def _count_pvalue(tracer, args, kwargs):
    train, cand, config = (_arg(args, kwargs, i, n) for i, n in enumerate(("train", "candidate", "config")))
    c = np.asarray(cand, dtype=np.float64).ravel()
    tracer.counters["conformal.candidates"] += 1
    tracer.counters["conformal.loo_passes"] += 1
    tracer.cell_keys.add((_cell_owner(train, config), _finest_cell(config, c[0], c[1])))


def _count_band(tracer, args, kwargs):
    train, x_values = _arg(args, kwargs, 0, "train"), _arg(args, kwargs, 1, "x_values")
    config = _arg(args, kwargs, 3, "config")
    size = args[4] if len(args) > 4 else kwargs.get("y_grid_size")
    y_grid = (
        tracer.functions["conformal.default_y_grid"](config)
        if size is None
        else np.linspace(0.0, 1.0, int(size))
    )
    xs = np.atleast_1d(np.asarray(x_values, dtype=np.float64))
    owner = _cell_owner(train, config)
    for x in xs:
        for y in y_grid:
            tracer.cell_keys.add((owner, _finest_cell(config, x, y)))
    n = xs.size * y_grid.size
    tracer.counters["conformal.candidates"] += n
    tracer.counters["conformal.loo_passes"] += n


def _count_loo(tracer, args, kwargs):
    train, config = _arg(args, kwargs, 0, "train"), _arg(args, kwargs, 1, "config")
    tracer.counters["conformal.loo_passes"] += 1
    tracer.cell_keys.add((_cell_owner(train, config), None))


_COUNTS = {
    "segmentation.path_indices": _add("segmentation.points_located", lambda t, a, k: _rows(_arg(a, k, 0, "points"))),
    "segmentation.locate": _add("segmentation.points_located", lambda t, a, k: 1),
    "hbeta.counts_from_leaf_counts": _add(
        "hbeta.nodes_counted", lambda t, a, k: 2 * np.size(_arg(a, k, 0, "leaf_counts")) - 1
    ),
    "posterior.log_unnormalized_weight": _add("posterior.members_weighted", lambda t, a, k: 1),
    "posterior.IncrementalModel.add_point": _add("posterior.updates", lambda t, a, k: 1),
    "posterior.IncrementalModel.remove_point": _add("posterior.updates", lambda t, a, k: 1),
    "predictive.build_mixture": _add(  # 50 is build_mixture's default draws_per_seg
        "predictive.draws",
        lambda t, a, k: len(_arg(a, k, 0, "model").family) * (a[1] if len(a) > 1 else k.get("draws_per_seg", 50)),
    ),
    "predictive.sample_predictive": _add("predictive.samples", lambda t, a, k: int(_arg(a, k, 1, "n"))),
    "predictive.sample_posterior_predictive": _add("predictive.samples", lambda t, a, k: int(_arg(a, k, 1, "n"))),
    "conformal.conformal_pvalue": _count_pvalue,
    "conformal.conformal_band": _count_band,
    "conformal.loo_scores": _count_loo,
    "encoding.encode": _add("encoding.rows", lambda t, a, k: _rows(next(iter(_arg(a, k, 0, "table").values())))),
    "encoding.decode": _add("encoding.rows", lambda t, a, k: _rows(_arg(a, k, 0, "points"))),
}
