#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload wide-fit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  After a set-up, whole rounds of the workload run one after
another until ``--seconds`` of round time have passed, with further
set-ups between the first rounds.  Each round's outputs are checked
against the benchmark's own references outside the timed part.  Times are
medians of their samples in the run (see ``workloads.med``).  The last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0``, and under ``--trace 1`` the
per-layer metrics of a run that follows every untraced round with the same
round traced (spans go to ``bench/out/``).  ``--out FILE`` also appends the
full record (all metrics, this workload's own ones too, and the machine) as
one JSON line.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import polyatree from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import polyatree
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import polyatree from {SRC}: {exc}")
    if not os.path.abspath(polyatree.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: polyatree was imported from {polyatree.__file__}, not {SRC}")
    return polyatree


def run_ops(ops, ctx, tracer=None):
    """Run one round's operations in order; (times by name, wall, failed)."""
    times: dict[str, list[float]] = {}
    start = perf_counter()
    for i, (name, fn) in enumerate(ops):
        t0 = perf_counter()
        try:
            if tracer is None:
                fn(ctx)
            else:
                with tracer.op(name):
                    fn(ctx)
        except Exception:  # an operation that raises fails with every one after it
            traceback.print_exc(file=sys.stderr)
            return times, perf_counter() - start, len(ops) - i
        times.setdefault(name, []).append(perf_counter() - t0)
    return times, perf_counter() - start, 0


def machine_info(numpy, scipy) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    package = import_package()
    import numpy
    import scipy

    import metrics
    import oracle
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    tracer = Tracer(package) if args.trace else None

    def setup():
        t0 = perf_counter()
        wl.setup(args.seed)
        setup_times.append(perf_counter() - t0)

    # set-up is timed several times, once before the rounds and then between
    # them, so that its median is not taken from one moment of the host
    setup_times: list[float] = []
    setup()
    checks = oracle.Checks()
    rounds, walls, traced_walls = [], [], []
    attempted = failed = 0
    elapsed = 0.0
    r = 0
    passes = [None, tracer] if tracer else [None]
    while elapsed < args.seconds:
        for tr in passes:
            ops, ctx = wl.round(r)
            if tr is not None:
                tr.install()
            try:
                times, wall, nfail = run_ops(ops, ctx, tr)
            finally:
                if tr is not None:
                    tr.uninstall()
            attempted += len(ops)
            failed += nfail
            elapsed += wall
            if nfail:
                continue
            if tr is None:
                rounds.append(times)
                walls.append(wall)
            else:
                traced_walls.append(wall)
            wl.check(ctx, checks, full=(r == 0 and tr is None))
        if len(setup_times) < wl.setup_repeats:
            setup()
        r += 1
    while len(setup_times) < wl.setup_repeats:
        setup()
    for msg in checks.failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)

    e2e = {"setup_s": median(setup_times)}
    own = {}
    if rounds:  # metrics come from the rounds whose every operation returned
        common, own = wl.metrics(rounds)
        e2e.update(run_s=median(walls), **common)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(walls),
        "correct": checks.ok,
        "checks": checks.count,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "workload_metrics": own,
        "round_s": walls,
        "op_s": rounds,
    }
    if tracer is not None and traced_walls:
        record["per_layer"] = metrics.per_layer(tracer, traced_walls, walls)
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        span_file = os.path.join(BENCH_DIR, "out", f"trace-{wl.name}-seed{args.seed}.jsonl.gz")
        record["spans"] = tracer.write(span_file)
    if args.out:
        record["machine"] = machine_info(numpy, scipy)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    values = record.get("per_layer", {}) if args.trace else e2e
    print(" ".join(f"{k}={v:.6g}" for k, v in (values if args.trace else {**e2e, **own}).items()))
    units = metrics.UNITS
    names = metrics.PER_LAYER if args.trace else [name for name, *_ in metrics.END_TO_END]
    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
