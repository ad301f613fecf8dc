#!/usr/bin/env python3
"""Run the benchmark over many seeds, for one checkout or two in alternation.

    python3 bench/sweep.py --runs 10 --out a.jsonl
    python3 bench/sweep.py --runs 10 --out a.jsonl --other ../parent --other-out b.jsonl

Each run is ``bench/run.py`` in its own process, from the root of its
checkout, with seeds 1 .. runs, on every workload and for the run length
that ``BENCHMARK.json`` names.  With ``--other`` the two checkouts run in
alternating order (A then B, then B then A, ...) and each appends its
records to its own file; give both checkouts the same ``bench/`` directory
so that only the package differs.  Summarize with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_one(root, out, workload, seed, seconds) -> None:
    cmd = [
        sys.executable,
        os.path.join("bench", "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
        "--out",
        os.path.abspath(out),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    print(f"{os.path.basename(os.path.abspath(root))} {workload} seed={seed} exit={proc.returncode} {last[0][:160]}", flush=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--other", help="root of a second checkout to alternate with")
    parser.add_argument("--other-out")
    args = parser.parse_args(argv)
    if args.other and not args.other_out:
        parser.error("--other needs --other-out")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = [(ROOT, args.out)]
    if args.other:
        sides.append((args.other, args.other_out))
    for i in range(args.runs):
        seed = i + 1
        for workload in spec["workloads"]:
            order = sides if i % 2 == 0 else sides[::-1]
            for root, out in order:
                run_one(root, out, workload["name"], seed, spec["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
