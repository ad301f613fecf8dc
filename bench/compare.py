#!/usr/bin/env python3
"""Summarize one set of benchmark records, or compare two.

    python3 bench/compare.py a.jsonl            # medians, quartiles, spreads
    python3 bench/compare.py a.jsonl b.jsonl    # b against a, with verdicts

Records are the JSON lines that ``bench/run.py --out`` appends.  For every
workload and end-to-end metric (the workload's own ones included) it prints
each side's median and quartiles and the spread, (Q3 - Q1) / median.  With
two sets it pairs the i-th run of each side and reports the share of pairs
that B wins (ties count for neither), and a verdict, the first that holds:

- worse: B's median is worse than A's by more than the bound;
- better: every run of B beats every run of A, or B wins at least nine
  pairs in ten, its median beats A's by more than A's own quartile distance
  and both spreads are within the bound;
- unresolved: either side's spread exceeds the metric's bound;
- unchanged: otherwise.

The exit status is 1 when any verdict is worse or unresolved: B is then not
shown to be no worse than A.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles

import metrics


def load(path) -> dict:
    """workload -> metric -> values in run order (traced runs skipped)."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            per = out.setdefault(rec["workload"], {})
            for name, value in {**rec["end_to_end"], **rec.get("workload_metrics", {})}.items():
                per.setdefault(name, []).append(value)
            per.setdefault("failed_share", []).append(rec["failed"] / rec["attempted"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(quantiles(values, n=4))


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def gain(a, b, better) -> float:
    """Relative improvement of b over a (positive is better)."""
    return (a - b) / a if better == "lower" else (b - a) / a


def verdict(a, b, name) -> tuple[str, float]:
    better, bound = metrics.BETTER[name], metrics.BOUNDS[name]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if gain(x, y, better) > 0)
    share = wins / len(pairs) if pairs else 0.0
    ma, mb = median(a), median(b)
    q1, _, q3 = quartiles(a)
    beats_all = all(gain(x, y, better) > 0 for x in a for y in b)
    steady = spread(a) <= bound and spread(b) <= bound
    if gain(ma, mb, better) < -bound:
        return "worse", share
    if beats_all or (steady and share >= 0.9 and gain(ma, mb, better) * ma > (q3 - q1)):
        return "better", share
    return ("unchanged" if steady else "unresolved"), share


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    status = 0
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        names = [n for n in sets[0].get(workload, {}) if n in metrics.BOUNDS]
        for name in names:
            cols = []
            for s in sets:
                vals = s.get(workload, {}).get(name, [])
                if not vals:
                    cols.append("(none)")
                    continue
                q1, q2, q3 = quartiles(vals)
                cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] spread {spread(vals):.3f} n={len(vals)}")
            line = f"  {name:22s} bound {metrics.BOUNDS[name]:.2f}  " + "  |  ".join(cols)
            if len(sets) == 2 and name in sets[1].get(workload, {}):
                v, share = verdict(sets[0][workload][name], sets[1][workload][name], name)
                line += f"  B wins {share:.0%}  {v}"
                status |= v in ("worse", "unresolved")
            print(line)
        shares = [s.get(workload, {}).get("failed_share", []) for s in sets]
        print("  failed share " + "  |  ".join(str(sorted(set(x))) for x in shares))
    return status


if __name__ == "__main__":
    sys.exit(main())
