#!/usr/bin/env python3
"""Compare two result sets of the host-time benchmark. Reports only; gates nothing.

    python3 perfbench/compare.py BASE CHANGE [--spec BENCHMARK.json]

BASE and CHANGE are record files written by `run.py --record` (JSON lines,
one untraced run per line; traced runs are ignored). For every workload
and end-to-end metric the tool prints each side's median and quartiles,
the pair wins of CHANGE, and a verdict under the metric's bound:

* improved   - CHANGE wins at least nine tenths of the pairs, ties counting
               for neither, and the medians differ by more than BASE's own
               inter-quartile range;
* worse      - CHANGE's median is worse than BASE's by more than the bound;
* unresolved - BASE's own spread (IQR over median) exceeds the bound, unless
               every CHANGE run reads better than every BASE run;
* unchanged  - otherwise.

Runs pair by seed where both sides ran the same seeds, else in file order.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{workload: [(seed, {metric: value})]} of the untraced runs in a file."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace"):
                continue
            values = {k: v["value"] for k, v in r["metrics"].items()}
            runs.setdefault(r["workload"], []).append((r["seed"], values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    """Pair runs by seed when the seed sets match, else by position."""
    bs, cs = dict(base), dict(change)
    if len(bs) == len(base) and len(cs) == len(change) and bs.keys() == cs.keys():
        return [(bs[s], cs[s]) for s in sorted(bs)]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def verdict(metric, base, change, pair_list):
    """Verdict and pair wins for one metric; `base`/`change` are value lists."""
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in pair_list if sign * (c - b) > 0)
    ties = sum(1 for b, c in pair_list if c == b)
    decided = len(pair_list) - ties
    better = sign * (cmed - bmed)
    base_spread = (b3 - b1) / bmed if bmed else float("inf")
    if decided and wins >= 0.9 * len(pair_list) and better > (b3 - b1):
        v = "improved"
    elif -better > bound * abs(bmed):
        v = "worse"
    elif base_spread > bound:
        all_better = min(sign * c for c in change) > max(sign * b for b in base)
        v = "improved" if all_better else "unresolved"
    else:
        v = "unchanged"
    return v, wins, len(pair_list)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base), load(args.change)

    header = ("workload", "metric", "base q1/med/q3", "change q1/med/q3", "wins", "verdict")
    rows = []
    for workload in sorted(set(base) & set(change)):
        for m in metrics:
            name = m["name"]
            bp = [(s, v[name]) for s, v in base[workload] if name in v]
            cp = [(s, v[name]) for s, v in change[workload] if name in v]
            if not bp or not cp:
                continue
            bv, cv = [v for _, v in bp], [v for _, v in cp]
            v, wins, n = verdict(m, bv, cv, pairs(bp, cp))
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            rows.append((workload, f"{name} [{m['unit']}]", fmt(quartiles(bv)),
                         fmt(quartiles(cv)), f"{wins}/{n}", v))
    for missing in sorted(set(base) ^ set(change)):
        print(f"note: {missing} ran on one side only", file=sys.stderr)
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


if __name__ == "__main__":
    main()
