#!/usr/bin/env python3
"""Summaries over repeated runs of the RBB benchmark.

Each input file holds the result lines (the last stdout line of
`perfbench/run.py`) of runs of one workload, one JSON object per line.

    python3 perfbench/compare.py spread RUNS.jsonl
        median, quartiles and spread (IQR / median) of every metric,
        checked against the bounds in BENCHMARK.json

    python3 perfbench/compare.py pairs PARENT.jsonl CHANGE.jsonl
        paired comparison, line i of one file against line i of the
        other: a gain needs >= 9 of 10 pairs won and a median difference
        larger than the parent's IQR; every other metric must not be
        worse by more than its bound
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def series(runs):
    out = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def bounds():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def spread(path):
    runs = load_runs(path)
    meta = bounds()
    print(f"{len(runs)} runs, {sum(r['correct'] for r in runs)} correct")
    worst = 0.0
    for name, xs in sorted(series(runs).items()):
        q1, q2, q3 = stats.quartiles(xs)
        s = stats.spread(xs)
        bound = meta.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if name != "setup_s":
                worst = max(worst, s / bound)
        print(f"{name:32s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {s:7.2%}"
              + (f"  bound {bound:.0%}: {verdict}" if bound is not None else ""))
    print(f"largest spread / bound (end-to-end, setup_s excluded): {worst:.2f}")


def pairs(parent_path, change_path):
    parent, change = series(load_runs(parent_path)), series(load_runs(change_path))
    meta = bounds()
    for name in sorted(set(parent) & set(change)):
        better = meta.get(name, {}).get("better", "lower")
        v = stats.pairs_verdict(parent[name], change[name], better=better)
        worse = stats.worse_by(parent[name], change[name], better=better)
        bound = meta.get(name, {}).get("bound")
        status = "gain" if v["gain"] else "no gain"
        if bound is not None and worse > bound:
            status = "REGRESSION"
        print(f"{name:32s} parent {v['parent_median']:12.6g}  change {v['change_median']:12.6g}  "
              f"won {v['wins']}/{v['pairs']}  worse by {worse:+.2%}  {status}")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        spread(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "pairs":
        pairs(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
