"""Compare two sets of untraced result files (parent A, change B).

Runs are paired by workload and seed: run each seed on both sides, in
alternating order, with the same `--seconds`. For every workload and
end-to-end metric this prints each side's median and quartiles, the share of
pairs the change wins (ties count for neither side) and a verdict:

- improvement: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's own spread (the distance between its quartiles);
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, and either the parent's spread is
  within that bound or every run of the change is worse than every run of
  the parent (for a metric without a bound: the mirror of the improvement
  rule);
- unresolved: neither claim holds. `within_bound` then says whether the
  change's median is within the bound of the parent's.
"""

import glob
import json
import os
import statistics

WIN_SHARE = 0.9


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as f:
            rec = json.load(f)
        runs[(rec["workload"], rec["seed"])] = rec
    return runs


def _quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4))


def verdict(a, b, lower_better, bound):
    """a, b: paired values (same seeds, same order)."""
    qa, qb = _quartiles(a), _quartiles(b)
    med_a, med_b = qa[1], qb[1]
    sign = 1.0 if lower_better else -1.0
    better = [sign * (y - x) < 0 for x, y in zip(a, b)]
    worse = [sign * (y - x) > 0 for x, y in zip(a, b)]
    wins = sum(better) / len(a)
    losses = sum(worse) / len(a)
    spread_a = qa[2] - qa[0]
    change = sign * (med_b - med_a)  # > 0: the change is worse
    all_worse = min(b) > max(a) if lower_better else max(b) < min(a)
    if wins >= WIN_SHARE and change < 0 and abs(med_b - med_a) > spread_a:
        v = "improvement"
    elif bound is not None and change > bound * abs(med_a) and (spread_a <= bound * abs(med_a) or all_worse):
        v = "regression"
    elif bound is None and losses >= WIN_SHARE and change > 0 and abs(med_b - med_a) > spread_a:
        v = "regression"
    else:
        v = "unresolved"
    within = None if bound is None else change <= bound * abs(med_a)
    return {"a": qa, "b": qb, "wins": wins, "verdict": v, "within_bound": within}


def main(dir_a, dir_b, spec):
    runs_a, runs_b = load(dir_a), load(dir_b)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for workload in sorted({w for w, _ in runs_a} | {w for w, _ in runs_b}):
        seeds = sorted(s for w, s in runs_a if w == workload and (w, s) in runs_b)
        if not seeds:
            print(f"== {workload}: no seed run on both sides; run the same seeds on both")
            continue
        print(f"== {workload}: {len(seeds)} pairs (seeds {', '.join(map(str, seeds))})")
        print(f"   {'metric':<20} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'change':>8} {'wins':>5}  verdict")
        first = runs_a[(workload, seeds[0])]["metrics"]
        for name, m in first.items():
            a = [runs_a[(workload, s)]["metrics"][name]["value"] for s in seeds]
            b = [runs_b[(workload, s)]["metrics"].get(name, {}).get("value") for s in seeds]
            if None in a or None in b:
                continue
            spec_m = gated.get(name)
            lower = spec_m["better"] == "lower" if spec_m else True  # the other metrics are times and shares
            r = verdict(a, b, lower, spec_m["bound"] if spec_m else None)
            regressions += r["verdict"] == "regression"
            qa, qb = r["a"], r["b"]
            pct = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else float("nan")
            within = "" if r["within_bound"] is None else ("  within bound" if r["within_bound"] else "  beyond bound")
            print(f"   {name:<20} {qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(57)
                  + f" {qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(35)
                  + f" {pct:>+7.1f}% {r['wins']:>5.2f}  {r['verdict']}{within} ({m['unit']})")
    return 1 if regressions else 0
