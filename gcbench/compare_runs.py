#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 gcbench/compare_runs.py A/*.jsonl -- B/*.jsonl [--same-code]

Each file holds the records `run.py --json PATH` appends, one per workload
run. A is the parent (or the first set), B the change (or the second set).
One row per workload x end-to-end metric (BENCHMARK.json's list plus
spec.json's workload-specific ones) gives each side's median and quartiles,
B's change against A's median and B's wins over the pairs, then a verdict:

  * simulated metrics are compared per seed and must match exactly
    ("match" or "MISMATCH");
  * host metrics follow choosing-metrics section 8. Runs pair up in order
    (alternate A and B when making them). "improved" needs B to win at
    least 9 of 10 pairs and the medians to differ by more than A's
    quartile spread; "unresolved" means A's spread is wider than the
    metric's bound and B did not beat every A run; "regressed" means B's
    median is worse than A's by more than the bound; otherwise "no worse".

--same-code asks instead whether the two sets agree: every host median
within the bound of the other ("agree" / "DISAGREE"), simulated metrics
exact. Exit status 1 on any MISMATCH, regressed or DISAGREE row.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def load_catalog():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    catalog = {}
    for m in bench["end_to_end"]:
        catalog[m["name"]] = dict(m, **spec["end_to_end"][m["name"]])
    for name, m in spec["extra_end_to_end"].items():
        catalog[name] = dict(m, name=name)
    return catalog


def load_runs(paths):
    """(workload, metric) -> [(seed, value)] in file order, untraced only."""
    runs = defaultdict(list)
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            for name, m in rec["metrics"].items():
                runs[(rec["workload"], name)].append((rec["seed"], m["value"]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, a, b, same_code):
    """Returns (verdict, B's wins over the pairs as "w/n")."""
    if metric["clock"] == "simulated":
        pa, pb = dict(a), dict(b)
        common = set(pa) & set(pb)
        if not common:
            return "no common seed", "-"
        same = all(pa[s] == pb[s] for s in common)
        return ("match" if same else "MISMATCH"), "-"
    va, vb = [v for _, v in a], [v for _, v in b]
    q1a, meda, q3a = quartiles(va)
    medb = statistics.median(vb)
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (medb - meda)  # > 0: B is worse
    if meda == 0:
        rel = 0.0 if worse <= 0 else float("inf")
    else:
        rel = worse / abs(meda)
    pairs = list(zip(va, vb))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    won = f"{wins}/{len(pairs)}"
    if same_code:
        return ("agree" if abs(rel) <= bound else "DISAGREE"), won
    spread = q3a - q1a
    if pairs and wins >= 0.9 * len(pairs) and -worse > spread:
        return "improved", won
    all_better = all(sign * (y - x) < 0 for x in va for y in vb)
    if meda != 0 and spread / abs(meda) > bound and not all_better:
        return "unresolved", won
    return ("regressed" if rel > bound else "no worse"), won


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        sys.exit("usage: compare_runs.py A/*.jsonl -- B/*.jsonl [--same-code]")
    split = argv.index("--")
    p = argparse.ArgumentParser()
    p.add_argument("files", nargs="*")
    p.add_argument("--same-code", action="store_true")
    left = p.parse_args(argv[:split])
    right = p.parse_args(argv[split + 1:])
    same_code = left.same_code or right.same_code
    catalog = load_catalog()
    a_runs, b_runs = load_runs(left.files), load_runs(right.files)

    bad = 0
    header = (f"{'workload':<14} {'metric':<28} {'clock':<9} "
              f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
              f"{'change':>8} {'n':>5} {'B wins':>6}  verdict")
    print(header)
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, name = key
        metric = catalog.get(name)
        if metric is None:
            continue
        a, b = a_runs[key], b_runs[key]
        q1a, meda, q3a = quartiles([v for _, v in a])
        q1b, medb, q3b = quartiles([v for _, v in b])
        change = (medb - meda) / abs(meda) if meda else 0.0
        v, won = verdict(metric, a, b, same_code)
        bad += v in ("MISMATCH", "regressed", "DISAGREE")
        print(f"{workload:<14} {name:<28} {metric['clock']:<9} "
              f"{f'{meda:.6g} [{q1a:.6g}, {q3a:.6g}]':<34} "
              f"{f'{medb:.6g} [{q1b:.6g}, {q3b:.6g}]':<34} "
              f"{100 * change:>7.2f}% {len(a):>2}/{len(b):<2} {won:>6}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
