"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 bench/compare.py PARENT_OUT_DIR CHANGE_OUT_DIR

Each directory holds the result-<workload>-seed<n>-trace0.json files that
bench/run.py wrote. For every workload and end-to-end metric in
BENCHMARK.json this prints both sides' median and quartiles, the relative
change of the median, the share of seed pairs the change won, and a verdict
against the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def load(out: Path) -> dict:
    """{workload: {seed: {metric: value}}}"""
    runs: dict = {}
    for path in sorted(out.glob("result-*-trace0.json")):
        rec = json.loads(path.read_text())
        meta = rec["metadata"]
        runs.setdefault(meta["workload"], {})[meta["seed"]] = {
            name: m["value"] for name, m in rec["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, base: list, new: list, wins: float) -> str:
    q1, med, q3 = quartiles(base)
    spread = (q3 - q1) / med
    change = (statistics.median(new) - med) / med
    worse = change if metric["better"] == "lower" else -change
    if spread > metric["bound"]:
        return "unresolved (parent spread above bound)"
    if worse > metric["bound"]:
        return "REGRESSION"
    if -worse > spread and wins >= 0.9:
        return "gain"
    return "no change within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, {}), new.get(workload, {})
        seeds = sorted(set(a) & set(b))
        if not seeds:
            print(f"{workload}: no common seeds")
            continue
        print(f"{workload}: {len(seeds)} seeds")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            xs = [a[s][name] for s in seeds]
            ys = [b[s][name] for s in seeds]
            better = ((lambda x, y: y < x) if metric["better"] == "lower"
                      else (lambda x, y: y > x))
            wins = sum(better(x, y) for x, y in zip(xs, ys)) / len(seeds)
            qa, qb = quartiles(xs), quartiles(ys)
            change = (qb[1] - qa[1]) / qa[1]
            print(f"  {name:<12} parent {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"  change {qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                  f"  {change:+7.1%}  wins {wins:4.0%}  "
                  f"{verdict(metric, xs, ys, wins)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
