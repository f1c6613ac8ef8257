"""Compare two sets of benchmark runs, e.g. a parent commit and a change.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py --out`` appends.  For every workload
and metric the table gives each side's median and quartiles, how many
seed-matched pairs the change wins, and a verdict:

* improved   -- the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's quartile spread;
* worse      -- the change's median is worse than the parent's by more
  than the metric's bound;
* unresolved -- either side's quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every parent run;
* no worse   -- otherwise.

Bounds come from BENCHMARK.json.  Per-step times and ``words_per_s`` are
not gated there; they are judged by the bound of ``wall_s`` and marked
with ``*``.  Exits 1 when any gated metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HIGHER_IS_BETTER = {"words_per_s"}


def load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _spread(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(base: list[float], change: list[float],
            pairs: list[tuple[float, float]], bound: float,
            higher: bool) -> tuple[str, int]:
    def better(x, y):
        return x > y if higher else x < y

    wins = sum(better(c, b) for b, c in pairs)
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    if (pairs and wins >= 0.9 * len(pairs) and better(cmed, bmed)
            and abs(cmed - bmed) > b3 - b1):
        return "improved", wins
    spread = max((b3 - b1) / bmed, (c3 - c1) / cmed)
    if spread > bound:
        all_better = all(better(c, b) for c in change for b in base)
        return ("no worse" if all_better else "unresolved"), wins
    worse_by = (bmed - cmed if higher else cmed - bmed) / bmed
    return ("worse" if worse_by > bound else "no worse"), wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, change = load(args.base), load(args.change)
    any_worse = False
    print(f"{'workload':<16} {'metric':<13} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>7} verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            continue
        b_runs, c_runs = base[workload], change[workload]
        by_seed = {r["seed"]: r for r in b_runs}
        matched = [(by_seed[r["seed"]], r) for r in c_runs
                   if r["seed"] in by_seed]
        names = [*b_runs[0]["metrics"], *b_runs[0]["steps"]]
        for name in names:
            if name == "fail_ratio":
                continue
            gated = name in bounds
            key = "metrics" if gated else "steps"
            bv = [r[key][name] for r in b_runs]
            cv = [r[key][name] for r in c_runs]
            pairs = [(b[key][name], c[key][name]) for b, c in matched]
            word, wins = verdict(bv, cv, pairs,
                                 bounds.get(name, bounds["wall_s"]),
                                 name in HIGHER_IS_BETTER)
            any_worse |= gated and word == "worse"
            label = name if gated else name + "*"
            print(f"{workload:<16} {label:<13} {_spread(bv):>30} "
                  f"{_spread(cv):>30} {wins:>3}/{len(pairs):<3} {word}")
        failed = (sum(r["failed"] for r in b_runs),
                  sum(r["failed"] for r in c_runs))
        print(f"{workload:<16} failed checks: base {failed[0]}, "
              f"change {failed[1]}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
