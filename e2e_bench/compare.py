"""Compare two sets of benchmark results, per workload and per metric.

    python3 e2e_bench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of ``run.py`` runs, one file
per run (any file name). Runs are grouped by workload and trace mode;
every metric's median and spread (quartile distance over the median)
are compared. For an end-to-end metric the verdict is:

* ``regressed``: the new median is worse by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: either side's spread is wider than the bound, unless
  every new run reads better than every base run (``improved``);
* ``improved``: better by more than the wider spread;
* ``unchanged``: otherwise.

The change column is signed so that positive is worse for end-to-end
metrics. Per-layer metrics have no bound; they are listed with their
plain relative change.
Exits 1 if any end-to-end metric regressed or the new runs fail more
operations than the base runs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict:
    """``{(workload, trace): {"metrics": {name: [values]}, "failed": n,
    "attempted": n}}`` from every run output in ``directory``."""
    runs: dict = defaultdict(lambda: {"metrics": defaultdict(list),
                                      "failed": 0, "attempted": 0})
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        lines = path.read_text().splitlines()
        header = next((line.split() for line in lines
                       if line.startswith("workload ")), None)
        result = next((json.loads(line) for line in reversed(lines)
                       if line.startswith("{")), None)
        if header is None or result is None:
            continue
        group = runs[(header[1], int(header[5]))]
        group["failed"] += result["failed"]
        group["attempted"] += result["attempted"]
        for name, metric in result["metrics"].items():
            group["metrics"][name].append(metric["value"])
    return runs


def spread(values: list[float]) -> float:
    """Quartile distance over the median; infinite below two values."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float, float]:
    """``(verdict, signed change, wider spread)`` of one metric.

    The change is positive when the new runs are worse.
    """
    sign = 1.0 if lower_is_better else -1.0
    base_median = statistics.median(base)
    change = sign * (statistics.median(new) - base_median) \
        / abs(base_median) if base_median else 0.0
    wider = max(spread(base), spread(new))
    better_everywhere = (max(new) < min(base) if lower_is_better
                         else min(new) > max(base))
    if wider > bound:
        return ("improved" if better_everywhere else "unresolved",
                change, wider)
    if change > bound:
        return "regressed", change, wider
    if -change > wider:
        return "improved", change, wider
    return "unchanged", change, wider


def compare(base_dir: Path, new_dir: Path,
            benchmark: dict) -> tuple[list[str], bool]:
    """Report lines and whether the new runs regressed."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    lines = [f"{'workload':16s} {'metric':38s} {'base':>11s} {'new':>11s} "
             f"{'change':>8s} {'spread':>7s}  verdict"]
    regressed = False
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        base, new = base_runs[key], new_runs[key]
        base_share = base["failed"] / max(base["attempted"], 1)
        new_share = new["failed"] / max(new["attempted"], 1)
        if new_share > base_share:
            regressed = True
            lines.append(f"{workload:16s} {'failed operations':38s} "
                         f"{base_share:11.4g} {new_share:11.4g}  more "
                         "failures")
        for name in sorted(set(base["metrics"]) & set(new["metrics"])):
            old_values, new_values = base["metrics"][name], \
                new["metrics"][name]
            if name in bounds and trace == 0:
                spec = bounds[name]
                label, change, wider = verdict(
                    old_values, new_values, spec["bound"],
                    spec["better"] == "lower")
                regressed |= label == "regressed"
            else:
                old_median = statistics.median(old_values)
                change = (statistics.median(new_values) - old_median) \
                    / abs(old_median) if old_median else 0.0
                wider = max(spread(old_values), spread(new_values))
                label = "per-layer"
            lines.append(
                f"{workload:16s} {name:38s} "
                f"{statistics.median(old_values):11.4g} "
                f"{statistics.median(new_values):11.4g} "
                f"{change:+8.1%} {wider:7.1%}  {label}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    lines, regressed = compare(args.base, args.new, benchmark)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
