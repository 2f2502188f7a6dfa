#!/usr/bin/env python3
"""Run every desk-scale protocol and collect the printed tables.

Usage:
    python scripts/run_protocols.py [--seeds S [S ...]] [--recipes R ...] [--out results.txt]

Each protocol is a few seconds to a minute on a laptop CPU; `transfer` is
the slowest (it trains the conv net once and the MLP twice, and transforms
every training sample through the conv net).

After the tables, each recipe with a none and a sign arm (classify,
uncertainty, ood, and robustness by its clean accuracy) gets one summary
line: every arm's mean accuracy +- its standard deviation over the seeds
(ddof 0), the mean paired sign - none difference, and the number of seeds
where that difference is positive.
"""

import argparse
import statistics
import sys
import time

from signreg import repro
from signreg.cli import _seed

SUMMARIZED = ("classify", "uncertainty", "ood", "robustness")


def arm_accuracies(name: str, result: dict) -> dict[str, float]:
    return {arm: (entry["clean"] if name == "robustness" else entry).mean_accuracy
            for arm, entry in result.items()}


def summary_line(name: str, rows: list[dict[str, float]]) -> str:
    cells = [f"{name:>11}"]
    for arm in rows[0]:
        values = [row[arm] for row in rows]
        cells.append(f"{arm} {statistics.fmean(values):.4f}+-{statistics.pstdev(values):.4f}")
    diffs = [row["sign"] - row["none"] for row in rows]
    positive = sum(diff > 0 for diff in diffs)
    cells.append(f"sign-none {statistics.fmean(diffs):+.4f} (> 0 at {positive}/{len(rows)} seeds)")
    return "  ".join(cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_seed, nargs="+", default=[0])
    parser.add_argument("--out", default=None, help="also append tables to this file")
    parser.add_argument("--recipes", nargs="*", choices=repro.RECIPES,
                        default=list(repro.RECIPES))
    args = parser.parse_args()

    sink = open(args.out, "a") if args.out else None

    def emit(line=""):
        print(line)
        if sink:
            sink.write(str(line) + "\n")

    summaries = []
    for name in args.recipes:
        rows = []
        for seed in args.seeds:
            emit(f"=== {name} (seed {seed}) ===")
            started = time.time()
            # the recipe's own run and print functions, as repro.run_recipe calls
            # them, so the summary can read the result the table shows
            key = name.replace("-", "_")
            result = getattr(repro, f"run_{key}")(seed)
            getattr(repro, f"print_{key}")(result, emit)
            if name in SUMMARIZED:
                rows.append(arm_accuracies(name, result))
            emit(f"--- {time.time() - started:.1f}s")
            emit()
        if rows:
            summaries.append(summary_line(name, rows))
    if summaries:
        emit(f"=== summary over seeds {' '.join(map(str, args.seeds))} ===")
        for line in summaries:
            emit(line)
    if sink:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
