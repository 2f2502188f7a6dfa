#!/usr/bin/env python3
"""Run every desk-scale protocol and collect the printed tables.

Usage:
    python scripts/run_protocols.py [--seed N] [--out results.txt]

Each protocol is a few seconds to a minute on a laptop CPU; `transfer` is
the slowest (it trains the conv net once and the MLP twice, and transforms
every training sample through the conv net).
"""

import argparse
import sys
import time

from signreg import repro
from signreg.cli import _seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--out", default=None, help="also append tables to this file")
    parser.add_argument("--recipes", nargs="*", default=list(repro.RECIPES))
    args = parser.parse_args()

    sink = open(args.out, "a") if args.out else None

    def emit(line=""):
        print(line)
        if sink:
            sink.write(str(line) + "\n")

    for name in args.recipes:
        emit(f"=== {name} (seed {args.seed}) ===")
        started = time.time()
        repro.run_recipe(name, args.seed, out=emit)
        emit(f"--- {time.time() - started:.1f}s")
        emit()
    if sink:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
