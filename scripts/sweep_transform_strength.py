#!/usr/bin/env python3
"""Sweep the transform's step scale and measure the clean-vs-robust tradeoff.

For each gamma, runs the transform pipeline on a blob split and reports
clean test accuracy and pixel-off accuracy of its plainly trained source
(the baseline) and of its final model.
Gentle steps track the baseline on clean data; stronger steps give up a
little clean accuracy and gain under corruption.

Usage:
    python scripts/sweep_transform_strength.py [--seeds 0 1 2] [--gammas ...]
"""

import argparse
import sys

from signreg import repro
from signreg.augment import CorruptionSpec
from signreg.datasets import normalize
from signreg.evalharness import evaluate, robustness_suite
from signreg.tensor import Rng


def run_one(seed: int, gamma: float) -> dict:
    raw = repro.blob_split(seed, separation=1.5, samples_per_class=40,
                           noise_sigma=14.0, test_per_class=300, val_per_class=150,
                           normalized=False)
    split = normalize(raw)
    meta = repro.mlp_meta(split)
    spec = [CorruptionSpec(kind="pixel-off", pixel_count=14)]

    def measure(model):
        clean = evaluate(model, split.test).mean_accuracy
        rob = robustness_suite(model, raw.test, spec, repeats=5,
                               rng=Rng(seed).child("rob"), stats=split.stats)
        return clean, rob[0].mean_accuracy

    arms = repro.none_vs_sign(split, meta, repro._base_cfg(seed, epochs=24),
                              repro.desk_sign_cfgs((50, 100), gamma), measure)
    (base_clean, base_rob), (sign_clean, sign_rob) = arms["none"], arms["sign"]
    return {"base_clean": base_clean, "base_rob": base_rob,
            "sign_clean": sign_clean, "sign_rob": sign_rob}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", nargs="*", type=int, default=[0, 1, 2])
    parser.add_argument("--gammas", nargs="*", type=float,
                        default=[0.002, 0.005, 0.01, 0.02, 0.05])
    args = parser.parse_args()

    print(f"{'gamma':>7} {'clean(base)':>12} {'clean(sign)':>12} "
          f"{'pixoff(base)':>13} {'pixoff(sign)':>13}")
    for gamma in args.gammas:
        rows = [run_one(seed, gamma) for seed in args.seeds]
        mean = {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}
        print(f"{gamma:>7g} {mean['base_clean']:>12.4f} {mean['sign_clean']:>12.4f} "
              f"{mean['base_rob']:>13.4f} {mean['sign_rob']:>13.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
