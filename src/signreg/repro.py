"""Desk-scale end-to-end protocols, runnable from the CLI in minutes.

Each protocol mirrors one of the evaluation comparisons (classification,
uncertainty, corruption robustness, out-of-distribution, transferability,
delta-only signal) on the synthetic blob dataset, and prints a small
comparison table. These are directional demonstrations at toy scale, not
benchmark numbers; the same machinery runs on CIFAR-10 via the config
file interface when the binary batches are available.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .augment import CorruptionSpec
from .datasets import DatasetSplit, make_synthetic_blobs, normalize, normalize_sample
from .evalharness import (EvalReport, TransferResult, evaluate, ood_evaluate,
                          robustness_suite, transferability_protocol)
from .sign import SignConfig, delta_only_dataset
from .tensor import Rng
from .training import TrainConfig, fit, sign_pipeline

RECIPES = ("classify", "uncertainty", "robustness", "ood", "transfer", "delta-only")

BLOB_SHAPE = (1, 12, 12)


def blob_split(seed: int = 0, classes: int = 3, samples_per_class: int = 100,
               separation: float = 2.0, noise_sigma: float = 12.0,
               normalized: bool = True, test_per_class: int | None = None,
               val_per_class: int | None = None) -> DatasetSplit:
    split = make_synthetic_blobs(classes, samples_per_class, BLOB_SHAPE, separation,
                                 Rng(seed).child("blobs"), noise_sigma=noise_sigma,
                                 test_per_class=test_per_class, val_per_class=val_per_class)
    return normalize(split) if normalized else split


def mlp_meta(split: DatasetSplit, hidden: tuple[int, ...] = (32,)) -> dict:
    shape = split.train[0].image.shape
    dim = int(np.prod(shape))
    return {"arch": "small_mlp", "input_dim": dim, "hidden_dims": list(hidden),
            "num_classes": split.num_classes, "input_shape": list(shape)}


def cnn_meta(split: DatasetSplit, drop_prob: float = 0.3) -> dict:
    shape = split.train[0].image.shape
    return {"arch": "basic_cnn", "input_shape": list(shape),
            "num_classes": split.num_classes, "drop_prob": drop_prob}


def desk_sign_cfgs(k_values: tuple[int, ...] = (50, 100), gamma: float = 0.02,
                   normalize_mode: str = "unit-max-abs") -> list[SignConfig]:
    """Bounded-step transform configs sized for toy data. The literal
    update rule (gamma=1, no normalization) diverges on most trained
    models at K >= 50; normalized small steps keep the same accumulation
    mechanism at a usable magnitude."""
    return [SignConfig(k=k, gamma=gamma, normalize=normalize_mode) for k in k_values]


def _base_cfg(seed: int, epochs: int = 16, strategy: str = "none") -> TrainConfig:
    return TrainConfig(epochs=epochs, batch_size=32, learning_rate=0.05,
                       strategy=strategy, seed=seed)


def none_vs_sign(split: DatasetSplit, meta: dict, base: TrainConfig,
                 cfgs: list[SignConfig], measure) -> dict:
    """``measure`` of the pipeline's plainly trained source ("none", trained
    on ``base``) and of a model fit on its augmented split, the originals plus
    their transformed copies ("sign": the same config and seed with
    ``strategy = sign``)."""
    pipeline = sign_pipeline(split, meta, base, cfgs)
    final, _ = fit(meta, pipeline.augmented_split, replace(base, strategy="sign"))
    return {"none": measure(pipeline.source_model), "sign": measure(final)}


# -- protocols -------------------------------------------------------------------


def run_classify(seed: int = 0, epochs: int = 30,
                 samples_per_class: int = 30) -> dict[str, EvalReport]:
    """Per-class and overall accuracy of plain, mixup and SIGN training;
    acceptance criterion 5 reads the none and sign arms.

    The protocol sits in the scarce-data regime (90 training samples on a
    hard task, baseline ~0.72) where extra label-consistent samples have
    room to move test accuracy, with large validation/test pools so both
    epoch selection and the measured accuracies are fine-grained. The
    transform is kept gentle (gamma 0.002, bounded steps); stronger
    settings trade clean accuracy for the robustness gains the corruption
    protocol measures. There is no classical arm: blob classes differ only
    in where their bump sits, so a flip or a quarter turn moves it to
    another class's place and keeps the label.
    """
    split = blob_split(seed, separation=0.8, noise_sigma=14.0,
                       samples_per_class=samples_per_class, test_per_class=400,
                       val_per_class=200)
    meta = mlp_meta(split)
    arms = none_vs_sign(split, meta, _base_cfg(seed, epochs), desk_sign_cfgs(gamma=0.002),
                        lambda model: evaluate(model, split.test))
    mixup_model, _ = fit(meta, split, _base_cfg(seed, epochs, "mixup"))
    return {"none": arms["none"], "mixup": evaluate(mixup_model, split.test),
            "sign": arms["sign"]}


def run_uncertainty(seed: int = 0, separation: float = 1.0,
                    epochs: int = 20) -> dict[str, EvalReport]:
    """Accuracy, low-confidence bucket, learned noise scale per strategy."""
    split = blob_split(seed, separation=separation, samples_per_class=60,
                       test_per_class=200, val_per_class=100)
    meta = dict(mlp_meta(split), uncertainty_head=True)
    arms = none_vs_sign(split, meta, _base_cfg(seed, epochs), desk_sign_cfgs(),
                        lambda model: evaluate(model, split.test))
    mixup_model, _ = fit(meta, split, _base_cfg(seed, epochs, "mixup"))
    return {"none": arms["none"], "mixup": evaluate(mixup_model, split.test),
            "sign": arms["sign"]}


def blob_corruptions() -> list[CorruptionSpec]:
    # 12x12 images: 14 pixels ~ the same 5% coverage that 50 pixels gives 32x32
    return [CorruptionSpec(kind="pixel-off", pixel_count=14),
            CorruptionSpec(kind="gaussian", mu=0.0, sigma=10.0)]


def run_robustness(seed: int = 0, separation: float = 2.0, epochs: int = 16,
                   repeats: int = 5) -> dict[str, dict]:
    """Clean accuracy and accuracy under pixel-off / additive-noise draws."""
    raw_split = blob_split(seed, separation=separation, normalized=False)
    split = normalize(raw_split)
    meta = mlp_meta(split)

    def measure(model) -> dict:
        clean = evaluate(model, split.test)
        corr = robustness_suite(model, raw_split.test, blob_corruptions(), repeats,
                                Rng(seed).child("robustness"), stats=split.stats)
        return {"clean": clean, "corruptions": corr}

    return none_vs_sign(split, meta, _base_cfg(seed, epochs), desk_sign_cfgs(), measure)


def run_ood(seed: int = 0, separation: float = 2.0, epochs: int = 16) -> dict[str, EvalReport]:
    """Evaluate on a shifted blob distribution covering a class subset."""
    split = blob_split(seed, separation=separation)
    # shifted distribution: noisier draws of a class subset, different stream
    ood_raw = make_synthetic_blobs(split.num_classes, 40, BLOB_SHAPE,
                                   separation * 0.7, Rng(seed + 1).child("ood"),
                                   noise_sigma=18.0)
    subset = [s for s in ood_raw.test if s.label < split.num_classes - 1]
    ood_samples = [normalize_sample(s, split.stats) for s in subset]
    return none_vs_sign(split, mlp_meta(split), _base_cfg(seed, epochs), desk_sign_cfgs(),
                        lambda model: ood_evaluate(model, ood_samples))


def run_transfer(seed: int = 0, separation: float = 2.0, epochs: int = 10,
                 sign_cfgs: list[SignConfig] | None = None) -> TransferResult:
    """Transform with a trained conv net, train a fresh MLP on the result.

    The conv source is pretrained with Adam at lr 1e-3: the MLP recipes'
    SGD at lr 0.05 diverges on it and leaves it at chance at many seeds.
    """
    split = blob_split(seed, separation=separation)
    source = cnn_meta(split)
    target = mlp_meta(split)
    cfgs = desk_sign_cfgs((20, 40)) if sign_cfgs is None else sign_cfgs
    return transferability_protocol(source, target, split, cfgs,
                                    replace(_base_cfg(seed, epochs), optimizer="adam",
                                            learning_rate=1e-3),
                                    _base_cfg(seed, epochs, "sign"))


def run_delta_only(seed: int = 0, separation: float = 10.0,
                   samples_per_class: int = 200, epochs: int = 20) -> dict:
    """Train a fresh model on the accumulated deltas alone.

    Better-than-chance accuracy certifies that the transform's perturbation
    carries class signal, not just noise.
    """
    split = blob_split(seed, separation=separation,
                       samples_per_class=samples_per_class)
    meta = mlp_meta(split)
    source, _ = fit(meta, split, _base_cfg(seed, epochs))
    cfg = SignConfig(k=5, gamma=1.0)
    delta_split = replace(split, train=delta_only_dataset(source, split.train, cfg),
                          val=delta_only_dataset(source, split.val, cfg),
                          test=delta_only_dataset(source, split.test, cfg))
    fresh, _ = fit(meta, delta_split, _base_cfg(seed, epochs))
    report = evaluate(fresh, delta_split.test)
    return {"delta_accuracy": report.mean_accuracy,
            "chance": 1.0 / split.num_classes,
            "source_accuracy": evaluate(source, split.test).mean_accuracy,
            "report": report}


# -- table printing ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "N/A"
    return f"{value:.4f}"


def _print_per_class(first: str, results: dict[str, EvalReport], out):
    """One row per entry: its per-class accuracies, then the mean."""
    classes = [row.label for row in next(iter(results.values())).per_class]
    header = [first] + [f"class{c}" for c in classes] + ["mean"]
    out("  ".join(f"{h:>10}" for h in header))
    for name, report in results.items():
        cells = [f"{name:>10}"] + [f"{row.accuracy:>10.4f}" for row in report.per_class]
        cells.append(f"{report.mean_accuracy:>10.4f}")
        out("  ".join(cells))


def print_classify(results: dict[str, EvalReport], out=print):
    _print_per_class("method", results, out)


def print_uncertainty(results: dict[str, EvalReport], out=print):
    out(f"{'method':>10}  {'accuracy':>9} {'p<=0.5 n':>9} {'bucket p':>9} "
        f"{'uncert':>8} {'min corr p':>10}")
    for method, report in results.items():
        bucket = report.bucket
        out(f"{method:>10}  {report.mean_accuracy:>9.4f} {bucket.count:>9d} "
            f"{_fmt(bucket.mean_probability):>9} {_fmt(bucket.mean_uncertainty):>8} "
            f"{_fmt(report.min_correct_probability):>10}")


def print_robustness(results: dict[str, dict], out=print):
    out(f"{'method':>10}  {'clean':>8}  corruption results (mean +- std)")
    for method, entry in results.items():
        cells = [f"{method:>10}", f"{entry['clean'].mean_accuracy:>8.4f}"]
        for res in entry["corruptions"]:
            cells.append(f"{res.spec.describe()}={res.mean_accuracy:.4f}+-{res.std_accuracy:.1e}")
        out("  ".join(cells))


def print_ood(results: dict[str, EvalReport], out=print):
    for method, report in results.items():
        out(f"method={method}  mean={report.mean_accuracy:.4f}")
        for row in report.per_class:
            out(f"    class{row.label}: n={row.total} acc={row.accuracy:.4f} "
                f"bucket n={row.bucket.count} p={_fmt(row.bucket.mean_probability)}")


def print_transfer(result: TransferResult, out=print):
    _print_per_class("arm", {"control": result.control_report,
                             "transfer": result.transfer_report}, out)


def print_delta_only(result: dict, out=print):
    out(f"source accuracy:      {result['source_accuracy']:.4f}")
    out(f"delta-only accuracy:  {result['delta_accuracy']:.4f}")
    out(f"chance level:         {result['chance']:.4f}")
    ratio = result["delta_accuracy"] / result["chance"]
    out(f"ratio over chance:    {ratio:.2f}x")


def run_recipe(name: str, seed: int = 0, out=print) -> int:
    if name == "classify":
        print_classify(run_classify(seed), out)
    elif name == "uncertainty":
        print_uncertainty(run_uncertainty(seed), out)
    elif name == "robustness":
        print_robustness(run_robustness(seed), out)
    elif name == "ood":
        print_ood(run_ood(seed), out)
    elif name == "transfer":
        print_transfer(run_transfer(seed), out)
    elif name == "delta-only":
        print_delta_only(run_delta_only(seed), out)
    else:
        raise ValueError(f"unknown recipe {name!r}; valid: {', '.join(RECIPES)}")
    return 0
