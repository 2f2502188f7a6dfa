"""Command-line entry point.

Subcommands:
  train      run an experiment config; a sign strategy first builds the
             augmented training set (``sign_pipeline``), then every strategy
             trains its model with one ``train`` call
  transform  apply the Jacobian transform to a sample container
  eval       evaluate a checkpoint (accuracy, corruption, OOD, projection)
  repro      run one of the bundled desk-scale protocols

Exit codes: 0 success (also ``--help``), 1 usage or configuration error,
2 runtime failure.
Every run writes a resolved config snapshot into its output directory so
it can be reproduced bit-exactly. SIGNREG_THREADS overrides the config's
thread count.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfgmod
from . import repro
from .config import ConfigError, ExperimentConfig, load_experiment_config
from .datasets import (load_container, load_ood_directory, normalize, normalize_sample,
                       save_container)
from .evalharness import (aggregate, ood_evaluate, project_features, robustness_suite,
                          score_samples, write_scores_csv)
from .nn import build_model, load_checkpoint, params_checksum, save_checkpoint
from .sign import transform_dataset
from .tensor import Rng
from .training import sign_pipeline, train


def _write_run_dir(cfg: ExperimentConfig):
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "resolved-config.ini"), "w") as fh:
        fh.write(cfgmod.resolved_config_text(cfg))


def _log(cfg: ExperimentConfig, message: str):
    print(message, file=sys.stderr)
    with open(os.path.join(cfg.output_dir, "run.log"), "a") as fh:
        fh.write(message + "\n")


def _load_fitting(path: str, samples: list, num_classes: int):
    """The checkpoint's model, if it fits the samples' shape and ``num_classes``."""
    model = load_checkpoint(path)
    shape = samples[0].image.shape if samples else model.input_shape
    if model.input_shape != shape or model.num_classes != num_classes:
        raise RuntimeError(f"checkpoint {path}: model takes input {model.input_shape} "
                           f"with {model.num_classes} classes, dataset has {shape} "
                           f"with {num_classes}")
    return model


def cmd_train(config_path: str) -> int:
    cfg = load_experiment_config(config_path)
    _write_run_dir(cfg)
    split = cfgmod.build_dataset(cfg)
    split = split if split.normalized else normalize(split)
    meta = cfgmod.model_meta(cfg, split)
    out = cfg.output_dir
    source_report = None
    if cfg.strategy in ("sign", "sign-plus-classical"):
        source = pretrain = None
        if cfg.source_checkpoint is not None:
            source = _load_fitting(cfg.source_checkpoint, split.train, split.num_classes)
        else:
            pretrain = cfgmod.train_config(cfg, epochs=cfg.source_epochs,
                                           seed=cfg.source_seed, strategy="none")
        result = sign_pipeline(split, meta, pretrain, cfgmod.sign_configs(cfg),
                               threads=cfg.threads, source=source)
        save_checkpoint(result.source_model, os.path.join(out, "source-checkpoint.bin"))
        copies = result.augmented_split.train[len(split.train):]
        save_container(copies, os.path.join(out, "transformed-train.container"),
                       split.class_names, raw_domain=False, stats=split.stats)
        split, source_report = result.augmented_split, result.source_report

    model = build_model(meta, seed=cfg.init_seed)
    report = train(model, split, cfgmod.train_config(cfg))
    if source_report is not None:  # logged late, so a run that fails prints only its error
        _log(cfg, f"source wall time: {source_report.wall_time_s:.1f}s")
    _log(cfg, f"train wall time: {report.wall_time_s:.1f}s")
    save_checkpoint(model, os.path.join(out, "checkpoint.bin"))
    report.to_csv(os.path.join(out, "report.csv"))
    report.to_json(os.path.join(out, "report.json"))
    if report.rows:
        last = report.rows[-1]
        _log(cfg, f"final epoch {last.epoch}: val_acc={last.val_acc:.4f} "
                  f"(best epoch {report.selected_epoch})")
    return 0


def cmd_transform(config_path: str, checkpoint: str, in_dataset: str, out_path: str) -> int:
    cfg = load_experiment_config(config_path)
    if not os.path.exists(checkpoint):
        raise ConfigError(f"checkpoint not found: {checkpoint}")
    if not os.path.exists(in_dataset):
        raise ConfigError(f"input dataset not found: {in_dataset}")
    samples, manifest = load_container(in_dataset)
    if manifest["raw_domain"]:
        raise RuntimeError(f"{in_dataset}: raw_domain = true; the transform works in model "
                           "space, on a raw_domain = false container")
    model = _load_fitting(checkpoint, samples, len(manifest["class_names"]))
    cfgs = cfgmod.sign_configs(cfg)
    out_samples = transform_dataset(model, samples, cfgs, threads=cfg.threads)
    checksum = params_checksum(model.params)
    provenance = {"source_checkpoint": os.path.basename(checkpoint),
                  "source_model": checksum,
                  "configs": [c.provenance(checksum) for c in cfgs]}
    save_container(out_samples, out_path, tuple(manifest["class_names"]), raw_domain=False,
                   stats=manifest["stats"], provenance=provenance)
    print(f"wrote {len(out_samples)} samples to {out_path}", file=sys.stderr)
    return 0


def cmd_eval(config_path: str, checkpoint: str) -> int:
    cfg = load_experiment_config(config_path)
    if not os.path.exists(checkpoint):
        raise ConfigError(f"checkpoint not found: {checkpoint}")
    _write_run_dir(cfg)
    loaded = cfgmod.build_dataset(cfg)  # a raw_domain = false container is used as is
    split = loaded if loaded.normalized else normalize(loaded)
    if loaded.normalized and cfg.corruptions:
        raise RuntimeError(f"container {cfg.dataset_path}: raw_domain = false, and "
                           "[eval] corruptions apply to raw-domain images")
    if split.stats is None and cfg.ood_path:
        raise RuntimeError(f"container {cfg.dataset_path}: no stats to normalize the "
                           "[eval] ood_path images with")
    for folder, idx in cfg.ood_class_map.items():
        if idx >= split.num_classes:
            raise ConfigError(f"[eval] ood_class_map: {folder}={idx} is not a class index "
                              f"in [0, {split.num_classes})")
    model = _load_fitting(checkpoint, split.train, split.num_classes)
    ood_samples = None
    if cfg.ood_path:
        ood_raw = load_ood_directory(cfg.ood_path, cfg.ood_class_map,
                                     size=model.input_shape[1:])
        if not ood_raw:
            raise RuntimeError(f"ood_path {cfg.ood_path}: no images in its class folders")
        if ood_raw[0].image.shape != model.input_shape:
            raise RuntimeError(f"ood_path {cfg.ood_path}: images load as "
                               f"{ood_raw[0].image.shape}, the checkpoint takes "
                               f"{model.input_shape}")
        ood_samples = [normalize_sample(s, split.stats) for s in ood_raw]
    out = cfg.output_dir
    if cfg.projection:  # before scoring, so a tap that cannot be projected fails first
        project_features(model, split.test, cfg.projection_tap).to_csv(
            os.path.join(out, "projection.csv"))

    scores = score_samples(model, split.test, cfg.mc_samples)
    write_scores_csv(scores, os.path.join(out, "per-sample.csv"))
    report = aggregate(scores, list(range(model.num_classes)))

    if cfg.corruptions:
        report.corruptions = robustness_suite(
            model, loaded.test, cfg.corruptions, cfg.eval_repeats,
            Rng(cfg.seed).child("robustness"), stats=split.stats,
            mc_samples=cfg.mc_samples)
    report.to_json(os.path.join(out, "eval-report.json"))
    print(f"mean accuracy: {report.mean_accuracy:.4f}", file=sys.stderr)

    if ood_samples is not None:
        ood_report = ood_evaluate(model, ood_samples, cfg.mc_samples)
        ood_report.to_json(os.path.join(out, "ood-report.json"))
    return 0


def _seed(text: str) -> int:
    try:
        return Rng(int(text)).seed  # Rng rejects a seed outside [0, 2**64)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="signreg",
                                     description="Jacobian-based input regularization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment from a config file")
    p_train.add_argument("-c", "--config", required=True)

    p_tr = sub.add_parser("transform", help="transform a sample container with a checkpoint")
    p_tr.add_argument("-c", "--config", required=True)
    p_tr.add_argument("--checkpoint", required=True)
    p_tr.add_argument("--in", dest="in_dataset", required=True)
    p_tr.add_argument("--out", dest="out_path", required=True)

    p_ev = sub.add_parser("eval", help="evaluate a checkpoint per the config's eval block")
    p_ev.add_argument("-c", "--config", required=True)
    p_ev.add_argument("--checkpoint", required=True)

    p_rp = sub.add_parser("repro", help="run a bundled desk-scale protocol")
    p_rp.add_argument("recipe", choices=repro.RECIPES)
    p_rp.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, a user error here
        return 1 if exc.code else 0
    try:
        if args.command == "train":
            return cmd_train(args.config)
        if args.command == "transform":
            return cmd_transform(args.config, args.checkpoint, args.in_dataset, args.out_path)
        if args.command == "eval":
            return cmd_eval(args.config, args.checkpoint)
        return repro.run_recipe(args.recipe, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, ArithmeticError, RuntimeError, OSError,
            MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
