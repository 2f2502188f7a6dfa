"""Experiment configuration: a flat sectioned key-value file.

One file describes one experiment end to end (dataset, model, strategy,
training, evaluation, output). A resolved copy written into every run
directory loads back to the same config, so a run can be reproduced from
its own artifacts. Each ``ExperimentConfig`` field declares one key (its
section, name, checking parser and default); that one list drives loading,
the rejection of unknown keys and the snapshot. Every error names the
offending section/key. See README for the full schema.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields

from .augment import CorruptionSpec
from .datasets import DatasetSplit, load_cifar10_binary, load_container, make_synthetic_blobs
from .sign import EVAL_POINTS, NORMALIZE_MODES, SignConfig
from .tensor import Rng
from .training import STRATEGIES, TrainConfig


class ConfigError(ValueError):
    """User-facing configuration problem (exit code 1 territory)."""


_REQUIRED = object()


def _key(section: str, key: str, parse=str, default=_REQUIRED, fmt=str, only_with=None):
    """Declare one config key. ``parse`` turns INI text into the value and
    raises ValueError for a bad one; ``default`` is the INI text used when
    the key is absent, or None for a key that stays unset (for those keys
    only, an empty value also means unset); ``fmt`` writes the value back.
    ``only_with = (field, value)``: the key has an effect only while that
    other field holds that value; otherwise setting it is an error, and it
    stays unset."""
    return field(metadata={"section": section, "key": key, "parse": parse,
                           "default": default, "fmt": fmt, "only_with": only_with})


# -- value parsers: INI text -> checked value ----------------------------------


def _at_least(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _seed(text: str) -> int:
    return Rng(int(text)).seed  # Rng rejects a seed outside [0, 2**64)


def _real(rule: str, holds=lambda value: True):
    """A finite float for which ``holds`` is true; ``rule`` states the range."""
    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and holds(value)):
            raise ValueError(f"must be {rule}, got {value}")
        return value
    return parse


_finite = _real("finite")
_positive = _real("finite and > 0", lambda value: value > 0)
_non_negative = _real("finite and >= 0", lambda value: value >= 0)
_fraction = _real("in [0, 1)", lambda value: 0 <= value < 1)


def _choice(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be {'|'.join(options)}, got {text!r}")
        return text
    return parse


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _counts(text: str) -> list[int]:
    counts = [int(x) for x in text.replace(",", " ").split()]
    if not counts or min(counts) < 1:
        raise ValueError(f"needs one or more counts >= 1, got {counts}")
    return counts


def _shape(text: str) -> tuple[int, int, int]:
    parts = [int(x) for x in text.lower().replace("x", " ").replace(",", " ").split()]
    if len(parts) != 3 or min(parts) < 1:
        raise ValueError(f"needs 3 extents >= 1, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def parse_corruption(token: str) -> CorruptionSpec:
    """pixel-off:COUNT or gaussian:MU:SIGMA (also bare kind with defaults)."""
    parts = token.strip().split(":")
    kind = parts[0]
    if kind == "pixel-off":
        count = int(parts[1]) if len(parts) > 1 else 50
        return CorruptionSpec(kind="pixel-off", pixel_count=count)
    if kind == "gaussian":
        mu = _finite(parts[1]) if len(parts) > 1 else 0.0
        sigma = _non_negative(parts[2]) if len(parts) > 2 else 10.0
        return CorruptionSpec(kind="gaussian", mu=mu, sigma=sigma)
    raise ValueError(f"unknown corruption {kind!r}")


def _corruptions_text(specs: list[CorruptionSpec]) -> str:
    return " ".join(f"pixel-off:{s.pixel_count}" if s.kind == "pixel-off"
                    else f"gaussian:{s.mu!r}:{s.sigma!r}" for s in specs)


def _class_map(text: str) -> dict[str, int]:
    out = {}
    for pair in text.replace(",", " ").split():
        folder, _, idx = pair.partition("=")
        if not idx or int(idx) < 0:
            raise ValueError(f"class map entry {pair!r} needs folder=index, index >= 0")
        out[folder] = int(idx)
    return out


def _joined(sep: str):
    return lambda values: sep.join(str(v) for v in values)


_TAPS = ("pre-logits", "logits", "sigma")


@dataclass
class ExperimentConfig:
    dataset_kind: str = _key("dataset", "kind", _choice("blobs", "cifar10", "container"))
    dataset_path: str | None = _key("dataset", "path", default=None)
    blob_classes: int = _key("dataset", "classes", _at_least(1), "3")
    blob_samples_per_class: int = _key("dataset", "samples_per_class", _at_least(1), "200")
    blob_image_shape: tuple[int, int, int] = _key("dataset", "image_shape", _shape, "1x12x12",
                                                  _joined("x"))
    blob_separation: float = _key("dataset", "separation", _non_negative, "2.0")
    blob_noise_sigma: float = _key("dataset", "noise_sigma", _non_negative, "12.0")
    split_seed: int = _key("dataset", "split_seed", _seed, "0")
    val_count: int | None = _key("dataset", "val_count", _at_least(1), "5000",
                                 only_with=("dataset_kind", "cifar10"))

    arch: str = _key("model", "arch", _choice("basic_cnn", "small_mlp"))
    init_seed: int = _key("model", "init_seed", _seed, "0")
    drop_prob: float | None = _key("model", "drop_prob", _fraction, "0.3",
                                   only_with=("arch", "basic_cnn"))
    hidden_dims: list[int] | None = _key("model", "hidden_dims", _counts, "64,32", _joined(","),
                                         only_with=("arch", "small_mlp"))
    uncertainty_head: bool = _key("model", "uncertainty_head", _bool, "false")

    strategy: str = _key("strategy", "name", _choice(*STRATEGIES))
    mixup_alpha: float = _key("strategy", "mixup_alpha", _positive, "0.2")
    sign_k: list[int] = _key("strategy", "sign_k", _counts, "50,100", _joined(","))
    sign_gamma: float = _key("strategy", "sign_gamma", _positive, "1.0")
    sign_tap: str = _key("strategy", "sign_tap", _choice(*_TAPS), "pre-logits")
    sign_eval_point: str = _key("strategy", "sign_eval_point", _choice(*EVAL_POINTS),
                                "current-iterate")
    sign_normalize: str = _key("strategy", "sign_normalize", _choice(*NORMALIZE_MODES), "none")
    # a source_checkpoint is loaded, not trained
    source_epochs: int | None = _key("strategy", "source_epochs", _at_least(1), None,
                                     only_with=("source_checkpoint", None))
    source_seed: int | None = _key("strategy", "source_seed", _seed, None,
                                   only_with=("source_checkpoint", None))
    source_checkpoint: str | None = _key("strategy", "source_checkpoint", default=None)

    epochs: int = _key("train", "epochs", _at_least(0))
    batch_size: int = _key("train", "batch_size", _at_least(1), "128")
    optimizer: str = _key("train", "optimizer", _choice("sgd-momentum", "adam"), "sgd-momentum")
    learning_rate: float = _key("train", "learning_rate", _positive, "0.01")
    momentum: float | None = _key("train", "momentum", _finite, "0.9",
                                  only_with=("optimizer", "sgd-momentum"))
    mc_samples: int = _key("train", "mc_samples", _at_least(1), "20")
    seed: int = _key("train", "seed", _seed, "0")
    threads: int = _key("train", "threads", _at_least(1), "1")

    corruptions: list[CorruptionSpec] = _key(
        "eval", "corruptions", lambda text: [parse_corruption(t) for t in text.split()], "",
        _corruptions_text)
    eval_repeats: int = _key("eval", "repeats", _at_least(1), "5")
    ood_path: str | None = _key("eval", "ood_path", default=None)
    ood_class_map: dict[str, int] = _key(
        "eval", "ood_class_map", _class_map, "",
        lambda mapping: ",".join(f"{folder}={idx}" for folder, idx in mapping.items()))
    projection: bool = _key("eval", "projection", _bool, "false")
    projection_tap: str = _key("eval", "projection_tap", _choice(*_TAPS), "pre-logits")

    output_dir: str = _key("output", "dir")


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse(parse, text: str, where: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_experiment_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    known = {(f.metadata["section"], f.metadata["key"]) for f in _FIELDS.values()}
    sections = {section for section, _ in known}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(key for key in parser[section] if (section, key) not in known)
        if unknown:
            raise ConfigError(f"[{section}] unknown key(s): {', '.join(unknown)}")

    values, given = {}, set()
    for name, f in _FIELDS.items():
        section, key, default = f.metadata["section"], f.metadata["key"], f.metadata["default"]
        text = parser[section].get(key) if parser.has_section(section) else None
        if text is None or (text == "" and default is None):
            if default is _REQUIRED:
                raise ConfigError(f"[{section}] missing required key: {key}")
            text = default
        else:
            given.add(name)
        values[name] = None if text is None else _parse(f.metadata["parse"], text,
                                                        f"[{section}] {key}")
    for name, f in _FIELDS.items():
        rule = f.metadata["only_with"]
        if rule and values[rule[0]] != rule[1]:
            if name in given:
                other = _FIELDS[rule[0]].metadata
                raise ConfigError(f"[{f.metadata['section']}] {f.metadata['key']}: no effect with "
                                  f"[{other['section']}] {other['key']} = "
                                  f"{other['fmt'](values[rule[0]])}")
            values[name] = None
    cfg = ExperimentConfig(**values)
    _check_across_keys(cfg)
    return cfg


def _check_across_keys(cfg: ExperimentConfig):
    """Rules that span keys, and the SIGNREG_THREADS override of ``threads``."""
    if cfg.dataset_kind in ("cifar10", "container"):
        if cfg.dataset_path is None:
            raise ConfigError("[dataset] missing required key: path")
        if not os.path.exists(cfg.dataset_path):
            raise ConfigError(f"[dataset] path does not exist: {cfg.dataset_path}")

    is_sign = cfg.strategy in ("sign", "sign-plus-classical")
    if cfg.source_checkpoint is None:
        if is_sign and cfg.source_epochs is None:
            raise ConfigError("[strategy] sign strategies need source_epochs (train a "
                              "source model) or source_checkpoint (reuse one)")
        if is_sign and cfg.sign_tap == "sigma" and not cfg.uncertainty_head:
            raise ConfigError("[strategy] sign_tap = sigma needs [model] uncertainty_head = true")
        if cfg.source_seed is None:
            cfg.source_seed = 0
    elif is_sign and not os.path.exists(cfg.source_checkpoint):
        raise ConfigError(f"[strategy] source_checkpoint does not exist: {cfg.source_checkpoint}")
    if cfg.ood_path is not None and not os.path.isdir(cfg.ood_path):
        raise ConfigError(f"[eval] ood_path is not a directory: {cfg.ood_path}")
    env_threads = os.environ.get("SIGNREG_THREADS")
    if env_threads:
        cfg.threads = _parse(_FIELDS["threads"].metadata["parse"], env_threads,
                             "SIGNREG_THREADS")


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Every set key at its resolved value, in declaration order; unset keys
    (those without effect among them) are left out, so the text loads back
    to an equal config."""
    blocks: dict[str, list[str]] = {}
    for name, f in _FIELDS.items():
        section, value = f.metadata["section"], getattr(cfg, name)
        lines = blocks.setdefault(section, [f"[{section}]"])
        if value is not None:
            lines.append(f"{f.metadata['key']} = {f.metadata['fmt'](value)}".rstrip())
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


# -- config -> library objects ---------------------------------------------------


def build_dataset(cfg: ExperimentConfig) -> DatasetSplit:
    if cfg.dataset_kind == "blobs":
        return make_synthetic_blobs(cfg.blob_classes, cfg.blob_samples_per_class,
                                    cfg.blob_image_shape, cfg.blob_separation,
                                    Rng(cfg.split_seed), noise_sigma=cfg.blob_noise_sigma)
    if cfg.dataset_kind == "cifar10":
        return load_cifar10_binary(cfg.dataset_path, val_count=cfg.val_count,
                                   split_rng=Rng(cfg.split_seed))
    samples, manifest = load_container(cfg.dataset_path)
    names = tuple(manifest["class_names"])
    n = len(samples)
    if n < 3:
        raise ValueError(f"{cfg.dataset_path}: {n} samples, too few to fill train, val and test")
    n_val = max(1, n // 6)
    n_test = max(1, n // 3)
    model_space = not manifest["raw_domain"]  # already normalized, by the stats it carries
    return DatasetSplit(train=samples[:n - n_val - n_test],
                        val=samples[n - n_val - n_test:n - n_test],
                        test=samples[n - n_test:],
                        class_names=names,
                        stats=manifest["stats"] if model_space else None,
                        normalized=model_space)


def model_meta(cfg: ExperimentConfig, split: DatasetSplit) -> dict:
    shape = split.train[0].image.shape
    ncls = split.num_classes
    if cfg.arch == "basic_cnn":
        meta = {"arch": "basic_cnn", "input_shape": list(shape), "num_classes": ncls,
                "drop_prob": cfg.drop_prob}
    else:
        meta = {"arch": "small_mlp", "input_dim": math.prod(shape),
                "hidden_dims": list(cfg.hidden_dims), "num_classes": ncls,
                "input_shape": list(shape)}
    if cfg.uncertainty_head:
        meta["uncertainty_head"] = True
    return meta


def train_config(cfg: ExperimentConfig, epochs: int | None = None,
                 seed: int | None = None, strategy: str | None = None) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs if epochs is None else epochs,
        batch_size=cfg.batch_size,
        optimizer=cfg.optimizer,
        learning_rate=cfg.learning_rate,
        # unset with adam, which has no momentum; the field keeps its default
        momentum=TrainConfig.momentum if cfg.momentum is None else cfg.momentum,
        strategy=cfg.strategy if strategy is None else strategy,
        mixup_alpha=cfg.mixup_alpha,
        mc_samples=cfg.mc_samples,
        seed=cfg.seed if seed is None else seed,
    )


def sign_configs(cfg: ExperimentConfig) -> list[SignConfig]:
    return [SignConfig(k=k, tap=cfg.sign_tap, gamma=cfg.sign_gamma,
                       eval_point=cfg.sign_eval_point, normalize=cfg.sign_normalize)
            for k in cfg.sign_k]
