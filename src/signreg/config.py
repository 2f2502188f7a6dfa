"""Experiment configuration: a flat sectioned key-value file.

One file describes one experiment end to end (dataset, model, strategy,
training, evaluation, output), and a resolved copy of it is written into
every run directory, so a run can be reproduced from its own artifacts.

Unknown keys are rejected, and every error names the offending
section/key. See README for the full schema.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .augment import CorruptionSpec
from .datasets import DatasetSplit, load_cifar10_binary, load_container, make_synthetic_blobs
from .sign import EVAL_POINTS, NORMALIZE_MODES, SignConfig
from .tensor import Rng
from .training import STRATEGIES, TrainConfig


class ConfigError(ValueError):
    """User-facing configuration problem (exit code 1 territory)."""


_KNOWN_KEYS = {
    "dataset": {"kind", "path", "classes", "samples_per_class", "image_shape",
                "separation", "noise_sigma", "split_seed", "val_count"},
    "model": {"arch", "init_seed", "drop_prob", "hidden_dims", "uncertainty_head"},
    "strategy": {"name", "mixup_alpha", "sign_k", "sign_gamma", "sign_tap",
                 "sign_eval_point", "sign_normalize", "source_epochs", "source_seed",
                 "source_checkpoint"},
    "train": {"epochs", "batch_size", "optimizer", "learning_rate", "momentum",
              "mc_samples", "seed", "threads"},
    "eval": {"corruptions", "repeats", "ood_path", "ood_class_map", "projection",
             "projection_tap"},
    "output": {"dir"},
}


@dataclass
class ExperimentConfig:
    dataset_kind: str
    dataset_path: str | None
    blob_classes: int
    blob_samples_per_class: int
    blob_image_shape: tuple[int, int, int]
    blob_separation: float
    blob_noise_sigma: float
    split_seed: int
    val_count: int

    arch: str
    init_seed: int
    drop_prob: float
    hidden_dims: list[int]
    uncertainty_head: bool

    strategy: str
    mixup_alpha: float
    sign_k: list[int]
    sign_gamma: float
    sign_tap: str
    sign_eval_point: str
    sign_normalize: str
    source_epochs: int | None
    source_seed: int
    source_checkpoint: str | None

    epochs: int
    batch_size: int
    optimizer: str
    learning_rate: float
    momentum: float
    mc_samples: int
    seed: int
    threads: int

    corruptions: list[CorruptionSpec]
    eval_repeats: int
    ood_path: str | None
    ood_class_map: dict[str, int] = field(default_factory=dict)
    projection: bool = False
    projection_tap: str = "pre-logits"

    output_dir: str = "runs/out"


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else {}
        unknown = set(self.raw) - _KNOWN_KEYS[name]
        if unknown:
            raise ConfigError(f"[{name}] unknown key(s): {', '.join(sorted(unknown))}")

    def _get(self, key, default, convert):
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] missing required key: {key}")
            return default
        try:
            return convert(self.raw[key])
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"[{self.name}] {key}: {exc}") from exc

    def str(self, key, default=None):
        return self._get(key, default, str)

    def choice(self, key, default, choices):
        value = self.str(key, default)
        if value not in choices:
            raise ConfigError(f"[{self.name}] {key} must be {'|'.join(choices)}, got {value!r}")
        return value

    def int(self, key, default=None):
        return self._get(key, default, int)

    def float(self, key, default=None):
        return self._get(key, default, float)

    def bool(self, key, default=False):
        def conv(v):
            v = v.strip().lower()
            if v in ("true", "yes", "1", "on"):
                return True
            if v in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {v!r}")
        return self._get(key, default, conv)

    def int_list(self, key, default=None):
        return self._get(key, default,
                         lambda v: [int(x) for x in v.replace(",", " ").split()])


_REQUIRED = object()


def _parse_shape(value: str) -> tuple[int, int, int]:
    parts = [int(x) for x in value.lower().replace("x", " ").replace(",", " ").split()]
    if len(parts) != 3:
        raise ValueError(f"image_shape needs 3 extents, got {value!r}")
    return tuple(parts)  # type: ignore[return-value]


def parse_corruption(token: str) -> CorruptionSpec:
    """pixel-off:COUNT or gaussian:MU:SIGMA (also bare kind with defaults)."""
    parts = token.strip().split(":")
    kind = parts[0]
    if kind == "pixel-off":
        count = int(parts[1]) if len(parts) > 1 else 50
        return CorruptionSpec(kind="pixel-off", pixel_count=count)
    if kind == "gaussian":
        mu = float(parts[1]) if len(parts) > 1 else 0.0
        sigma = float(parts[2]) if len(parts) > 2 else 10.0
        return CorruptionSpec(kind="gaussian", mu=mu, sigma=sigma)
    raise ValueError(f"unknown corruption {kind!r}")


def _parse_class_map(value: str) -> dict[str, int]:
    out = {}
    for pair in value.replace(",", " ").split():
        folder, _, idx = pair.partition("=")
        if not idx:
            raise ValueError(f"class map entry {pair!r} needs folder=index")
        out[folder] = int(idx)
    return out


def load_experiment_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")

    ds = _Section(parser, "dataset")
    kind = ds.choice("kind", _REQUIRED, ("blobs", "cifar10", "container"))
    path_value = ds.str("path")
    if kind in ("cifar10", "container"):
        if path_value is None:
            raise ConfigError("[dataset] missing required key: path")
        if not os.path.exists(path_value):
            raise ConfigError(f"[dataset] path does not exist: {path_value}")

    md = _Section(parser, "model")
    arch = md.choice("arch", _REQUIRED, ("basic_cnn", "small_mlp"))
    uncertainty_head = md.bool("uncertainty_head", False)

    st = _Section(parser, "strategy")
    strategy = st.choice("name", _REQUIRED, STRATEGIES)
    source_epochs = st.int("source_epochs")
    source_checkpoint = st.str("source_checkpoint") or None
    is_sign = strategy in ("sign", "sign-plus-classical")
    if is_sign:
        if source_epochs is None and source_checkpoint is None:
            raise ConfigError("[strategy] sign strategies need source_epochs (train a "
                              "source model) or source_checkpoint (reuse one)")
        if source_checkpoint is not None and not os.path.exists(source_checkpoint):
            raise ConfigError(f"[strategy] source_checkpoint does not exist: {source_checkpoint}")
    if source_checkpoint is not None:
        unused = sorted({"source_epochs", "source_seed"} & set(st.raw))
        if unused:
            raise ConfigError(f"[strategy] {', '.join(unused)}: no effect with "
                              "source_checkpoint, which is loaded, not trained")
    sign_k = st.int_list("sign_k", [50, 100])
    if not sign_k or min(sign_k) < 1:
        raise ConfigError(f"[strategy] sign_k needs one or more counts >= 1, got {sign_k}")
    sign_gamma = st.float("sign_gamma", 1.0)
    if not (0 < sign_gamma < math.inf):
        raise ConfigError(f"[strategy] sign_gamma must be finite and > 0, got {sign_gamma}")
    sign_tap = st.choice("sign_tap", "pre-logits", ("pre-logits", "logits", "sigma"))
    if sign_tap == "sigma" and is_sign and source_checkpoint is None and not uncertainty_head:
        raise ConfigError("[strategy] sign_tap = sigma needs [model] uncertainty_head = true")

    tr = _Section(parser, "train")
    ev = _Section(parser, "eval")
    ood_path = ev.str("ood_path")
    if ood_path is not None and not os.path.isdir(ood_path):
        raise ConfigError(f"[eval] ood_path is not a directory: {ood_path}")

    out = _Section(parser, "output")

    threads = tr.int("threads", 1)
    env_threads = os.environ.get("SIGNREG_THREADS")
    if env_threads:
        try:
            threads = int(env_threads)
        except ValueError as exc:
            raise ConfigError(f"SIGNREG_THREADS must be an integer, got {env_threads!r}") from exc
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    return ExperimentConfig(
        dataset_kind=kind,
        dataset_path=path_value,
        blob_classes=ds.int("classes", 3),
        blob_samples_per_class=ds.int("samples_per_class", 200),
        blob_image_shape=ds._get("image_shape", (1, 12, 12), _parse_shape),
        blob_separation=ds.float("separation", 2.0),
        blob_noise_sigma=ds.float("noise_sigma", 12.0),
        split_seed=ds.int("split_seed", 0),
        val_count=ds.int("val_count", 5000),
        arch=arch,
        init_seed=md.int("init_seed", 0),
        drop_prob=md.float("drop_prob", 0.3),
        hidden_dims=md.int_list("hidden_dims", [64, 32]),
        uncertainty_head=uncertainty_head,
        strategy=strategy,
        mixup_alpha=st.float("mixup_alpha", 0.2),
        sign_k=sign_k,
        sign_gamma=sign_gamma,
        sign_tap=sign_tap,
        sign_eval_point=st.choice("sign_eval_point", "current-iterate", EVAL_POINTS),
        sign_normalize=st.choice("sign_normalize", "none", NORMALIZE_MODES),
        source_epochs=source_epochs,
        source_seed=st.int("source_seed", 0),
        source_checkpoint=source_checkpoint,
        epochs=tr.int("epochs", _REQUIRED),
        batch_size=tr.int("batch_size", 128),
        optimizer=tr.str("optimizer", "sgd-momentum"),
        learning_rate=tr.float("learning_rate", 0.01),
        momentum=tr.float("momentum", 0.9),
        mc_samples=tr.int("mc_samples", 20),
        seed=tr.int("seed", 0),
        threads=threads,
        corruptions=ev._get("corruptions", [],
                            lambda v: [parse_corruption(tok) for tok in v.split()]),
        eval_repeats=ev.int("repeats", 5),
        ood_path=ood_path,
        ood_class_map=ev._get("ood_class_map", {}, _parse_class_map),
        projection=ev.bool("projection", False),
        projection_tap=ev.str("projection_tap", "pre-logits"),
        output_dir=out.str("dir", _REQUIRED),
    )


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Flat, fully-resolved key-value snapshot, stable ordering."""
    shape = "x".join(str(s) for s in cfg.blob_image_shape)
    sections = {
        "dataset": {
            "kind": cfg.dataset_kind, "path": cfg.dataset_path or "",
            "classes": cfg.blob_classes, "samples_per_class": cfg.blob_samples_per_class,
            "image_shape": shape, "separation": cfg.blob_separation,
            "noise_sigma": cfg.blob_noise_sigma, "split_seed": cfg.split_seed,
            "val_count": cfg.val_count,
        },
        "model": {
            "arch": cfg.arch, "init_seed": cfg.init_seed, "drop_prob": cfg.drop_prob,
            "hidden_dims": ",".join(str(d) for d in cfg.hidden_dims),
            "uncertainty_head": cfg.uncertainty_head,
        },
        "strategy": {
            "name": cfg.strategy, "mixup_alpha": cfg.mixup_alpha,
            "sign_k": ",".join(str(k) for k in cfg.sign_k), "sign_gamma": cfg.sign_gamma,
            "sign_tap": cfg.sign_tap, "sign_eval_point": cfg.sign_eval_point,
            "sign_normalize": cfg.sign_normalize,
            "source_epochs": "" if cfg.source_epochs is None else cfg.source_epochs,
            "source_seed": cfg.source_seed,
            "source_checkpoint": cfg.source_checkpoint or "",
        },
        "train": {
            "epochs": cfg.epochs, "batch_size": cfg.batch_size, "optimizer": cfg.optimizer,
            "learning_rate": cfg.learning_rate, "momentum": cfg.momentum,
            "mc_samples": cfg.mc_samples, "seed": cfg.seed, "threads": cfg.threads,
        },
        "eval": {
            "corruptions": " ".join(_corruption_token(c) for c in cfg.corruptions),
            "repeats": cfg.eval_repeats, "ood_path": cfg.ood_path or "",
            "ood_class_map": ",".join(f"{k}={v}" for k, v in sorted(cfg.ood_class_map.items())),
            "projection": cfg.projection, "projection_tap": cfg.projection_tap,
        },
        "output": {"dir": cfg.output_dir},
    }
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _corruption_token(spec: CorruptionSpec) -> str:
    if spec.kind == "pixel-off":
        return f"pixel-off:{spec.pixel_count}"
    return f"gaussian:{spec.mu:g}:{spec.sigma:g}"


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
    n_val = max(1, n // 6)
    n_test = max(1, n // 3)
    return DatasetSplit(train=samples[:n - n_val - n_test],
                        val=samples[n - n_val - n_test:n - n_test],
                        test=samples[n - n_test:],
                        class_names=names)


def model_meta(cfg: ExperimentConfig, split: DatasetSplit) -> dict:
    shape = split.train[0].image.shape
    ncls = split.num_classes
    if cfg.arch == "basic_cnn":
        meta = {"arch": "basic_cnn", "input_shape": list(shape), "num_classes": ncls,
                "drop_prob": cfg.drop_prob}
    else:
        dim = 1
        for s in shape:
            dim *= s
        meta = {"arch": "small_mlp", "input_dim": dim, "hidden_dims": list(cfg.hidden_dims),
                "num_classes": ncls, "input_shape": list(shape)}
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
        momentum=cfg.momentum,
        strategy=cfg.strategy if strategy is None else strategy,
        mixup_alpha=cfg.mixup_alpha,
        mc_samples=cfg.mc_samples,
        seed=cfg.seed if seed is None else seed,
    )


def sign_configs(cfg: ExperimentConfig) -> list[SignConfig]:
    return [SignConfig(k=k, tap=cfg.sign_tap, gamma=cfg.sign_gamma,
                       eval_point=cfg.sign_eval_point, normalize=cfg.sign_normalize)
            for k in cfg.sign_k]
