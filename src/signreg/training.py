"""Losses, optimizers, the seeded training loop, and the offline transform pipeline.

Two losses: soft-label cross-entropy, and the Monte-Carlo aleatoric loss
for models with an uncertainty head (per-class logit noise, log-mean-exp
over draws; the printed likelihood form increases with fit, so training
minimizes its negation).

Every stochastic ingredient (shuffling, dropout, augmentation draws,
noise draws) comes from a child stream keyed by purpose and position, so
runs are bit-reproducible and independent of call interleaving.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff
from .augment import MixupConfig, classical_augment_array, mixup_arrays
from .autodiff import Tape
from .datasets import SOFT_LABEL_TOLERANCE, DatasetSplit, Sample, normalize
from .nn import Model, build_model, predict
from .sign import SignConfig, transform_dataset
from .tensor import Rng, ShapeError, Tensor

STRATEGIES = ("none", "classical", "mixup", "sign", "sign-plus-classical")


# -- losses -------------------------------------------------------------------


def _check_soft_labels(labels: np.ndarray):
    sums = labels.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > SOFT_LABEL_TOLERANCE):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"label row {bad} sums to {sums[bad]!r}, expected 1")


def cross_entropy(logits: Tensor, labels: Tensor) -> float:
    """Mean over the batch of -sum_c y_c (logit_c - logsumexp), shift-stabilized."""
    if logits.shape != labels.shape or logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs labels {labels.shape}")
    _check_soft_labels(labels.data)
    tape = Tape()
    node = tape.cross_entropy(tape.leaf_const(logits), labels.data)
    return node.value.item()


def aleatoric_loss(f: Tensor, sigma: Tensor, labels, t_draws: int, rng: Rng) -> float:
    """Monte-Carlo aleatoric classification loss over ``t_draws`` noise draws.

    ``labels`` are class indices. Sigma must be strictly positive; as
    sigma -> 0+ this collapses to the cross-entropy of f.
    """
    if t_draws < 1:
        raise ValueError(f"need at least one Monte-Carlo draw, got {t_draws}")
    if f.shape != sigma.shape or f.ndim != 2:
        raise ShapeError(f"aleatoric_loss: f {f.shape} vs sigma {sigma.shape}")
    if np.any(sigma.data <= 0):
        raise ValueError("sigma must be strictly positive")
    batch, ncls = f.shape
    onehot = np.zeros((batch, ncls))
    onehot[np.arange(batch), np.asarray(labels, dtype=int)] = 1.0
    eps = rng.normal((t_draws, batch, ncls))
    tape = Tape()
    node = tape.aleatoric_nll(tape.leaf_const(f), tape.leaf_const(sigma), onehot, eps)
    return node.value.item()


# -- optimizers ----------------------------------------------------------------


class SgdMomentum:
    def __init__(self, momentum: float = 0.9):
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[str, Tensor], lr: float) -> dict[str, Tensor]:
        out = {}
        for name, p in params.items():
            g = grads[name].data
            v = self.velocity.get(name)
            v = g if v is None else self.momentum * v + g
            self.velocity[name] = v
            out[name] = Tensor._wrap(p.data - lr * v)
        return out


class Adam:
    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, Tensor], grads: dict[str, Tensor], lr: float) -> dict[str, Tensor]:
        self.t += 1
        out = {}
        for name, p in params.items():
            g = grads[name].data
            m = self.beta1 * self.m.get(name, 0.0) + (1 - self.beta1) * g
            v = self.beta2 * self.v.get(name, 0.0) + (1 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            out[name] = Tensor._wrap(p.data - lr * mhat / (np.sqrt(vhat) + self.eps))
        return out


def make_optimizer(kind: str, momentum: float):
    if kind == "sgd-momentum":
        return SgdMomentum(momentum)
    if kind == "adam":
        return Adam()
    raise ValueError(f"unknown optimizer {kind!r}")


# -- configuration and report ---------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    optimizer: str = "sgd-momentum"
    learning_rate: float = 0.01
    momentum: float = 0.9
    strategy: str = "none"
    mixup_alpha: float = 0.2
    mc_samples: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")

    def lr_at(self, epoch: int) -> float:
        lr = self.learning_rate
        for milestone in (self.epochs // 2, (self.epochs * 3) // 4):
            if self.epochs and epoch >= milestone > 0:
                lr *= 0.1
        return lr


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainReport:
    """Per-epoch rows of one ``train`` call; the model keeps the selected epoch's parameters."""

    rows: list[EpochStats] = field(default_factory=list)
    selected_epoch: int | None = None
    wall_time_s: float = 0.0

    def to_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "split", "loss", "accuracy"])
            for row in self.rows:
                writer.writerow([row.epoch, "train", repr(row.train_loss), repr(row.train_acc)])
                writer.writerow([row.epoch, "val", repr(row.val_loss), repr(row.val_acc)])

    def to_json(self, path: str):
        # wall time is measurement noise, not run content; it goes to the
        # run log so identical runs emit identical report files
        summary = {
            "epochs": len(self.rows),
            "selected_epoch": self.selected_epoch,
            "final_val_accuracy": self.rows[-1].val_acc if self.rows else None,
            "best_val_accuracy": (self.rows[self.selected_epoch].val_acc
                                  if self.selected_epoch is not None else None),
        }
        with open(path, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")


# -- batch assembly ---------------------------------------------------------------


def stack_samples(samples: list[Sample], num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked images and the soft-label matrix."""
    images = np.stack([s.image.data for s in samples])
    soft = np.zeros((len(samples), num_classes))
    for i, s in enumerate(samples):
        if s.soft_label is not None:
            soft[i] = np.asarray(s.soft_label)
        else:
            soft[i, s.label] = 1.0
    return images, soft


def evaluate_arrays(model: Model, images: np.ndarray, soft: np.ndarray,
                    mc_samples: int, rng: Rng) -> tuple[float, float]:
    """Loss and accuracy of the model's predictive (``nn.predict``): the
    mean negative log-likelihood of the soft labels, and the share of
    samples whose most probable class is the label's."""
    logp, _ = predict(model, images, mc_samples, rng)
    correct = int((logp.argmax(axis=1) == soft.argmax(axis=1)).sum())
    return float(-(soft * logp).sum(axis=1).mean()), correct / len(soft)


# -- the loop ------------------------------------------------------------------


def train(model: Model, split: DatasetSplit, cfg: TrainConfig) -> TrainReport:
    """Seeded mini-batch training with the configured augmentation strategy.

    sign-strategy data is expected to be augmented offline beforehand (the
    pipeline below does this); the loop itself then treats it like plain
    data. On return ``model`` holds the parameters of the selected epoch,
    the one with the best validation accuracy (ties keep the earliest);
    with zero epochs it keeps its initialization.
    """
    if not split.train or not split.val:
        raise ValueError("train() needs non-empty train and val splits")
    started = time.perf_counter()
    rng = Rng(cfg.seed)
    ncls = split.num_classes
    images, soft = stack_samples(split.train, ncls)
    val_images, val_soft = stack_samples(split.val, ncls)
    optimizer = make_optimizer(cfg.optimizer, cfg.momentum)
    mix_cfg = MixupConfig(cfg.mixup_alpha)
    classical = cfg.strategy in ("classical", "sign-plus-classical")

    report = TrainReport()
    selected_params, best_acc = model.params, -1.0
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.child("shuffle", epoch).permutation(images.shape[0])
        epoch_loss, epoch_correct, seen = 0.0, 0, 0
        for bi, start in enumerate(range(0, images.shape[0], cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb, yb = images[idx], soft[idx]
            if classical:
                aug_rng = rng.child("classical", epoch)
                xb = np.stack([classical_augment_array(xb[j], aug_rng.child(int(idx[j])))
                               for j in range(xb.shape[0])])
            if cfg.strategy == "mixup" and xb.shape[0] >= 2:
                xb, yb = mixup_arrays(xb, yb, mix_cfg, rng.child("mixup", epoch, bi))
            tape = model.forward(Tensor._wrap(xb), train=True,
                                 rng=rng.child("dropout", epoch, bi))
            if model.has_uncertainty_head:
                eps = rng.child("mc", epoch, bi).normal((cfg.mc_samples,) + tape.output.shape)
                loss = tape.aleatoric_nll(tape.output, tape.taps["sigma"], yb, eps)
            else:
                loss = tape.cross_entropy(tape.output, yb)
            grads = autodiff.param_gradients(tape, loss)
            model.set_params(optimizer.step(model.params, grads, lr))
            epoch_loss += loss.value.item() * xb.shape[0]
            preds = tape.output.value.data.argmax(axis=1)
            epoch_correct += int((preds == yb.argmax(axis=1)).sum())
            seen += xb.shape[0]
        val_loss, val_acc = evaluate_arrays(model, val_images, val_soft,
                                            cfg.mc_samples, rng.child("mc-val", epoch))
        report.rows.append(EpochStats(epoch, epoch_loss / seen, epoch_correct / seen,
                                      val_loss, val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            report.selected_epoch = epoch
            selected_params = model.params
    model.set_params(selected_params)
    report.wall_time_s = time.perf_counter() - started
    return report


def fit(meta: dict, split: DatasetSplit, cfg: TrainConfig) -> tuple[Model, TrainReport]:
    """A model built from ``meta`` with seed ``cfg.seed`` and trained by
    ``train``: it holds the parameters of its selected epoch."""
    model = build_model(meta, seed=cfg.seed)
    return model, train(model, split, cfg)


# -- offline transform pipeline ---------------------------------------------------


@dataclass
class PipelineResult:
    source_model: Model
    source_report: TrainReport | None  # None when the source was given
    augmented_split: DatasetSplit
    final_model: Model
    final_report: TrainReport


def sign_pipeline(split: DatasetSplit, source_meta: dict, pretrain_cfg: TrainConfig | None,
                  sign_cfgs: list[SignConfig], final_cfg: TrainConfig,
                  final: Model | None = None, threads: int = 1,
                  source: Model | None = None) -> PipelineResult:
    """Train a source model, transform the train split with it, train fresh.

    Stage 1 fits the source on ``pretrain_cfg``, unless a trained
    ``source`` is given (then ``pretrain_cfg`` is unused); stage 2 adds one
    transformed copy of every training sample per config (offline, from the
    frozen source); stage 3 trains the untrained ``final`` model (by default
    ``fit`` builds one from ``source_meta`` and ``final_cfg.seed``) on
    original plus transformed samples. The source and final models are at
    their selected epochs. With an empty config list stage 3 degenerates to
    a plain retrain.
    """
    if not split.normalized:
        split = normalize(split)
    source_report = None
    if source is None:
        source, source_report = fit(source_meta, split, pretrain_cfg)

    aug_split = replace(split, train=transform_dataset(source, split.train, sign_cfgs,
                                                       threads=threads))
    if final is None:
        final, final_report = fit(source_meta, aug_split, final_cfg)
    else:
        final_report = train(final, aug_split, final_cfg)
    return PipelineResult(source, source_report, aug_split, final, final_report)
