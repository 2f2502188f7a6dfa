"""Losses, optimizers, the seeded training loop, and the offline transform
pipeline that builds the SIGN training set (the final model is trained on
it by ``fit`` or ``train``, like any other).

The loop records its loss on the model's tape, so the losses are two tape
primitives: ``Tape.cross_entropy`` on soft labels, and, for models with
an uncertainty head, ``Tape.aleatoric_nll``, the Monte-Carlo aleatoric
loss (per-class logit noise, log-mean-exp over ``mc_samples`` draws; the
likelihood increases with fit, so training minimizes its negation).

Every stochastic ingredient (shuffling, dropout, augmentation draws,
noise draws) comes from a child stream keyed by purpose and position, so
runs are bit-reproducible and independent of call interleaving.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff
from .augment import MixupConfig, classical_augment_array, mixup_arrays
from .datasets import DatasetSplit, Sample, normalize
from .nn import Model, build_model, predict
from .sign import SignConfig, transform_dataset
from .tensor import Rng, readonly

STRATEGIES = ("none", "classical", "mixup", "sign", "sign-plus-classical")


# -- optimizers ----------------------------------------------------------------


class SgdMomentum:
    def __init__(self, momentum: float = 0.9):
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict, lr: float) -> dict:
        out = {}
        for name, p in params.items():
            g = grads[name]
            v = self.velocity.get(name)
            v = g if v is None else self.momentum * v + g
            self.velocity[name] = v
            out[name] = readonly(p - lr * v)
        return out


class Adam:
    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float) -> dict:
        self.t += 1
        out = {}
        for name, p in params.items():
            g = grads[name]
            m = self.beta1 * self.m.get(name, 0.0) + (1 - self.beta1) * g
            v = self.beta2 * self.v.get(name, 0.0) + (1 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            out[name] = readonly(p - lr * mhat / (np.sqrt(vhat) + self.eps))
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not math.isfinite(self.momentum):
            raise ValueError(f"momentum must be finite, got {self.momentum}")
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


def _step(model: Model, optimizer, lr: float, xb: np.ndarray, yb: np.ndarray,
          mc_samples: int, rng: Rng, key: tuple[int, int]) -> tuple[float, int]:
    """One optimizer step on batch ``key`` (epoch, batch index): its loss,
    and how many of its argmax predictions match the labels'. The step's
    tape lives in this frame only, so it is freed before the next step
    records one."""
    tape = model.forward(xb, train=True, rng=rng.child("dropout", *key))
    if model.has_uncertainty_head:
        eps = rng.child("mc", *key).normal((mc_samples,) + tape.output.shape)
        loss = tape.aleatoric_nll(tape.output, tape.taps["sigma"], yb, eps)
    else:
        loss = tape.cross_entropy(tape.output, yb)
    grads = autodiff.param_gradients(tape, loss)
    model.set_params(optimizer.step(model.params, grads, lr))
    preds = tape.output.value.data.argmax(axis=1)
    return float(loss.value.data[0]), int((preds == yb.argmax(axis=1)).sum())


def train(model: Model, split: DatasetSplit, cfg: TrainConfig) -> TrainReport:
    """Seeded mini-batch training with the configured augmentation strategy.

    sign-strategy data is expected to be augmented offline beforehand
    (``sign_pipeline`` below returns that split); the loop itself then
    treats it like plain data. On return ``model`` holds the parameters of
    the selected epoch, the one with the best validation accuracy (ties keep
    the earliest); with zero epochs it keeps its initialization. A loss
    that is not finite raises an ArithmeticError naming the epoch.
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
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below report divergence
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
                loss, correct = _step(model, optimizer, lr, xb, yb, cfg.mc_samples, rng,
                                      (epoch, bi))
                if not math.isfinite(loss):
                    raise ArithmeticError(f"training diverged: epoch {epoch}, batch {bi}: "
                                          f"loss {loss}")
                epoch_loss += loss * xb.shape[0]
                epoch_correct += correct
                seen += xb.shape[0]
            try:
                val_loss, val_acc = evaluate_arrays(model, val_images, val_soft,
                                                    cfg.mc_samples, rng.child("mc-val", epoch))
            except ArithmeticError as e:  # a non-finite predictive row
                raise ArithmeticError(f"training diverged: epoch {epoch}: validation {e}") from e
            if not math.isfinite(val_loss):
                raise ArithmeticError(f"training diverged: epoch {epoch}: "
                                      f"validation loss {val_loss}")
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


def sign_pipeline(split: DatasetSplit, source_meta: dict, pretrain_cfg: TrainConfig | None,
                  sign_cfgs: list[SignConfig], *, threads: int = 1,
                  source: Model | None = None) -> PipelineResult:
    """Train a source model and add its transformed copies to the train split.

    Stage 1 fits the source on ``pretrain_cfg``, unless a trained
    ``source`` is given (then ``pretrain_cfg`` is unused); stage 2 adds one
    transformed copy of every training sample per config (offline, from the
    frozen source, at its selected epoch). The augmented train split holds
    the originals first, then the copies (``transform_dataset``'s order);
    the final model is trained on it by ``fit`` or ``train``.
    """
    if not split.normalized:
        split = normalize(split)
    source_report = None
    if source is None:
        source, source_report = fit(source_meta, split, pretrain_cfg)
    aug_split = replace(split, train=transform_dataset(source, split.train, sign_cfgs,
                                                       threads=threads))
    return PipelineResult(source, source_report, aug_split)
