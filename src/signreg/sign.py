"""Iterative Jacobian-sum input transform (SIGN).

Starting from a trained model, the transform repeatedly adds the summed
Jacobian of a tapped layer's output with respect to the input:

    p*_0 = p
    delta_{k+1}[i] = sum_a d tap_a / d x_i   (evaluated at p*_k or at p)
    p*_{k+1} = p*_k + gamma * delta_{k+1}

The accumulated delta emphasizes input variables that drive the tapped
layer and pushes uninfluential ones negative, where a downstream ReLU
discards them. Transformed values live in all of R and are deliberately
not clipped. Dropout is disabled throughout, so the transform is a pure
function of (model parameters, input, config).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff
from .nn import Model, params_checksum
from .tensor import ShapeError, Tensor

EVAL_POINTS = ("current-iterate", "original-point")
NORMALIZE_MODES = ("none", "unit-max-abs")


class NonFiniteDeltaError(ArithmeticError):
    """An iteration produced NaN/Inf deltas: the transform diverged."""


@dataclass(frozen=True)
class SignConfig:
    """Everything one transform run needs.

    ``eval_point`` selects where the Jacobian is re-evaluated each step:
    at the evolving iterate (default, the momentum-like accumulation) or
    frozen at the original point (which collapses to K identical steps).
    """

    k: int
    tap: str = "pre-logits"
    gamma: float = 1.0
    eval_point: str = "current-iterate"
    normalize: str = "none"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"iteration count must be >= 1, got {self.k}")
        if self.gamma <= 0:
            raise ValueError(f"step scale must be > 0, got {self.gamma}")
        if self.eval_point not in EVAL_POINTS:
            raise ValueError(f"eval_point must be one of {EVAL_POINTS}, got {self.eval_point!r}")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}")

    def provenance(self, model_checksum: str) -> dict:
        return {"method": "sign", "source_model": model_checksum, "k": self.k,
                "gamma": self.gamma, "tap": self.tap, "eval_point": self.eval_point,
                "normalize": self.normalize}


@dataclass(frozen=True)
class SignResult:
    transformed: Tensor
    final_delta: Tensor  # transformed - input, the accumulated perturbation
    delta_norms: tuple[float, ...]  # l2 norm of each per-iteration delta


def _transform_batch(model: Model, batch: np.ndarray, cfg: SignConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transform a batch (samples evolve independently under the ones-VJP).

    Returns (transformed, final_delta, per-iteration norms of shape (K, B)).
    """
    taps = sorted(model.taps) + (["sigma"] if model.has_uncertainty_head else [])
    if cfg.tap not in taps:
        raise ValueError(f"model has no tap {cfg.tap!r}; available: {taps}")
    original = batch
    current = batch
    norms = np.zeros((cfg.k, batch.shape[0]))
    total = np.zeros_like(batch)
    for k in range(cfg.k):
        point = current if cfg.eval_point == "current-iterate" else original
        tape = model.forward(Tensor._wrap(point), train=False)
        node = tape.taps[cfg.tap]
        delta = autodiff.summed_jacobian(tape, node).data
        if not np.all(np.isfinite(delta)):
            raise NonFiniteDeltaError(f"non-finite delta at iteration {k}")
        if cfg.normalize == "unit-max-abs":
            peak = np.abs(delta).reshape(delta.shape[0], -1).max(axis=1)
            scale = np.where(peak > 0, peak, 1.0).reshape((-1,) + (1,) * (delta.ndim - 1))
            delta = delta / scale
        norms[k] = np.sqrt((delta ** 2).reshape(delta.shape[0], -1).sum(axis=1))
        step = cfg.gamma * delta
        current = current + step
        total = total + step
    return current, total, norms


def sign_transform(model: Model, input: Tensor, cfg: SignConfig) -> SignResult:
    """Transform a single sample. Output values are in R (never clipped)."""
    if input.shape != model.input_shape:
        raise ShapeError(f"input shape {input.shape} != model input {model.input_shape}")
    batch = input.data[None, ...]
    transformed, total, norms = _transform_batch(model, batch, cfg)
    return SignResult(transformed=Tensor._wrap(transformed[0]),
                      final_delta=Tensor._wrap(total[0]),
                      delta_norms=tuple(float(n) for n in norms[:, 0]))


def _map_batches(model: Model, samples: list, cfg: SignConfig, batch_size: int, threads: int):
    """Yield (transformed, final_delta) arrays per input batch, in order."""
    chunks = [samples[i:i + batch_size] for i in range(0, len(samples), batch_size)]

    def run(chunk_index: int):
        chunk = chunks[chunk_index]
        batch = np.stack([s.image.data for s in chunk])
        start = chunk_index * batch_size
        try:
            transformed, total, _ = _transform_batch(model, batch, cfg)
        except (NonFiniteDeltaError, ShapeError, ValueError) as exc:
            raise type(exc)(f"samples [{start}, {start + len(chunk)}): {exc}") from exc
        return transformed, total

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(run, range(len(chunks)))
    else:
        for i in range(len(chunks)):
            yield run(i)


def transform_dataset(model: Model, samples: list, cfgs: list[SignConfig],
                      batch_size: int = 64, threads: int = 1) -> list:
    """Originals plus one transformed copy per config, labels unchanged.

    Output order: all originals, then for each config the transformed
    copies in sample order. Deterministic given (model params, samples,
    configs).
    """
    out = list(samples)
    checksum = params_checksum(model.params)
    for cfg in cfgs:
        prov = cfg.provenance(checksum)
        i = 0
        for transformed, _ in _map_batches(model, samples, cfg, batch_size, threads):
            for row in transformed:
                src = samples[i]
                out.append(replace(src, image=Tensor._wrap(row), provenance=prov))
                i += 1
    return out


def delta_only_dataset(model: Model, samples: list, cfg: SignConfig,
                       batch_size: int = 64, threads: int = 1) -> list:
    """The accumulated deltas themselves, carrying the original labels."""
    checksum = params_checksum(model.params)
    prov = dict(cfg.provenance(checksum), method="sign-delta-only")
    out = []
    i = 0
    for _, total in _map_batches(model, samples, cfg, batch_size, threads):
        for row in total:
            src = samples[i]
            out.append(replace(src, image=Tensor._wrap(row), provenance=prov))
            i += 1
    return out
