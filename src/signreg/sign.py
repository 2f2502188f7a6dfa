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
function of (model parameters, input, config). The iterates keep the
samples' float64 whatever the model's dtype: each step's delta, computed
in the model's dtype, is added into them.

The transform runs on batches of samples, which evolve independently
(``_transform_batch``). ``transform_dataset`` adds the transformed copies
to a sample list, and ``delta_only_dataset`` returns the accumulated
deltas; a single sample is a list of one.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff
from .nn import Model, params_checksum
from .tensor import ShapeError, Tensor

EVAL_POINTS = ("current-iterate", "original-point")
NORMALIZE_MODES = ("none", "unit-max-abs")


class NonFiniteDeltaError(ArithmeticError):
    """An iteration left a NaN/Inf iterate or delta: the transform diverged."""


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
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"step scale gamma must be finite and > 0, got {self.gamma}")
        if self.eval_point not in EVAL_POINTS:
            raise ValueError(f"eval_point must be one of {EVAL_POINTS}, got {self.eval_point!r}")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}")

    def provenance(self, model_checksum: str) -> dict:
        return {"method": "sign", "source_model": model_checksum, "k": self.k,
                "gamma": self.gamma, "tap": self.tap, "eval_point": self.eval_point,
                "normalize": self.normalize}


def _step(model: Model, batch: np.ndarray, cfg: SignConfig) -> tuple[np.ndarray, np.ndarray]:
    """The step at ``batch`` and the l2 norms of its deltas,
    shape (B,). The tape lives in this frame only, so it is freed before
    the next iteration records one."""
    tape = model.forward(Tensor._wrap(batch), train=False)
    delta = autodiff.summed_jacobian(tape, tape.taps[cfg.tap]).data
    if cfg.normalize == "unit-max-abs":
        peak = np.abs(delta).reshape(delta.shape[0], -1).max(axis=1)
        scale = np.where(peak > 0, peak, 1.0).reshape((-1,) + (1,) * (delta.ndim - 1))
        delta = delta / scale
    norm = np.sqrt((delta ** 2).reshape(delta.shape[0], -1).sum(axis=1))
    return cfg.gamma * delta, norm


def _transform_batch(model: Model, batch: np.ndarray, cfg: SignConfig,
                     stops: tuple[int, ...]) -> tuple[list, np.ndarray]:
    """Transform a batch (samples evolve independently under the ones-VJP).

    Runs ``cfg.k`` iterations and returns the (transformed, final_delta)
    pair reached after each iteration count in ``stops`` (none may exceed
    ``cfg.k``), and the per-iteration l2 norms of the deltas, shape (K, B).
    At the original point every step is the same, so its delta is
    computed once and added K times.
    """
    taps = sorted(model.taps) + (["sigma"] if model.has_uncertainty_head else [])
    if cfg.tap not in taps:
        raise ValueError(f"model has no tap {cfg.tap!r}; available: {taps}")
    current = batch
    norms = np.zeros((cfg.k, batch.shape[0]))
    total = np.zeros_like(batch)
    reached = {}
    step = None
    # a non-finite delta, or a finite one that gamma scales past the float
    # range, leaves a non-finite iterate or accumulated delta: the check
    # below raises for it, so numpy's overflow warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.k):
            if step is None or cfg.eval_point == "current-iterate":
                step, norm = _step(model, current, cfg)
            norms[k] = norm
            current = current + step
            total = total + step
            if not (np.all(np.isfinite(current)) and np.all(np.isfinite(total))):
                raise NonFiniteDeltaError(f"non-finite iterate at iteration {k}")
            if k + 1 in stops:
                reached[k + 1] = (current, total)
    return [reached[s] for s in stops], norms


def _map_batches(model: Model, samples: list, cfg: SignConfig, stops: tuple[int, ...],
                 batch_size: int, threads: int):
    """Yield, per input batch in order, the (transformed, final_delta)
    arrays after each iteration count in ``stops``."""
    chunks = [samples[i:i + batch_size] for i in range(0, len(samples), batch_size)]

    def run(chunk_index: int):
        chunk = chunks[chunk_index]
        start = chunk_index * batch_size
        try:
            batch = np.stack([s.image.data for s in chunk])
            reached, _ = _transform_batch(model, batch, cfg, stops)
        except (NonFiniteDeltaError, ShapeError, ValueError) as exc:
            raise type(exc)(f"samples [{start}, {start + len(chunk)}): {exc}") from exc
        return reached

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
    configs). Configs that differ only in ``k`` share one trajectory, run
    to their largest ``k``: the iterate after k steps does not depend on
    how many steps follow, so the copies are bit-identical to separate runs.
    """
    groups: dict[SignConfig, set[int]] = {}
    for cfg in cfgs:
        groups.setdefault(replace(cfg, k=1), set()).add(cfg.k)
    transformed: dict[SignConfig, list] = {}  # config -> batches, in sample order
    for shared, ks in groups.items():
        stops = tuple(sorted(ks))
        copies = [transformed.setdefault(replace(shared, k=k), []) for k in stops]
        for reached in _map_batches(model, samples, replace(shared, k=stops[-1]), stops,
                                    batch_size, threads):
            for batches, (batch, _) in zip(copies, reached):
                batches.append(batch)
    out = list(samples)
    checksum = params_checksum(model.params)
    for cfg in cfgs:
        prov = cfg.provenance(checksum)
        rows = (row for batch in transformed[cfg] for row in batch)
        out.extend(replace(src, image=Tensor._wrap(row), provenance=prov)
                   for src, row in zip(samples, rows))
    return out


def delta_only_dataset(model: Model, samples: list, cfg: SignConfig,
                       batch_size: int = 64, threads: int = 1) -> list:
    """The accumulated deltas themselves, carrying the original labels."""
    checksum = params_checksum(model.params)
    prov = dict(cfg.provenance(checksum), method="sign-delta-only")
    batches = _map_batches(model, samples, cfg, (cfg.k,), batch_size, threads)
    rows = (row for reached in batches for row in reached[0][1])
    return [replace(src, image=Tensor._wrap(row), provenance=prov)
            for src, row in zip(samples, rows)]
