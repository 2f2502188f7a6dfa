"""Baseline augmentations and test-time corruptions.

Classical augmentation (flips, 90-degree rotations, integer shifts with
zero fill) and mixup operate on the stacked arrays of a training batch.
Corruptions operate strictly in the raw 0-255 intensity domain,
before normalization. Labels never change under classical augmentation or
corruption; mixup blends labels with the same coefficient as images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import Sample
from .tensor import Rng, ShapeError, Tensor


@dataclass(frozen=True)
class MixupConfig:
    """Beta(alpha, alpha) mixing. alpha = 0.2 follows the convention of the
    original mixup formulation; only the interpolation rule itself is
    inherent to the method."""

    alpha: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


@dataclass(frozen=True)
class CorruptionSpec:
    """pixel-off zeroes all channels at ``pixel_count`` random positions;
    gaussian adds N(mu, sigma^2) per element in 0-255 units, clipped."""

    kind: str
    pixel_count: int = 50
    mu: float = 0.0
    sigma: float = 10.0

    def __post_init__(self):
        if self.kind not in ("pixel-off", "gaussian"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.pixel_count < 0:
            raise ValueError(f"pixel_count must be >= 0, got {self.pixel_count}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    def describe(self) -> str:
        if self.kind == "pixel-off":
            return f"pixel-off:{self.pixel_count}"
        return f"gaussian:mu={self.mu:g},sigma={self.sigma:g}"


# -- classical ---------------------------------------------------------------


def apply_classical(image: np.ndarray, hflip: bool, vflip: bool,
                    quarter_turns: int, dy: int, dx: int) -> np.ndarray:
    """Deterministic core of classical augmentation, in a fixed order:
    horizontal flip, vertical flip, rotation, then shift with zero fill."""
    out = image
    if hflip:
        out = out[:, :, ::-1]
    if vflip:
        out = out[:, ::-1, :]
    if quarter_turns % 4:
        out = np.rot90(out, k=quarter_turns % 4, axes=(1, 2))
    if dy or dx:
        shifted = np.zeros_like(out)
        h, w = out.shape[1], out.shape[2]
        ys = slice(max(dy, 0), h + min(dy, 0))
        xs = slice(max(dx, 0), w + min(dx, 0))
        ys_src = slice(max(-dy, 0), h + min(-dy, 0))
        xs_src = slice(max(-dx, 0), w + min(-dx, 0))
        shifted[:, ys, xs] = out[:, ys_src, xs_src]
        out = shifted
    return np.ascontiguousarray(out)


def _draw_classical(rng: Rng, h: int, w: int) -> tuple[bool, bool, int, int, int]:
    hflip = bool(rng.uniform() < 0.5)
    vflip = bool(rng.uniform() < 0.5)
    turns = int(rng.integers(0, 4)) if h == w else int(rng.integers(0, 2)) * 2
    max_dy, max_dx = h // 10, w // 10
    dy = int(rng.integers(-max_dy, max_dy + 1)) if max_dy else 0
    dx = int(rng.integers(-max_dx, max_dx + 1)) if max_dx else 0
    return hflip, vflip, turns, dy, dx


def classical_augment_array(image: np.ndarray, rng: Rng) -> np.ndarray:
    """Independently sampled flip/rotate/shift combination of one (C, H, W) image.

    Shifts go up to +-10% of each spatial dim. Non-square images skip the
    90/270 rotations (they would change the shape).
    """
    if image.ndim != 3:
        raise ShapeError(f"classical augmentation expects (C, H, W), got {image.shape}")
    _, h, w = image.shape
    return apply_classical(image, *_draw_classical(rng, h, w))


# -- mixup -------------------------------------------------------------------


def mixup_arrays(images: np.ndarray, labels: np.ndarray, cfg: MixupConfig,
                 rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Pair each row with a random partner (one shared permutation) and blend
    images (B, ...) and soft labels (B, C) with a per-pair lambda ~
    Beta(alpha, alpha)."""
    if images.shape[0] < 2:
        raise ValueError(f"mixup needs a batch of >= 2 samples, got {images.shape[0]}")
    perm = rng.permutation(images.shape[0])
    lams = rng.beta(cfg.alpha, cfg.alpha, size=images.shape[0])
    lam_img = lams.reshape((-1,) + (1,) * (images.ndim - 1))
    mixed = lam_img * images + (1.0 - lam_img) * images[perm]
    mixed_labels = lams[:, None] * labels + (1.0 - lams[:, None]) * labels[perm]
    return mixed, mixed_labels


# -- corruptions ---------------------------------------------------------------


def corrupt(sample: Sample, spec: CorruptionSpec, rng: Rng) -> Sample:
    """Corrupt a raw-domain sample; output stays in [0, 255], label unchanged."""
    if not sample.raw:
        raise ValueError("corruptions apply in the raw 0-255 domain, before normalization")
    img = sample.image.data
    _, h, w = img.shape
    if spec.kind == "pixel-off":
        if spec.pixel_count > h * w:
            raise ValueError(f"pixel_count {spec.pixel_count} exceeds {h}x{w} pixels")
        if spec.pixel_count == 0:
            return sample
        positions = rng.permutation(h * w)[:spec.pixel_count]
        out = img.copy()
        out.reshape(img.shape[0], h * w)[:, positions] = 0.0
        return replace(sample, image=Tensor._wrap(out))
    # gaussian
    if spec.sigma == 0.0 and spec.mu == 0.0:
        return sample
    noise = rng.normal(img.shape, spec.mu, spec.sigma)
    out = np.clip(img + noise, 0.0, 255.0)
    return replace(sample, image=Tensor._wrap(out))
