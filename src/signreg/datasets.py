"""Dataset ingestion, synthesis, normalization, and the on-disk container.

Images travel as (C, H, W) float64 tensors. A sample is either in the raw
0-255 intensity domain (as loaded; corruptions apply here) or normalized
per-channel with train-split statistics (model space; the Jacobian
transform and mixup apply here). The ``raw`` flag tracks which.

On-disk formats:
  * CIFAR-10 binary batches: 3073-byte records, 1 label byte then 3072
    pixel bytes in R, G, B planes of 32x32 row-major.
  * Sample container: a framed file (see tensor.py) whose JSON manifest
    carries labels, optional soft labels, optional per-sample provenance.
  * PPM (P6) images for the out-of-distribution loader; PNG accepted too
    when Pillow is importable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .tensor import Rng, Tensor, read_array, read_framed, require_fields, write_framed

CIFAR_CLASSES = ("airplane", "automobile", "bird", "cat", "deer",
                 "dog", "frog", "horse", "ship", "truck")
_RECORD_BYTES = 3073
CONTAINER_VERSION = "signreg-data-1"
STD_FLOOR = 1e-6
SOFT_LABEL_TOLERANCE = 1e-9  # largest accepted |row sum - 1| of a soft label


@dataclass(frozen=True)
class Sample:
    """One labeled image. ``soft_label`` (rows summing to 1) wins over
    ``label`` for loss selection when present."""

    image: Tensor
    label: int
    raw: bool = True
    soft_label: tuple[float, ...] | None = None
    provenance: dict | None = None


@dataclass
class NormStats:
    mean: tuple[float, ...]  # per channel
    std: tuple[float, ...]


@dataclass
class DatasetSplit:
    train: list[Sample]
    val: list[Sample]
    test: list[Sample]
    class_names: tuple[str, ...]
    stats: NormStats | None = None
    normalized: bool = False

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


# -- CIFAR-10 binary format ---------------------------------------------------


def parse_cifar_record(record: bytes) -> Sample:
    if len(record) != _RECORD_BYTES:
        raise ValueError(f"CIFAR record must be {_RECORD_BYTES} bytes, got {len(record)}")
    label = record[0]
    if label > 9:
        raise ValueError(f"CIFAR label byte out of range: {label}")
    pixels = np.frombuffer(record, dtype=np.uint8, offset=1)
    image = pixels.reshape(3, 32, 32).astype(np.float64)
    return Sample(image=Tensor._wrap(image), label=int(label), raw=True)


def serialize_cifar_record(sample: Sample) -> bytes:
    img = sample.image.data
    if img.shape != (3, 32, 32):
        raise ValueError(f"CIFAR record needs a (3, 32, 32) image, got {img.shape}")
    if img.min() < 0 or img.max() > 255:
        raise ValueError("CIFAR record needs raw 0-255 values")
    return bytes([sample.label]) + img.astype(np.uint8).tobytes()


def _read_cifar_file(path: str) -> list[Sample]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0 or len(blob) % _RECORD_BYTES:
        raise ValueError(f"{path}: size {len(blob)} is not a positive multiple of {_RECORD_BYTES}")
    return [parse_cifar_record(blob[i:i + _RECORD_BYTES])
            for i in range(0, len(blob), _RECORD_BYTES)]


def load_cifar10_binary(dir_path: str, val_count: int = 5000,
                        split_rng: Rng | None = None) -> DatasetSplit:
    """Load the standard binary batches; carve validation from the train tail.

    With ``split_rng`` the train set is shuffled before the carve;
    otherwise validation is simply the last ``val_count`` records.
    """
    train_files = [os.path.join(dir_path, f"data_batch_{i}.bin") for i in range(1, 6)]
    test_file = os.path.join(dir_path, "test_batch.bin")
    for path in train_files + [test_file]:
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing CIFAR-10 batch file: {path}")
    train: list[Sample] = []
    for path in train_files:
        train.extend(_read_cifar_file(path))
    test = _read_cifar_file(test_file)
    if val_count >= len(train):
        raise ValueError(f"val_count {val_count} leaves no training data")
    if split_rng is not None:
        order = split_rng.child("train-val-split").permutation(len(train))
        train = [train[i] for i in order]
    val = train[len(train) - val_count:]
    train = train[:len(train) - val_count]
    return DatasetSplit(train=train, val=val, test=test, class_names=CIFAR_CLASSES)


# -- synthetic blobs ----------------------------------------------------------


def _blob_template(cls: int, num_classes: int, height: int, width: int) -> np.ndarray:
    """Class template: a Gaussian bump at a class-specific location,
    modulated by a class-specific spatial frequency. Values in [-1, 1]."""
    angle = 2.0 * np.pi * cls / num_classes
    cy = height / 2.0 + (height / 3.5) * np.sin(angle)
    cx = width / 2.0 + (width / 3.5) * np.cos(angle)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    spread = max(height, width) / 4.0
    bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * spread ** 2))
    freq = 1.0 + cls
    wave = np.cos(2.0 * np.pi * freq * (xx * np.cos(angle) + yy * np.sin(angle)) / width)
    return bump * wave


def make_synthetic_blobs(num_classes: int, samples_per_class: int,
                         image_shape: tuple[int, int, int], separation: float,
                         rng: Rng, val_per_class: int | None = None,
                         test_per_class: int | None = None,
                         noise_sigma: float = 12.0,
                         distractor: float = 0.0) -> DatasetSplit:
    """Fast deterministic stand-in dataset in the raw 0-255 domain.

    Each class stamps its template scaled by ``separation``; zero
    separation makes every class-conditional distribution identical.
    ``distractor`` > 0 additionally stamps a class-independent pattern with
    a random per-sample amplitude, structured clutter that a small-sample
    model can spuriously latch onto.
    """
    if separation < 0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    channels, height, width = image_shape
    if val_per_class is None:
        val_per_class = max(1, samples_per_class // 4)
    if test_per_class is None:
        test_per_class = max(1, samples_per_class // 2)
    templates = [_blob_template(c, num_classes, height, width) for c in range(num_classes)]
    clutter = _blob_template(num_classes, 2 * num_classes, height, width)
    amplitude = 12.0 * separation

    def draw(cls: int, count: int, stream: Rng) -> list[Sample]:
        out = []
        for i in range(count):
            child = stream.child(cls, i)
            noise = child.normal((channels, height, width), 0.0, noise_sigma)
            img = 128.0 + amplitude * templates[cls][None, :, :] + noise
            if distractor > 0.0:
                img = img + (12.0 * distractor * child.uniform(-1.0, 1.0)) * clutter[None, :, :]
            out.append(Sample(image=Tensor._wrap(np.clip(img, 0.0, 255.0)), label=cls, raw=True))
        return out

    train, val, test = [], [], []
    for cls in range(num_classes):
        train.extend(draw(cls, samples_per_class, rng.child("train")))
        val.extend(draw(cls, val_per_class, rng.child("val")))
        test.extend(draw(cls, test_per_class, rng.child("test")))
    names = tuple(f"class{c}" for c in range(num_classes))
    return DatasetSplit(train=train, val=val, test=test, class_names=names)


# -- normalization ------------------------------------------------------------


def compute_stats(samples: list[Sample]) -> NormStats:
    stacked = np.stack([s.image.data for s in samples])  # (N, C, H, W)
    mean = stacked.mean(axis=(0, 2, 3))
    std = stacked.std(axis=(0, 2, 3))
    std = np.maximum(std, STD_FLOOR)
    return NormStats(mean=tuple(float(m) for m in mean), std=tuple(float(s) for s in std))


def _shift_scale(sample: Sample, stats: NormStats, forward: bool) -> Sample:
    mean = np.asarray(stats.mean).reshape(-1, 1, 1)
    std = np.asarray(stats.std).reshape(-1, 1, 1)
    img = sample.image.data
    out = (img - mean) / std if forward else img * std + mean
    return replace(sample, image=Tensor._wrap(out), raw=not forward)


def normalize(split: DatasetSplit) -> DatasetSplit:
    """Per-channel (x - mean) / std with train-split stats, train stats only."""
    if split.normalized:
        raise ValueError("split is already normalized")
    stats = split.stats if split.stats is not None else compute_stats(split.train)
    return replace(split, train=[_shift_scale(s, stats, True) for s in split.train],
                   val=[_shift_scale(s, stats, True) for s in split.val],
                   test=[_shift_scale(s, stats, True) for s in split.test],
                   stats=stats, normalized=True)


def normalize_sample(sample: Sample, stats: NormStats) -> Sample:
    if not sample.raw:
        raise ValueError("sample is already normalized")
    return _shift_scale(sample, stats, True)


def denormalize_sample(sample: Sample, stats: NormStats) -> Sample:
    if sample.raw:
        raise ValueError("sample is already in the raw domain")
    return _shift_scale(sample, stats, False)


# -- out-of-distribution directory loading ------------------------------------


def decode_ppm(blob: bytes) -> np.ndarray:
    """Minimal binary PPM (P6) decoder, 8-bit maxval, returns (3, H, W)."""
    fields: list[bytes] = []
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(blob):
            if blob[pos:pos + 1].isspace():
                pos += 1
            elif blob[pos:pos + 1] == b"#":
                while pos < len(blob) and blob[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PPM header")
        return blob[start:pos]

    def number(field: str) -> int:
        token = next_token()
        if not token.isdigit():
            raise ValueError(f"PPM {field} {token!r} is not a non-negative integer")
        return int(token)

    magic = next_token()
    if magic != b"P6":
        raise ValueError(f"not a binary PPM (P6) file: magic {magic!r}")
    width, height, maxval = number("width"), number("height"), number("maxval")
    if width < 1 or height < 1:
        raise ValueError(f"PPM width {width} and height {height} must both be at least 1")
    if maxval != 255:
        raise ValueError(f"only 8-bit PPM supported, maxval {maxval}")
    pos += 1  # single whitespace after maxval
    need = width * height * 3
    raster = blob[pos:pos + need]
    if len(raster) != need:
        raise ValueError(f"PPM raster truncated: need {need} bytes, got {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return arr.transpose(2, 0, 1).astype(np.float64)


def _decode_image(path: str) -> np.ndarray:
    if path.lower().endswith(".ppm"):
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            return decode_ppm(blob)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if path.lower().endswith(".png"):
        try:
            from PIL import Image
        except ImportError as exc:
            raise ValueError(f"{path}: PNG support requires Pillow; convert to PPM (P6)") from exc
        with Image.open(path) as img:
            arr = np.asarray(img.convert("RGB"), dtype=np.float64)
        return arr.transpose(2, 0, 1)
    raise ValueError(f"undecodable file (expect .ppm or .png): {path}")


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear interpolation with half-pixel centers; exact on constants."""
    channels, in_h, in_w = image.shape
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    out = np.empty((channels, out_h, out_w))
    for c in range(channels):
        plane = image[c]
        top = plane[np.ix_(y0, x0)] * (1 - wx) + plane[np.ix_(y0, x1)] * wx
        bot = plane[np.ix_(y1, x0)] * (1 - wx) + plane[np.ix_(y1, x1)] * wx
        out[c] = top * (1 - wy) + bot * wy
    return out


def load_ood_directory(dir_path: str, class_map: dict[str, int],
                       size: tuple[int, int] = (32, 32)) -> list[Sample]:
    """Load per-class-folder images, resized to ``size``, labeled by the map."""
    if not os.path.isdir(dir_path):
        raise FileNotFoundError(f"not a directory: {dir_path}")
    samples: list[Sample] = []
    for folder in sorted(os.listdir(dir_path)):
        folder_path = os.path.join(dir_path, folder)
        if not os.path.isdir(folder_path):
            continue
        if folder not in class_map:
            raise ValueError(f"folder {folder!r} has no class mapping")
        label = int(class_map[folder])
        for fname in sorted(os.listdir(folder_path)):
            img = _decode_image(os.path.join(folder_path, fname))
            img = bilinear_resize(img, size[0], size[1])
            samples.append(Sample(image=Tensor._wrap(img), label=label, raw=True))
    return samples


# -- sample container ---------------------------------------------------------


def save_container(samples: list[Sample], path: str, class_names: tuple[str, ...],
                   raw_domain: bool, stats: NormStats | None = None,
                   provenance: dict | None = None):
    records = [{"label": s.label,
                "soft_label": list(s.soft_label) if s.soft_label is not None else None,
                "provenance": s.provenance} for s in samples]
    manifest = {
        "version": CONTAINER_VERSION,
        "raw_domain": bool(raw_domain),
        "class_names": list(class_names),
        "stats": {"mean": list(stats.mean), "std": list(stats.std)} if stats else None,
        "provenance": provenance,
        "samples": records,
    }
    write_framed(path, manifest, [(rec, s.image.data) for rec, s in zip(records, samples)])


def _is_distribution(soft, ncls: int) -> bool:
    """``soft`` is a list of ``ncls`` numbers (not bools) summing to 1. Each
    entry of such a list lies in [0, 1 + tolerance], which also rules out
    NaN, infinities and integers too large for a float."""
    return (isinstance(soft, list) and len(soft) == ncls
            and all(type(v) in (int, float) and 0 <= v <= 1 + SOFT_LABEL_TOLERANCE
                    for v in soft)
            and abs(math.fsum(soft) - 1.0) <= SOFT_LABEL_TOLERANCE)


def load_container(path: str) -> tuple[list[Sample], dict]:
    """Returns (samples, manifest). The manifest keeps the global fields,
    its ``stats`` as NormStats (None when absent)."""
    manifest, payload = read_framed(path, CONTAINER_VERSION,
                                    {"raw_domain": bool, "class_names": list, "samples": list})
    raw_domain = bool(manifest["raw_domain"])
    ncls = len(manifest["class_names"])
    samples = []
    for i, rec in enumerate(manifest["samples"]):
        require_fields(rec, ("label",), path, f"sample {i}")
        arr = read_array(payload, rec, path, f"sample {i}")
        if samples and arr.shape != samples[0].image.shape:
            raise ValueError(f"{path}: sample {i} field shape {list(arr.shape)} differs from "
                             f"sample 0's {list(samples[0].image.shape)}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: sample {i} image holds a non-finite value")
        label, soft = rec["label"], rec.get("soft_label")
        if type(label) is not int or not 0 <= label < ncls:
            raise ValueError(f"{path}: sample {i} field label {label!r} is not a class "
                             f"index in [0, {ncls})")
        if soft is not None and not _is_distribution(soft, ncls):
            raise ValueError(f"{path}: sample {i} field soft_label is not a list of "
                             f"{ncls} non-negative numbers summing to 1")
        samples.append(Sample(image=Tensor._wrap(arr), label=label, raw=raw_domain,
                              soft_label=tuple(soft) if soft is not None else None,
                              provenance=rec.get("provenance")))
    stats = manifest.get("stats")
    if stats is not None:
        require_fields(stats, ("mean", "std"), path, "header field stats")
        channels = samples[0].image.shape[0] if samples else None
        for key, low in (("mean", -math.inf), ("std", 0.0)):
            values = stats[key]
            if not (isinstance(values, list) and values and channels in (None, len(values))
                    and all(type(v) in (int, float) and low < v < math.inf for v in values)):
                raise ValueError(f"{path}: header field stats {key} needs one finite "
                                 f"number{' > 0' if low == 0 else ''} per image channel")
        stats = NormStats(mean=tuple(stats["mean"]), std=tuple(stats["std"]))
    manifest["stats"] = stats
    return samples, manifest
