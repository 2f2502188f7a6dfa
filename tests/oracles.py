"""Test oracles: inverses and second paths that the pipeline itself never
runs, kept here so the tests can check the package against them.

* ``forward`` records any function of one input on a fresh tape, and
  ``const`` records a constant leaf on it; the gradient checks build
  their graphs with them.
* ``serialize_cifar_record`` inverts ``datasets.parse_cifar_record``.
* ``denormalize_sample`` inverts ``datasets.normalize_sample``.
* ``read_scores_csv`` and ``recompute_report`` rebuild an eval report
  from its per-sample CSV alone.
* ``rewrite_header`` edits a framed file's JSON header in place, to make
  the old and the malformed files the package never writes.

``mlp_meta`` and ``cnn_meta`` write the meta record of a SmallMLP or a
BasicCNN of a given size, for ``nn.build_model``.
"""

import csv
import json
import struct
from dataclasses import replace

import numpy as np

from signreg.autodiff import Node, Tape
from signreg.datasets import NormStats, Sample
from signreg.evalharness import EvalReport, SampleScore, aggregate
from signreg.tensor import Tensor


def forward(fn, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Record ``fn`` applied to ``x``: the output's value, and the tape.
    ``fn(tape, input_node) -> output_node``."""
    tape = Tape()
    node = tape.leaf_input(x)
    out = fn(tape, node)
    tape.output = out
    return out.value.data, tape


def const(tape: Tape, value: np.ndarray) -> Node:
    """A leaf that no gradient is asked of."""
    return tape._record("const", value)


def serialize_cifar_record(sample: Sample) -> bytes:
    img = sample.image.data
    if img.shape != (3, 32, 32):
        raise ValueError(f"CIFAR record needs a (3, 32, 32) image, got {img.shape}")
    if img.min() < 0 or img.max() > 255:
        raise ValueError("CIFAR record needs raw 0-255 values")
    return bytes([sample.label]) + img.astype(np.uint8).tobytes()


def denormalize_sample(sample: Sample, stats: NormStats) -> Sample:
    if sample.raw:
        raise ValueError("sample is already in the raw domain")
    mean = np.asarray(stats.mean).reshape(-1, 1, 1)
    std = np.asarray(stats.std).reshape(-1, 1, 1)
    return replace(sample, image=Tensor(sample.image.data * std + mean), raw=True)


def read_scores_csv(path: str) -> list[SampleScore]:
    scores = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            scores.append(SampleScore(
                index=int(row["sample_id"]), true_label=int(row["true"]),
                predicted=int(row["predicted"]), top_probability=float(row["top_prob"]),
                uncertainty=float(row["uncertainty"]) if row["uncertainty"] else None))
    return scores


def recompute_report(csv_path: str, num_classes: int) -> EvalReport:
    """Rebuild the full report from the per-sample CSV alone."""
    return aggregate(read_scores_csv(csv_path), list(range(num_classes)))


def mlp_meta(input_shape, hidden: list[int], num_classes: int, **extra) -> dict:
    """A SmallMLP's meta record; an int ``input_shape`` means flat inputs."""
    shape = [input_shape] if isinstance(input_shape, int) else list(input_shape)
    return {"arch": "small_mlp", "hidden_dims": list(hidden), "num_classes": num_classes,
            "input_shape": shape, **extra}


def cnn_meta(input_shape, num_classes: int, **extra) -> dict:
    """A BasicCNN's meta record."""
    return {"arch": "basic_cnn", "input_shape": list(input_shape), "num_classes": num_classes,
            **extra}


def rewrite_header(path: str, breaks) -> str:
    """The framed file at ``path``, its JSON header edited in place by ``breaks``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (length,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + length])
    breaks(header)
    doc = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(doc)) + doc + blob[8 + length:])
    return path
