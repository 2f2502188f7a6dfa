"""Measurement protocols: accuracy, confidence buckets, corruption
robustness, out-of-distribution tables, transfer comparison, 2D feature
projection.

All report quantities are recomputable from the emitted per-sample CSV;
a test rebuilds a report from it and asserts equality.
The low-confidence bucket is: prediction correct AND top-class
probability <= 0.5. Uncertainty is the learned per-class noise scale
averaged over classes (absent for models without an uncertainty head).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import CorruptionSpec, corrupt
from .datasets import DatasetSplit, NormStats, Sample, normalize_sample
from .nn import Model, forward_batches, predict
from .sign import SignConfig
from .tensor import Rng
from .training import TrainConfig, fit, sign_pipeline

_EVAL_SEED = 0x5EED_E7A1


@dataclass(frozen=True)
class SampleScore:
    index: int
    true_label: int
    predicted: int
    top_probability: float
    uncertainty: float | None

    @property
    def correct(self) -> bool:
        return self.true_label == self.predicted


@dataclass
class Bucket:
    """Correct predictions with top-class probability <= 0.5."""

    count: int = 0
    mean_probability: float | None = None
    mean_uncertainty: float | None = None


@dataclass
class ClassRow:
    label: int
    total: int
    correct: int
    accuracy: float
    bucket: Bucket


@dataclass
class CorruptionResult:
    spec: CorruptionSpec
    mean_accuracy: float
    std_accuracy: float
    accuracies: tuple[float, ...]


@dataclass
class EvalReport:
    per_class: list[ClassRow]
    mean_accuracy: float
    bucket: Bucket
    min_correct_probability: float | None
    corruptions: list[CorruptionResult] = field(default_factory=list)

    def to_json(self, path: str):
        doc = {
            "mean_accuracy": self.mean_accuracy,
            "min_correct_probability": self.min_correct_probability,
            "bucket": _bucket_doc(self.bucket),
            "per_class": [{
                "label": row.label, "total": row.total, "correct": row.correct,
                "accuracy": row.accuracy, "bucket": _bucket_doc(row.bucket),
            } for row in self.per_class],
            "corruptions": [{
                "spec": res.spec.describe(), "mean_accuracy": res.mean_accuracy,
                "std_accuracy": res.std_accuracy, "accuracies": list(res.accuracies),
            } for res in self.corruptions],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _bucket_doc(bucket: Bucket) -> dict:
    return {"count": bucket.count, "mean_probability": bucket.mean_probability,
            "mean_uncertainty": bucket.mean_uncertainty}


# -- scoring -------------------------------------------------------------------


def score_samples(model: Model, samples: list[Sample], mc_samples: int = 20,
                  rng: Rng | None = None) -> list[SampleScore]:
    """Per-sample predictions of the model's predictive (``nn.predict``),
    deterministic by default: the most probable class, its probability,
    and for uncertainty-head models the mean learned sigma.
    """
    logp, uncert = predict(model, [s.image.data for s in samples], mc_samples,
                           rng if rng is not None else Rng(_EVAL_SEED))
    preds = logp.argmax(axis=1)
    top = np.exp(logp.max(axis=1))
    return [SampleScore(index=i, true_label=s.label, predicted=int(preds[i]),
                        top_probability=float(top[i]),
                        uncertainty=float(uncert[i]) if uncert is not None else None)
            for i, s in enumerate(samples)]


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _bucket_of(scores: list[SampleScore]) -> Bucket:
    hits = [s for s in scores if s.correct and s.top_probability <= 0.5]
    uncert = [s.uncertainty for s in hits if s.uncertainty is not None]
    return Bucket(count=len(hits),
                  mean_probability=_mean([s.top_probability for s in hits]),
                  mean_uncertainty=_mean(uncert))


def aggregate(scores: list[SampleScore], labels: list[int]) -> EvalReport:
    """The report over ``labels`` from per-sample scores already computed."""
    per_class = []
    for label in labels:
        rows = [s for s in scores if s.true_label == label]
        correct = sum(1 for s in rows if s.correct)
        per_class.append(ClassRow(label=label, total=len(rows), correct=correct,
                                  accuracy=correct / len(rows) if rows else 0.0,
                                  bucket=_bucket_of(rows)))
    total_correct = sum(1 for s in scores if s.correct)
    correct_probs = [s.top_probability for s in scores if s.correct]
    return EvalReport(per_class=per_class,
                      mean_accuracy=total_correct / len(scores),
                      bucket=_bucket_of(scores),
                      min_correct_probability=min(correct_probs) if correct_probs else None)


def evaluate(model: Model, samples: list[Sample], mc_samples: int = 20,
             rng: Rng | None = None) -> EvalReport:
    """Accuracy per class and mean, plus the low-confidence bucket."""
    scores = score_samples(model, samples, mc_samples, rng)
    return aggregate(scores, list(range(model.num_classes)))


def ood_evaluate(model: Model, ood_samples: list[Sample], mc_samples: int = 20,
                 rng: Rng | None = None) -> EvalReport:
    """Same schema as evaluate, restricted to the classes present.

    Empty buckets stay visible as count 0 with absent statistics.
    """
    scores = score_samples(model, ood_samples, mc_samples, rng)
    present = sorted({s.label for s in ood_samples})
    return aggregate(scores, present)


# -- corruption robustness -------------------------------------------------------


def robustness_suite(model: Model, test_samples: list[Sample],
                     specs: list[CorruptionSpec], repeats: int, rng: Rng,
                     stats: NormStats | None = None,
                     mc_samples: int = 20) -> list[CorruptionResult]:
    """Accuracy under repeated independent corruption draws, mean +- std.

    ``test_samples`` must be raw-domain; corruption happens before the
    per-channel normalization given by ``stats``. The reported std is the
    population standard deviation over repeats.
    """
    if any(not s.raw for s in test_samples):
        raise ValueError("robustness_suite needs raw-domain test samples")
    results = []
    n = len(test_samples)
    for si, spec in enumerate(specs):
        counts = []
        for rep in range(repeats):
            rep_rng = rng.child("corrupt", si, rep)
            corrupted = [corrupt(s, spec, rep_rng.child(i))
                         for i, s in enumerate(test_samples)]
            if stats is not None:
                corrupted = [normalize_sample(s, stats) for s in corrupted]
            scores = score_samples(model, corrupted, mc_samples)
            counts.append(sum(1 for s in scores if s.correct))
        # one division from integer totals: identical repeats reproduce the
        # single-run accuracy bit-exactly
        mean = float(sum(counts)) / float(repeats * n)
        accs = tuple(c / n for c in counts)
        std = float(np.sqrt(np.mean([(a - mean) ** 2 for a in accs])))
        results.append(CorruptionResult(spec=spec, mean_accuracy=mean,
                                        std_accuracy=std, accuracies=accs))
    return results


# -- transferability ---------------------------------------------------------------


@dataclass
class TransferResult:
    transfer_report: EvalReport
    control_report: EvalReport


def transferability_protocol(source_meta: dict, target_meta: dict, split: DatasetSplit,
                             sign_cfgs: list[SignConfig], pretrain_cfg: TrainConfig,
                             final_cfg: TrainConfig, mc_samples: int = 20) -> TransferResult:
    """Train a target architecture on samples transformed by a different source.

    The control arm trains the identical target on the plain split with
    identical seeds, so with no transform configs the two reports match
    bit-exactly.
    """
    augmented = sign_pipeline(split, source_meta, pretrain_cfg, sign_cfgs).augmented_split
    target, _ = fit(target_meta, augmented, final_cfg)
    control, _ = fit(target_meta, replace(augmented, train=augmented.train[:len(split.train)]),
                     final_cfg)
    return TransferResult(transfer_report=evaluate(target, augmented.test, mc_samples),
                          control_report=evaluate(control, augmented.test, mc_samples))


# -- feature projection ---------------------------------------------------------


@dataclass
class ProjectionExport:
    coordinates: np.ndarray  # (N, 2)
    labels: list[int]
    explained_variance: tuple[float, float]

    def to_csv(self, path: str):
        """Rows of x, y, class and split; ``signreg eval`` projects the test split."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "class", "split"])
            for (x, y), label in zip(self.coordinates, self.labels):
                writer.writerow([repr(float(x)), repr(float(y)), label, "test"])


def _top2_axes(cov: np.ndarray):
    """Leading two eigenpairs of a symmetric matrix, largest first.

    Each axis is signed so its first nonzero loading (above eigh's
    rounding noise) is positive; variances are clamped at zero.
    """
    values, vectors = np.linalg.eigh(cov)
    comps = vectors[:, [-1, -2]]
    for j in range(2):
        nz = np.nonzero(np.abs(comps[:, j]) > 1e-9)[0]
        if nz.size and comps[nz[0], j] < 0:
            comps[:, j] = -comps[:, j]
    return comps, (max(float(values[-1]), 0.0), max(float(values[-2]), 0.0))


def project_features(model: Model, samples: list[Sample],
                     tap: str = "pre-logits") -> ProjectionExport:
    """Tapped activations of a dropout-off forward pass, centered and
    projected onto the top-2 principal axes."""
    if len(samples) < 3:
        raise ValueError(f"projection needs at least 3 samples, got {len(samples)}")

    def tapped(tape) -> np.ndarray:
        if tap not in tape.taps:
            raise ValueError(f"model has no tap {tap!r}; available: {sorted(tape.taps)}")
        values = tape.taps[tap].value.data
        return values.reshape(len(values), -1)

    feats = [rows for _, rows in forward_batches(model, [s.image.data for s in samples],
                                                 tapped)]
    matrix = np.concatenate(feats, axis=0, dtype=np.float64)  # also a float32 model's
    if matrix.shape[1] < 2:
        raise ValueError(f"projection needs at least 2 features, tap {tap!r} has "
                         f"{matrix.shape[1]}")
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / centered.shape[0]
    comps, variances = _top2_axes(cov)
    coords = centered @ comps
    if not np.all(np.isfinite(coords)):
        raise ArithmeticError("projection produced non-finite coordinates")
    return ProjectionExport(coordinates=coords, labels=[s.label for s in samples],
                            explained_variance=variances)


# -- per-sample CSV ----------------------------------------------------------------


def write_scores_csv(scores: list[SampleScore], path: str):
    """One row per score; ``signreg eval`` scores the test split."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "true", "predicted", "top_prob", "uncertainty", "split"])
        for s in scores:
            writer.writerow([s.index, s.true_label, s.predicted, repr(s.top_probability),
                             "" if s.uncertainty is None else repr(s.uncertainty), "test"])
