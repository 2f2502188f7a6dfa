"""Report math against second-pass recomputation, projection against a
Jacobi eigensolver, corruption harness determinism."""

import dataclasses

import numpy as np
import pytest
from oracles import mlp_meta, recompute_report

from signreg.augment import CorruptionSpec
from signreg.datasets import Sample, make_synthetic_blobs, normalize
from signreg.evalharness import (evaluate, ood_evaluate, project_features, robustness_suite,
                                 score_samples, transferability_protocol, write_scores_csv)
from signreg.nn import PREDICT_BATCH, Dense, Model, build_model, load_checkpoint, save_checkpoint
from signreg.sign import SignConfig
from signreg.tensor import Rng, Tensor
from signreg.training import TrainConfig, evaluate_arrays, fit


def logit_passthrough_model(ncls: int) -> Model:
    """Logits equal the (flat) input: lets tests dictate predictions."""
    layers = [Dense("out", ncls, ncls)]
    params = {"out.w": np.eye(ncls), "out.b": np.zeros(ncls)}
    return Model(layers, params, {"pre-logits": 0, "logits": 0}, (ncls,), ncls,
                 {"arch": "small_mlp", "input_dim": ncls, "hidden_dims": [1],
                  "num_classes": ncls, "input_shape": [ncls]})


def uniform_model(ncls: int) -> Model:
    layers = [Dense("out", ncls, ncls)]
    params = {"out.w": np.zeros((ncls, ncls)), "out.b": np.zeros(ncls)}
    return Model(layers, params, {"pre-logits": 0, "logits": 0}, (ncls,), ncls,
                 {"arch": "small_mlp", "input_dim": ncls, "hidden_dims": [1],
                  "num_classes": ncls, "input_shape": [ncls]})


def one_per_class_samples(ncls: int, scale: float = 10.0):
    return [Sample(image=Tensor(scale * np.eye(ncls)[c]), label=c, raw=False)
            for c in range(ncls)]


def jacobi_eigenvalues(matrix: np.ndarray, sweeps: int = 100, tol: float = 1e-13):
    """Cyclic Jacobi rotations on a symmetric matrix; descending eigenvalues."""
    a = matrix.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt((np.triu(a, 1) ** 2).sum())
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = (np.sign(theta) if theta else 1.0) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestEvaluate:
    def test_perfect_classifier(self):
        model = logit_passthrough_model(10)
        report = evaluate(model, one_per_class_samples(10))
        assert [r.accuracy for r in report.per_class] == [1.0] * 10
        assert report.mean_accuracy == 1.0
        assert report.bucket.count == 0
        assert report.bucket.mean_probability is None

    def test_uniform_model_bucket_holds_all_correct(self):
        model = uniform_model(10)
        report = evaluate(model, one_per_class_samples(10))
        assert report.mean_accuracy == pytest.approx(0.1)
        # the only correct prediction (class 0 by argmax tie) has p = 0.1
        assert report.bucket.count == sum(r.correct for r in report.per_class)
        assert report.bucket.mean_probability == pytest.approx(0.1, abs=1e-12)

    def test_empty_sample_list(self):
        with pytest.raises(ValueError):
            evaluate(logit_passthrough_model(3), [])

    def test_bucket_recomputed_from_csv(self, tmp_path):
        rng = Rng(1)
        model = logit_passthrough_model(4)
        samples = [Sample(image=Tensor(rng.child(i).normal((4,))), label=i % 4, raw=False)
                   for i in range(40)]
        scores = score_samples(model, samples)
        path = str(tmp_path / "scores.csv")
        write_scores_csv(scores, path)
        direct = evaluate(model, samples)
        recomputed = recompute_report(path, 4)
        assert recomputed.mean_accuracy == direct.mean_accuracy
        assert recomputed.bucket.count == direct.bucket.count
        if direct.bucket.mean_probability is None:
            assert recomputed.bucket.mean_probability is None
        else:
            assert abs(recomputed.bucket.mean_probability
                       - direct.bucket.mean_probability) < 1e-12
        for a, b in zip(recomputed.per_class, direct.per_class):
            assert a.total == b.total and a.correct == b.correct
            assert abs(a.accuracy - b.accuracy) < 1e-12
        assert abs(recomputed.min_correct_probability
                   - direct.min_correct_probability) < 1e-12

    def test_checkpoint_roundtrip_identical_report(self, tmp_path):
        split = normalize(make_synthetic_blobs(3, 20, (1, 8, 8), 4.0, Rng(2)))
        meta = {"arch": "small_mlp", "input_dim": 64, "hidden_dims": [8],
                "num_classes": 3, "input_shape": [1, 8, 8]}
        model = build_model(meta, seed=3)
        path = str(tmp_path / "m.bin")
        save_checkpoint(model, path)
        twin = load_checkpoint(path)
        a = evaluate(model, split.test)
        b = evaluate(twin, split.test)
        assert [r.accuracy for r in a.per_class] == [r.accuracy for r in b.per_class]
        assert a.mean_accuracy == b.mean_accuracy
        assert a.min_correct_probability == b.min_correct_probability


def constant_head_model(f_bias, sigma) -> Model:
    """An uncertainty-head model whose f and sigma ignore the 2-d input."""
    ncls = len(f_bias)
    model = build_model(mlp_meta(2, [3], ncls, uncertainty_head=True), 0)
    params = dict(model.params)
    params["head.f.w"] = params["head.s.w"] = np.zeros((3, ncls))
    params["head.f.b"] = f_bias
    params["head.s.b"] = np.log(np.expm1(sigma))  # softplus inverse
    model.set_params(params)
    return model


def constant_plain_model(bias) -> Model:
    model = uniform_model(len(bias))
    model.set_params({"out.w": model.params["out.w"], "out.b": bias})
    return model


def labeled_inputs(ncls: int, dim: int, label: int, count: int = 40):
    samples = [Sample(image=Tensor(Rng(4).child(i).normal((dim,))), label=label, raw=False)
               for i in range(count)]
    return samples, np.stack([s.image.data for s in samples]), np.eye(ncls)[[label] * count]


class TestOnePredictive:
    def test_selection_accuracy_is_evaluated_accuracy(self):
        # f ranks class 0 first for every input, but class 1's noise is so
        # wide that the MC-averaged softmax mostly ranks class 1 first
        model = constant_head_model([1.0, 0.0, 0.9], [0.01, 50.0, 0.01])
        samples, images, soft = labeled_inputs(3, 2, label=1)
        rng = Rng(5)
        _, val_acc = evaluate_arrays(model, images, soft, 20, rng)
        scores = score_samples(model, samples, 20, rng)
        assert 0.0 < val_acc == sum(s.correct for s in scores) / len(scores)

    @pytest.mark.parametrize("kind", ["plain", "head"])
    def test_finite_when_a_wrong_class_leads_by_800(self, kind):
        bias = [0.0, 900.0, 0.0]
        model = (constant_head_model(bias, [0.5] * 3) if kind == "head"
                 else constant_plain_model(bias))
        samples, images, soft = labeled_inputs(3, model.input_shape[0], label=0)
        val_loss, val_acc = evaluate_arrays(model, images, soft, 20, Rng(5))
        assert np.isfinite(val_loss) and val_loss > 800 and val_acc == 0.0
        scores = score_samples(model, samples, 20, Rng(5))
        assert all(s.predicted == 1 and np.isfinite(s.top_probability) for s in scores)


class TestMinCorrectProbability:
    def test_confident_perfect_model(self):
        model = logit_passthrough_model(5)
        got = evaluate(model, one_per_class_samples(5, scale=50.0)).min_correct_probability
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_uniform_model_is_one_over_c(self):
        model = uniform_model(10)
        got = evaluate(model, one_per_class_samples(10)).min_correct_probability
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_matches_brute_force_scan(self):
        rng = Rng(4)
        model = logit_passthrough_model(3)
        samples = [Sample(image=Tensor(rng.child(i).normal((3,))), label=i % 3, raw=False)
                   for i in range(30)]
        scores = score_samples(model, samples)
        brute = min(s.top_probability for s in scores if s.correct)
        assert evaluate(model, samples).min_correct_probability == brute

    def test_none_when_nothing_correct(self):
        model = logit_passthrough_model(3)
        samples = [Sample(image=Tensor(10.0 * np.eye(3)[(c + 1) % 3]), label=c, raw=False)
                   for c in range(3)]
        assert evaluate(model, samples).min_correct_probability is None


class TestRobustnessSuite:
    def setup_model(self, seed=5):
        raw = make_synthetic_blobs(3, 20, (1, 8, 8), 5.0, Rng(seed))
        split = normalize(raw)
        meta = {"arch": "small_mlp", "input_dim": 64, "hidden_dims": [12],
                "num_classes": 3, "input_shape": [1, 8, 8]}
        from signreg.training import train
        model = build_model(meta, seed=seed)
        train(model, split, TrainConfig(epochs=8, batch_size=16, learning_rate=0.05, seed=seed))
        return model, raw, split

    def test_identity_specs_reproduce_clean_accuracy(self):
        model, raw, split = self.setup_model()
        clean = evaluate(model, split.test).mean_accuracy
        specs = [CorruptionSpec(kind="pixel-off", pixel_count=0),
                 CorruptionSpec(kind="gaussian", mu=0.0, sigma=0.0)]
        results = robustness_suite(model, raw.test, specs, repeats=3, rng=Rng(6),
                                   stats=split.stats)
        for res in results:
            assert res.mean_accuracy == clean
            assert res.std_accuracy == 0.0

    def test_fixed_master_seed_bit_identical(self):
        model, raw, split = self.setup_model()
        specs = [CorruptionSpec(kind="pixel-off", pixel_count=10),
                 CorruptionSpec(kind="gaussian", sigma=10.0)]
        a = robustness_suite(model, raw.test, specs, repeats=5, rng=Rng(7), stats=split.stats)
        b = robustness_suite(model, raw.test, specs, repeats=5, rng=Rng(7), stats=split.stats)
        for ra, rb in zip(a, b):
            assert ra.accuracies == rb.accuracies
            assert ra.mean_accuracy == rb.mean_accuracy and ra.std_accuracy == rb.std_accuracy

    def test_requires_raw_samples(self):
        model, raw, split = self.setup_model()
        with pytest.raises(ValueError):
            robustness_suite(model, split.test, [CorruptionSpec(kind="gaussian")],
                             repeats=1, rng=Rng(0), stats=split.stats)


class TestOodEvaluate:
    def test_degenerate_ood_equals_evaluate(self):
        rng = Rng(8)
        model = logit_passthrough_model(4)
        samples = [Sample(image=Tensor(rng.child(i).normal((4,))), label=i % 4, raw=False)
                   for i in range(24)]
        plain = evaluate(model, samples)
        ood = ood_evaluate(model, samples)
        assert [r.accuracy for r in ood.per_class] == [r.accuracy for r in plain.per_class]
        assert ood.mean_accuracy == plain.mean_accuracy

    def test_single_class_table(self):
        model = logit_passthrough_model(5)
        samples = [Sample(image=Tensor(10.0 * np.eye(5)[2]), label=2, raw=False)
                   for _ in range(7)]
        ood = ood_evaluate(model, samples)
        assert len(ood.per_class) == 1
        assert ood.per_class[0].label == 2 and ood.per_class[0].total == 7

    def test_empty_bucket_reported_absent(self):
        model = logit_passthrough_model(3)
        samples = one_per_class_samples(3, scale=50.0)  # confident: bucket empty
        ood = ood_evaluate(model, samples)
        for row in ood.per_class:
            assert row.bucket.count == 0
            assert row.bucket.mean_probability is None
            assert row.bucket.mean_uncertainty is None


class TestTransferability:
    def test_empty_cfgs_control_equals_transfer(self):
        split = normalize(make_synthetic_blobs(3, 12, (1, 8, 8), 5.0, Rng(9)))
        meta_a = {"arch": "small_mlp", "input_dim": 64, "hidden_dims": [10],
                  "num_classes": 3, "input_shape": [1, 8, 8]}
        meta_b = dict(meta_a, hidden_dims=[6])
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.05, seed=10)
        result = transferability_protocol(meta_a, meta_b, split, [], cfg, cfg)
        assert [r.accuracy for r in result.transfer_report.per_class] == \
            [r.accuracy for r in result.control_report.per_class]
        assert result.transfer_report.mean_accuracy == result.control_report.mean_accuracy

    def test_control_arm_trains_on_the_originals(self):
        """Even when the originals carry provenance, as a transformed
        container's samples do, the control arm trains on exactly them."""
        split = normalize(make_synthetic_blobs(3, 8, (1, 8, 8), 5.0, Rng(14)))
        split = dataclasses.replace(split, train=[
            dataclasses.replace(s, provenance={"source_model": "earlier"}) for s in split.train])
        meta_a = {"arch": "small_mlp", "input_dim": 64, "hidden_dims": [8],
                  "num_classes": 3, "input_shape": [1, 8, 8]}
        meta_b = dict(meta_a, hidden_dims=[4])
        cfg = TrainConfig(epochs=2, batch_size=16, seed=15)
        result = transferability_protocol(
            meta_a, meta_b, split, [SignConfig(k=2, gamma=0.02, normalize="unit-max-abs")],
            cfg, cfg)
        control, _ = fit(meta_b, split, cfg)
        assert result.control_report == evaluate(control, split.test)

    def test_report_schema(self):
        split = normalize(make_synthetic_blobs(2, 10, (1, 8, 8), 5.0, Rng(11)))
        meta_a = {"arch": "small_mlp", "input_dim": 64, "hidden_dims": [8],
                  "num_classes": 2, "input_shape": [1, 8, 8]}
        meta_b = dict(meta_a, hidden_dims=[4])
        cfg = TrainConfig(epochs=1, batch_size=16, seed=12)
        result = transferability_protocol(meta_a, meta_b, split, [], cfg, cfg)
        for report in (result.transfer_report, result.control_report):
            assert len(report.per_class) == 2
            assert 0.0 <= report.mean_accuracy <= 1.0


class TestProjectFeatures:
    def passthrough_2d(self):
        return logit_passthrough_model(2)

    def test_axis_aligned_identity_case(self):
        rng = Rng(13)
        xs = rng.child("x").normal((50,), 0.0, 5.0)
        ys = rng.child("y").normal((50,), 0.0, 1.0)
        # decorrelate so the sample principal axes are exactly the coordinate axes
        xs = xs - xs.mean()
        ys = ys - ys.mean()
        ys = ys - (xs @ ys / (xs @ xs)) * xs
        samples = [Sample(image=Tensor([x, y]), label=0, raw=False)
                   for x, y in zip(xs, ys)]
        export = project_features(self.passthrough_2d(), samples, tap="pre-logits")
        centered = np.stack([xs - xs.mean(), ys - ys.mean()], axis=1)
        # sign convention: first nonzero loading positive, so no flip needed
        np.testing.assert_allclose(export.coordinates, centered, atol=1e-6, rtol=0)

    def test_duplicated_samples_duplicate_coordinates(self):
        rng = Rng(14)
        base = [Sample(image=Tensor(rng.child(i).normal((2,))), label=0, raw=False)
                for i in range(5)]
        export = project_features(self.passthrough_2d(), base + base, tap="pre-logits")
        np.testing.assert_allclose(export.coordinates[:5], export.coordinates[5:],
                                   atol=1e-12, rtol=0)

    def test_every_batch_projected_in_sample_order(self):
        # more samples than one forward batch: a rotation of the centered
        # inputs keeps each row's norm, so a lost or reordered row shows
        data = Rng(20).normal((PREDICT_BATCH + 44, 2)) * [3.0, 1.0]
        samples = [Sample(image=Tensor(row), label=0, raw=False) for row in data]
        export = project_features(self.passthrough_2d(), samples, tap="pre-logits")
        np.testing.assert_allclose(np.linalg.norm(export.coordinates, axis=1),
                                   np.linalg.norm(data - data.mean(axis=0), axis=1),
                                   atol=1e-10, rtol=0)

    def test_explained_variance_matches_jacobi_oracle(self):
        rng = Rng(15)
        data = rng.normal((100, 10)) @ np.diag(np.linspace(3.0, 0.3, 10))
        model = logit_passthrough_model(10)
        samples = [Sample(image=Tensor(row), label=0, raw=False) for row in data]
        export = project_features(model, samples, tap="pre-logits")
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / centered.shape[0]
        eigs = jacobi_eigenvalues(cov)
        assert abs(export.explained_variance[0] - eigs[0]) < 1e-6
        assert abs(export.explained_variance[1] - eigs[1]) < 1e-6

    def test_start_vector_orthogonal_to_leading_axis(self):
        # covariance [[2, -1], [-1, 2]]: eigenvalues 3 along (1, -1) and 1
        # along (1, 1), so an all-ones start vector misses the leading axis
        u1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        u2 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        points = [np.sqrt(6.0) * u1, -np.sqrt(6.0) * u1, np.sqrt(2.0) * u2, -np.sqrt(2.0) * u2]
        samples = [Sample(image=Tensor(p), label=0, raw=False) for p in points]
        export = project_features(self.passthrough_2d(), samples, tap="pre-logits")
        cov = np.stack(points).T @ np.stack(points) / len(points)
        np.testing.assert_allclose(cov, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-12)
        eigs = jacobi_eigenvalues(cov)
        assert abs(export.explained_variance[0] - eigs[0]) < 1e-9
        assert abs(export.explained_variance[1] - eigs[1]) < 1e-9
        assert export.explained_variance == pytest.approx((3.0, 1.0), abs=1e-12)
        # first nonzero loading positive: the first point lies on +x
        np.testing.assert_allclose(export.coordinates[0], [np.sqrt(6.0), 0.0], atol=1e-12)

    def test_overflowing_features_rejected(self):
        # the covariance overflows, and eigh returns NaN axes for it
        samples = [Sample(image=Tensor([1e160 * i, -1e160 * i * i]), label=0, raw=False)
                   for i in range(4)]
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            project_features(self.passthrough_2d(), samples, tap="pre-logits")

    def test_too_few_samples(self):
        samples = one_per_class_samples(2)
        with pytest.raises(ValueError):
            project_features(self.passthrough_2d(), samples[:2], tap="pre-logits")

    def test_one_feature_tap_rejected(self):
        model = build_model(mlp_meta((1, 8, 8), [1], 3), 18)
        samples = [Sample(image=Tensor(Rng(19).child(i).normal((1, 8, 8))), label=0, raw=False)
                   for i in range(4)]
        with pytest.raises(ValueError, match="tap 'pre-logits' has 1"):
            project_features(model, samples, tap="pre-logits")

    def test_missing_tap(self):
        samples = [Sample(image=Tensor(Rng(16).child(i).normal((2,))), label=0, raw=False)
                   for i in range(4)]
        with pytest.raises(ValueError, match="tap"):
            project_features(self.passthrough_2d(), samples, tap="bottleneck")

    def test_csv_export(self, tmp_path):
        rng = Rng(17)
        samples = [Sample(image=Tensor(rng.child(i).normal((2,))), label=i % 2, raw=False)
                   for i in range(6)]
        export = project_features(self.passthrough_2d(), samples, tap="pre-logits")
        path = str(tmp_path / "proj.csv")
        export.to_csv(path)
        lines = (tmp_path / "proj.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,class,split"
        assert len(lines) == 7 and lines[1].endswith("test")
