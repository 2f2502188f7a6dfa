"""Loss identities against naive formulas, optimizer behavior, loop determinism."""

import weakref

import numpy as np
import pytest

from signreg.autodiff import forward
from signreg.datasets import DatasetSplit, make_synthetic_blobs, normalize
from signreg.nn import Model, build_model
from signreg.sign import SignConfig, transform_dataset
from signreg.tensor import Rng, Tensor
from signreg import training
from signreg.training import Adam, SgdMomentum, TrainConfig, fit, sign_pipeline, train


def naive_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Direct softmax formula without the log-sum-exp shift."""
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return float(-(labels * np.log(p)).sum(axis=1).mean())


def onehot(indices, ncls):
    return np.eye(ncls)[np.asarray(indices)]


class TestCrossEntropy:
    """``Tape.cross_entropy``, the loss training records."""

    def test_uniform_logits_ln_ten(self):
        labels = onehot([0, 3, 5, 9], 10)
        loss, _ = forward(lambda t, n: t.cross_entropy(n, labels), Tensor(np.zeros((4, 10))))
        assert loss.item() == pytest.approx(np.log(10.0), abs=1e-12)

    def test_saturated_true_class(self):
        z = np.zeros((1, 10))
        z[0, 2] = 50.0
        loss, _ = forward(lambda t, n: t.cross_entropy(n, onehot([2], 10)), Tensor(z))
        assert 0.0 <= loss.item() < 1e-20

    def test_matches_naive_formula_on_small_logits(self):
        rng = Rng(1)
        logits = rng.child("z").normal((6, 5))
        labels = onehot(rng.child("y").integers(0, 5, size=6), 5)
        got, _ = forward(lambda t, n: t.cross_entropy(n, labels), Tensor(logits))
        assert got.item() == pytest.approx(naive_cross_entropy(logits, labels), abs=1e-12)

    def test_soft_labels_supported(self):
        logits = Rng(2).normal((3, 4))
        labels = np.full((3, 4), 0.25)
        got, _ = forward(lambda t, n: t.cross_entropy(n, labels), Tensor(logits))
        assert got.item() == pytest.approx(naive_cross_entropy(logits, labels), abs=1e-12)


class TestAleatoricLoss:
    """``Tape.aleatoric_nll`` with one-hot labels and the noise draws
    training takes, ``Rng.normal((T, B, C))``."""

    def test_sigma_to_zero_collapses_to_cross_entropy(self):
        rng = Rng(3)
        f = rng.child("f").normal((5, 4))
        labels = onehot(rng.child("y").integers(0, 4, size=5), 4)
        ce, _ = forward(lambda t, n: t.cross_entropy(n, labels), Tensor(f))
        sigma = Tensor(np.full((5, 4), 1e-12))
        for t_draws in (1, 5, 20):
            eps = rng.child("mc", t_draws).normal((t_draws, 5, 4))
            got, _ = forward(lambda t, n: t.aleatoric_nll(n, t.leaf_const(sigma), labels, eps),
                             Tensor(f))
            assert got.item() == pytest.approx(ce.item(), abs=1e-6)

    def test_single_draw_equals_perturbed_cross_entropy(self):
        rng = Rng(4)
        f = rng.child("f").normal((3, 4))
        sigma = np.abs(rng.child("s").normal((3, 4))) + 0.3
        labels = onehot([0, 2, 3], 4)
        eps = Rng(4).child("draw").normal((1, 3, 4))
        got, _ = forward(lambda t, n: t.aleatoric_nll(n, t.leaf_const(Tensor(sigma)), labels, eps),
                         Tensor(f))
        want, _ = forward(lambda t, n: t.cross_entropy(n, labels), Tensor(f + sigma * eps[0]))
        assert got.item() == pytest.approx(want.item(), abs=1e-12)

    def test_symmetric_two_class_approaches_log_two(self):
        # f = 0, sigma = 1: the expected correct-class probability is 1/2 by
        # symmetry, so the loss tends to log 2 as draws grow
        eps = Rng(5).normal((50_000, 1, 2))
        got, _ = forward(lambda t, n: t.aleatoric_nll(n, t.leaf_const(Tensor(np.ones((1, 2)))),
                                                      onehot([0], 2), eps),
                         Tensor(np.zeros((1, 2))))
        assert got.item() == pytest.approx(np.log(2.0), abs=0.02)

    def test_validation(self):
        labels, eps = onehot([0, 1], 3), np.zeros((5, 2, 3))
        with pytest.raises(ValueError):
            forward(lambda t, n: t.aleatoric_nll(n, t.leaf_const(Tensor(np.zeros((2, 3)))),
                                                 labels, eps), Tensor(np.zeros((2, 3))))
        # training draws cfg.mc_samples noise samples per batch
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, mc_samples=0)


class TestOptimizers:
    def params(self):
        rng = Rng(6)
        return ({"w": Tensor(rng.child("w").normal((3, 3))), "b": Tensor(rng.child("b").normal((3,)))},
                {"w": Tensor(rng.child("gw").normal((3, 3))), "b": Tensor(rng.child("gb").normal((3,)))})

    def test_zero_learning_rate_keeps_bits(self):
        for opt in (SgdMomentum(0.9), Adam()):
            params, grads = self.params()
            out = opt.step(params, grads, lr=0.0)
            for name in params:
                assert out[name].data.tobytes() == params[name].data.tobytes()

    def test_sgd_momentum_accumulates(self):
        params, grads = self.params()
        opt = SgdMomentum(0.5)
        p1 = opt.step(params, grads, lr=1.0)
        p2 = opt.step(p1, grads, lr=1.0)
        g = grads["w"].data
        np.testing.assert_allclose(p2["w"].data, params["w"].data - g - 1.5 * g,
                                   atol=1e-12, rtol=0)

    def test_adam_step_bounded_by_lr(self):
        params, grads = self.params()
        out = Adam().step(params, grads, lr=0.01)
        delta = np.abs(out["w"].data - params["w"].data)
        assert delta.max() <= 0.01 + 1e-9


def small_split(seed=0, separation=6.0, spc=40):
    return normalize(make_synthetic_blobs(3, spc, (1, 8, 8), separation,
                                          Rng(seed).child("blobs")))


def fresh_mlp(split, seed=0):
    dim = int(np.prod(split.train[0].image.shape))
    meta = {"arch": "small_mlp", "input_dim": dim, "hidden_dims": [16],
            "num_classes": 3, "input_shape": list(split.train[0].image.shape)}
    return build_model(meta, seed=seed), meta


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        split = small_split()
        model, _ = fresh_mlp(split)
        init = {k: v.data.tobytes() for k, v in model.params.items()}
        report = train(model, split, TrainConfig(epochs=0, seed=1))
        assert report.rows == [] and report.selected_epoch is None
        assert {k: v.data.tobytes() for k, v in model.params.items()} == init

    def test_separable_blobs_reach_high_accuracy(self):
        split = small_split(separation=6.0)
        model, _ = fresh_mlp(split)
        report = train(model, split, TrainConfig(epochs=30, batch_size=32,
                                                 learning_rate=0.05, seed=2))
        assert max(r.val_acc for r in report.rows) >= 0.95

    def test_same_seed_bitwise_identical(self):
        split = small_split()
        cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=0.05, seed=3)
        model_a, _ = fresh_mlp(split, seed=9)
        report_a = train(model_a, split, cfg)
        model_b, _ = fresh_mlp(split, seed=9)
        report_b = train(model_b, split, cfg)
        assert [(r.train_loss, r.val_loss) for r in report_a.rows] == \
               [(r.train_loss, r.val_loss) for r in report_b.rows]
        for name in model_a.params:
            assert model_a.params[name].data.tobytes() == model_b.params[name].data.tobytes()

    def test_selected_epoch_first_argmax(self):
        split = small_split()
        model, _ = fresh_mlp(split)
        report = train(model, split, TrainConfig(epochs=6, batch_size=32,
                                                 learning_rate=0.05, seed=4))
        accs = [r.val_acc for r in report.rows]
        assert report.selected_epoch == accs.index(max(accs))

    def test_mixup_and_classical_strategies_run(self):
        split = small_split(spc=20)
        for strategy in ("classical", "mixup"):
            model, _ = fresh_mlp(split)
            report = train(model, split, TrainConfig(epochs=2, batch_size=16,
                                                     learning_rate=0.05, seed=5,
                                                     strategy=strategy))
            assert len(report.rows) == 2

    def test_uncertainty_head_trains_with_aleatoric(self):
        split = small_split(spc=20)
        dim = int(np.prod(split.train[0].image.shape))
        meta = {"arch": "small_mlp", "input_dim": dim, "hidden_dims": [16],
                "num_classes": 3, "input_shape": list(split.train[0].image.shape),
                "uncertainty_head": True}
        model = build_model(meta, seed=0)
        report = train(model, split, TrainConfig(epochs=3, batch_size=16,
                                                 learning_rate=0.02, seed=6, mc_samples=5))
        assert len(report.rows) == 3 and np.isfinite(report.rows[-1].train_loss)

    def test_empty_split_rejected(self):
        split = small_split(spc=10)
        empty = DatasetSplit(train=[], val=split.val, test=split.test,
                             class_names=split.class_names)
        model, _ = fresh_mlp(split)
        with pytest.raises(ValueError):
            train(model, empty, TrainConfig(epochs=1))

    def test_report_files(self, tmp_path):
        split = small_split(spc=10)
        model, _ = fresh_mlp(split)
        report = train(model, split, TrainConfig(epochs=2, batch_size=16, seed=7))
        csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
        report.to_csv(csv_path)
        report.to_json(json_path)
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy"
        assert len(lines) == 1 + 2 * 2  # train + val row per epoch
        import json
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["epochs"] == 2 and "wall_time" not in "".join(doc)

    def test_lr_schedule_milestones(self):
        cfg = TrainConfig(epochs=100, learning_rate=1.0)
        assert cfg.lr_at(0) == 1.0
        assert cfg.lr_at(49) == 1.0
        assert cfg.lr_at(50) == pytest.approx(0.1)
        assert cfg.lr_at(75) == pytest.approx(0.01)


class TestSignPipeline:
    def test_empty_cfgs_equal_plain_retrain(self):
        split = small_split(spc=15)
        _, meta = fresh_mlp(split)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, seed=8)
        result = sign_pipeline(split, meta, cfg, [])
        assert len(result.augmented_split.train) == len(split.train)
        final, _ = fit(meta, result.augmented_split, cfg)
        plain = build_model(meta, seed=cfg.seed)
        train(plain, split, cfg)
        for name in plain.params:
            assert plain.params[name].data.tobytes() == final.params[name].data.tobytes()

    def test_default_two_configs_triple_training_set(self):
        split = small_split(spc=10)
        _, meta = fresh_mlp(split)
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.05, seed=9)
        cfgs = [SignConfig(k=5, gamma=0.02, normalize="unit-max-abs"),
                SignConfig(k=10, gamma=0.02, normalize="unit-max-abs")]
        result = sign_pipeline(split, meta, cfg, cfgs)
        assert len(result.augmented_split.train) == 3 * len(split.train)
        originals = result.augmented_split.train[:len(split.train)]
        assert all(s.provenance is None for s in originals)
        assert all(s.provenance is not None
                   for s in result.augmented_split.train[len(split.train):])

    def test_cross_architecture_final(self):
        split = small_split(spc=10)
        _, source_meta = fresh_mlp(split)
        target_meta = dict(source_meta, hidden_dims=[8])
        cfg = TrainConfig(epochs=2, batch_size=16, seed=10)
        result = sign_pipeline(split, source_meta, cfg,
                               [SignConfig(k=3, gamma=0.02, normalize="unit-max-abs")])
        final, report = fit(target_meta, result.augmented_split, cfg)
        assert final.meta["hidden_dims"] == [8] and len(report.rows) == 2
        assert result.source_model.meta["hidden_dims"] == [16]

    def test_given_source_skips_stage_one(self):
        split = small_split(spc=10)
        _, meta = fresh_mlp(split)
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.05, seed=11)
        cfgs = [SignConfig(k=3, gamma=0.02, normalize="unit-max-abs")]
        trained = sign_pipeline(split, meta, cfg, cfgs)
        given = sign_pipeline(split, meta, None, cfgs, source=trained.source_model)
        assert given.source_report is None and given.source_model is trained.source_model
        assert len(given.augmented_split.train) == len(trained.augmented_split.train)
        for a, b in zip(trained.augmented_split.train, given.augmented_split.train):
            assert a.image.data.tobytes() == b.image.data.tobytes()

    def test_trains_the_source_only(self, monkeypatch):
        split = small_split(spc=10)
        _, meta = fresh_mlp(split)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=12)
        cfgs = [SignConfig(k=2, gamma=0.02, normalize="unit-max-abs")]
        trained = []
        real_train = training.train
        monkeypatch.setattr(training, "train",
                            lambda model, *a: trained.append(model) or real_train(model, *a))
        result = sign_pipeline(split, meta, cfg, cfgs)
        assert trained == [result.source_model]
        sign_pipeline(split, meta, None, cfgs, source=result.source_model)
        assert trained == [result.source_model]


class TestTapeLifetime:
    def test_spent_tapes_are_freed_before_the_next_forward(self, monkeypatch):
        """Each training step and each transform iteration frees its tape
        before the next forward records one, so no loop holds two."""
        live_at_forward, refs = [], []
        real_forward = Model.forward

        def recording_forward(model, *args, **kwargs):
            live_at_forward.append(sum(ref() is not None for ref in refs))
            tape = real_forward(model, *args, **kwargs)
            refs.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(Model, "forward", recording_forward)
        split = small_split(spc=10)
        model = build_model({"arch": "basic_cnn", "input_shape": [1, 8, 8], "num_classes": 3})
        cfg = TrainConfig(epochs=2, batch_size=8, optimizer="adam", learning_rate=1e-3, seed=13)
        batches = -(-len(split.train) // cfg.batch_size)
        assert batches >= 2
        train(model, split, cfg)
        assert len(refs) == cfg.epochs * (batches + 1)  # the steps and each epoch's validation
        transform_dataset(model, split.train, [SignConfig(k=3, gamma=0.02)], batch_size=8)
        assert len(refs) == cfg.epochs * (batches + 1) + 3 * batches
        assert live_at_forward == [0] * len(refs)
