"""Transform oracles: linear closed form, per-step loops, explicit Jacobians."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import cnn_meta, mlp_meta

from signreg import autodiff, sign
from signreg.autodiff import summed_jacobian, vjp
from signreg.datasets import Sample
from signreg.nn import Dense, Flatten, Model, build_model
from signreg.sign import NonFiniteDeltaError, SignConfig, delta_only_dataset, transform_dataset
from signreg.tensor import Rng, ShapeError, Tensor


def linear_model(w: np.ndarray) -> Model:
    """Phi(x) = x W with zero bias; 'logits' is the only meaningful tap."""
    d, m = w.shape
    layers = [Dense("out", d, m)]
    params = {"out.w": Tensor(w), "out.b": Tensor(np.zeros(m))}
    return Model(layers, params, {"pre-logits": 0, "logits": 0}, (d,), m,
                 {"arch": "small_mlp", "input_dim": d, "hidden_dims": [1],
                  "num_classes": m, "input_shape": [d]})


def identity_model(dim: int) -> Model:
    layers = [Flatten()]
    return Model(layers, {}, {"pre-logits": 0, "logits": 0}, (dim,), dim,
                 {"arch": "small_mlp", "input_dim": dim, "hidden_dims": [1],
                  "num_classes": dim, "input_shape": [dim]})


def samples_of(arrays, labels):
    return [Sample(image=Tensor(a), label=int(l), raw=False)
            for a, l in zip(arrays, labels)]


class TestSignTransform:
    def test_linear_closed_form_both_policies(self):
        rng = Rng(11)
        w = rng.child("w").normal((6, 4))
        p = rng.child("p").normal((6,))
        model = linear_model(w)
        expected_step = w.sum(axis=1)
        for policy in ("current-iterate", "original-point"):
            for k in (1, 3, 7):
                cfg = SignConfig(k=k, tap="logits", gamma=1.0, eval_point=policy)
                [_, copy] = transform_dataset(model, samples_of([p], [0]), [cfg])
                np.testing.assert_allclose(copy.image.data, p + k * expected_step,
                                           atol=1e-10, rtol=0)

    def test_single_step_is_definition(self):
        rng = Rng(12)
        model = build_model(mlp_meta(8, [5], 3), rng.seed)
        p = rng.child("p").normal((8,))
        gamma = 0.3
        [_, copy] = transform_dataset(model, samples_of([p], [0]), [SignConfig(k=1, gamma=gamma)])
        tape = model.forward(Tensor(p[None]))
        delta = summed_jacobian(tape, tape.taps["pre-logits"]).data[0]
        np.testing.assert_allclose(copy.image.data, p + gamma * delta, atol=1e-12, rtol=0)

    def test_two_steps_match_hand_rolled_loop(self):
        rng = Rng(13)
        model = build_model(mlp_meta(6, [4], 2), rng.seed)
        p = rng.child("p").normal((6,))
        [_, copy] = transform_dataset(model, samples_of([p], [0]),
                                      [SignConfig(k=2, eval_point="current-iterate")])
        cur = p.copy()
        for _ in range(2):
            tape = model.forward(Tensor(cur[None]))
            cur = cur + summed_jacobian(tape, tape.taps["pre-logits"]).data[0]
        np.testing.assert_allclose(copy.image.data, cur, atol=1e-12, rtol=0)

    def test_original_point_policy_repeats_first_delta(self):
        rng = Rng(14)
        model = build_model(mlp_meta(6, [4], 2), rng.seed)
        p = rng.child("p").normal((6,))
        tape = model.forward(Tensor(p[None]))
        delta = summed_jacobian(tape, tape.taps["pre-logits"]).data[0]
        [_, copy] = transform_dataset(model, samples_of([p], [0]),
                                      [SignConfig(k=4, gamma=0.5, eval_point="original-point")])
        np.testing.assert_allclose(copy.image.data, p + 4 * 0.5 * delta, atol=1e-10, rtol=0)

    def test_explicit_jacobian_per_step_oracle(self):
        # oracle: materialize the full Jacobian by one-hot pullbacks, row-sum,
        # step; repeat. must agree with the ones-vjp path
        rng = Rng(15)
        model = build_model(mlp_meta(12, [6], 3), rng.seed)
        p = rng.child("p").normal((12,))
        for k in (1, 3, 5):
            [_, copy] = transform_dataset(model, samples_of([p], [0]), [SignConfig(k=k, gamma=0.7)])
            got = copy.image.data
            cur = p.copy()
            for _ in range(k):
                tape = model.forward(Tensor(cur[None]))
                node = tape.taps["pre-logits"]
                rows = []
                for j in range(node.shape[1]):
                    cot = np.zeros(node.shape)
                    cot[0, j] = 1.0
                    rows.append(vjp(tape, node, Tensor(cot)).data.reshape(-1))
                cur = cur + 0.7 * np.stack(rows).sum(axis=0)
            np.testing.assert_allclose(got, cur, atol=1e-8, rtol=0)

    # Rounding in either product is at most about (depth + widths) * 2^-53
    # times the same chain over absolute values; allow 1e-12 of that chain.
    CLOSED_FORM_RTOL = 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.lists(st.integers(1, 8), min_size=1, max_size=4), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_relu_mlp_closed_form(self, seed, input_dim, hidden, classes):
        """One step at gamma 1 is the summed Jacobian, 1^T W_L D_{L-1} ... D_1 W_1
        for the logits tap (D_i the ReLU masks at the input) and the same
        chain without W_L for the pre-logits tap, computed here in numpy in
        the layers' x @ W orientation."""
        rng = Rng(seed)
        model = build_model(mlp_meta(input_dim, hidden, classes), rng.seed)
        # random biases move the kinks away from the origin
        model.set_params({name: Tensor(rng.child(name).normal(t.shape))
                          for name, t in model.params.items()})
        params = {name: t.data for name, t in model.params.items()}
        x = rng.child("x").normal((input_dim,))
        weights, masks, act = [], [], x
        for i in range(len(hidden)):
            w = params[f"fc{i + 1}.w"]
            pre = act @ w + params[f"fc{i + 1}.b"]
            assume(np.abs(pre).min() > 1e-3)  # away from the ReLU kinks
            weights.append(w)
            masks.append((pre > 0).astype(np.float64))
            act = pre * masks[-1]
        ones = np.ones(classes)
        tails = {"pre-logits": (np.ones(hidden[-1]), np.ones(hidden[-1])),
                 "logits": (params["out.w"] @ ones, np.abs(params["out.w"]) @ ones)}
        for tap, (want, bound) in tails.items():
            for w, mask in zip(reversed(weights), reversed(masks)):
                want, bound = w @ (mask * want), np.abs(w) @ (mask * bound)
            [delta] = delta_only_dataset(model, samples_of([x], [0]),
                                         SignConfig(k=1, tap=tap, gamma=1.0))
            got = delta.image.data
            assert np.all(np.abs(got - want) <= self.CLOSED_FORM_RTOL * bound), tap

    def test_decomposition_invariant(self):
        rng = Rng(16)
        model = build_model(mlp_meta(10, [7], 4), rng.seed)
        p = rng.child("p").normal((10,))
        cfg = SignConfig(k=6, gamma=0.2)
        [_, copy] = transform_dataset(model, samples_of([p], [0]), [cfg])
        [delta] = delta_only_dataset(model, samples_of([p], [0]), cfg)
        diff = copy.image.data - p
        denom = max(np.abs(diff).max(), 1e-12)
        assert np.abs(diff - delta.image.data).max() / denom < 1e-9

    def test_monotone_accumulation_linear(self):
        w = Rng(17).normal((5, 3))
        model = linear_model(w)
        p = Rng(18).normal((5,))
        gamma = 0.4
        step_norm = float(np.linalg.norm(w.sum(axis=1)))
        [(transformed, _)], norms = sign._transform_batch(
            model, p[None], SignConfig(k=5, tap="logits", gamma=gamma), (5,))
        assert tuple(norms[:, 0]) == tuple([step_norm] * 5)
        assert np.linalg.norm(transformed[0] - p) == pytest.approx(5 * gamma * step_norm,
                                                                   abs=1e-10)

    def test_unit_max_abs_normalization(self):
        rng = Rng(19)
        model = build_model(mlp_meta(9, [5], 3), rng.seed)
        p = rng.child("p").normal((9,))
        [delta] = delta_only_dataset(model, samples_of([p], [0]),
                                     SignConfig(k=1, gamma=1.0, normalize="unit-max-abs"))
        assert np.abs(delta.image.data).max() == pytest.approx(1.0, abs=1e-12)

    def test_negative_values_not_clipped(self):
        w = -np.ones((4, 2))  # every step subtracts 2 from each coordinate
        model = linear_model(w)
        [_, copy] = transform_dataset(model, samples_of([np.full(4, 0.5)], [0]),
                                      [SignConfig(k=3, tap="logits")])
        assert np.all(copy.image.data < 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_delta_raises(self):
        model = linear_model(np.full((3, 2), 1e308))
        with pytest.raises(NonFiniteDeltaError):
            delta_only_dataset(model, samples_of([np.ones(3)], [0]), SignConfig(k=1, tap="logits"))

    @pytest.mark.filterwarnings("error")  # the error is the one report, on stderr too
    def test_overflowing_step_raises_naming_the_iteration(self):
        # every delta is 1, finite; the second step of gamma = 1e308 takes
        # the iterate past the float range
        model = linear_model(np.full((3, 2), 0.5))
        with pytest.raises(NonFiniteDeltaError, match=r"at iteration 1$"):
            transform_dataset(model, samples_of([np.ones(3)], [0]),
                              [SignConfig(k=3, tap="logits", gamma=1e308)])

    def test_shape_mismatch(self):
        model = build_model(mlp_meta(5, [3], 2), 0)
        samples = samples_of([np.zeros(5)] * 2 + [np.zeros(4)] * 2, [0, 1, 0, 1])
        with pytest.raises(ShapeError, match=r"samples \[2, 4\): input shape \(4,\) "
                                             r"!= model input \(5,\)"):
            transform_dataset(model, samples, [SignConfig(k=1)], batch_size=2)

    def test_mixed_shapes_in_one_batch_name_the_sample_range(self):
        model = build_model(mlp_meta(5, [3], 2), 0)
        samples = samples_of([np.zeros(5), np.zeros(4)], [0, 1])
        with pytest.raises(ValueError, match=r"samples \[0, 2\): "):
            transform_dataset(model, samples, [SignConfig(k=1)])
        with pytest.raises(ValueError, match=r"samples \[0, 2\): "):
            delta_only_dataset(model, samples, SignConfig(k=1))

    def test_missing_tap(self):
        model = build_model(mlp_meta(5, [3], 2), 0)
        with pytest.raises(ValueError, match=r"samples \[0, 2\): model has no tap 'nope'"):
            transform_dataset(model, samples_of([np.zeros(5)] * 3, [0, 1, 0]),
                              [SignConfig(k=1, tap="nope")], batch_size=2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SignConfig(k=0)
        with pytest.raises(ValueError):
            SignConfig(k=1, gamma=0.0)
        with pytest.raises(ValueError):
            SignConfig(k=1, eval_point="midpoint")
        with pytest.raises(ValueError):
            SignConfig(k=1, normalize="l2")


class TestTransformDataset:
    def make_samples(self, n=5, dim=6, seed=20):
        rng = Rng(seed)
        return samples_of([rng.child(i).normal((dim,)) for i in range(n)],
                          [i % 3 for i in range(n)])

    def test_empty_config_list_unchanged(self):
        model = build_model(mlp_meta(6, [4], 3), 0)
        samples = self.make_samples()
        out = transform_dataset(model, samples, [])
        assert [s.image.data.tobytes() for s in out] == [s.image.data.tobytes() for s in samples]
        assert [s.label for s in out] == [s.label for s in samples]

    def test_two_configs_triple_count_labels_preserved(self):
        model = build_model(mlp_meta(6, [4], 3), 0)
        samples = self.make_samples(n=4)
        cfgs = [SignConfig(k=50, gamma=0.01, normalize="unit-max-abs"),
                SignConfig(k=100, gamma=0.01, normalize="unit-max-abs")]
        out = transform_dataset(model, samples, cfgs)
        assert len(out) == 3 * len(samples)
        for i, s in enumerate(out):
            assert s.label == samples[i % len(samples)].label

    def test_bit_identical_reruns(self):
        model = build_model(mlp_meta(6, [4], 3), 0)
        samples = self.make_samples(n=7)
        cfgs = [SignConfig(k=3, gamma=0.1)]
        a = transform_dataset(model, samples, cfgs)
        b = transform_dataset(model, samples, cfgs)
        assert all(np.array_equal(x.image.data, y.image.data) for x, y in zip(a, b))

    def test_matches_single_sample_transform(self):
        model = build_model(mlp_meta(6, [4], 3), 0)
        samples = self.make_samples(n=3)
        cfg = SignConfig(k=2, gamma=0.5)
        out = transform_dataset(model, samples, [cfg], batch_size=2)
        singles = transform_dataset(model, samples, [cfg], batch_size=1)
        for i in range(len(samples)):
            np.testing.assert_allclose(out[len(samples) + i].image.data,
                                       singles[len(samples) + i].image.data, atol=1e-9, rtol=0)

    def test_provenance_recorded(self):
        model = build_model(mlp_meta(6, [4], 3), 0)
        out = transform_dataset(model, self.make_samples(n=2),
                                [SignConfig(k=5, gamma=0.25, tap="pre-logits",
                                            eval_point="original-point")])
        prov = out[-1].provenance
        assert prov["k"] == 5 and prov["gamma"] == 0.25
        assert prov["tap"] == "pre-logits" and prov["eval_point"] == "original-point"
        assert len(prov["source_model"]) == 64  # sha-256 hex

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_error_carries_sample_range(self):
        model = linear_model(np.full((6, 2), 1e308))
        with pytest.raises(NonFiniteDeltaError, match=r"samples \[0, 2\)"):
            transform_dataset(model, self.make_samples(n=2),
                              [SignConfig(k=1, tap="logits")])

    def test_threaded_matches_sequential(self):
        model = build_model(mlp_meta(6, [4], 3), 0)
        samples = self.make_samples(n=9)
        cfgs = [SignConfig(k=2, gamma=0.3)]
        seq = transform_dataset(model, samples, cfgs, batch_size=2, threads=1)
        par = transform_dataset(model, samples, cfgs, batch_size=2, threads=3)
        assert all(np.array_equal(x.image.data, y.image.data) for x, y in zip(seq, par))


class TestSharedTrajectories:
    """Configs that differ only in k share one trajectory; the original
    point's delta is computed once. Guarded by counting Jacobian calls,
    which, unlike timings, do not vary with the machine's load."""

    def make_samples(self, n=5, dim=6):
        rng = Rng(24)
        return samples_of([rng.child(i).normal((dim,)) for i in range(n)], [0, 1, 2, 0, 1][:n])

    @pytest.mark.parametrize("cfgs, per_batch", [
        ([SignConfig(k=2), SignConfig(k=4)], 4),
        ([SignConfig(k=3), SignConfig(k=3)], 3),
        ([SignConfig(k=2, tap="pre-logits"), SignConfig(k=2, tap="logits")], 4),
        ([SignConfig(k=5, eval_point="original-point")], 1),
    ], ids=["k-2-4", "k-3-3", "two-taps", "original-point"])
    def test_jacobian_calls_per_batch(self, monkeypatch, cfgs, per_batch):
        calls = []

        def counting(tape, node):
            calls.append(node)
            return summed_jacobian(tape, node)

        monkeypatch.setattr(autodiff, "summed_jacobian", counting)
        model = build_model(mlp_meta(6, [4], 3), 0)
        out = transform_dataset(model, self.make_samples(n=5), cfgs, batch_size=3)
        assert len(out) == 5 * (1 + len(cfgs))
        assert len(calls) == 2 * per_batch  # two batches: 3 + 2 samples

    def test_shared_matches_separate_runs_bitwise(self):
        model = build_model(mlp_meta(6, [4], 3), 0)
        samples = self.make_samples()
        cfgs = [SignConfig(k=4, gamma=0.3), SignConfig(k=2, gamma=0.3, tap="logits"),
                SignConfig(k=1, gamma=0.3), SignConfig(k=4, gamma=0.3),
                SignConfig(k=3, gamma=0.3, tap="logits"), SignConfig(k=2, gamma=0.5)]
        shared = transform_dataset(model, samples, cfgs, batch_size=2)
        separate = list(samples)
        for cfg in cfgs:
            separate += transform_dataset(model, samples, [cfg], batch_size=2)[len(samples):]
        assert len(shared) == len(separate)
        for a, b in zip(shared, separate):
            assert np.array_equal(a.image.data, b.image.data)
            assert a.provenance == b.provenance and a.label == b.label

    def test_original_point_matches_per_step_jacobians_bitwise(self):
        rng = Rng(25)
        model = build_model(mlp_meta(6, [4], 2), rng.seed)
        p = rng.child("p").normal((6,))
        cfg = SignConfig(k=4, gamma=0.3, eval_point="original-point", normalize="unit-max-abs")
        [(transformed, accumulated)], got_norms = sign._transform_batch(model, p[None], cfg,
                                                                        (cfg.k,))
        cur, total, norms = p[None], np.zeros((1, 6)), []
        for _ in range(cfg.k):
            tape = model.forward(Tensor(p[None]))
            delta = summed_jacobian(tape, tape.taps["pre-logits"]).data
            delta = delta / np.abs(delta).max()
            norms.append(float(np.sqrt((delta ** 2).sum())))
            cur, total = cur + cfg.gamma * delta, total + cfg.gamma * delta
        assert np.array_equal(transformed, cur)
        assert np.array_equal(accumulated, total)
        assert tuple(got_norms[:, 0]) == tuple(norms)

    def test_basic_cnn_threads_byte_identical(self):
        model = build_model(cnn_meta((1, 8, 8), 3), 0)
        rng = Rng(26)
        samples = samples_of([rng.child(i).normal((1, 8, 8)) for i in range(5)], [0, 1, 2, 0, 1])
        cfgs = [SignConfig(k=1, gamma=0.2), SignConfig(k=2, gamma=0.2)]
        seq = transform_dataset(model, samples, cfgs, batch_size=2, threads=1)
        par = transform_dataset(model, samples, cfgs, batch_size=2, threads=2)
        assert [s.image.data.tobytes() for s in seq] == [s.image.data.tobytes() for s in par]


class TestDeltaOnly:
    def test_linear_model_constant_deltas(self):
        w = Rng(21).normal((6, 3))
        model = linear_model(w)
        rng = Rng(22)
        samples = samples_of([rng.child(i).normal((6,)) for i in range(4)], [0, 1, 2, 0])
        out = delta_only_dataset(model, samples, SignConfig(k=7, tap="logits"))
        expected = 7 * w.sum(axis=1)
        for s in out:
            np.testing.assert_allclose(s.image.data, expected, atol=1e-9, rtol=0)
        assert [s.label for s in out] == [0, 1, 2, 0]

    def test_identity_model_all_ones(self):
        model = identity_model(5)
        samples = samples_of([Rng(23).child(i).normal((5,)) for i in range(3)], [0, 1, 0])
        out = delta_only_dataset(model, samples, SignConfig(k=1))
        for s in out:
            assert s.image.data.tolist() == [1.0] * 5
