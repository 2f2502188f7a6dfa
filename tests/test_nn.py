"""Architecture contracts: layer stacks, taps, initialization, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import const, forward

from signreg.autodiff import vjp
from signreg.nn import (CHECKPOINT_VERSION, PREDICT_BATCH, Dense, attach_uncertainty_head,
                        build_basic_cnn, build_model, build_small_mlp,
                        load_checkpoint, params_checksum, predict, save_checkpoint)
from signreg.tensor import Rng, ShapeError, Tensor


def naive_conv2d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Six-loop reference convolution, stride 1, 'same' zero padding."""
    b, c, h, wd = x.shape
    oc, _, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((b, oc, h, wd))
    for bi in range(b):
        for o in range(oc):
            for y in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for ic in range(c):
                        for dy in range(k):
                            for dx in range(k):
                                acc += w[o, ic, dy, dx] * xp[bi, ic, y + dy, xx + dx]
                    out[bi, o, y, xx] = acc
    return out


class TestBasicCnn:
    def test_logits_shape_cifar_setting(self):
        model = build_basic_cnn((3, 32, 32), 10, rng=Rng(0))
        x = Tensor(Rng(1).normal((2, 3, 32, 32)))
        assert model.forward(x).output.shape == (2, 10)

    def test_first_conv_param_count(self):
        model = build_basic_cnn((3, 32, 32), 10, rng=Rng(0))
        count = model.params["conv1.w"].size + model.params["conv1.b"].size
        assert count == 3 * 3 * 3 * 32 + 32 == 896

    def test_pool_arithmetic_limits(self):
        build_basic_cnn((1, 8, 8), 2, rng=Rng(0))
        with pytest.raises(ShapeError):
            build_basic_cnn((1, 4, 4), 2, rng=Rng(0))

    def test_taps_present(self):
        model = build_basic_cnn((1, 8, 8), 3, rng=Rng(0))
        tape = model.forward(Tensor(Rng(1).normal((1, 1, 8, 8))))
        assert tape.taps["pre-logits"].shape == (1, 512)
        assert tape.taps["logits"].shape == (1, 3)

    def test_pre_logits_feeds_classifier_directly(self):
        model = build_basic_cnn((1, 8, 8), 3, rng=Rng(0))
        tape = model.forward(Tensor(Rng(1).normal((1, 1, 8, 8))))
        matmul_node = tape.taps["logits"].parents[0]
        assert matmul_node.op == "matmul"
        assert matmul_node.parents[0] is tape.taps["pre-logits"]

    def test_forward_deterministic_without_dropout(self):
        model = build_basic_cnn((1, 8, 8), 3, drop_prob=0.3, rng=Rng(0))
        x = Tensor(Rng(1).normal((2, 1, 8, 8)))
        a = model.forward(x).output.value.data
        b = model.forward(x).output.value.data
        assert np.array_equal(a, b)

    def test_dropout_active_only_in_train_mode(self):
        model = build_basic_cnn((1, 8, 8), 3, drop_prob=0.5, rng=Rng(0))
        x = Tensor(Rng(1).normal((2, 1, 8, 8)))
        eval_out = model.forward(x).output.value.data
        train_out = model.forward(x, train=True, rng=Rng(2)).output.value.data
        assert not np.array_equal(eval_out, train_out)


def naive_vjp(fn, at: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The VJP of a linear map ``fn`` at cotangent ``g``, one basis vector
    at a time: element i is <fn(e_i), g>."""
    out = np.zeros(at.shape)
    for i in range(at.size):
        basis = np.zeros(at.size)
        basis[i] = 1.0
        out.flat[i] = (fn(basis.reshape(at.shape)) * g).sum()
    return out


# (B, C, O, H, W, k): C < O, C == O and C > O (the two input-VJP layouts
# and their boundary) at each k = 1, 3, 5; H != W; an image smaller than
# the kernel; B > 1
CONV_CASES = [(2, 3, 2, 3, 4, 1), (2, 1, 3, 4, 5, 3), (2, 3, 2, 5, 3, 3),
              (2, 2, 2, 3, 5, 5), (3, 1, 2, 1, 2, 5), (2, 1, 3, 3, 4, 1),
              (1, 2, 2, 4, 3, 1), (2, 2, 2, 3, 4, 3), (2, 3, 2, 4, 3, 5)]
CONV_TOL = 1e-10
ADJOINT_RTOL = 1e-12


class TestConvKernel:
    def test_against_six_loop_oracle(self):
        rng = Rng(9)
        for trial in range(3):
            x = rng.child(trial, "x").normal((2, 1, 4, 5))
            w = rng.child(trial, "w").normal((3, 1, 3, 3))
            _, tape = forward(lambda t, n: t.conv2d(n, const(t, Tensor(w))), Tensor(x))
            np.testing.assert_allclose(tape.output.value.data, naive_conv2d_same(x, w),
                                       atol=1e-10, rtol=0)

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "B{}-C{}-O{}-{}x{}-k{}".format(*c))
    def test_forward_and_vjps_against_six_loop_oracle(self, case):
        b, c, o, h, wd, k = case
        rng = Rng(10).child(*case)
        x = rng.child("x").normal((b, c, h, wd))
        w = rng.child("w").normal((o, c, k, k))
        g = rng.child("g").normal((b, o, h, wd))
        out, x_tape = forward(lambda t, n: t.conv2d(n, const(t, Tensor(w))), Tensor(x))
        _, w_tape = forward(lambda t, n: t.conv2d(const(t, Tensor(x)), n), Tensor(w))
        dx = vjp(x_tape, x_tape.output, Tensor(g)).data
        dw = vjp(w_tape, w_tape.output, Tensor(g)).data
        np.testing.assert_allclose(out.data, naive_conv2d_same(x, w), atol=CONV_TOL, rtol=0)
        np.testing.assert_allclose(dx, naive_vjp(lambda e: naive_conv2d_same(e, w), x, g),
                                   atol=CONV_TOL, rtol=0)
        np.testing.assert_allclose(dw, naive_vjp(lambda e: naive_conv2d_same(x, e), w, g),
                                   atol=CONV_TOL, rtol=0)
        # adjoint identity: <conv(x, w), g> = <x, vjp_x(g)> = <w, vjp_w(g)>
        pairing = (out.data * g).sum()
        assert abs((x * dx).sum() - pairing) <= CONV_TOL
        assert abs((w * dw).sum() - pairing) <= CONV_TOL

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 7),
           st.integers(1, 7), st.sampled_from([1, 3, 5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_input_vjp_is_the_adjoint(self, b, c, o, h, wd, k, seed):
        # <conv(x), g> == <x, vjp_x(g)>, to rounding relative to the terms' size
        rng = Rng(seed)
        x = rng.child("x").normal((b, c, h, wd))
        w = rng.child("w").normal((o, c, k, k))
        g = rng.child("g").normal((b, o, h, wd))
        out, tape = forward(lambda t, n: t.conv2d(n, const(t, Tensor(w))), Tensor(x))
        dx = vjp(tape, tape.output, Tensor(g)).data
        scale = np.abs(out.data * g).sum() + np.abs(x * dx).sum()
        assert abs((out.data * g).sum() - (x * dx).sum()) <= ADJOINT_RTOL * scale


class TestSmallMlp:
    def test_weight_shapes(self):
        model = build_small_mlp(4, [8], 3, rng=Rng(0))
        assert model.params["fc1.w"].shape == (4, 8)
        assert model.params["out.w"].shape == (8, 3)

    def test_zero_input_zero_bias_logits_equal(self):
        model = build_small_mlp(4, [8], 3, rng=Rng(0))
        logits = model.forward(Tensor(np.zeros((1, 4)))).output.value.data
        assert np.all(logits == logits[0, 0])

    def test_build_determinism(self):
        x = Tensor(Rng(5).normal((2, 6)))
        a = build_small_mlp(6, [10, 4], 3, rng=Rng(7)).forward(x).output.value.data
        b = build_small_mlp(6, [10, 4], 3, rng=Rng(7)).forward(x).output.value.data
        assert np.array_equal(a, b)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError):
            build_small_mlp(4, [], 3)

    def test_image_shaped_input(self):
        model = build_small_mlp(12, [5], 2, rng=Rng(0), input_shape=(3, 2, 2))
        out = model.forward(Tensor(Rng(1).normal((4, 3, 2, 2)))).output
        assert out.shape == (4, 2)


class TestUncertaintyHead:
    def test_branch_shapes(self):
        model = attach_uncertainty_head(build_basic_cnn((1, 8, 8), 10, rng=Rng(0)), rng=Rng(1))
        tape = model.forward(Tensor(Rng(2).normal((2, 1, 8, 8))))
        assert tape.output.shape == (2, 10)
        assert tape.taps["sigma"].shape == (2, 10)

    def test_sigma_strictly_positive(self):
        model = attach_uncertainty_head(build_small_mlp(5, [7], 4, rng=Rng(0)), rng=Rng(1))
        for trial in range(5):
            tape = model.forward(Tensor(Rng(trial + 2).normal((8, 5))))
            assert np.all(tape.taps["sigma"].value.data > 0.0)

    def test_large_negative_sigma_branch_degenerates(self):
        # softplus(-large) ~ 0+: the noisy classifier collapses to softmax(f)
        model = attach_uncertainty_head(build_small_mlp(5, [7], 4, rng=Rng(0)), rng=Rng(1))
        params = dict(model.params)
        params["head.s.w"] = Tensor(np.zeros(params["head.s.w"].shape))
        params["head.s.b"] = Tensor(np.full(params["head.s.b"].shape, -40.0))
        model.set_params(params)
        tape = model.forward(Tensor(Rng(2).normal((3, 5))))
        sigma = tape.taps["sigma"].value.data
        assert np.all(sigma > 0.0) and np.all(sigma < 1e-15)
        f = tape.output.value.data
        eps = Rng(3).normal((20,) + f.shape)
        noisy = f[None] + sigma[None] * eps
        plain = np.exp(f - f.max(1, keepdims=True))
        plain /= plain.sum(1, keepdims=True)
        noisy_sm = np.exp(noisy - noisy.max(2, keepdims=True))
        noisy_sm /= noisy_sm.sum(2, keepdims=True)
        np.testing.assert_allclose(noisy_sm.mean(axis=0), plain, atol=1e-9, rtol=0)

    def test_requires_pre_logits_tap(self):
        model = build_small_mlp(5, [7], 4, rng=Rng(0))
        model.taps.pop("pre-logits")
        with pytest.raises(ValueError):
            attach_uncertainty_head(model)

    def test_replaces_only_a_dense_classifier(self):
        model = attach_uncertainty_head(build_small_mlp(5, [7], 4, rng=Rng(0)))
        with pytest.raises(ValueError, match="not a dense classifier"):
            attach_uncertainty_head(model)


class TestPredict:
    def test_head_matches_mean_softmax_oracle(self):
        # two batches, so each batch's draws must come from its own stream
        model = attach_uncertainty_head(build_small_mlp(5, [7], 4, rng=Rng(0)), rng=Rng(1))
        params = dict(model.params)
        params["head.s.b"] = Tensor(np.full(4, 1.5))  # noise wide enough to matter
        model.set_params(params)
        x = Rng(2).normal((PREDICT_BATCH + 44, 5))
        rng = Rng(3)
        logp, mean_sigma = predict(model, list(x), 9, rng)
        tape = model.forward(Tensor(x))
        f, sigma = tape.output.value.data, tape.taps["sigma"].value.data
        expected = []
        for start in (0, PREDICT_BATCH):
            rows = slice(start, start + PREDICT_BATCH)
            eps = rng.child("eps", start).normal((9,) + f[rows].shape)
            e = np.exp(f[rows] + sigma[rows] * eps)
            expected.append((e / e.sum(axis=2, keepdims=True)).mean(axis=0))
        assert np.abs(np.exp(logp) - np.concatenate(expected)).max() <= 1e-12
        assert np.abs(mean_sigma - sigma.mean(axis=1)).max() <= 1e-12


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = attach_uncertainty_head(build_small_mlp(6, [9], 3, rng=Rng(3)), rng=Rng(4))
        path = str(tmp_path / "model.bin")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name].data, model.params[name].data)
        assert loaded.meta == model.meta
        assert params_checksum(loaded.params) == params_checksum(model.params)

    def test_roundtripped_model_same_outputs(self, tmp_path):
        model = build_basic_cnn((1, 8, 8), 3, rng=Rng(5))
        path = str(tmp_path / "cnn.bin")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = Tensor(Rng(6).normal((2, 1, 8, 8)))
        assert np.array_equal(model.forward(x).output.value.data,
                              loaded.forward(x).output.value.data)

    def test_version_field(self, tmp_path):
        import json
        import struct
        model = build_small_mlp(3, [2], 2, rng=Rng(0))
        path = str(tmp_path / "m.bin")
        save_checkpoint(model, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8:8 + hlen])
        assert header["version"] == CHECKPOINT_VERSION == "signreg-ckpt-1"
        assert all("shape" in rec and "offset" in rec for rec in header["tensors"].values())

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 4)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_build_model_rejects_unknown_arch(self):
        with pytest.raises(ValueError):
            build_model({"arch": "resnet"})


class TestModelContracts:
    def test_input_shape_validated(self):
        model = build_small_mlp(4, [3], 2, rng=Rng(0))
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((1, 5))))

    def test_set_params_name_mismatch(self):
        model = build_small_mlp(4, [3], 2, rng=Rng(0))
        with pytest.raises(ValueError):
            model.set_params({"nope": Tensor([1.0])})

    def test_final_layer_is_dense_classifier(self):
        model = build_small_mlp(4, [3], 2, rng=Rng(0))
        assert isinstance(model.layers[-1], Dense)
        assert model.layers[-1].out_dim == 2
