"""Architecture contracts: layer stacks, taps, initialization, checkpoints."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cnn_meta, const, forward, mlp_meta, rewrite_header

from signreg.autodiff import vjp
from signreg.nn import (CHECKPOINT_VERSION, PREDICT_BATCH, Dense, Flatten, Model, build_model,
                        load_checkpoint, params_checksum, predict, save_checkpoint)
from signreg.tensor import Rng, ShapeError, read_framed


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
        model = build_model(cnn_meta((3, 32, 32), 10), 0)
        x = Rng(1).normal((2, 3, 32, 32))
        assert model.forward(x).output.shape == (2, 10)

    def test_first_conv_param_count(self):
        model = build_model(cnn_meta((3, 32, 32), 10), 0)
        count = model.params["conv1.w"].size + model.params["conv1.b"].size
        assert count == 3 * 3 * 3 * 32 + 32 == 896

    def test_pool_arithmetic_limits(self):
        build_model(cnn_meta((1, 8, 8), 2), 0)
        with pytest.raises(ShapeError):
            build_model(cnn_meta((1, 4, 4), 2), 0)

    def test_taps_present(self):
        model = build_model(cnn_meta((1, 8, 8), 3), 0)
        tape = model.forward(Rng(1).normal((1, 1, 8, 8)))
        assert tape.taps["pre-logits"].shape == (1, 512)
        assert tape.taps["logits"].shape == (1, 3)

    def test_pre_logits_feeds_classifier_directly(self):
        model = build_model(cnn_meta((1, 8, 8), 3), 0)
        tape = model.forward(Rng(1).normal((1, 1, 8, 8)))
        matmul_node = tape.taps["logits"].parents[0]
        assert matmul_node.op == "matmul"
        assert matmul_node.parents[0] is tape.taps["pre-logits"]

    def test_forward_deterministic_without_dropout(self):
        model = build_model(cnn_meta((1, 8, 8), 3, drop_prob=0.3), 0)
        x = Rng(1).normal((2, 1, 8, 8))
        a = model.forward(x).output.value.data
        b = model.forward(x).output.value.data
        assert np.array_equal(a, b)

    def test_dropout_active_only_in_train_mode(self):
        model = build_model(cnn_meta((1, 8, 8), 3, drop_prob=0.5), 0)
        x = Rng(1).normal((2, 1, 8, 8))
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
            _, tape = forward(lambda t, n: t.conv2d(n, const(t, w)), x)
            np.testing.assert_allclose(tape.output.value.data, naive_conv2d_same(x, w),
                                       atol=1e-10, rtol=0)

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "B{}-C{}-O{}-{}x{}-k{}".format(*c))
    def test_forward_and_vjps_against_six_loop_oracle(self, case):
        b, c, o, h, wd, k = case
        rng = Rng(10).child(*case)
        x = rng.child("x").normal((b, c, h, wd))
        w = rng.child("w").normal((o, c, k, k))
        g = rng.child("g").normal((b, o, h, wd))
        out, x_tape = forward(lambda t, n: t.conv2d(n, const(t, w)), x)
        _, w_tape = forward(lambda t, n: t.conv2d(const(t, x), n), w)
        dx = vjp(x_tape, x_tape.output, g)
        dw = vjp(w_tape, w_tape.output, g)
        np.testing.assert_allclose(out, naive_conv2d_same(x, w), atol=CONV_TOL, rtol=0)
        np.testing.assert_allclose(dx, naive_vjp(lambda e: naive_conv2d_same(e, w), x, g),
                                   atol=CONV_TOL, rtol=0)
        np.testing.assert_allclose(dw, naive_vjp(lambda e: naive_conv2d_same(x, e), w, g),
                                   atol=CONV_TOL, rtol=0)
        # adjoint identity: <conv(x, w), g> = <x, vjp_x(g)> = <w, vjp_w(g)>
        pairing = (out * g).sum()
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
        out, tape = forward(lambda t, n: t.conv2d(n, const(t, w)), x)
        dx = vjp(tape, tape.output, g)
        scale = np.abs(out * g).sum() + np.abs(x * dx).sum()
        assert abs((out * g).sum() - (x * dx).sum()) <= ADJOINT_RTOL * scale


class TestSmallMlp:
    def test_weight_shapes(self):
        model = build_model(mlp_meta(4, [8], 3), 0)
        assert model.params["fc1.w"].shape == (4, 8)
        assert model.params["out.w"].shape == (8, 3)

    def test_zero_input_zero_bias_logits_equal(self):
        model = build_model(mlp_meta(4, [8], 3), 0)
        logits = model.forward(np.zeros((1, 4))).output.value.data
        assert np.all(logits == logits[0, 0])

    def test_build_determinism(self):
        x = Rng(5).normal((2, 6))
        a = build_model(mlp_meta(6, [10, 4], 3), 7).forward(x).output.value.data
        b = build_model(mlp_meta(6, [10, 4], 3), 7).forward(x).output.value.data
        assert np.array_equal(a, b)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError):
            build_model(mlp_meta(4, [], 3))

    def test_image_shaped_input(self):
        model = build_model(mlp_meta((3, 2, 2), [5], 2), 0)
        out = model.forward(Rng(1).normal((4, 3, 2, 2))).output
        assert out.shape == (4, 2)


class TestUncertaintyHead:
    def test_branch_shapes(self):
        model = build_model(cnn_meta((1, 8, 8), 10, uncertainty_head=True), 0)
        tape = model.forward(Rng(2).normal((2, 1, 8, 8)))
        assert tape.output.shape == (2, 10)
        assert tape.taps["sigma"].shape == (2, 10)

    def test_sigma_strictly_positive(self):
        model = build_model(mlp_meta(5, [7], 4, uncertainty_head=True), 0)
        for trial in range(5):
            tape = model.forward(Rng(trial + 2).normal((8, 5)))
            assert np.all(tape.taps["sigma"].value.data > 0.0)

    def test_large_negative_sigma_branch_degenerates(self):
        # softplus(-large) ~ 0+: the noisy classifier collapses to softmax(f)
        model = build_model(mlp_meta(5, [7], 4, uncertainty_head=True), 0)
        params = dict(model.params)
        params["head.s.w"] = np.zeros(params["head.s.w"].shape)
        params["head.s.b"] = np.full(params["head.s.b"].shape, -40.0)
        model.set_params(params)
        tape = model.forward(Rng(2).normal((3, 5)))
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


class TestPredict:
    def test_head_matches_mean_softmax_oracle(self):
        # two batches, so each batch's draws must come from its own stream
        model = build_model(mlp_meta(5, [7], 4, uncertainty_head=True), 0)
        params = dict(model.params)
        params["head.s.b"] = np.full(4, 1.5)  # noise wide enough to matter
        model.set_params(params)
        x = Rng(2).normal((PREDICT_BATCH + 44, 5))
        rng = Rng(3)
        logp, mean_sigma = predict(model, list(x), 9, rng)
        tape = model.forward(x)
        f, sigma = tape.output.value.data, tape.taps["sigma"].value.data
        expected = []
        for start in (0, PREDICT_BATCH):
            rows = slice(start, start + PREDICT_BATCH)
            eps = rng.child("eps", start).normal((9,) + f[rows].shape)
            e = np.exp(f[rows] + sigma[rows] * eps)
            expected.append((e / e.sum(axis=2, keepdims=True)).mean(axis=0))
        assert np.abs(np.exp(logp) - np.concatenate(expected)).max() <= 1e-12
        assert np.abs(mean_sigma - sigma.mean(axis=1)).max() <= 1e-12

    def test_non_finite_row_raises(self):
        # float32 weights of 1e30 overflow on the finite second sample; argmax
        # of its NaN row would pick class 0
        model = build_model(mlp_meta(2, [2], 2), 0)
        model.set_params({name: np.full(p.shape, 1e30 if name.endswith(".w") else 0.0, np.float32)
                          for name, p in model.params.items()})
        x = np.array([[0.0, 0.0], [1e10, 1e10]])
        assert np.isfinite(model.forward(x[:1]).output.value.data).all()
        with pytest.raises(ArithmeticError, match="sample 1 has a non-finite predictive"):
            predict(model, x, 1, Rng(0))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = build_model(mlp_meta(6, [9], 3, uncertainty_head=True), 3)
        path = str(tmp_path / "model.bin")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
        assert loaded.meta == model.meta
        assert params_checksum(loaded.params) == params_checksum(model.params)

    def test_roundtripped_model_same_outputs(self, tmp_path):
        model = build_model(cnn_meta((1, 8, 8), 3), 5)
        path = str(tmp_path / "cnn.bin")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = Rng(6).normal((2, 1, 8, 8))
        assert np.array_equal(model.forward(x).output.value.data,
                              loaded.forward(x).output.value.data)

    def test_float32_roundtrip_bitwise(self, tmp_path):
        model = build_model(cnn_meta((1, 8, 8), 3), 5)
        path = str(tmp_path / "cnn.bin")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert model.dtype == loaded.dtype == np.float32
        for name, t in model.params.items():
            assert loaded.params[name].dtype == np.float32
            assert loaded.params[name].tobytes() == t.tobytes()
        header, _ = read_framed(path, CHECKPOINT_VERSION, {"tensors": dict})
        assert {rec["dtype"] for rec in header["tensors"].values()} == {"<f4"}

    def test_record_without_dtype_loads_as_float64(self, tmp_path):
        # a float64 BasicCNN in a checkpoint written before records carried a dtype
        model = build_model(cnn_meta((1, 8, 8), 3), 5)
        model.set_params({name: t.astype(np.float64) for name, t in model.params.items()})
        path = str(tmp_path / "old.bin")
        save_checkpoint(model, path)
        rewrite_header(path, lambda h: [rec.pop("dtype") for rec in h["tensors"].values()])
        loaded = load_checkpoint(path)
        assert loaded.dtype == np.float64
        assert params_checksum(loaded.params) == params_checksum(model.params)
        x = Rng(6).normal((2, 1, 8, 8))
        out = loaded.forward(x).output.value.data
        assert out.dtype == np.float64
        assert out.tobytes() == model.forward(x).output.value.data.tobytes()

    @pytest.mark.parametrize("dtype, message", [
        ("<i8", "tensor fc2.b field dtype '<i8' is not <f4 or <f8"),
        # fc2.b's 12 bytes are 3 float32 entries, not 3 float64 ones
        ("<f8", "tensor fc2.b nbytes 12 does not fit shape [3] of <f8")])
    def test_record_dtype_checked(self, tmp_path, dtype, message):
        path = str(tmp_path / "cnn.bin")
        save_checkpoint(build_model(cnn_meta((1, 8, 8), 3), 5), path)
        rewrite_header(path, lambda h: h["tensors"]["fc2.b"].update(dtype=dtype))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model = build_model(cnn_meta((1, 8, 8), 3, uncertainty_head=True), 5)
        path = str(tmp_path / "cnn.bin")
        save_checkpoint(model, path)

        def drawn(rng):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(Rng, "_generator", drawn)
        loaded = load_checkpoint(path)
        assert params_checksum(loaded.params) == params_checksum(model.params)
        assert loaded.meta == model.meta

    def test_version_field(self, tmp_path):
        import json
        import struct
        model = build_model(mlp_meta(3, [2], 2), 0)
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

    @pytest.mark.parametrize("meta", [mlp_meta((1, 3, 4), [5], 2), cnn_meta((1, 8, 8), 2)],
                             ids=["small_mlp", "basic_cnn"])
    def test_meta_record_is_completed(self, meta):
        # the record a checkpoint stores: SmallMLP's input_dim and BasicCNN's
        # drop_prob filled in, a given input_dim kept when it fits the shape
        model = build_model(meta, 1)
        filled = {"small_mlp": {"input_dim": 12}, "basic_cnn": {"drop_prob": 0.3}}
        assert model.meta == dict(meta, **filled[meta["arch"]])
        assert build_model(model.meta, 1).meta == model.meta

    def test_build_model_rejects_unknown_arch(self):
        with pytest.raises(ValueError):
            build_model({"arch": "resnet"})


class TestModelContracts:
    def test_input_shape_validated(self):
        model = build_model(mlp_meta(4, [3], 2), 0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 5)))

    def test_set_params_rejects_mixed_dtypes(self):
        model = build_model(mlp_meta(4, [3], 2), 0)
        params = dict(model.params, **{"out.w": model.params["out.w"].astype(np.float32)})
        with pytest.raises(ValueError, match=re.escape(
                "param out.w: dtype float32 differs from param fc1.w's float64")):
            model.set_params(params)

    def test_model_without_parameters_computes_in_float64(self):
        model = Model([Flatten()], {}, {"logits": 0}, (3,), 3, {"arch": "small_mlp"})
        model.set_params({})
        out = model.forward(np.ones((2, 3), np.float32)).output
        assert out.value.data.dtype == np.float64

    def test_cast_that_overflows_is_rejected(self):
        # finite in float64, past float32's range: the cast would make it inf
        model = build_model(cnn_meta((1, 8, 8), 3), 0)
        x = np.zeros((2, 1, 8, 8))
        x[1, 0, 3, 4] = 1e39
        with pytest.raises(ArithmeticError, match=re.escape(
                "input batch: its cast to float32 leaves a non-finite value (float32 holds "
                "magnitudes up to 3.403e+38)")):
            model.forward(x)

    def test_set_params_name_mismatch(self):
        model = build_model(mlp_meta(4, [3], 2), 0)
        with pytest.raises(ValueError):
            model.set_params({"nope": np.array([1.0])})

    def test_final_layer_is_dense_classifier(self):
        model = build_model(mlp_meta(4, [3], 2), 0)
        assert isinstance(model.layers[-1], Dense)
        assert model.params["out.w"].shape == (3, 2)


PIN_CNN = {"arch": "basic_cnn", "input_shape": [1, 12, 12], "num_classes": 3}
PIN_MLP = {"arch": "small_mlp", "input_dim": 144, "hidden_dims": [64, 32], "num_classes": 3,
           "input_shape": [1, 12, 12]}


class TestInitPins:
    """The initialization bits and the checkpoint bytes of each architecture,
    pinned so that a change to how models are assembled cannot move them."""

    @pytest.mark.parametrize("meta, head, seed, digest", [
        (PIN_CNN, False, 0, "9a63df1dc4ebbe304ce38da65c6dda7b2c4d1c6af3914d16f75048d0de911355"),
        (PIN_CNN, False, 7, "8766cd93287f4e3ab057f411b39afb6ca9f42de9dc0b8780e345e9d5f398ed16"),
        (PIN_CNN, True, 0, "696ac6f9ab450b77fa875b58630358aa92b59b0aa06074b98fef2d5ad7e0eb2f"),
        (PIN_CNN, True, 7, "3f2eda339c1b8104edde0f38c63d4452803f5d24c454fec2660a20f896f3c63c"),
        (PIN_MLP, False, 0, "cafb500608d808d25fbab70d1778e7c9996a25208c6336544706e8dbf9baabff"),
        (PIN_MLP, False, 7, "a0897b7425678ed326d336b352a64e8150c2bfcfcff9a7a79158be3fbb938caa"),
        (PIN_MLP, True, 0, "9519ef950a71880636cca226f28f58e36e21afed95e7031098cbd819da73842d"),
        (PIN_MLP, True, 7, "5da31a2c005994a9e1c0ac70be832621bca7536cfb86297b8d29bde4c339ea30")],
        ids=lambda v: v["arch"] if isinstance(v, dict) else str(v)[:8])
    def test_params_checksum(self, meta, head, seed, digest):
        meta = dict(meta, uncertainty_head=True) if head else meta
        assert params_checksum(build_model(meta, seed).params) == digest

    @pytest.mark.parametrize("meta, digest", [
        (PIN_CNN, "27ceb23f2dab61117f3ef18e60da3cc7e897dfd47c01bf50d86ee133589af937"),
        (dict(PIN_MLP, uncertainty_head=True),
         "89a09800343b236be42c6566873087a421ca610a9b59dab0f27bb121489daea8")],
        ids=lambda v: v["arch"] if isinstance(v, dict) else "")
    def test_checkpoint_bytes(self, tmp_path, meta, digest):
        path = tmp_path / "model.bin"
        save_checkpoint(build_model(meta, 3), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
