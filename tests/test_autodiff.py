"""Gradient checks: every primitive against central finite differences,
plus the structural vjp/summed-jacobian/param-gradient contracts."""

import re

import numpy as np
import pytest
from gradcheck import away_from_kinks, central_fd, check_input_grad, rel_err
from oracles import cnn_meta, const, forward, mlp_meta

from signreg import autodiff, training
from signreg.autodiff import param_gradients, summed_jacobian, vjp
from signreg.nn import build_model
from signreg.tensor import Rng, ShapeError


def argmax_maxpool2(x: np.ndarray, g: np.ndarray):
    """Reference 2x2 max pooling through ``argmax`` over each window laid
    out in row-major order: (output, input gradient for cotangent ``g``).
    argmax takes the first maximum, and the first NaN over any number."""
    b, c, h, w = x.shape
    win = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(b, c, h // 2, w // 2, 4)
    arg = win.argmax(axis=-1)[..., None]
    gw = np.zeros(win.shape)
    np.put_along_axis(gw, arg, g[..., None], axis=-1)
    grad = gw.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
    return np.take_along_axis(win, arg, axis=-1)[..., 0], grad


class TestForward:
    def test_identity_single_node(self):
        x = np.array([1.0, -2.0, 3.0])
        out, tape = forward(lambda t, n: n, x)
        assert np.array_equal(out, x)
        assert len(tape.nodes) == 1
        assert tape.output is tape.input

    def test_relu_definition(self):
        out, _ = forward(lambda t, n: t.relu(n), np.array([-1.0, 2.0]))
        assert out.tolist() == [0.0, 2.0]

    def test_two_layer_mlp_matches_eager(self):
        rng = Rng(3)
        w1, b1 = rng.child("w1").normal((4, 6)), rng.child("b1").normal((6,))
        w2, b2 = rng.child("w2").normal((6, 2)), rng.child("b2").normal((2,))
        x = rng.child("x").normal((3, 4))

        def build(t, n):
            h = t.relu(t.bias_add(t.matmul(n, const(t, w1)), const(t, b1)))
            return t.bias_add(t.matmul(h, const(t, w2)), const(t, b2))

        out, _ = forward(build, x)
        eager = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        np.testing.assert_allclose(out, eager, atol=1e-12, rtol=0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            forward(lambda t, n: t.matmul(n, const(t, np.zeros((5, 2)))), np.zeros((1, 3)))


class TestVjp:
    def test_identity_jacobian(self):
        x = np.array([1.0, 2.0, 3.0])
        _, tape = forward(lambda t, n: n, x)
        v = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(vjp(tape, tape.output, v), v)

    def test_linear_map_exact(self):
        w = Rng(1).normal((4, 3))
        _, tape = forward(lambda t, n: t.matmul(n, const(t, w)), Rng(2).normal((1, 4)))
        v = Rng(3).normal((1, 3))
        got = vjp(tape, tape.output, v)
        np.testing.assert_array_equal(got, v @ w.T)

    def test_three_layer_net_one_hot_fd(self):
        rng = Rng(17)
        model = build_model(mlp_meta(5, [8, 6], 4), rng.seed)
        x = away_from_kinks(rng.child("x"), (1, 5))
        tape = model.forward(x)
        for j in range(4):
            cot = np.zeros((1, 4))
            cot[0, j] = 1.0
            got = vjp(tape, tape.output, cot)

            def component(xv, j=j):
                return float(model.forward(xv).output.value.data[0, j])

            want = central_fd(component, x)
            assert rel_err(got, want) < 1e-5

    def test_linearity(self):
        rng = Rng(23)
        model = build_model(mlp_meta(6, [9], 3), rng.seed)
        tape = model.forward(rng.child("x").normal((2, 6)))
        u = rng.child("u").normal((2, 3))
        v = rng.child("v").normal((2, 3))
        alpha, beta = 1.7, -0.4
        combo = vjp(tape, tape.output, alpha * u + beta * v)
        parts = alpha * vjp(tape, tape.output, u) + beta * vjp(tape, tape.output, v)
        np.testing.assert_allclose(combo, parts, atol=1e-10, rtol=0)

    def test_cotangent_shape_mismatch(self):
        _, tape = forward(lambda t, n: n, np.array([1.0, 2.0]))
        with pytest.raises(ShapeError):
            vjp(tape, tape.output, np.array([1.0, 2.0, 3.0]))

    def test_node_not_on_tape(self):
        _, tape_a = forward(lambda t, n: t.relu(n), np.array([1.0]))
        _, tape_b = forward(lambda t, n: t.relu(n), np.array([1.0]))
        with pytest.raises(ValueError):
            vjp(tape_a, tape_b.output, np.array([1.0]))

    def test_tape_without_input_rejected(self):
        tape = autodiff.Tape()
        node = tape.relu(const(tape, np.array([1.0])))
        with pytest.raises(ValueError, match="no input leaf"):
            vjp(tape, node, np.array([1.0]))

    def test_node_recorded_before_the_input_is_zero(self):
        tape = autodiff.Tape()
        early = tape.relu(const(tape, np.array([1.0, 2.0])))
        tape.leaf_input(np.ones((2, 3)))
        assert np.array_equal(vjp(tape, early, np.array([1.0, 1.0])), np.zeros((2, 3)))


# case -> (a primitive call on operands of mismatched shapes, text of its error);
# ``leaf(*shape)`` records a constant of ones
SHAPE_ERRORS = {
    "dropout-mask": (lambda t, leaf: t.dropout(leaf(2, 3), np.ones((3, 2))), "dropout: mask"),
    "maxpool-rank": (lambda t, leaf: t.maxpool2(leaf(2, 4, 4)), "maxpool2 expects"),
    "maxpool-odd": (lambda t, leaf: t.maxpool2(leaf(1, 1, 3, 4)), "even spatial dims, got 3x4"),
    "conv-rank": (lambda t, leaf: t.conv2d(leaf(1, 4, 4), leaf(1, 1, 3, 3)), "conv2d expects"),
    "conv-channels": (lambda t, leaf: t.conv2d(leaf(1, 2, 4, 4), leaf(1, 1, 3, 3)),
                      "conv2d: kernel"),
    "conv-even-kernel": (lambda t, leaf: t.conv2d(leaf(1, 1, 4, 4), leaf(1, 1, 2, 2)),
                         "conv2d: kernel"),
    "cross-entropy-labels": (lambda t, leaf: t.cross_entropy(leaf(2, 3), np.ones((2, 4))),
                             "cross_entropy: logits"),
    "nll-sigma": (lambda t, leaf: t.aleatoric_nll(leaf(2, 3), leaf(2, 4), np.ones((2, 3)),
                                                  np.ones((5, 2, 3))), "vs sigma"),
    "nll-labels": (lambda t, leaf: t.aleatoric_nll(leaf(2, 3), leaf(2, 3), np.ones((2, 4)),
                                                   np.ones((5, 2, 3))), "labels (2, 4)"),
    "nll-eps": (lambda t, leaf: t.aleatoric_nll(leaf(2, 3), leaf(2, 3), np.ones((2, 3)),
                                                np.ones((5, 2, 4))), "eps (5, 2, 4)"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_primitive_rejects_mismatched_shapes(case):
    record, message = SHAPE_ERRORS[case]
    tape = autodiff.Tape()
    with pytest.raises(ShapeError, match=re.escape(message)):
        record(tape, lambda *shape: const(tape, np.ones(shape)))


def small_cnn_build(rng: Rng):
    w = rng.child("conv").normal((2, 1, 3, 3))
    wd = rng.child("dense").normal((32, 4))

    def build(t, n):
        h = t.maxpool2(t.relu(t.conv2d(n, const(t, w))))
        flat = t.reshape(h, (h.shape[0], 32))
        return t.matmul(flat, const(t, wd))

    return build


class TestSummedJacobian:
    def test_identity_gives_ones(self):
        _, tape = forward(lambda t, n: n, np.array([3.0, -1.0, 4.0]))
        assert summed_jacobian(tape, tape.output).tolist() == [1.0, 1.0, 1.0]

    def test_linear_map_column_sums(self):
        # Phi(x) = x W: summed Jacobian is W^T . 1, i.e. the row sums of W
        w = Rng(4).normal((5, 3))
        _, tape = forward(lambda t, n: t.matmul(n, const(t, w)), Rng(5).normal((1, 5)))
        got = summed_jacobian(tape, tape.output)
        np.testing.assert_allclose(got, w.sum(axis=1)[None, :], atol=1e-12, rtol=0)

    def test_equals_vjp_with_ones_bitwise(self):
        rng = Rng(6)
        model = build_model(mlp_meta(7, [5], 3), rng.seed)
        tape = model.forward(rng.child("x").normal((2, 7)))
        node = tape.taps["pre-logits"]
        a = summed_jacobian(tape, node)
        b = vjp(tape, node, np.ones(node.shape))
        assert np.array_equal(a, b)

    def test_small_cnn_vs_explicit_jacobian(self):
        # row-by-row Jacobian via one-hot vjps, then row-summed
        rng = Rng(31)
        build = small_cnn_build(rng)
        x = away_from_kinks(rng.child("x"), (1, 1, 8, 8))
        _, tape = forward(build, x)
        out = tape.output
        rows = []
        for j in range(out.shape[1]):
            cot = np.zeros(out.shape)
            cot[0, j] = 1.0
            rows.append(vjp(tape, out, cot).reshape(-1))
        explicit = np.stack(rows).sum(axis=0).reshape(x.shape)
        got = summed_jacobian(tape, out)
        np.testing.assert_allclose(got, explicit, atol=1e-10, rtol=0)


class TestParamGradients:
    def test_constant_loss_zero_grads(self):
        model = build_model(mlp_meta(3, [4], 2), 0)
        tape = model.forward(Rng(1).normal((1, 3)))
        loss = const(tape, np.array([2.5]))
        grads = param_gradients(tape, loss)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_bilinear_form(self):
        # loss = x w, a (1, 1) node => dloss/dw = x^T
        x = Rng(2).normal((1, 5))

        def build(t, n):
            w = t.leaf_param("w", np.full((5, 1), 0.7))
            return t.matmul(n, w)

        _, tape = forward(build, x)
        grads = param_gradients(tape, tape.output)
        np.testing.assert_array_equal(grads["w"], x.T)

    def test_non_scalar_loss_rejected(self):
        model = build_model(mlp_meta(3, [4], 2), 0)
        tape = model.forward(Rng(1).normal((1, 3)))
        with pytest.raises(ShapeError):
            param_gradients(tape, tape.output)

    def test_mlp_cross_entropy_fd(self):
        rng = Rng(44)
        model = build_model(mlp_meta(4, [6], 3), rng.seed)
        x = away_from_kinks(rng.child("x"), (2, 4))
        labels = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

        def loss_of(params: dict) -> float:
            saved = model.params
            model.set_params(params)
            tape = model.forward(x)
            node = tape.cross_entropy(tape.output, labels)
            model.set_params(saved)
            return node.value.data.item()

        tape = model.forward(x)
        loss_node = tape.cross_entropy(tape.output, labels)
        grads = param_gradients(tape, loss_node)
        for name, grad in grads.items():
            base = model.params[name]

            def f(pv, name=name):
                trial = dict(model.params)
                trial[name] = pv
                return loss_of(trial)

            want = central_fd(f, base.copy())
            assert rel_err(grad, want) < 1e-5, name


class TestPrimitiveGradients:
    """Every primitive against central finite differences (eps=1e-5)."""

    def test_matmul_both_args(self):
        rng = Rng(50)
        a = rng.child("a").normal((3, 4))
        b = rng.child("b").normal((4, 2))
        check_input_grad(lambda t, n: t.matmul(n, const(t, b)), a)
        check_input_grad(lambda t, n: t.matmul(const(t, a), n), b)

    def test_bias_add_both_shapes(self):
        rng = Rng(52)
        x2 = rng.child("x2").normal((3, 5))
        b2 = rng.child("b2").normal((5,))
        check_input_grad(lambda t, n: t.bias_add(n, const(t, b2)), x2)
        check_input_grad(lambda t, n: t.bias_add(const(t, x2), n), b2)
        x4 = rng.child("x4").normal((2, 3, 4, 4))
        b4 = rng.child("b4").normal((3,))
        check_input_grad(lambda t, n: t.bias_add(n, const(t, b4)), x4)
        check_input_grad(lambda t, n: t.bias_add(const(t, x4), n), b4)

    def test_relu(self):
        x = away_from_kinks(Rng(53), (3, 4))
        check_input_grad(lambda t, n: t.relu(n), x)

    def test_relu_subgradient_at_zero_is_zero(self):
        _, tape = forward(lambda t, n: t.relu(n), np.array([0.0, 1.0, -1.0]))
        g = vjp(tape, tape.output, np.array([1.0, 1.0, 1.0]))
        assert g.tolist() == [0.0, 1.0, 0.0]

    def test_softplus(self):
        x = Rng(54).normal((2, 5))
        check_input_grad(lambda t, n: t.softplus(n), x)

    def test_reshape(self):
        x = Rng(55).normal((2, 6))
        check_input_grad(lambda t, n: t.reshape(n, (3, 4)), x)

    def test_maxpool(self):
        # keep window entries well separated so fd never crosses an argmax flip
        rng = Rng(56)
        x = rng.normal((1, 2, 4, 4))
        x += np.arange(x.size).reshape(x.shape) * 0.1
        check_input_grad(lambda t, n: t.maxpool2(n), x)

    def test_maxpool_tie_goes_to_first_flat_index(self):
        x = np.zeros((1, 1, 2, 2))  # all equal: a four-way tie
        _, tape = forward(lambda t, n: t.maxpool2(n), x)
        g = vjp(tape, tape.output, np.ones((1, 1, 1, 1)))
        assert g[0, 0, 0, 0] == 1.0 and g.sum() == 1.0

    def test_maxpool_matches_argmax_oracle_bitwise(self):
        # rounding to 0.1 makes many ties, ties of -0.0 and 0.0 among them
        rng = Rng(62)
        for trial, shape in enumerate([(2, 3, 4, 6), (3, 2, 8, 8), (1, 1, 2, 2)]):
            x = np.round(rng.child(trial, "x").normal(shape, sigma=0.1), 1)
            planted = rng.child(trial, "at").uniform(size=shape)
            x[planted < 0.1] = np.nan
            x[planted > 0.9] = -np.inf
            g = rng.child(trial, "g").normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
            # a non-finite cotangent reaches its window's first maximum only,
            # and every other entry of the window gets 0, as in the oracle
            g.flat[::5], g.flat[2::5], g.flat[3::5] = np.inf, np.nan, -np.inf
            _, tape = forward(lambda t, n: t.maxpool2(n), x)
            grad = vjp(tape, tape.output, g)
            want_out, want_grad = argmax_maxpool2(x, g)
            assert tape.output.value.data.tobytes() == want_out.tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    def test_conv2d_both_args(self):
        rng = Rng(57)
        x = rng.child("x").normal((2, 2, 5, 5))
        w = rng.child("w").normal((3, 2, 3, 3))
        check_input_grad(lambda t, n: t.conv2d(n, const(t, w)), x)
        check_input_grad(lambda t, n: t.conv2d(const(t, x), n), w)
        w5 = rng.child("w5").normal((2, 2, 5, 5))
        check_input_grad(lambda t, n: t.conv2d(n, const(t, w5)), x)
        check_input_grad(lambda t, n: t.conv2d(const(t, x), n), w5)
        # with the two above, C = 2 > O, C == O and C < O at each k = 1, 3, 5
        for k, o in [(1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (5, 1), (5, 3)]:
            wk = rng.child("w", k, o).normal((o, 2, k, k))
            check_input_grad(lambda t, n: t.conv2d(n, const(t, wk)), x)
            check_input_grad(lambda t, n: t.conv2d(const(t, x), n), wk)

    def test_conv2d_at_one_sample_per_block(self, monkeypatch):
        rng = Rng(59)
        x = rng.child("x").normal((3, 2, 5, 5))
        monkeypatch.setattr(autodiff, "_BLOCK_BYTES", 8 * 2 * 9 * 25)
        assert len(autodiff._blocks(3, 2 * 9 * 25, 8)) == 3
        for o in (1, 3):  # C >= O and C < O
            w = rng.child("w", o).normal((o, 2, 3, 3))
            check_input_grad(lambda t, n: t.conv2d(n, const(t, w)), x)
            check_input_grad(lambda t, n: t.conv2d(const(t, x), n), w)

    def test_dropout_fixed_mask(self):
        rng = Rng(58)
        x = rng.child("x").normal((3, 4))
        mask = (rng.child("m").uniform(size=(3, 4)) < 0.7) / 0.7
        check_input_grad(lambda t, n: t.dropout(n, mask), x)

    def test_cross_entropy(self):
        rng = Rng(60)
        logits = rng.child("z").normal((3, 4))
        labels = np.eye(4)[[0, 2, 3]]
        check_input_grad(lambda t, n: t.cross_entropy(n, labels), logits)

    def test_aleatoric_nll_f_and_sigma(self):
        rng = Rng(61)
        f = rng.child("f").normal((2, 3))
        sigma = np.abs(rng.child("s").normal((2, 3))) + 0.5
        labels = np.eye(3)[[1, 2]]
        eps = rng.child("e").normal((4, 2, 3))
        check_input_grad(
            lambda t, n: t.aleatoric_nll(n, const(t, sigma), labels, eps), f)
        check_input_grad(
            lambda t, n: t.aleatoric_nll(const(t, f), n, labels, eps), sigma)


def conv2d_paths(x: np.ndarray, w: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
    """conv2d's forward, then its input-VJP, weight-VJP and both-VJP at ``g``,
    in the arrays' dtype."""
    _, tape = forward(lambda t, n: t.conv2d(n, const(t, w)), x)
    node = tape.output
    out = [node.value.data]
    for needed in ((True, False), (False, True), (True, True)):
        out.extend(r for r in node.vjp_fn(g, needed) if r is not None)
    return out


class TestConvBlocks:
    """conv2d builds its columns a block of samples at a time and keeps none."""

    # C < O folds (C = 1 is conv1 on one-channel images); C >= O flips
    @pytest.mark.parametrize("c, o", [(2, 3), (1, 3), (3, 2), (2, 2)])
    def test_any_block_size_is_bitwise_one_block(self, monkeypatch, c, o):
        rng = Rng(63)
        b, h, w, k = 7, 5, 6, 3
        arrays = [rng.child("x").normal((b, c, h, w)), rng.child("w").normal((o, c, k, k)),
                  rng.child("g").normal((b, o, h, w))]
        wholes = {}
        for dtype in (np.float64, np.float32):
            size = np.dtype(dtype).itemsize
            for rows in (c, o):
                assert autodiff._blocks(b, rows * k * k * h * w, size) == [(0, b)]
            wholes[dtype] = conv2d_paths(*(a.astype(dtype) for a in arrays))
            assert len(wholes[dtype]) == 5
        # n samples' worth of the input's columns, then of the cotangent's
        for dtype, whole in wholes.items():
            size = np.dtype(dtype).itemsize
            for rows in (c, o):
                for n in (1, 2, 3):
                    monkeypatch.setattr(autodiff, "_BLOCK_BYTES", n * size * rows * k * k * h * w)
                    blocks = autodiff._blocks(b, rows * k * k * h * w, size)
                    assert [i for s, e in blocks for i in range(s, e)] == list(range(b))
                    assert max(e - s for s, e in blocks) == n
                    got = conv2d_paths(*(a.astype(dtype) for a in arrays))
                    assert [a.dtype for a in got] == [np.dtype(dtype)] * 5
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in whole]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("c, o", [(2, 3), (1, 3), (3, 2)])  # C < O folds; C >= O flips
    def test_any_cotangent_layout_gives_the_same_c_contiguous_vjps(self, c, o, dtype):
        # the pullback hands conv2d whatever layout the layer above returned,
        # and relu and maxpool below never get a strided cotangent from it
        rng = Rng(65)
        b, h, w, k = 3, 5, 6, 3
        x, wk, g = (rng.child(tag).normal(shape).astype(dtype) for tag, shape in
                    (("x", (b, c, h, w)), ("w", (o, c, k, k)), ("g", (b, o, h, w))))
        want = conv2d_paths(x, wk, g)
        shapes = [g.shape, x.shape, wk.shape, x.shape, wk.shape]
        assert [(a.shape, a.flags.c_contiguous) for a in want] == [(s, True) for s in shapes]
        channels_last = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        framed = np.zeros((b, o, h + 2, w + 3), dtype)
        framed[:, :, 1:1 + h, 2:2 + w] = g
        crop = framed[:, :, 1:1 + h, 2:2 + w]
        for view in (channels_last, crop):
            assert not view.flags.c_contiguous and np.array_equal(view, g)
            got = conv2d_paths(x, wk, view)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_closure_holds_no_columns(self):
        rng = Rng(64)
        x = rng.child("x").normal((4, 3, 8, 8))
        w = rng.child("w").normal((5, 3, 3, 3))
        _, tape = forward(lambda t, n: t.conv2d(n, const(t, w)), x)
        node = tape.output
        owners = {}
        for cell in node.vjp_fn.__closure__:
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                owners[id(value)] = value.nbytes
        held = sum(owners.values())
        assert 0 < held <= sum(p.value.data.nbytes for p in node.parents)


class TestLazyPullback:
    def test_vjp_at_const_node_is_zero(self):
        def build(t, n):
            c = const(t, np.array([1.0, 2.0]))
            t.relu(c)  # branch not connected to input
            return t.relu(n)

        x = np.array([3.0, 4.0])
        _, tape = forward(build, x)
        const_branch = tape.nodes[2]
        assert np.all(vjp(tape, const_branch, np.array([1.0, 1.0])) == 0.0)

    def test_param_grads_unreachable_param_zero(self):
        def build(t, n):
            t.leaf_param("unused", np.ones((2, 2)))
            w = t.leaf_param("w", np.ones((3, 1)))
            # the (1, 1) sum of the two rows of n w
            return t.matmul(const(t, np.ones((1, 2))), t.matmul(n, w))

        _, tape = forward(build, Rng(0).normal((2, 3)))
        grads = param_gradients(tape, tape.output)
        assert np.all(grads["unused"] == 0.0)
        assert not np.all(grads["w"] == 0.0)


class TestDtype:
    """A float32 computation stays float32 through every forward value and
    every VJP output, and a float64 one stays float64: labels, noise draws
    and seeds of ones that come as float64 promote nothing."""

    DTYPES = (np.float32, np.float64)

    # primitive -> (tape, leaf, dtype) -> its node; ``leaf(tag, shape)``
    # records a leaf of ``dtype``; labels and noise draws are float64, as
    # the training loop passes them, and the dropout mask takes the
    # activation's dtype, as nn.Dropout draws it
    PRIMITIVES = {
        "matmul": lambda t, leaf, dt: t.matmul(leaf("a", (3, 4)), leaf("b", (4, 2))),
        "bias-add-2d": lambda t, leaf, dt: t.bias_add(leaf("x", (3, 5)), leaf("b", (5,))),
        "bias-add-4d": lambda t, leaf, dt: t.bias_add(leaf("x", (2, 3, 4, 4)), leaf("b", (3,))),
        "relu": lambda t, leaf, dt: t.relu(leaf("x", (3, 4))),
        "softplus": lambda t, leaf, dt: t.softplus(leaf("x", (2, 5))),
        "reshape": lambda t, leaf, dt: t.reshape(leaf("x", (2, 6)), (3, 4)),
        "dropout": lambda t, leaf, dt: t.dropout(
            leaf("x", (3, 4)), (np.arange(12).reshape(3, 4) % 3 > 0).astype(dt) / 0.7),
        "maxpool2": lambda t, leaf, dt: t.maxpool2(leaf("x", (2, 3, 4, 6))),
        # C < O folds g^T W; C >= O correlates with the flipped kernel
        "conv2d-fold": lambda t, leaf, dt: t.conv2d(leaf("x", (2, 2, 5, 5)),
                                                    leaf("w", (3, 2, 3, 3))),
        "conv2d-flip": lambda t, leaf, dt: t.conv2d(leaf("x", (2, 3, 5, 5)),
                                                    leaf("w", (2, 3, 3, 3))),
        "cross-entropy": lambda t, leaf, dt: t.cross_entropy(leaf("z", (3, 4)),
                                                             np.eye(4)[[0, 2, 3]]),
        "aleatoric-nll": lambda t, leaf, dt: t.aleatoric_nll(
            leaf("f", (2, 3)), t.softplus(leaf("s", (2, 3))), np.eye(3)[[1, 2]],
            Rng(81).normal((4, 2, 3))),
    }

    def record(self, case, dtype):
        tape = autodiff.Tape()

        def leaf(tag, shape):
            return tape.leaf_param(tag, Rng(80).child(tag).normal(shape)
                                                     .astype(dtype))

        return self.PRIMITIVES[case](tape, leaf, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(PRIMITIVES))
    def test_primitive_keeps_its_inputs_dtype(self, case, dtype):
        node = self.record(case, dtype)
        assert node.value.data.dtype == dtype
        grads = node.vjp_fn(np.ones(node.shape, dtype), (True,) * len(node.parents))
        assert [g.dtype for g in grads] == [np.dtype(dtype)] * len(node.parents)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["cross-entropy", "aleatoric-nll"])
    def test_loss_cotangent_only_scales(self, case, dtype):
        # a loss's scalar cotangent scales its VJP; a float64 one promotes nothing
        node = self.record(case, dtype)
        grads = node.vjp_fn(np.ones(1), (True,) * len(node.parents))
        assert [g.dtype for g in grads] == [np.dtype(dtype)] * len(node.parents)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_patch_helpers(self, dtype):
        # a float64 buffer here would pass the GEMMs' float32 out= casts unseen
        cols = autodiff._columns(np.ones((2, 3, 4, 5), dtype), 3)
        assert cols.dtype == dtype
        assert autodiff._fold(cols, 3, 4, 5).dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_seeds_and_zero_cotangents(self, dtype):
        tape = autodiff.Tape()
        x = tape.leaf_input(np.ones((1, 5), dtype))
        tape.leaf_param("unused", np.ones((2, 2), dtype))
        loss = tape.matmul(x, tape.leaf_param("w", np.full((5, 1), 0.7, dtype)))
        grads = param_gradients(tape, loss)  # the seed of ones, and a zero for "unused"
        assert [grads[n].dtype for n in ("w", "unused")] == [np.dtype(dtype)] * 2
        early = autodiff.Tape()
        early.relu(const(early, np.ones(2, dtype)))
        early.leaf_input(np.ones((2, 3), dtype))
        assert vjp(early, early.nodes[1], np.ones(2, dtype)).dtype == dtype

    @staticmethod
    def cnn(dtype, head=False):
        """BasicCNN (float32) or, cast to float64, its float64 twin,
        as an old float64 checkpoint loads."""
        model = build_model(cnn_meta((1, 8, 8), 3, uncertainty_head=head), 82)
        if dtype == np.float64:
            model.set_params({name: t.astype(np.float64) for name, t in model.params.items()})
        assert model.dtype == dtype
        return model

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_summed_jacobian_and_param_gradients(self, dtype):
        model = self.cnn(dtype)
        tape = model.forward(Rng(84).normal((2, 1, 8, 8)))  # float64 samples
        assert summed_jacobian(tape, tape.taps["pre-logits"]).dtype == dtype
        loss = tape.cross_entropy(tape.output, np.eye(3)[[0, 2]])
        grads = param_gradients(tape, loss)
        assert {n.value.data.dtype for n in tape.nodes} == {np.dtype(dtype)}
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("optimizer", ["sgd-momentum", "adam"])
    @pytest.mark.parametrize("head", [False, True])  # cross-entropy, aleatoric-nll
    def test_basic_cnn_training_step(self, monkeypatch, dtype, optimizer, head):
        model = self.cnn(dtype, head)
        seen, ops = [], set()

        def recording(tape, loss):
            grads = param_gradients(tape, loss)
            ops.update(n.op for n in tape.nodes)
            seen.extend(n.value.data.dtype for n in tape.nodes)
            seen.extend(g.dtype for g in grads.values())
            return grads

        monkeypatch.setattr(autodiff, "param_gradients", recording)
        # dropout on, float64 images and labels, as the training loop passes them
        training._step(model, training.make_optimizer(optimizer, 0.9), 0.01,
                       Rng(85).normal((4, 1, 8, 8)), np.eye(3)[[0, 1, 2, 0]], 3, Rng(86), (0, 0))
        assert "dropout" in ops
        assert set(seen) == {np.dtype(dtype)}
        assert {t.dtype for t in model.params.values()} == {np.dtype(dtype)}
