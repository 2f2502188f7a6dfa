"""Tensor construction and read-only arrays, the tape's matmul kernel
against a hand oracle, random-source determinism."""

import numpy as np
import pytest
from oracles import const, forward, mlp_meta

from signreg.autodiff import param_gradients, summed_jacobian, vjp
from signreg.nn import build_model, load_checkpoint, save_checkpoint
from signreg.tensor import Rng, ShapeError, Tensor, readonly
from signreg.training import Adam, SgdMomentum


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop oracle, independent of the BLAS-backed kernel."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestZeros:
    """All-zero tensors through the constructor, the public way to make a Tensor."""

    def test_2x3_all_zero(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert np.all(t.data == 0.0)

    def test_single_element(self):
        assert Tensor([0.0]).data.tolist() == [0.0]

    def test_image_sized(self):
        t = Tensor(np.zeros((3, 32, 32)))
        assert t.data.size == 3072
        assert np.all(t.data == 0.0)

    def test_invalid_shapes(self):
        with pytest.raises(ShapeError):
            Rng(0).normal(())
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))
        with pytest.raises(ShapeError):
            Rng(0).normal((2, 0))


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, tape = forward(lambda t, n: t.matmul(n, const(t, b)), a)
    return tape.output.value.data


class TestMatmul:
    """``Tape.matmul``, the product every dense layer records."""

    def test_identity(self):
        assert product(np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]])).tolist() == \
            [[1.0, 2.0], [3.0, 4.0]]

    def test_hand_computed(self):
        assert product(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])).tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = Rng(7)
        a = rng.normal((5, 7))
        b = rng.normal((7, 3))
        np.testing.assert_allclose(product(a, b), naive_matmul(a, b), atol=1e-12, rtol=0)

    def test_hundred_random_pairs(self):
        rng = Rng(11)
        for i in range(100):
            n, k, m = (int(x) for x in rng.child(i).integers(1, 9, size=3))
            a = rng.child(i, "a").normal((n, k))
            b = rng.child(i, "b").normal((k, m))
            np.testing.assert_allclose(product(a, b), naive_matmul(a, b), atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            product(np.zeros((2, 3)), np.zeros((4, 2)))


class TestNormal:
    def test_sigma_zero_is_constant(self):
        assert Rng(1).normal((4,), mu=5.0, sigma=0.0).tolist() == [5.0, 5.0, 5.0, 5.0]

    def test_fresh_rng_repeats(self):
        a = Rng(42).normal((16,), 0.0, 1.0)
        b = Rng(42).normal((16,), 0.0, 1.0)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        # 1e5 draws at sigma=10: mean within +-0.2 (>6 standard errors),
        # std within [9.8, 10.2]
        draws = Rng(123).normal((100_000,), mu=0.0, sigma=10.0)
        assert -0.2 <= draws.mean() <= 0.2
        assert 9.8 <= draws.std() <= 10.2

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            Rng(0).normal((3,), 0.0, -1.0)


class TestTensorInvariants:
    def test_row_major_flat_offsets(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4))
        strides = (12, 4, 1)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    offset = i * strides[0] + j * strides[1] + k * strides[2]
                    assert t.data[i, j, k] == t.data.reshape(-1)[offset]

    def test_immutable(self):
        t = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_kernels_do_not_mutate(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        before = a.copy(), b.copy()
        _, tape = forward(lambda t, n: t.matmul(n, const(t, b)), a)
        vjp(tape, tape.output, b)
        assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])

    def test_scalar_promoted_to_rank_one(self):
        assert Tensor(3.0).shape == (1,)

    def test_dtype_rule(self):
        # Tensor(...) is float64; readonly, and so _wrap, keeps float32 and
        # makes the rest float64
        f32 = np.ones((2, 3), np.float32)
        assert Tensor(f32).data.dtype == np.float64
        assert Tensor._wrap(f32).data.dtype == readonly(f32).dtype == np.float32
        for other in (np.ones(3, np.float16), np.arange(3), np.ones(3) > 0):
            assert Tensor._wrap(other).data.dtype == readonly(other).dtype == np.float64

    def test_elementwise_shape_mismatch(self):
        # bias_add is the one elementwise sum of two operands the models record
        with pytest.raises(ShapeError):
            forward(lambda t, n: t.bias_add(n, const(t, np.ones(3))), np.ones((2, 2)))


def test_boundaries_take_and_return_arrays(tmp_path):
    """The tape's derivatives are arrays, and a model's parameters are
    read-only arrays however they were set: built, loaded, set, or stepped."""
    model = build_model(mlp_meta(4, [5], 3), 0)
    tape = model.forward(Rng(1).normal((2, 4)))
    grads = param_gradients(tape, tape.cross_entropy(tape.output, np.eye(3)[[0, 2]]))
    derivatives = [vjp(tape, tape.output, np.ones((2, 3))), summed_jacobian(tape, tape.output)]
    assert all(type(d) is np.ndarray for d in derivatives + list(grads.values()))
    stores = [model.params]
    save_checkpoint(model, str(tmp_path / "m.bin"))
    stores.append(load_checkpoint(str(tmp_path / "m.bin")).params)
    model.set_params({name: np.array(p) for name, p in model.params.items()})  # writable copies
    stores.append(model.params)
    stores += [opt.step(model.params, grads, 0.1) for opt in (SgdMomentum(), Adam())]
    for params in stores:
        for p in params.values():
            assert type(p) is np.ndarray
            with pytest.raises(ValueError, match="read-only"):
                p[...] = 0.0


class TestRng:
    def test_children_independent_of_parent_draws(self):
        a = Rng(5)
        b = Rng(5)
        a.normal((10,))  # consume from one parent only
        assert np.array_equal(a.child("x").normal((4,)), b.child("x").normal((4,)))

    def test_distinct_children_differ(self):
        r = Rng(5)
        assert not np.array_equal(r.child("x").normal((8,)), r.child("y").normal((8,)))

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)

    def test_string_and_int_tags_stable(self):
        a = Rng(9).child("init", 3).normal((4,))
        b = Rng(9).child("init", 3).normal((4,))
        assert np.array_equal(a, b)

    def test_lazy_generator_draws_like_an_eager_one(self):
        def eager(seed, *path):
            return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))

        fresh, ref = Rng(11, (2, 7)), eager(11, 2, 7)
        assert np.array_equal(fresh.normal((5,), mu=1.0, sigma=2.0),
                              ref.normal(loc=1.0, scale=2.0, size=(5,)))
        assert np.array_equal(fresh.uniform(-1.0, 1.0, size=3), ref.uniform(-1.0, 1.0, size=3))
        assert np.array_equal(fresh.integers(0, 100, size=4), ref.integers(0, 100, size=4))
        assert np.array_equal(fresh.permutation(9), ref.permutation(9))
        assert np.array_equal(fresh.beta(0.4, 0.4, size=3), ref.beta(0.4, 0.4, size=3))
        # a child of a stream that has never drawn
        child = Rng(11, (2,)).child(7, 3)
        assert np.array_equal(child.normal((6,)), eager(11, 2, 7, 3).normal(size=(6,)))
