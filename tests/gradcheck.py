"""Shared finite-difference gradient-checking helpers."""

import numpy as np
from oracles import forward

from signreg.autodiff import vjp
from signreg.tensor import Rng

EPS = 1e-5


def central_fd(f, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """d f(x) / d x for scalar-valued f, one central difference per coord."""
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += eps
        xm[i] -= eps
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * eps)
    return grad


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(np.abs(want).max(), 1e-8)
    return float(np.abs(got - want).max() / scale)


def away_from_kinks(rng: Rng, shape, threshold=1e-3) -> np.ndarray:
    """Resample until no coordinate sits within ``threshold`` of zero."""
    for attempt in range(100):
        x = rng.child(attempt).normal(shape)
        if np.abs(x).min() > threshold:
            return x
    raise AssertionError("could not sample away from kinks")


def check_input_grad(build, x: np.ndarray, tol: float = 1e-5, rng_seed: int = 0):
    """vjp at the output with a random cotangent vs finite differences."""
    _, tape = forward(build, x)
    out_node = tape.output
    cot = Rng(rng_seed).child("cot").normal(out_node.shape)

    def scalar(xv):
        _, t = forward(build, xv)
        return float((t.output.value.data * cot).sum())

    got = vjp(tape, out_node, cot)
    want = central_fd(scalar, x)
    assert rel_err(got, want) < tol, f"relative error {rel_err(got, want)}"
