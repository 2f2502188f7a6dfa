"""Layer primitives, the two architectures, prediction, and checkpoint files.

A :class:`Model` is an ordered list of layers over a named parameter
store, with named taps into the forward graph. Every model exposes at
least the "pre-logits" tap (the activation feeding the final classifier,
with no intervening nonlinearity) and the "logits" tap.

A meta record (the checkpoint header's schema) names an architecture:
BasicCNN (``arch = basic_cnn``) or SmallMLP (``small_mlp``), optionally
with the uncertainty head in place of its dense classifier. One step
assembles the layers a record describes, and each layer declares the
shapes of its parameters. ``build_model`` draws them, Kaiming-uniform
fan-in weights and zero biases, fully seeded; ``load_checkpoint`` takes
them from the file and draws nothing. Parameters are immutable tensors;
training replaces them. A model computes in its parameters' dtype, which
all of them share: BasicCNN initializes float32 parameters and SmallMLP
float64 ones, and a checkpoint keeps the dtype it was saved in.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .autodiff import Node, Tape, log_mean_exp, log_softmax
from .tensor import Rng, ShapeError, Tensor, read_array, read_framed, write_framed

CHECKPOINT_VERSION = "signreg-ckpt-1"


def _draw(rng: Rng, shape: tuple[int, ...], fan_in: int, scale: float) -> np.ndarray:
    """Kaiming-uniform fan-in weights, or zeros for ``fan_in = 0`` (a bias)."""
    if not fan_in:
        return np.zeros(shape)
    bound = scale * np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _Layer:
    """Base of every layer. ``specs`` maps the key of each of its parameters,
    named ``"<name>.<key>"`` in the store, to (shape, fan_in, scale): see
    ``_draw``."""

    specs: dict = {}

    def _leaves(self, tape: Tape, params: dict[str, Tensor]) -> list[Node]:
        return [tape.leaf_param(f"{self.name}.{key}", params[f"{self.name}.{key}"])
                for key in self.specs]


class Conv2d(_Layer):
    """3x3 (or any odd) convolution, stride 1, 'same' zero padding."""

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: int = 3):
        self.name = name
        self.specs = {"w": ((out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel, 1.0),
                      "b": ((out_ch,), 0, 0.0)}

    def apply(self, tape: Tape, x: Node, params: dict[str, Tensor], *, train: bool, rng) -> Node:
        w, b = self._leaves(tape, params)
        return tape.bias_add(tape.conv2d(x, w), b)


class Dense(_Layer):
    def __init__(self, name: str, in_dim: int, out_dim: int):
        self.name = name
        self.specs = {"w": ((in_dim, out_dim), in_dim, 1.0), "b": ((out_dim,), 0, 0.0)}

    def apply(self, tape: Tape, x: Node, params: dict[str, Tensor], *, train: bool, rng) -> Node:
        w, b = self._leaves(tape, params)
        return tape.bias_add(tape.matmul(x, w), b)


class ReLU(_Layer):
    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        return tape.relu(x)


class MaxPool2(_Layer):
    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        return tape.maxpool2(x)


class Flatten(_Layer):
    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        b = x.shape[0]
        flat = int(np.prod(x.shape[1:]))
        if x.value.ndim == 2:
            return x
        return tape.reshape(x, (b, flat))


class Dropout(_Layer):
    """Inverted dropout. Identity unless training with an rng supplied."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"drop probability must be in [0, 1), got {p}")
        self.p = p

    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        if not train or self.p == 0.0 or rng is None:
            return x
        keep = 1.0 - self.p
        mask = (rng.uniform(size=x.shape) < keep).astype(x.value.data.dtype) / keep
        return tape.dropout(x, mask)


class UncertaintyHead(_Layer):
    """Parallel dense branches from the pre-logits features.

    The f branch produces per-class scores; the sigma branch produces a
    strictly positive per-class noise scale via softplus. The head's
    output node is f; sigma is exposed as the "sigma" tap.
    """

    def __init__(self, name: str, in_dim: int, num_classes: int):
        self.name = name
        # small sigma-branch weights keep early noise scales moderate
        self.specs = {"f.w": ((in_dim, num_classes), in_dim, 1.0), "f.b": ((num_classes,), 0, 0.0),
                      "s.w": ((in_dim, num_classes), in_dim, 0.1), "s.b": ((num_classes,), 0, 0.0)}

    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        fw, fb, sw, sb = self._leaves(tape, params)
        f = tape.bias_add(tape.matmul(x, fw), fb)
        sigma = tape.softplus(tape.bias_add(tape.matmul(x, sw), sb))
        tape.taps["sigma"] = sigma
        return f


def _check_params(params: dict[str, Tensor], shapes: dict[str, tuple[int, ...]]):
    """Reject ``params`` unless they have the names and shapes of ``shapes``
    and one dtype."""
    if set(params) != set(shapes):
        raise ValueError("parameter name mismatch")
    first = next(iter(params), None)
    for name, t in params.items():
        if t.shape != shapes[name]:
            raise ShapeError(f"param {name}: shape {t.shape} != {shapes[name]}")
        if t.data.dtype != params[first].data.dtype:
            raise ValueError(f"param {name}: dtype {t.data.dtype} differs from param "
                             f"{first}'s {params[first].data.dtype}")


class Model:
    """Ordered layer composition with a named parameter store and taps."""

    def __init__(self, layers: list, params: dict[str, Tensor], taps: dict[str, int],
                 input_shape: tuple[int, ...], num_classes: int, meta: dict):
        self.layers = layers
        self.params = params
        self.taps = taps
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.meta = meta

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in: its parameters' (one for all),
        float64 for a model without any."""
        for t in self.params.values():
            return t.data.dtype
        return np.dtype(np.float64)

    @property
    def has_uncertainty_head(self) -> bool:
        return any(isinstance(l, UncertaintyHead) for l in self.layers)

    def forward(self, x: Tensor, *, train: bool = False, rng: Rng | None = None) -> Tape:
        """Run a batched forward pass, recording every primitive on a tape.

        With ``train=False`` (or no rng) dropout is the identity, making the
        pass a deterministic function of (params, input). The input is cast
        to the model's dtype.
        """
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != model input {self.input_shape}")
        dtype = self.dtype
        if x.data.dtype != dtype:
            x = Tensor._wrap(x.data.astype(dtype))
        tape = Tape()
        node = tape.leaf_input(x)
        for i, layer in enumerate(self.layers):
            node = layer.apply(tape, node, self.params, train=train, rng=rng)
            for name, idx in self.taps.items():
                if idx == i:
                    tape.taps[name] = node
        tape.output = node
        return tape

    def set_params(self, params: dict[str, Tensor]):
        _check_params(params, {name: t.shape for name, t in self.params.items()})
        self.params = dict(params)


def _assemble(meta: dict) -> tuple[Model, type]:
    """The model ``meta`` describes, with no parameters yet, and the dtype
    its architecture initializes in. Allocates nothing the record sizes.

    BasicCNN: [conv32 relu conv32 relu pool drop] [conv64 relu conv64 relu
    pool drop] [dense512 relu drop] dense-C, all convs 3x3, pools 2x2; H, W
    must be >= 8 and divisible by 4 to survive both pools. Its parameters
    are float32: the conv GEMMs run about twice as fast in it. SmallMLP: a
    dense/relu stack over the flattened input, in float64.
    """
    arch = meta.get("arch")
    if arch not in ("basic_cnn", "small_mlp"):
        raise ValueError(f"unknown architecture: {arch!r}")
    shape = tuple(int(s) for s in meta["input_shape"])
    num_classes = int(meta["num_classes"])
    if arch == "basic_cnn":
        drop_prob = float(meta.get("drop_prob", 0.3))
        c, h, w = shape
        if h < 8 or w < 8 or h % 4 or w % 4:
            raise ShapeError(f"input {shape} too small for two 2x2 pools "
                             "(need H, W >= 8, divisible by 4)")
        body = [Conv2d("conv1", c, 32), ReLU(), Conv2d("conv2", 32, 32), ReLU(), MaxPool2(),
                Dropout(drop_prob), Conv2d("conv3", 32, 64), ReLU(), Conv2d("conv4", 64, 64),
                ReLU(), MaxPool2(), Dropout(drop_prob),
                Flatten(), Dense("fc1", 64 * (h // 4) * (w // 4), 512), ReLU(), Dropout(drop_prob)]
        width, classifier, dtype = 512, "fc2", np.float32
        record = {"arch": arch, "input_shape": list(shape), "num_classes": num_classes,
                  "drop_prob": drop_prob}
    else:
        hidden = [int(d) for d in meta["hidden_dims"]]
        if not hidden:
            raise ValueError("hidden_dims must be non-empty")
        width = math.prod(shape)
        if int(meta.get("input_dim", width)) != width:
            raise ShapeError(f"input_shape {list(shape)} does not flatten to {meta['input_dim']}")
        record = {"arch": arch, "input_dim": width, "hidden_dims": hidden,
                  "num_classes": num_classes, "input_shape": list(shape)}
        body = [Flatten()]
        for i, dim in enumerate(hidden):
            body += [Dense(f"fc{i + 1}", width, dim), ReLU()]
            width = dim
        classifier, dtype = "out", np.float64
    if meta.get("uncertainty_head"):
        layers = body + [UncertaintyHead("head", width, num_classes)]
        record["uncertainty_head"] = True
    else:
        layers = body + [Dense(classifier, width, num_classes)]
    if min(shape, default=0) < 1 or any(min(spec[0]) < 1 for layer in layers
                                        for spec in layer.specs.values()):
        raise ValueError("all dims must be >= 1")
    taps = {"pre-logits": len(layers) - 2, "logits": len(layers) - 1}
    return Model(layers, {}, taps, shape, num_classes, record), dtype


def build_model(meta: dict, seed: int = 0) -> Model:
    """The model ``meta`` describes (the checkpoint header schema), freshly
    initialized: each layer from the stream ``Rng(seed).child("init")``, the
    uncertainty head from its child ``"uncertainty-head"``."""
    model, dtype = _assemble(meta)
    init = Rng(seed).child("init")
    for layer in model.layers:
        rng = init.child("uncertainty-head") if isinstance(layer, UncertaintyHead) else init
        for key, (shape, fan_in, scale) in layer.specs.items():
            value = _draw(rng.child(layer.name, key), shape, fan_in, scale)
            model.params[f"{layer.name}.{key}"] = Tensor._wrap(value.astype(dtype, copy=False))
    return model


# -- prediction -----------------------------------------------------------------

PREDICT_BATCH = 256


def forward_batches(model: Model, images, read):
    """``(start, read(tape))`` for each ``PREDICT_BATCH`` rows of ``images``
    from ``start`` on, each ``tape`` a dropout-off forward pass.

    ``images`` holds N input arrays: a list, stacked one batch at a time,
    or one stacked array, read one batch-sized view at a time. Each tape
    is freed when ``read`` returns, before the next one is recorded.
    """
    for start in range(0, len(images), PREDICT_BATCH):
        yield start, read(model.forward(
            Tensor._wrap(np.asarray(images[start:start + PREDICT_BATCH]))))


def _outputs(tape: Tape) -> tuple[np.ndarray, np.ndarray | None]:
    """The output and, for uncertainty-head models, the sigma tap."""
    sigma = tape.taps["sigma"].value.data if "sigma" in tape.taps else None
    return tape.output.value.data, sigma


def predict(model: Model, images, mc_samples: int,
            rng: Rng) -> tuple[np.ndarray, np.ndarray | None]:
    """Log predictive probabilities (N, C) with dropout off, and for
    uncertainty-head models the mean sigma per sample (else None).

    ``images`` is read as ``forward_batches`` reads it. A head model's
    predictive is its softmax averaged over ``mc_samples`` logit-noise
    draws from ``rng.child("eps", batch_start)``, the distribution its
    aleatoric loss trains; other models ignore ``rng``.
    """
    if len(images) == 0:
        raise ValueError("empty sample list")
    logps, sigmas = [], []
    for start, (f, sigma) in forward_batches(model, images, _outputs):
        if sigma is not None:
            eps = rng.child("eps", start).normal((mc_samples,) + f.shape)
            logps.append(log_mean_exp(log_softmax(f + sigma * eps, axis=2), axis=0))
            sigmas.append(sigma.mean(axis=1))
        else:
            logps.append(log_softmax(f, axis=1))
    return np.concatenate(logps), (np.concatenate(sigmas) if sigmas else None)


# -- checkpoint files -------------------------------------------------------
#
# A framed file (see tensor.py) whose header records the version string,
# the model meta, and for every named tensor where it lies in the payload.


def save_checkpoint(model: Model, path: str):
    tensors = {name: {} for name in sorted(model.params)}
    write_framed(path, {"version": CHECKPOINT_VERSION, "meta": model.meta, "tensors": tensors},
                 [(rec, model.params[name].data) for name, rec in tensors.items()])


def load_checkpoint(path: str) -> Model:
    """The model a checkpoint file holds, in the dtype it was saved in. Its
    meta is assembled as ``build_model`` assembles it, and its tensors must
    have the names and shapes that the layers declare; nothing is drawn."""
    header, payload = read_framed(path, CHECKPOINT_VERSION, {"meta": dict, "tensors": dict})
    try:
        model, _ = _assemble(header["meta"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: header field meta does not describe a model: {exc!r}") from exc
    params = {name: Tensor._wrap(read_array(payload, rec, path, f"tensor {name}"))
              for name, rec in header["tensors"].items()}
    shapes = {f"{layer.name}.{key}": spec[0] for layer in model.layers
              for key, spec in layer.specs.items()}
    try:
        _check_params(params, shapes)
    except ValueError as exc:
        raise ValueError(f"{path}: header field tensors: {exc}") from exc
    model.params = params
    return model


def params_checksum(params: dict[str, Tensor]) -> str:
    """SHA-256 over name-sorted parameter buffers; identifies a trained model."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].data.tobytes())
    return h.hexdigest()
