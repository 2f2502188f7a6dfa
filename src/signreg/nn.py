"""Layer primitives, concrete model architectures, prediction, and checkpoint files.

A :class:`Model` is an ordered list of layers over a named parameter
store, with named taps into the forward graph. Every model exposes at
least the "pre-logits" tap (the activation feeding the final classifier,
with no intervening nonlinearity) and the "logits" tap.

Initialization is Kaiming-uniform fan-in for weights and zero biases,
fully seeded. Parameters are immutable tensors; training replaces them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import Node, Tape, log_mean_exp, log_softmax
from .tensor import Rng, ShapeError, Tensor, read_array, read_framed, write_framed

CHECKPOINT_VERSION = "signreg-ckpt-1"


def _kaiming_uniform(rng: Rng, shape: tuple[int, ...], fan_in: int, scale: float = 1.0) -> Tensor:
    bound = scale * np.sqrt(6.0 / fan_in)
    return Tensor._wrap(rng.uniform(-bound, bound, size=shape))


class Conv2d:
    """3x3 (or any odd) convolution, stride 1, 'same' zero padding."""

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: int = 3):
        self.name = name
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel = kernel

    def init_params(self, rng: Rng) -> dict[str, Tensor]:
        fan_in = self.in_ch * self.kernel * self.kernel
        w = _kaiming_uniform(rng.child(self.name, "w"),
                             (self.out_ch, self.in_ch, self.kernel, self.kernel), fan_in)
        b = Tensor._wrap(np.zeros(self.out_ch))
        return {f"{self.name}.w": w, f"{self.name}.b": b}

    def apply(self, tape: Tape, x: Node, params: dict[str, Tensor], *, train: bool, rng) -> Node:
        w = tape.leaf_param(f"{self.name}.w", params[f"{self.name}.w"])
        b = tape.leaf_param(f"{self.name}.b", params[f"{self.name}.b"])
        return tape.bias_add(tape.conv2d(x, w), b)


class Dense:
    def __init__(self, name: str, in_dim: int, out_dim: int):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim

    def init_params(self, rng: Rng) -> dict[str, Tensor]:
        w = _kaiming_uniform(rng.child(self.name, "w"), (self.in_dim, self.out_dim), self.in_dim)
        b = Tensor._wrap(np.zeros(self.out_dim))
        return {f"{self.name}.w": w, f"{self.name}.b": b}

    def apply(self, tape: Tape, x: Node, params: dict[str, Tensor], *, train: bool, rng) -> Node:
        w = tape.leaf_param(f"{self.name}.w", params[f"{self.name}.w"])
        b = tape.leaf_param(f"{self.name}.b", params[f"{self.name}.b"])
        return tape.bias_add(tape.matmul(x, w), b)


class _NoParams:
    """Base of the layers that hold no parameters."""

    def init_params(self, rng: Rng) -> dict[str, Tensor]:
        return {}


class ReLU(_NoParams):
    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        return tape.relu(x)


class MaxPool2(_NoParams):
    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        return tape.maxpool2(x)


class Flatten(_NoParams):
    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        b = x.shape[0]
        flat = int(np.prod(x.shape[1:]))
        if x.value.ndim == 2:
            return x
        return tape.reshape(x, (b, flat))


class Dropout(_NoParams):
    """Inverted dropout. Identity unless training with an rng supplied."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"drop probability must be in [0, 1), got {p}")
        self.p = p

    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        if not train or self.p == 0.0 or rng is None:
            return x
        keep = 1.0 - self.p
        mask = (rng.uniform(size=x.shape) < keep).astype(np.float64) / keep
        return tape.dropout(x, mask)


class UncertaintyHead:
    """Parallel dense branches from the pre-logits features.

    The f branch produces per-class scores; the sigma branch produces a
    strictly positive per-class noise scale via softplus. The head's
    output node is f; sigma is exposed as the "sigma" tap.
    """

    def __init__(self, name: str, in_dim: int, num_classes: int):
        self.name = name
        self.in_dim = in_dim
        self.num_classes = num_classes

    def init_params(self, rng: Rng) -> dict[str, Tensor]:
        f_w = _kaiming_uniform(rng.child(self.name, "f.w"), (self.in_dim, self.num_classes), self.in_dim)
        # small sigma-branch weights keep early noise scales moderate
        s_w = _kaiming_uniform(rng.child(self.name, "s.w"), (self.in_dim, self.num_classes),
                               self.in_dim, scale=0.1)
        zero = Tensor._wrap(np.zeros(self.num_classes))
        return {f"{self.name}.f.w": f_w, f"{self.name}.f.b": zero,
                f"{self.name}.s.w": s_w, f"{self.name}.s.b": zero.copy()}

    def apply(self, tape: Tape, x: Node, params, *, train: bool, rng) -> Node:
        fw = tape.leaf_param(f"{self.name}.f.w", params[f"{self.name}.f.w"])
        fb = tape.leaf_param(f"{self.name}.f.b", params[f"{self.name}.f.b"])
        sw = tape.leaf_param(f"{self.name}.s.w", params[f"{self.name}.s.w"])
        sb = tape.leaf_param(f"{self.name}.s.b", params[f"{self.name}.s.b"])
        f = tape.bias_add(tape.matmul(x, fw), fb)
        sigma = tape.softplus(tape.bias_add(tape.matmul(x, sw), sb))
        tape.taps["sigma"] = sigma
        return f


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
    def has_uncertainty_head(self) -> bool:
        return any(isinstance(l, UncertaintyHead) for l in self.layers)

    def forward(self, x: Tensor, *, train: bool = False, rng: Rng | None = None) -> Tape:
        """Run a batched forward pass, recording every primitive on a tape.

        With ``train=False`` (or no rng) dropout is the identity, making the
        pass a deterministic function of (params, input).
        """
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != model input {self.input_shape}")
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
        if set(params) != set(self.params):
            raise ValueError("parameter name mismatch")
        for name, t in params.items():
            if t.shape != self.params[name].shape:
                raise ShapeError(f"param {name}: shape {t.shape} != {self.params[name].shape}")
        self.params = dict(params)


def build_basic_cnn(input_shape: tuple[int, int, int], num_classes: int,
                    drop_prob: float = 0.3, rng: Rng | None = None) -> Model:
    """Two 32-filter conv blocks, two 64-filter conv blocks, dense-512 head.

    [conv32 relu conv32 relu pool drop] [conv64 relu conv64 relu pool drop]
    [dense512 relu drop] dense-C, all convs 3x3, pools 2x2. Spatial dims
    must survive two 2x2 pools cleanly: H, W >= 8 and divisible by 4.
    """
    c, h, w = input_shape
    if h < 8 or w < 8 or h % 4 or w % 4:
        raise ShapeError(f"input {input_shape} too small for two 2x2 pools (need H, W >= 8, divisible by 4)")
    rng = rng if rng is not None else Rng(0)
    layers = [
        Conv2d("conv1", c, 32), ReLU(), Conv2d("conv2", 32, 32), ReLU(), MaxPool2(), Dropout(drop_prob),
        Conv2d("conv3", 32, 64), ReLU(), Conv2d("conv4", 64, 64), ReLU(), MaxPool2(), Dropout(drop_prob),
        Flatten(), Dense("fc1", 64 * (h // 4) * (w // 4), 512), ReLU(), Dropout(drop_prob),
        Dense("fc2", 512, num_classes),
    ]
    params: dict[str, Tensor] = {}
    for layer in layers:
        params.update(layer.init_params(rng))
    taps = {"pre-logits": len(layers) - 2, "logits": len(layers) - 1}
    meta = {"arch": "basic_cnn", "input_shape": list(input_shape), "num_classes": num_classes,
            "drop_prob": drop_prob}
    return Model(layers, params, taps, input_shape, num_classes, meta)


def build_small_mlp(input_dim: int, hidden_dims: list[int], num_classes: int,
                    rng: Rng | None = None, input_shape: tuple[int, ...] | None = None) -> Model:
    """Dense/relu stack. ``input_shape`` lets the MLP consume image tensors."""
    if not hidden_dims:
        raise ValueError("hidden_dims must be non-empty")
    if input_dim < 1 or num_classes < 1 or any(d < 1 for d in hidden_dims):
        raise ValueError("all dims must be >= 1")
    if input_shape is None:
        input_shape = (input_dim,)
    elif int(np.prod(input_shape)) != input_dim:
        raise ShapeError(f"input_shape {input_shape} does not flatten to {input_dim}")
    rng = rng if rng is not None else Rng(0)
    layers: list = [Flatten()]
    prev = input_dim
    for i, hdim in enumerate(hidden_dims):
        layers.append(Dense(f"fc{i + 1}", prev, hdim))
        layers.append(ReLU())
        prev = hdim
    layers.append(Dense("out", prev, num_classes))
    params: dict[str, Tensor] = {}
    for layer in layers:
        params.update(layer.init_params(rng))
    taps = {"pre-logits": len(layers) - 2, "logits": len(layers) - 1}
    meta = {"arch": "small_mlp", "input_dim": input_dim, "hidden_dims": list(hidden_dims),
            "num_classes": num_classes, "input_shape": list(input_shape)}
    return Model(layers, params, taps, tuple(input_shape), num_classes, meta)


def attach_uncertainty_head(model: Model, rng: Rng | None = None) -> Model:
    """Replace the final dense classifier by parallel f and sigma branches."""
    if "pre-logits" not in model.taps:
        raise ValueError('model has no "pre-logits" tap')
    final = model.layers[-1]
    if not isinstance(final, Dense):
        raise ValueError("final layer is not a dense classifier")
    rng = rng if rng is not None else Rng(0)
    head = UncertaintyHead("head", final.in_dim, model.num_classes)
    layers = model.layers[:-1] + [head]
    params = {k: v for k, v in model.params.items()
              if not k.startswith(f"{final.name}.")}
    params.update(head.init_params(rng.child("uncertainty-head")))
    taps = dict(model.taps)
    taps["logits"] = len(layers) - 1
    meta = dict(model.meta)
    meta["uncertainty_head"] = True
    return Model(layers, params, taps, model.input_shape, model.num_classes, meta)


def build_model(meta: dict, seed: int = 0) -> Model:
    """Build a model from its meta record (the checkpoint header schema),
    initialized from the stream ``Rng(seed).child("init")``."""
    rng = Rng(seed).child("init")
    arch = meta.get("arch")
    if arch == "basic_cnn":
        model = build_basic_cnn(tuple(meta["input_shape"]), int(meta["num_classes"]),
                                float(meta.get("drop_prob", 0.3)), rng=rng)
    elif arch == "small_mlp":
        model = build_small_mlp(int(meta["input_dim"]), [int(d) for d in meta["hidden_dims"]],
                                int(meta["num_classes"]),
                                rng=rng, input_shape=tuple(meta["input_shape"]))
    else:
        raise ValueError(f"unknown architecture: {arch!r}")
    if meta.get("uncertainty_head"):
        model = attach_uncertainty_head(model, rng=rng)
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
    header, payload = read_framed(path, CHECKPOINT_VERSION, {"meta": dict, "tensors": dict})
    try:
        model = build_model(header["meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: header field meta does not describe a model: {exc!r}") from exc
    params = {name: Tensor._wrap(read_array(payload, rec, path, f"tensor {name}"))
              for name, rec in header["tensors"].items()}
    try:
        model.set_params(params)
    except ValueError as exc:
        raise ValueError(f"{path}: header field tensors: {exc}") from exc
    return model


def params_checksum(params: dict[str, Tensor]) -> str:
    """SHA-256 over name-sorted parameter buffers; identifies a trained model."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].data.tobytes())
    return h.hexdigest()
