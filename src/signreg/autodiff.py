"""Reverse-mode differentiation over a recorded primitive graph.

A forward pass is recorded on a :class:`Tape` as a list of nodes in
evaluation order. Cotangents can then be seeded at any recorded node and
pulled back either to the input (``vjp`` / ``summed_jacobian``) or to the
parameter leaves (``param_gradients``). Each tape belongs to one forward
call; nothing is global, so independent tapes over shared (immutable)
parameters can run concurrently.

The primitives are the ones the models and the training loop record:
matmul, bias_add, relu, softplus, reshape, dropout, maxpool2 and conv2d
in the forward pass, and the two losses, cross_entropy and
aleatoric_nll. Every tape starts in a model's forward pass
(``nn.Model.forward``).

Derivative conventions, chosen for determinism:
  * relu'(0) == 0 exactly;
  * maxpool ties resolve to the first element in row-major window order
    (the lowest flat index of the original array), and a window holding
    NaN outputs NaN and sends its gradient to its first NaN;
  * dropout is recorded with its mask, so train-time gradients are exact.

conv2d is one im2col correlation (``_columns``). Each sample's columns
are an (H*W, k*k*C) matrix read from a zero-padded channels-last copy of
the input, so a row gathers contiguous runs of k*C values, and GEMMs
against the kernel as a (k*k*C, O) matrix sum over (dy, dx, channel) in
that order. Every tape value and VJP result keeps its (B, C, H, W) or
(O, C, k, k) shape and is C-contiguous, whatever layout the cotangent
arrives in. The input-VJP takes the layout with fewer columns, which
depends only on the layer's channel counts: with fewer input than output
channels (C < O) it folds ``g^T W``, k*k*C columns, back through
``_fold``, the adjoint of ``_columns``; otherwise it correlates the
cotangent's k*k*O columns with the flipped kernel. The two layouts sum in
different orders, so they agree to rounding, and each is deterministic.
Columns are built for a block of samples at a time (``_blocks``), used by
that block's GEMMs and then dropped: the tape keeps conv2d's input, not
its columns, and the weight-VJP rebuilds them. The block size sets only
how much memory the columns take at once. It changes no bit of any
result: every GEMM is per sample, and the weight-VJP adds the per-sample
products in sample order.

Every kernel computes in its inputs' dtype, float32 or float64: each
array it allocates, and each constant it mixes in (labels, noise draws,
seeds of ones), takes the dtype of the values it meets, so a float32
forward pass has a float32 backward pass and float64 inputs give the
float64 results they always gave.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, Tensor

# the (row, column) offsets of a 2x2 pooling window, in row-major order
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))

# conv2d builds at most this many bytes of im2col columns at once. 4 MiB
# stays in cache from _columns writing it to the GEMM reading it (BasicCNN's
# conv2 at 32x32, batch 32, would build 38 MB in one piece in float32), and
# at 12x12 most layers still take a batch in one or two blocks
_BLOCK_BYTES = 4 << 20


class Node:
    """One recorded primitive application (or a leaf value)."""

    __slots__ = ("op", "value", "parents", "vjp_fn", "idx")

    def __init__(self, op: str, value: Tensor, parents: tuple, vjp_fn, idx: int):
        self.op = op
        self.value = value
        self.parents = parents
        # vjp_fn(cotangent, needed) -> per-parent cotangents; entries whose
        # needed flag is False may be returned as None (their subgraph does
        # not reach any requested leaf, so computing them would be waste)
        self.vjp_fn = vjp_fn
        self.idx = idx

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Tape:
    """Recorded forward computation: nodes in evaluation order plus bookkeeping.

    ``input`` is the differentiation root for vjp/summed_jacobian;
    ``params`` maps parameter names to their leaf nodes; ``taps`` maps
    tap names to interior nodes of interest (e.g. "pre-logits").
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.input: Node | None = None
        self.output: Node | None = None
        self.params: dict[str, Node] = {}
        self.taps: dict[str, Node] = {}

    # -- construction -----------------------------------------------------

    def _record(self, op: str, value, parents: tuple = (), vjp_fn=None) -> Node:
        if not isinstance(value, Tensor):
            value = Tensor._wrap(value)
        node = Node(op, value, parents, vjp_fn, len(self.nodes))
        self.nodes.append(node)
        return node

    def leaf_input(self, t: Tensor) -> Node:
        node = self._record("input", t)
        self.input = node
        return node

    def leaf_param(self, name: str, t: Tensor) -> Node:
        node = self._record("param", t)
        self.params[name] = node
        return node

    def owns(self, node: Node) -> bool:
        return 0 <= node.idx < len(self.nodes) and self.nodes[node.idx] is node

    def _require(self, node: Node):
        if not self.owns(node):
            raise ValueError("node is not on this tape")

    # -- primitives ---------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
        ad, bd = a.value.data, b.value.data

        def vjp(g, needed):
            return (g @ bd.T if needed[0] else None,
                    ad.T @ g if needed[1] else None)

        return self._record("matmul", ad @ bd, (a, b), vjp)

    def bias_add(self, x: Node, b: Node) -> Node:
        """Add a per-feature bias over the leading batch axis.

        (B, M) + (M,) or (B, C, H, W) + (C,). The only broadcasting the
        engine supports.
        """
        xd, bd = x.value.data, b.value.data
        if xd.ndim == 2 and bd.shape == (xd.shape[1],):
            return self._record("bias-add", xd + bd, (x, b),
                                lambda g, needed: (g, g.sum(axis=0) if needed[1] else None))
        if xd.ndim == 4 and bd.shape == (xd.shape[1],):
            return self._record("bias-add", xd + bd[None, :, None, None], (x, b),
                                lambda g, needed: (g, g.sum(axis=(0, 2, 3)) if needed[1] else None))
        raise ShapeError(f"bias_add: incompatible shapes {x.shape} + {b.shape}")

    def relu(self, x: Node) -> Node:
        xd = x.value.data
        return self._record("relu", np.maximum(xd, 0.0), (x,),
                            lambda g, needed: (g * (xd > 0.0),))

    def softplus(self, x: Node) -> Node:
        xd = x.value.data
        out = np.logaddexp(0.0, xd)

        def vjp(g, needed):
            return (g / (1.0 + np.exp(-xd)),)

        return self._record("softplus", out, (x,), vjp)

    def reshape(self, x: Node, shape) -> Node:
        shape = tuple(int(s) for s in shape)
        in_shape = x.shape
        return self._record("reshape", x.value.data.reshape(shape), (x,),
                            lambda g, needed: (g.reshape(in_shape),))

    def dropout(self, x: Node, mask: np.ndarray) -> Node:
        """Multiply by a fixed 0/(1/keep) mask drawn by the caller."""
        if mask.shape != x.shape:
            raise ShapeError(f"dropout: mask shape {mask.shape} != {x.shape}")
        return self._record("dropout", x.value.data * mask, (x,),
                            lambda g, needed: (g * mask,))

    def maxpool2(self, x: Node) -> Node:
        """2x2 max pooling, stride 2. Spatial dims must be even."""
        xd = x.value.data
        if xd.ndim != 4:
            raise ShapeError(f"maxpool2 expects (B, C, H, W), got {x.shape}")
        b, c, h, w = xd.shape
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
        # np.maximum returns its second argument on ties (so -0.0 vs 0.0 keeps
        # the earlier one's sign) and propagates NaN; folding from the last
        # view back gives the first maximum's value, as argmax would
        views = [xd[:, :, i::2, j::2] for i, j in _WINDOW]
        out = np.maximum(np.maximum(np.maximum(views[3], views[2]), views[1]), views[0])

        def vjp(g, needed):
            gx = np.empty((b, c, h, w), g.dtype)
            free = np.ones(out.shape, dtype=bool)  # windows whose g is not yet placed
            for (i, j), view in zip(_WINDOW[:-1], views):
                hit = free & ((view == out) | np.isnan(view))
                gx[:, :, i::2, j::2] = np.where(hit, g, 0.0)
                free ^= hit
            # every window holds its maximum or a NaN, so the last view takes the rest
            gx[:, :, 1::2, 1::2] = np.where(free, g, 0.0)
            return (gx,)

        return self._record("maxpool", out, (x,), vjp)

    def conv2d(self, x: Node, w: Node) -> Node:
        """2D convolution, stride 1, 'same' zero padding, odd square kernel."""
        xd, wd = x.value.data, w.value.data
        if xd.ndim != 4 or wd.ndim != 4:
            raise ShapeError(f"conv2d expects (B,C,H,W) and (O,C,k,k), got {x.shape}, {w.shape}")
        b, c, h, wdt = xd.shape
        oc, ic, kh, kw = wd.shape
        if ic != c or kh != kw or kh % 2 == 0:
            raise ShapeError(f"conv2d: kernel {w.shape} incompatible with input {x.shape}")
        k = kh
        in_blocks = _blocks(b, c * k * k * h * wdt, xd.itemsize)
        out = np.empty((b, oc, h * wdt), np.result_type(xd, wd))
        wmat = wd.transpose(2, 3, 1, 0).reshape(k * k * c, oc)
        for s, e in in_blocks:
            out[s:e] = (_columns(xd[s:e], k) @ wmat).transpose(0, 2, 1)

        def vjp(g, needed):
            dx = dw = None
            # any cotangent layout in, the same GEMM operands
            rows = np.ascontiguousarray(g).reshape(b, oc, h * wdt)
            if needed[0] and c < oc:
                # fold g^T W: k*k*C columns, fewer than the flipped layout's k*k*O
                wrows = wd.transpose(0, 2, 3, 1).reshape(oc, k * k * c)
                dx = np.empty((b, c, h, wdt), np.result_type(wd, g))
                for s, e in in_blocks:
                    dx[s:e] = _fold(rows[s:e].transpose(0, 2, 1) @ wrows, k, h, wdt)
            elif needed[0]:
                # the input-VJP of a stride-1 'same' convolution is the same
                # correlation with the kernel flipped and in/out swapped
                wflip = wd[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * oc, c)
                dx = np.empty((b, c, h * wdt), np.result_type(wd, g))
                for s, e in _blocks(b, oc * k * k * h * wdt, g.itemsize):
                    dx[s:e] = (_columns(g[s:e], k) @ wflip).transpose(0, 2, 1)
                dx = dx.reshape(b, c, h, wdt)
            if needed[1]:
                # the input's columns again, a block at a time; the per-sample
                # products are added in sample order, as .sum(axis=0) adds them
                dw = np.zeros((oc, k * k * c), np.result_type(xd, g))
                for s, e in in_blocks:
                    for prod in rows[s:e] @ _columns(xd[s:e], k):
                        dw += prod
                dw = np.ascontiguousarray(dw.reshape(oc, k, k, c).transpose(0, 3, 1, 2))
            return (dx, dw)

        return self._record("conv2d", out.reshape(b, oc, h, wdt), (x, w), vjp)

    def cross_entropy(self, logits: Node, labels: np.ndarray) -> Node:
        """Mean soft-label cross-entropy over the batch, log-sum-exp shifted.

        ``labels`` is a fixed (B, C) matrix of probabilities (rows sum to 1);
        it is not differentiated through.
        """
        z = logits.value.data
        if z.ndim != 2 or labels.shape != z.shape:
            raise ShapeError(f"cross_entropy: logits {z.shape} vs labels {labels.shape}")
        bsz = z.shape[0]
        labels = labels.astype(z.dtype, copy=False)
        logp = log_softmax(z, axis=1)
        value = -(labels * logp).sum(axis=1).mean()
        probs = np.exp(logp)

        def vjp(g, needed):
            return (z.dtype.type(g[0]) * (probs - labels) / bsz,)

        return self._record("cross-entropy", np.array([value]), (logits,), vjp)

    def aleatoric_nll(self, f: Node, sigma: Node, labels: np.ndarray, eps: np.ndarray) -> Node:
        """Negative Monte-Carlo categorical log-likelihood under logit noise.

        Per sample i, with draws eps[t] ~ N(0, I) fixed by the caller:
            x_hat[t] = f[i] + sigma[i] * eps[t]
            L_i = log (1/T) sum_t exp(x_hat[t, c] - logsumexp_c' x_hat[t, c'])
        and the node value is -mean_i sum_c labels[i, c] * L_i(c). For one-hot
        labels this is the standard formulation; soft labels weight the
        per-class log-likelihoods (used when mixup feeds this loss).

        The likelihood itself increases with fit, so the recorded value is
        its negation: a quantity to minimize.
        """
        fd, sd = f.value.data, sigma.value.data
        if fd.ndim != 2 or sd.shape != fd.shape:
            raise ShapeError(f"aleatoric_nll: f {fd.shape} vs sigma {sd.shape}")
        if labels.shape != fd.shape:
            raise ShapeError(f"aleatoric_nll: labels {labels.shape} vs f {fd.shape}")
        t_draws, bsz, ncls = eps.shape
        if (bsz, ncls) != fd.shape:
            raise ShapeError(f"aleatoric_nll: eps {eps.shape} vs f {fd.shape}")
        if np.any(sd <= 0.0):
            raise ValueError("aleatoric_nll: sigma must be strictly positive")
        labels, eps = labels.astype(fd.dtype, copy=False), eps.astype(fd.dtype, copy=False)

        xhat = fd[None, :, :] + sd[None, :, :] * eps  # (T, B, C)
        logp = log_softmax(xhat, axis=2)  # per-draw log-softmax
        ll = log_mean_exp(logp, axis=0)  # (B, C): L[i, c]
        value = -(labels * ll).sum(axis=1).mean()

        softmax = np.exp(logp)  # (T, B, C)
        # weight of draw t in the per-(i, c) log-mean-exp
        wt = np.exp(logp - ll[None, :, :])
        wt /= t_draws

        def vjp(g, needed):
            # dL/dxhat[t,i,c'] summed over target classes c weighted by labels
            # d ll[i,c] / d xhat[t,i,c'] = wt[t,i,c] * (1[c=c'] - softmax[t,i,c'])
            lw = labels[None, :, :] * wt  # (T, B, C) weight per target class
            dxhat = lw - lw.sum(axis=2, keepdims=True) * softmax
            dxhat *= -g[0] / bsz
            df = dxhat.sum(axis=0)
            dsigma = (dxhat * eps).sum(axis=0)
            return (df, dsigma)

        return self._record("aleatoric-nll", np.array([value]), (f, sigma), vjp)


def _blocks(b: int, sample_values: int, itemsize: int) -> list[tuple[int, int]]:
    """(start, end) ranges that cover ``range(b)`` in order, each as many
    samples as fit ``_BLOCK_BYTES`` at ``sample_values`` column entries of
    ``itemsize`` bytes per sample (at least one)."""
    step = max(1, _BLOCK_BYTES // (itemsize * sample_values))
    return [(s, min(s + step, b)) for s in range(0, b, step)]


def _columns(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-padded 'same' patches of (B, C, H, W) ``x`` as (B, H*W, k*k*C).

    One channels-last copy of ``x``, padded to (B, H+2p, W+2p, C), read
    through ``sliding_window_view``: row ``i*W + j`` of a sample holds the
    k x k patch centred on (i, j), its entries in (dy, dx, channel) order,
    so each row gathers k runs of k*C contiguous values. That is the order
    of ``w.transpose(2, 3, 1, 0).reshape(-1, O)`` for an (O, C, k, k)
    kernel, and ``_columns(x, k) @ that`` is the stride-1 correlation,
    (B, H*W, O). conv2d builds columns one block of samples at a time
    (``_blocks``) and keeps none: its forward and weight-VJP take the
    columns of its input, the weight-VJP rebuilding them from the input the
    tape holds. Its input-VJP takes the columns of the cotangent when
    C >= O, and otherwise folds ``g^T W`` through the adjoint, ``_fold``.
    """
    b, c, h, w = x.shape
    p = k // 2
    xp = np.zeros((b, h + 2 * p, w + 2 * p, c), x.dtype)
    xp[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
    return (sliding_window_view(xp, (k, k), axis=(1, 2))
            .transpose(0, 1, 2, 4, 5, 3).reshape(b, h * w, k * k * c))


def _fold(cols: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    """The adjoint of ``_columns``: (B, H*W, k*k*C) patches summed back
    into (B, C, H, W), one slice-add per kernel offset into the zero-padded
    channels-last buffer ``_columns`` reads, then cropped. The result is a
    (B, C, H, W) view of that buffer; conv2d copies it into its C-contiguous
    input gradient."""
    b, _, kkc = cols.shape
    c, p = kkc // (k * k), k // 2
    cols = cols.reshape(b, h, w, k, k, c)
    xp = np.zeros((b, h + 2 * p, w + 2 * p, c), cols.dtype)
    for dy in range(k):
        for dx in range(k):
            xp[:, dy:dy + h, dx:dx + w] += cols[:, :, :, dy, dx]
    return xp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2)


# -- stable log-space reductions ---------------------------------------------


def log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """``z - logsumexp(z)`` along ``axis``, shifted by the max: finite for
    any finite ``z``, however large the gaps between its entries."""
    zmax = z.max(axis=axis, keepdims=True)
    return z - (np.log(np.exp(z - zmax).sum(axis=axis, keepdims=True)) + zmax)


def log_mean_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(mean(exp(a)))`` along ``axis``, shifted by the max."""
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(a - m).mean(axis=axis))


# -- differentiation -------------------------------------------------------


def _reach(tape: Tape, upto: int, targets: set[int]) -> np.ndarray:
    """needed[i]: node i's cotangent can flow into some target leaf."""
    needed = np.zeros(upto + 1, dtype=bool)
    for i in range(upto + 1):
        n = tape.nodes[i]
        if i in targets:
            needed[i] = True
        elif n.parents:
            needed[i] = any(needed[p.idx] for p in n.parents)
    return needed


def _pullback(tape: Tape, node: Node, cotangent: np.ndarray, targets: set[int]) -> list:
    """Reverse accumulation from ``node`` into the target leaves.

    Fixed reverse-index order makes the accumulation deterministic;
    cotangents are only materialized along paths that reach a target, and
    only the leaves' cotangents outlive their node's VJP.
    """
    needed = _reach(tape, node.idx, targets)
    grads: list = [None] * (node.idx + 1)
    grads[node.idx] = cotangent
    for i in range(node.idx, -1, -1):
        g = grads[i]
        if g is None or not needed[i]:
            continue
        n = tape.nodes[i]
        if n.vjp_fn is None:
            continue  # a leaf: vjp and param_gradients read its cotangent
        grads[i] = None  # no later node reads it; the local g keeps it for this VJP
        flags = tuple(bool(needed[p.idx]) for p in n.parents)
        for parent, pg in zip(n.parents, n.vjp_fn(g, flags)):
            if pg is None:
                continue
            if grads[parent.idx] is None:
                grads[parent.idx] = pg
            else:
                grads[parent.idx] = grads[parent.idx] + pg
    return grads


def vjp(tape: Tape, node: Node, cotangent: Tensor) -> Tensor:
    """Pull a cotangent at ``node`` back to the tape's input.

    Returns d(cotangent . node)/d input, with the input's shape. Linear in
    the cotangent.
    """
    tape._require(node)
    if tape.input is None:
        raise ValueError("tape has no input leaf")
    if cotangent.shape != node.shape:
        raise ShapeError(f"cotangent shape {cotangent.shape} != node shape {node.shape}")
    g = None
    if tape.input.idx <= node.idx:
        g = _pullback(tape, node, cotangent.data, {tape.input.idx})[tape.input.idx]
    if g is None:  # no path from the input to ``node``
        g = np.zeros(tape.input.shape, tape.input.value.data.dtype)
    return Tensor._wrap(g)


def summed_jacobian(tape: Tape, node: Node) -> Tensor:
    """Row-sum of the Jacobian of ``node`` w.r.t. the input.

    Element i is sum_a d node_a / d input_i: a vjp with an all-ones
    cotangent, and computed exactly that way (one backward pass instead of
    one per output row).
    """
    tape._require(node)
    return vjp(tape, node, Tensor._wrap(np.ones(node.shape, node.value.data.dtype)))


def param_gradients(tape: Tape, loss_node: Node) -> dict[str, Tensor]:
    """Gradient of a scalar loss node for every parameter leaf on the tape."""
    tape._require(loss_node)
    if loss_node.value.size != 1:
        raise ShapeError(f"loss node must be scalar-shaped, got {loss_node.shape}")
    targets = {p.idx for p in tape.params.values() if p.idx <= loss_node.idx}
    grads = _pullback(tape, loss_node, np.ones(loss_node.shape, loss_node.value.data.dtype),
                      targets)
    out: dict[str, Tensor] = {}
    for name, pnode in tape.params.items():
        g = grads[pnode.idx] if pnode.idx <= loss_node.idx else None
        if g is None:
            out[name] = Tensor._wrap(np.zeros(pnode.shape, pnode.value.data.dtype))
        else:
            out[name] = Tensor._wrap(g)
    return out
