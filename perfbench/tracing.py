"""Spans recorded around calls into signreg, installed from outside the package.

Nothing here edits ``src/signreg``: functions and methods are replaced by
timing wrappers at run time, in every signreg module that holds a
reference to them, so calls made through ``from .x import y`` names are
seen too.

Two depths:

* stage mode (untraced runs): only the handful of stage entry points in
  ``STAGES`` are wrapped, so the end-to-end metrics can be split by stage
  at negligible cost;
* full mode (traced runs): every public function and public method of
  every layer module, every ``Tape`` primitive (forward) and every
  recorded VJP closure (backward) is wrapped as well.

A span is (name, start, end, parent span, operation id). Spans live in
flat arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "autodiff", "nn", "sign", "training", "augment", "evalharness",
          "datasets", "config", "cli", "repro")

# The spans whose outermost occurrences make up ``eval_s``: time spent
# scoring held-out samples, in the evaluation entry points and in the
# per-epoch validation pass of training. (The entry points alone take ~2 ms
# on the transfer workload, too little to bound.)
EVAL_ENTRIES = ("cli.cmd_eval", "evalharness.evaluate", "evalharness.ood_evaluate",
                "evalharness.robustness_suite", "evalharness.min_correct_probability",
                "training.evaluate_arrays")

# Return values kept for the output checks of the current operation.
CAPTURED = ("training.sign_pipeline", "evalharness.transferability_protocol",
            "repro.run_classify", "repro.run_uncertainty", "repro.run_robustness",
            "repro.run_ood", "repro.run_delta_only")

# Entry points wrapped in untraced runs too: a few calls per stage (one
# per epoch for validation), so the cost is microseconds per operation.
STAGES = ("training.train", "sign.transform_dataset", "sign.delta_only_dataset",
          *EVAL_ENTRIES, *CAPTURED)

F64 = 8  # bytes per float64 element


def _conv_work(x_shape, w_shape) -> tuple[int, int]:
    """(FLOP, bytes) of one pass of a stride-1 'same' convolution, computed
    from shapes. Forward, input-VJP and weight-VJP each do the same
    multiply-adds and each touch input, weight and output once; bytes are
    that operand traffic, ignoring caches and im2col copies."""
    b, c, h, w = x_shape
    oc, _, k, _ = w_shape
    return 2 * b * oc * h * w * c * k * k, F64 * (b * c * h * w + oc * c * k * k + b * oc * h * w)


class Recorder:
    """Spans, per-span work attributes and captured results of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.attrs: dict[int, dict] = {}  # span index -> work counts
        self.captured: dict[str, list] = {name: [] for name in CAPTURED}
        self.stack: list[int] = []
        self.current_op = -1
        self.paused = False
        self.peak_tape_bytes = 0

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def rename(self, idx: int, name: str):
        self.name_id[idx] = self._intern(name)

    def add_attrs(self, idx: int, **work):
        self.attrs[idx] = work

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: str):
        """Write every span, with its work attributes, to a compressed .npz."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})))


# -- wrappers --------------------------------------------------------------------


def _span(rec: Recorder, name: str, fn, work=None):
    """Wrap ``fn`` in a span; ``work(args, kwargs, result)`` adds attributes."""
    capture = rec.captured.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if work is not None:
            rec.add_attrs(idx, **work(args, kwargs, result))
        if capture is not None:
            capture.append(result)
        return result

    return wrapper


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _train_work(args, kwargs, result):
    split, cfg = _arg(args, kwargs, 1, "split"), _arg(args, kwargs, 2, "cfg")
    return {"samples": len(split.train) * cfg.epochs}


def _transform_work(args, kwargs, result):
    samples, cfgs = _arg(args, kwargs, 1, "samples"), _arg(args, kwargs, 2, "cfgs")
    return {"steps": len(samples) * sum(c.k for c in cfgs)}


def _delta_work(args, kwargs, result):
    samples, cfg = _arg(args, kwargs, 1, "samples"), _arg(args, kwargs, 2, "cfg")
    return {"steps": len(samples) * cfg.k}


def _score_work(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 1, "samples"))}


def _jacobian_work(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 0, "tape").input.shape[0])}


STAGE_WORK = {"training.train": _train_work, "sign.transform_dataset": _transform_work,
              "sign.delta_only_dataset": _delta_work}
TRACE_WORK = {"evalharness.score_samples": _score_work,
              "autodiff.summed_jacobian": _jacobian_work}


def _primitive(rec: Recorder, fn):
    """Forward span of a Tape primitive, named after the op it records."""

    @functools.wraps(fn)
    def wrapper(tape, *args, **kwargs):
        if rec.paused:
            return fn(tape, *args, **kwargs)
        idx = rec.open("autodiff.primitive.fwd")
        try:
            node = fn(tape, *args, **kwargs)
        finally:
            rec.close(idx)
        rec.rename(idx, f"autodiff.{node.op}.fwd")
        if node.op == "conv2d":
            flop, nbytes = _conv_work(args[0].shape, args[1].shape)
            rec.add_attrs(idx, flop=flop, bytes=nbytes)
        return node

    return wrapper


def _vjp(rec: Recorder, op: str, vjp_fn, parent_shapes):
    """Backward span of one recorded node. conv2d is split by which
    cotangents the pullback needs: input only (the transform), weight
    only (the first conv in training) or both."""
    conv = _conv_work(*parent_shapes) if op == "conv2d" else None

    def wrapper(g, needed):
        if rec.paused:
            return vjp_fn(g, needed)
        name = f"autodiff.{op}.vjp"
        if conv is not None:
            name = {(True, False): "autodiff.conv2d.vjp_input",
                    (False, True): "autodiff.conv2d.vjp_weight"}.get(
                        tuple(needed), "autodiff.conv2d.vjp_both")
        idx = rec.open(name)
        try:
            return vjp_fn(g, needed)
        finally:
            rec.close(idx)
            if conv is not None:
                paths = sum(bool(n) for n in needed)
                rec.add_attrs(idx, flop=conv[0] * paths, bytes=conv[1] * paths)

    return wrapper


def _held_arrays(node, vjp_fn):
    """The arrays a recorded node keeps alive: its value and every array
    its VJP closure holds (conv2d's padded input and im2col columns, the
    aleatoric NLL's softmax and weights, parents' values, masks, ...)."""
    yield node.value.data
    for cell in getattr(vjp_fn, "__closure__", None) or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            yield value


def _record(rec: Recorder, fn):
    """Tape._record: wrap each VJP closure and account the memory a tape
    holds. Each buffer is counted once per tape: a view counts as the array
    it views, and a parent's value held by a closure is already counted."""

    @functools.wraps(fn)
    def wrapper(tape, op, value, parents=(), vjp_fn=None):
        residuals = vjp_fn
        if vjp_fn is not None and not rec.paused:
            vjp_fn = _vjp(rec, op, vjp_fn, tuple(p.shape for p in parents))
        node = fn(tape, op, value, parents, vjp_fn)
        if not rec.paused:
            seen = tape.__dict__.setdefault("_bench_buffers", set())
            held = tape.__dict__.get("_bench_bytes", 0)
            for owner in _held_arrays(node, residuals):
                while isinstance(owner.base, np.ndarray):
                    owner = owner.base
                if id(owner) not in seen:
                    seen.add(id(owner))
                    held += owner.nbytes
            tape._bench_bytes = held
            if held > rec.peak_tape_bytes:
                rec.peak_tape_bytes = held
        return node

    return wrapper


# -- installation ------------------------------------------------------------------


def _modules():
    return {name: importlib.import_module(f"signreg.{name}") for name in LAYERS}


def _replace_everywhere(namespaces, original, replacement):
    """Point every module-level reference to ``original`` at ``replacement``."""
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__ and not inspect.isgeneratorfunction(obj)):
            yield name, obj


def _public_methods(mod):
    for cname, cls in vars(mod).items():
        if cname.startswith("_") or not inspect.isclass(cls) or cls.__module__ != mod.__name__:
            continue
        for mname, obj in vars(cls).items():
            if not mname.startswith("_") and inspect.isfunction(obj):
                yield cls, cname, mname, obj


def install(rec: Recorder, full: bool):
    """Wrap signreg for this process: stage spans always, everything if ``full``."""
    import signreg

    mods = _modules()
    namespaces = [signreg, *mods.values()]
    work = dict(STAGE_WORK, **TRACE_WORK) if full else STAGE_WORK
    for layer, mod in mods.items():
        for fname, fn in _public_functions(mod):
            name = f"{layer}.{fname}"
            if full or name in STAGES:
                _replace_everywhere(namespaces, fn, _span(rec, name, fn, work.get(name)))
    if not full:
        return
    autodiff = mods["autodiff"]
    _replace_everywhere(namespaces, autodiff._pullback,
                        _span(rec, "autodiff.pullback", autodiff._pullback))
    for layer, mod in mods.items():
        for cls, cname, mname, fn in _public_methods(mod):
            if cls is autodiff.Tape:
                if mname != "owns":
                    setattr(cls, mname, _primitive(rec, fn))
            else:
                setattr(cls, mname, _span(rec, f"{layer}.{cname}.{mname}", fn))
    autodiff.Tape._record = _record(rec, autodiff.Tape._record)
    autodiff.Tape.__init__ = _span(rec, "autodiff.Tape.__init__", autodiff.Tape.__init__)
