"""Turn recorded spans into per-pass stage figures and per-layer figures.

A pass is one run of a workload's operations. Every figure here is for
one pass, so counts do not depend on how many passes fit in a run.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracing import EVAL_ENTRIES, LAYERS, Recorder

RECIPES = ("classify", "uncertainty", "robustness", "ood", "transfer", "delta_only")

# Every op a Tape records, by the name it records it under. Each gets its
# figures in every traced pass, 0 where it was not called; an op not
# listed here still gets them once it is called.
LEAF_OPS = ("input", "param", "const")
OPS = LEAF_OPS + ("add", "sub", "mul", "matmul", "bias-add", "relu", "softplus", "reshape",
                  "dropout", "maxpool", "conv2d", "sum", "mean", "cross-entropy",
                  "aleatoric-nll")
CONV_PATHS = ("fwd", "vjp_input", "vjp_weight", "vjp_both")


class SpanTable:
    """Columnar view of a recorder's spans with self times."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.names = list(rec.names)
        self.nid = np.frombuffer(rec.name_id, np.int32).copy()
        self.parent = np.frombuffer(rec.parent, np.int32).copy()
        self.op = np.frombuffer(rec.op, np.int32).copy()
        self.dur = np.frombuffer(rec.end, np.float64) - np.frombuffer(rec.start, np.float64)
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def name(self, idx: int) -> str:
        return self.names[self.nid[idx]]

    def ancestors(self, idx: int):
        idx = self.parent[idx]
        while idx >= 0:
            yield idx
            idx = self.parent[idx]


class PassView:
    """The spans of one pass, aggregated by name."""

    def __init__(self, table: SpanTable, op_ids: list[int]):
        self.table = table
        self.mask = np.isin(table.op, op_ids)
        self.index = np.nonzero(self.mask)[0]
        n = len(table.names)
        nid = table.nid[self.mask]
        self.total = dict(zip(table.names, np.bincount(nid, weights=table.dur[self.mask],
                                                       minlength=n)))
        self.self_total = dict(zip(table.names, np.bincount(
            nid, weights=table.self_time[self.mask], minlength=n)))
        self.calls = dict(zip(table.names, np.bincount(nid, minlength=n)))
        self.work: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        op_set = set(op_ids)
        for idx, attrs in table.rec.attrs.items():
            if table.op[idx] in op_set:
                for key, value in attrs.items():
                    self.work[table.name(idx)][key] += value

    def seconds(self, *names: str) -> float:
        return float(sum(self.total.get(n, 0.0) for n in names))

    def count(self, *names: str) -> int:
        return int(sum(self.calls.get(n, 0) for n in names))

    def outermost_seconds(self, names: tuple[str, ...]) -> float:
        """Time in spans of ``names`` not nested inside another of them."""
        ids = {self.table.names.index(n) for n in names if n in self.table.names}
        total = 0.0
        for idx in self.index[np.isin(self.table.nid[self.index], list(ids))]:
            if not any(self.table.nid[a] in ids for a in self.table.ancestors(idx)):
                total += self.table.dur[idx]
        return total


def stage_figures(view: PassView) -> dict[str, float]:
    """Inputs of the end-to-end rates: stage seconds and the work done in them."""
    return {
        "train_s": view.seconds("training.train"),
        "train_samples": view.work["training.train"]["samples"],
        "transform_s": view.seconds("sign.transform_dataset", "sign.delta_only_dataset"),
        "transform_steps": (view.work["sign.transform_dataset"]["steps"]
                            + view.work["sign.delta_only_dataset"]["steps"]),
        "eval_s": view.outermost_seconds(EVAL_ENTRIES),
    }


def _train_roles(view: PassView) -> dict[str, float]:
    """Split training time into the source and final model of each SIGN
    pipeline (its first and second ``train`` call) and every other call."""
    table = view.table
    roles = {"source": 0.0, "final": 0.0, "other": 0.0}
    seen: dict[int, int] = defaultdict(int)
    for idx in view.index:
        if table.name(idx) != "training.train":
            continue
        parent = table.parent[idx]
        role = "other"
        if parent >= 0 and table.name(parent) == "training.sign_pipeline":
            role = ("source", "final")[min(seen[parent], 1)]
            seen[parent] += 1
        roles[role] += table.dur[idx]
    return roles


def layer_figures(view: PassView, wall_s: float, peak_tape_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass. ``_ms`` are totals in the pass;
    names without a unit suffix are exact counts."""
    ms = 1e3
    out: dict[str, float] = {}
    called = {parts[1] for parts in (n.split(".") for n, c in view.calls.items() if c)
              if parts[0] == "autodiff" and len(parts) == 3
              and parts[2] in CONV_PATHS + ("vjp",)}
    for op in sorted(set(OPS) | called):
        paths = CONV_PATHS if op == "conv2d" else ("fwd",) if op in LEAF_OPS else ("fwd", "vjp")
        for path in paths:
            out[f"autodiff.{op}.{path}_ms"] = view.seconds(f"autodiff.{op}.{path}") * ms
            out[f"autodiff.{op}.{path}_calls"] = view.count(f"autodiff.{op}.{path}")
    out["autodiff.conv2d.calls"] = view.count("autodiff.conv2d.fwd")
    for path in CONV_PATHS:
        work = view.work[f"autodiff.conv2d.{path}"]
        out[f"autodiff.conv2d.{path}_flop"] = work["flop"]
        out[f"autodiff.conv2d.{path}_bytes"] = work["bytes"]
    fwd_s = view.seconds("autodiff.conv2d.fwd")
    out["autodiff.conv2d.fwd_gflop_per_s"] = (
        view.work["autodiff.conv2d.fwd"]["flop"] / fwd_s / 1e9 if fwd_s else 0.0)
    out["autodiff.pullback_overhead_ms"] = view.self_total.get("autodiff.pullback", 0.0) * ms
    nodes = sum(c for n, c in view.calls.items()
                if n.startswith("autodiff.") and n.endswith(".fwd"))
    tapes = view.count("autodiff.Tape.__init__")
    out["autodiff.nodes"] = nodes
    out["autodiff.tapes"] = tapes
    out["autodiff.nodes_per_tape"] = nodes / tapes if tapes else 0.0
    out["autodiff.peak_tape_bytes"] = peak_tape_bytes

    out["nn.forward_ms"] = view.seconds("nn.Model.forward") * ms
    out["nn.forward_calls"] = view.count("nn.Model.forward")
    out["nn.checkpoint_io_ms"] = view.seconds("nn.save_checkpoint", "nn.load_checkpoint") * ms

    requested = (view.work["sign.transform_dataset"]["steps"]
                 + view.work["sign.delta_only_dataset"]["steps"])
    evals = view.work["autodiff.summed_jacobian"]["rows"]
    out["sign.transform_ms"] = view.seconds("sign.transform_dataset",
                                            "sign.delta_only_dataset") * ms
    out["sign.requested_steps"] = requested
    out["sign.jacobian_evals"] = evals
    out["sign.evals_per_requested_step"] = evals / requested if requested else 0.0

    roles = _train_roles(view)
    out["training.source_train_ms"] = roles["source"] * ms
    out["training.final_train_ms"] = roles["final"] * ms
    out["training.other_train_ms"] = roles["other"] * ms
    out["training.train_calls"] = view.count("training.train")
    optimizer = ("training.SgdMomentum.step", "training.Adam.step")
    out["training.steps"] = view.count(*optimizer)
    out["training.optimizer_ms"] = view.seconds(*optimizer) * ms
    out["training.param_gradients_ms"] = view.seconds("autodiff.param_gradients") * ms
    out["training.validate_ms"] = view.seconds("training.evaluate_arrays") * ms

    out["augment.classical_ms"] = view.seconds("augment.classical_augment_array") * ms
    out["augment.mixup_ms"] = view.seconds("augment.mixup_arrays") * ms
    out["augment.corrupt_ms"] = view.seconds("augment.corrupt") * ms

    out["evalharness.score_ms"] = view.seconds("evalharness.score_samples") * ms
    out["evalharness.samples_scored"] = view.work["evalharness.score_samples"]["samples"]

    out["datasets.synth_ms"] = view.seconds("datasets.make_synthetic_blobs") * ms
    out["datasets.container_io_ms"] = view.seconds("datasets.save_container",
                                                   "datasets.load_container") * ms
    out["config.load_ms"] = view.seconds("config.load_experiment_config") * ms
    for recipe in RECIPES:
        out[f"repro.{recipe}_ms"] = view.seconds(f"repro.run_{recipe}") * ms

    for layer in LAYERS + ("bench",):
        self_s = sum(v for n, v in view.self_total.items() if n.split(".")[0] == layer)
        out[f"layer.{layer}.self_ms"] = self_s * ms
        out[f"layer.{layer}.share"] = self_s / wall_s if wall_s else 0.0
    return {k: (float(v) if isinstance(v, (float, np.floating)) else int(v))
            for k, v in out.items()}
