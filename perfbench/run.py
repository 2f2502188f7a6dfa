"""signreg benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload transfer --seed 3 --seconds 20 --trace 0

Runs the workload's operations in a closed loop (one client, one
operation at a time) until ``--seconds`` have passed, then prints each
metric by name with its unit and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps every layer
of signreg and reports the per-layer metrics. Run it from the root of a
checkout; it builds nothing and reads and writes only ``perfbench/out``.
See perfbench/README.md.
"""

import os

# Pinned before numpy loads anywhere in this process or its children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["SIGNREG_THREADS"] = "1"  # the program's own thread count

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny shapes, for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def source_digest() -> str:
    """Identifies the program and the benchmark: outputs and counts are
    only compared between runs of the same sources."""
    h = hashlib.sha256()
    for pkg in (os.path.join(SRC, "signreg"), BENCH_DIR):
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# -- environment -------------------------------------------------------------------


def blas_threads_in_use():
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int, workload: str, trace: int, tiny: bool) -> dict:
    import numpy as np

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads_in_use": blas_threads_in_use(),
            "program_threads": 1, "source_digest": source_digest()}


# -- set-up ------------------------------------------------------------------------


def measure_setup(args, workdir: str) -> list[float]:
    """Time fresh processes from start until set-up is done (import,
    config load, dataset synthesis, normalization), several times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed:\n{proc.stderr}")
    return times


# -- digests and counts remembered across runs ----------------------------------------


class Memory:
    """``out/memory.json``: the first output digests per (source, workload,
    seed, operation) and the first counts per (source, workload), which
    every later pass, in this run or a later one, must match."""

    def __init__(self, path: str):
        self.path = path
        self.data = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.data = json.load(fh)

    def match(self, key: str, value: dict) -> dict:
        """Store ``value`` under a new key; return the differing entries
        of an existing one."""
        old = self.data.setdefault(key, value)
        return {k: (old.get(k), v) for k, v in value.items() if old.get(k) != v}

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


# -- the run ------------------------------------------------------------------------


def run_pass(workload, rec, pass_dir: str, first_op_id: int):
    """Run one pass of the workload's operations; return their outcomes."""
    from workloads import OpOutcome

    os.makedirs(pass_dir, exist_ok=True)
    outcomes, op_ids = [], []
    for i, op in enumerate(workload.operations(pass_dir, rec.captured)):
        rec.current_op = first_op_id + i
        op_ids.append(rec.current_op)
        idx = rec.open(f"bench.{op.name}")
        problems = []
        try:
            code, text = op.run()
        except Exception:  # one failed operation must not end the run
            code, text = None, ""
            problems.append("raised:\n" + traceback.format_exc())
        finally:
            rec.close(idx)
        outcome = OpOutcome(op.name, rec.end[idx] - rec.start[idx], problems)
        if code not in (0, None):
            problems.append(f"exit code {code}: {text.strip()[-300:]}")
        elif code == 0:
            rec.paused = True
            try:
                outcome.digests = op.check(text, problems)
            except Exception:
                problems.append("check raised:\n" + traceback.format_exc())
            finally:
                rec.paused = False
        for captured in rec.captured.values():
            captured.clear()
        outcomes.append(outcome)
    rec.current_op = -1
    return outcomes, op_ids


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "signreg", "__init__.py")):
        fail(f"no signreg package under {SRC}: run from the root of a signreg checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; valid: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    mode = "tiny" if args.tiny else "full"
    run_dir = os.path.join(OUT, f"{args.workload}-{mode}-seed{args.seed}")

    if args.setup_probe:
        workload.setup(args.seed, args.tiny, os.path.join(run_dir, f"probe{os.getpid()}"))
        return 0

    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setup_times = measure_setup(args, run_dir)

    import metrics
    import tracing

    rec = tracing.Recorder()
    tracing.install(rec, full=bool(args.trace))
    t0 = time.perf_counter()
    workload.setup(args.seed, args.tiny, run_dir)
    setup_in_process = time.perf_counter() - t0

    # Warm-up passes are checked like the others but left out of the
    # timings; each run still measures at least one pass.
    warmup = workload.warmup_passes
    passes = []
    started = time.perf_counter()
    while len(passes) <= warmup or time.perf_counter() - started < args.seconds:
        outcomes, op_ids = run_pass(workload, rec, os.path.join(run_dir, f"pass{len(passes)}"),
                                    sum(len(o) for o, _ in passes))
        passes.append((outcomes, op_ids))

    table = metrics.SpanTable(rec)
    memory = Memory(os.path.join(OUT, "memory.json"))
    digest = source_digest()
    per_pass = []
    for n, (outcomes, op_ids) in enumerate(passes):
        for o, op_id in zip(outcomes, op_ids):
            o.figures = dict(metrics.stage_figures(metrics.PassView(table, [op_id])),
                             wall_s=o.seconds)
        # The first pass of the first run at this seed sets the reference.
        for o in outcomes:
            if o.digests:
                changed = memory.match(
                    f"{digest}/{args.workload}/{mode}/seed{args.seed}/{o.name}", o.digests)
                if changed:
                    o.problems.append(f"output digests of {sorted(changed)} differ from the "
                                      f"first run at seed {args.seed}")
        figures = {k: sum(o.figures[k] for o in outcomes) for k in outcomes[0].figures}
        per_pass.append(figures)
        if args.trace:
            view = metrics.PassView(table, op_ids)
            figures["layers"] = metrics.layer_figures(view, figures["wall_s"],
                                                      rec.peak_tape_bytes)
            counts = {k: v for k, v in figures["layers"].items() if isinstance(v, int)}
            changed = memory.match(f"{digest}/{args.workload}/{mode}/counts", counts)
            if changed:
                outcomes[0].problems.append(f"pass {n}: counts (first, now) differ from the "
                                            f"first traced pass: {changed}")
    memory.save()
    # outputs are checked and digested; drop them (checkpoints, containers)
    # so that runs at many seeds do not fill the disk
    for n in range(len(passes)):
        shutil.rmtree(os.path.join(run_dir, f"pass{n}"))

    all_outcomes = [o for outcomes, _ in passes for o in outcomes]
    failed = [o for o in all_outcomes if o.problems]
    for o in failed:
        print(f"perfbench: operation {o.name} failed: {'; '.join(o.problems)}", file=sys.stderr)

    # Each operation's time is its median over the timed passes, which
    # drops a pass slowed by the rest of the machine; a pass is the sum of
    # its operations.
    timed = passes[warmup:]
    stage = {k: sum(median([outcomes[i].figures[k] for outcomes, _ in timed])
                    for i in range(len(timed[0][0])))
             for k in timed[0][0][0].figures}

    def rate(work_key, seconds_key):
        return stage[work_key] / stage[seconds_key] if stage[seconds_key] > 0 else 0.0

    end_to_end = {
        "setup_s": median(setup_times),
        "wall_s": stage["wall_s"],
        "train_samples_per_s": rate("train_samples", "train_s"),
        "transform_sample_steps_per_s": rate("transform_steps", "transform_s"),
        "eval_s": stage["eval_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    bench = load_benchmark()
    result = {"environment": environment(args.seed, args.workload, args.trace, args.tiny),
              "passes": len(passes), "warmup_passes": warmup,
              "operations_per_pass": len(passes[0][0]),
              "failed_frac": len(failed) / len(all_outcomes),
              "setup_samples_s": setup_times, "setup_in_process_s": setup_in_process,
              "end_to_end": end_to_end, "per_pass": per_pass,
              "per_operation": [[[o.name, o.figures] for o in outcomes] for outcomes, _ in passes],
              "failures": [[o.name, o.problems] for o in failed]}
    if args.trace:
        # counts are equal in every pass (checked above); times are medians
        # over the timed passes
        layers = {k: v if isinstance(v, int)
                  else median([p["layers"][k] for p in per_pass[warmup:]])
                  for k, v in sorted(per_pass[0]["layers"].items())}
        result["per_layer"] = layers
        result["tracing_overhead_s"] = tracing_overhead(args, mode, end_to_end["wall_s"])
        result["spans"] = len(rec)
        rec.save(os.path.join(run_dir, "spans.npz"))
        reported = declared(bench["per_layer"], layers)
        print_summary(layers, end_to_end["wall_s"], result["tracing_overhead_s"])
    else:
        reported = declared(bench["end_to_end"], end_to_end)
    with open(os.path.join(OUT, f"{args.workload}-{mode}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations {len(all_outcomes)}  failed_frac {result['failed_frac']:.4f}")
    for name, (value, unit) in reported.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": len(all_outcomes),
                      "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in reported.items()}}))
    return 0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared(metrics: list, values: dict) -> dict:
    """name -> (value, unit) for each metric BENCHMARK.json declares; one
    that the run did not produce is an error, never a silent 0."""
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        fail(f"BENCHMARK.json declares metrics this run does not produce: {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in metrics}


def tracing_overhead(args, mode: str, traced_wall: float):
    """Traced wall_s minus the untraced wall_s of the last untraced run at
    this seed, if there is one. One such pair does not resolve an overhead
    smaller than the run-to-run drift of the machine; RESULTS.md takes it
    from alternating pairs."""
    path = os.path.join(OUT, f"{args.workload}-{mode}-seed{args.seed}-trace0.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        untraced = json.load(fh)["end_to_end"]["wall_s"]
    return traced_wall - untraced


def print_summary(layers: dict, wall_s: float, overhead):
    """Each layer's self time and share of the traced pass's wall time."""
    print(f"traced pass wall_s {wall_s:.3f} s; traced minus the last untraced run at "
          "this seed: " + (f"{overhead:+.3f} s (one pair: not resolved below the "
                           "run-to-run drift)" if overhead is not None else "no untraced run"))
    print(f"{'layer':<14} {'self_ms':>12} {'share':>8}")
    for name in sorted(k for k in layers if k.startswith("layer.") and k.endswith(".self_ms")):
        layer = name.split(".")[1]
        print(f"{layer:<14} {layers[name]:>12.1f} {layers[f'layer.{layer}.share']:>8.1%}")
    conv = sum(layers[f"autodiff.conv2d.{p}_ms"]
               for p in ("fwd", "vjp_input", "vjp_weight", "vjp_both"))
    print(f"autodiff.conv2d.* share of wall_s: {conv / 1e3 / wall_s:.1%}" if wall_s else "")


if __name__ == "__main__":
    sys.exit(main())
