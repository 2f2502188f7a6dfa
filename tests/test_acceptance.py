"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. The directional protocols (4, 5, 7, and the comparison in
6) run on synthetic blobs. Criteria 4, 5 and 10 run ``repro``'s
protocols; criterion 7's confidence-floor protocol lives here
(``mixup_confidence``), since nothing else runs it.
"""

import time
from dataclasses import replace

import numpy as np
from gradcheck import away_from_kinks, check_input_grad
from oracles import (cnn_meta, const, denormalize_sample, forward, mlp_meta,
                     serialize_cifar_record)
from scipy.special import betaincinv

from signreg import repro
from signreg.augment import CorruptionSpec, MixupConfig, mixup_arrays
from signreg.autodiff import param_gradients, vjp
from signreg.cli import main
from signreg.datasets import (Sample, bilinear_resize, decode_ppm, make_synthetic_blobs,
                              normalize, parse_cifar_record)
from signreg.evalharness import evaluate, robustness_suite
from signreg.nn import build_model
from signreg.sign import SignConfig, transform_dataset
from signreg.tensor import Rng, Tensor
from signreg.training import TrainConfig, fit, train


def _passline(num: int, label: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {num}: {label}{suffix}")


def _run(num: int, label: str, fn):
    try:
        detail = fn() or ""
    except AssertionError as exc:
        print(f"[FAIL] criterion {num}: {label} - {exc}")
        raise
    _passline(num, label, detail)


# -- 1: gradient correctness ----------------------------------------------------


def _primitive_gradchecks():
    rng = Rng(101)
    a = rng.child("a").normal((3, 4))
    b = rng.child("b").normal((4, 2))
    check_input_grad(lambda t, n: t.matmul(n, const(t, Tensor(b))), a)
    check_input_grad(lambda t, n: t.matmul(const(t, Tensor(a)), n), b)
    x2 = rng.child("x2").normal((3, 5))
    b2 = rng.child("b2").normal((5,))
    check_input_grad(lambda t, n: t.bias_add(n, const(t, Tensor(b2))), x2)
    check_input_grad(lambda t, n: t.bias_add(const(t, Tensor(x2)), n), b2)
    x4 = rng.child("x4").normal((2, 3, 4, 4))
    b4 = rng.child("b4").normal((3,))
    check_input_grad(lambda t, n: t.bias_add(n, const(t, Tensor(b4))), x4)
    check_input_grad(lambda t, n: t.relu(n), away_from_kinks(rng.child("r"), (3, 4)))
    check_input_grad(lambda t, n: t.softplus(n), rng.child("sp").normal((2, 5)))
    check_input_grad(lambda t, n: t.reshape(n, (3, 4)), rng.child("rs").normal((2, 6)))
    pool_in = rng.child("mp").normal((1, 2, 4, 4)) + np.arange(32).reshape(1, 2, 4, 4) * 0.1
    check_input_grad(lambda t, n: t.maxpool2(n), pool_in)
    cx = rng.child("cx").normal((2, 2, 5, 5))
    cw = rng.child("cw").normal((3, 2, 3, 3))
    check_input_grad(lambda t, n: t.conv2d(n, const(t, Tensor(cw))), cx)
    check_input_grad(lambda t, n: t.conv2d(const(t, Tensor(cx)), n), cw)
    mask = (rng.child("dm").uniform(size=(3, 4)) < 0.7) / 0.7
    check_input_grad(lambda t, n: t.dropout(n, mask), rng.child("dx").normal((3, 4)))
    # both losses
    labels = np.eye(4)[[0, 2, 3]]
    check_input_grad(lambda t, n: t.cross_entropy(n, labels),
                     rng.child("cez").normal((3, 4)))
    f = rng.child("af").normal((2, 3))
    sg = np.abs(rng.child("as").normal((2, 3))) + 0.5
    eps = rng.child("ae").normal((4, 2, 3))
    soft = np.eye(3)[[1, 2]]
    check_input_grad(lambda t, n: t.aleatoric_nll(n, const(t, Tensor(sg)), soft, eps), f)
    check_input_grad(lambda t, n: t.aleatoric_nll(const(t, Tensor(f)), n, soft, eps), sg)


def _basic_cnn_param_fd():
    rng = Rng(102)
    model = build_model(cnn_meta((1, 8, 8), 3), rng.seed)
    # finite differences at 1e-5 need float64; BasicCNN initializes float32
    model.set_params({name: Tensor(t.data) for name, t in model.params.items()})
    x = away_from_kinks(rng.child("x"), (2, 1, 8, 8))
    labels = np.eye(3)[[0, 2]]

    def loss_value() -> float:
        tape = model.forward(Tensor(x))
        return tape.cross_entropy(tape.output, labels).value.item()

    tape = model.forward(Tensor(x))
    loss_node = tape.cross_entropy(tape.output, labels)
    grads = param_gradients(tape, loss_node)

    coord_rng = rng.child("coords")
    worst = 0.0
    checked = 0
    for name in sorted(model.params):
        base = model.params[name].data
        count = max(2, base.size // 100)  # 1% coordinate subsample
        coords = coord_rng.child(name).permutation(base.size)[:count]
        for flat_idx in coords:
            for sign_, store in ((+1, "hi"), (-1, "lo")):
                perturbed = base.copy().reshape(-1)
                perturbed[flat_idx] += sign_ * 1e-5
                trial = dict(model.params)
                trial[name] = Tensor(perturbed.reshape(base.shape))
                saved = model.params
                model.set_params(trial)
                if store == "hi":
                    hi = loss_value()
                else:
                    lo = loss_value()
                model.set_params(saved)
            fd = (hi - lo) / 2e-5
            got = grads[name].data.reshape(-1)[flat_idx]
            err = abs(got - fd) / max(abs(fd), abs(got), 1e-6)
            worst = max(worst, err)
            checked += 1
            assert err < 1e-4, f"{name}[{flat_idx}]: grad {got} vs fd {fd} (rel {err:.2e})"
    return checked, worst


def test_criterion_1_gradient_correctness():
    def body():
        started = time.perf_counter()
        _primitive_gradchecks()
        checked, worst = _basic_cnn_param_fd()
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.0f}s (budget 120s)"
        return f"all primitives + both losses; {checked} CNN coords, worst rel {worst:.1e}, {elapsed:.0f}s"

    _run(1, "gradient correctness vs central finite differences", body)


# -- 2: transform oracle equivalence ----------------------------------------------


def test_criterion_2_sign_oracle_equivalence():
    def body():
        started = time.perf_counter()
        rng = Rng(201)
        model = build_model(mlp_meta(64, [24], 4), rng.seed)
        p = rng.child("p").normal((64,))
        sample = [Sample(image=Tensor(p), label=0, raw=False)]
        for k in (1, 3, 5):
            got = transform_dataset(model, sample, [SignConfig(k=k, gamma=0.5)])[1].image.data
            cur = p.copy()
            for _ in range(k):
                tape = model.forward(Tensor(cur[None]))
                node = tape.taps["pre-logits"]
                rows = []
                for j in range(node.shape[1]):
                    cot = np.zeros(node.shape)
                    cot[0, j] = 1.0
                    rows.append(vjp(tape, node, Tensor(cot)).data.reshape(-1))
                cur = cur + 0.5 * np.stack(rows).sum(axis=0)
            assert np.abs(got - cur).max() < 1e-8, f"K={k} deviates {np.abs(got - cur).max():.2e}"

        from signreg.nn import Dense, Model
        w = rng.child("w").normal((16, 5))
        linear = Model([Dense("out", 16, 5)],
                       {"out.w": Tensor(w), "out.b": Tensor(np.zeros(5))},
                       {"pre-logits": 0, "logits": 0}, (16,), 5,
                       {"arch": "small_mlp", "input_dim": 16, "hidden_dims": [1],
                        "num_classes": 5, "input_shape": [16]})
        q = rng.child("q").normal((16,))
        column_sums = w.sum(axis=1)
        for policy in ("current-iterate", "original-point"):
            for k in (1, 4, 9):
                cfg = SignConfig(k=k, tap="logits", gamma=0.25, eval_point=policy)
                got = transform_dataset(linear, [Sample(image=Tensor(q), label=0, raw=False)],
                                        [cfg])[1].image.data
                want = q + k * 0.25 * column_sums
                assert np.abs(got - want).max() < 1e-10, \
                    f"linear closed form, K={k}, {policy}"

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.0f}s (budget 60s)"
        return f"K in (1,3,5) explicit-Jacobian oracle + linear closed form, {elapsed:.1f}s"

    _run(2, "transform equals the explicit-Jacobian per-step oracle", body)


# -- 3: aleatoric loss identities ---------------------------------------------------


def test_criterion_3_aleatoric_identities():
    def body():
        rng = Rng(301)
        f = rng.child("f").normal((5, 4))
        labels = rng.child("y").integers(0, 4, size=5)
        onehot = np.eye(4)[labels]
        ce = forward(lambda t, n: t.cross_entropy(n, onehot), Tensor(f))[0].item()
        sigma = Tensor(np.full((5, 4), 1e-12))
        for t_draws in (1, 5, 20):
            eps = rng.child("mc", t_draws).normal((t_draws, 5, 4))
            got = forward(lambda t, n: t.aleatoric_nll(n, const(t, sigma), onehot, eps),
                          Tensor(f))[0].item()
            assert abs(got - ce) < 1e-6, f"T={t_draws}: |{got} - {ce}| >= 1e-6"

        # C=2 symmetric case against an independent Monte-Carlo oracle
        eps = Rng(302).normal((100_000, 1, 2))
        loss = forward(lambda t, n: t.aleatoric_nll(n, const(t, Tensor(np.ones((1, 2)))),
                                                    np.eye(2)[[0]], eps),
                       Tensor(np.zeros((1, 2))))[0].item()
        oracle_eps = Rng(987654).normal((1_000_000, 2))
        xhat = oracle_eps  # f = 0, sigma = 1
        shifted = xhat - xhat.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        oracle = -np.log(probs[:, 0].mean())
        assert abs(loss - oracle) < 0.01, f"|{loss} - {oracle}| >= 0.01"
        return f"sigma->0 identity (T=1,5,20) and MC oracle |diff|={abs(loss - oracle):.4f}"

    _run(3, "aleatoric loss identities", body)


# -- 4: delta-only signal ------------------------------------------------------------


def test_criterion_4_delta_only_signal():
    def body():
        started = time.perf_counter()
        accs = []
        for seed in (0, 1, 2):
            result = repro.run_delta_only(seed, separation=10.0, samples_per_class=200,
                                          epochs=20)
            accs.append(result["delta_accuracy"])
            assert result["delta_accuracy"] > 2.0 / 3.0, \
                f"seed {seed}: delta-only accuracy {result['delta_accuracy']:.3f} <= 0.667"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.0f}s (budget 300s)"
        return "accs " + ", ".join(f"{a:.3f}" for a in accs) + f" vs chance 0.333, {elapsed:.0f}s"

    _run(4, "deltas alone train a better-than-2x-chance classifier", body)


# -- 5: directional benefit ------------------------------------------------------------


def test_criterion_5_sign_benefit_directional():
    def body():
        started = time.perf_counter()
        rows = []
        for seed in (0, 1, 2):
            reports = repro.run_classify(seed)
            result = {arm: reports[arm].mean_accuracy for arm in ("none", "sign")}
            classes = len(reports["none"].per_class)
            # an effect can show only if the none arm is off both chance and the ceiling
            low = 1.0 / classes + 0.1
            assert low <= result["none"] <= 0.97, \
                f"seed {seed}: none {result['none']:.4f} outside [{low:.4f}, 0.97]"
            rows.append((seed, result["none"], result["sign"]))
            per_seed = time.perf_counter() - started
            assert per_seed < 1800 * (len(rows)), f"over 30 min/seed budget at seed {seed}"
        for seed, none_acc, sign_acc in rows:
            assert sign_acc >= none_acc - 0.005, \
                f"seed {seed}: sign {sign_acc:.4f} < none {none_acc:.4f} - 0.005"
        wins = sum(1 for _, n, s in rows if s > n)
        assert wins >= 2, f"strictly greater on only {wins}/3 seeds"
        detail = " ".join(f"s{seed}:{n:.4f}->{s:.4f}" for seed, n, s in rows)
        return f"{detail}; wins {wins}/3"

    _run(5, "pipeline vs plain training, directional", body)


# -- 6: robustness harness fidelity -----------------------------------------------------


def test_criterion_6_robustness_harness():
    def body():
        raw = make_synthetic_blobs(3, 40, (1, 12, 12), 2.0, Rng(601).child("blobs"))
        split = normalize(raw)
        meta = repro.mlp_meta(split)
        model = build_model(meta, seed=601)
        train(model, split, TrainConfig(epochs=10, batch_size=32, learning_rate=0.05, seed=601))

        clean = evaluate(model, split.test).mean_accuracy
        identity = robustness_suite(model, raw.test,
                                    [CorruptionSpec(kind="pixel-off", pixel_count=0),
                                     CorruptionSpec(kind="gaussian", sigma=0.0)],
                                    repeats=3, rng=Rng(602), stats=split.stats)
        for res in identity:
            assert res.mean_accuracy == clean and res.std_accuracy == 0.0, \
                f"{res.spec.describe()} != clean accuracy"

        specs = [CorruptionSpec(kind="pixel-off", pixel_count=14),
                 CorruptionSpec(kind="gaussian", mu=0.0, sigma=10.0)]
        a = robustness_suite(model, raw.test, specs, repeats=5, rng=Rng(603), stats=split.stats)
        b = robustness_suite(model, raw.test, specs, repeats=5, rng=Rng(603), stats=split.stats)
        for ra, rb in zip(a, b):
            assert ra.accuracies == rb.accuracies, "rerun not bit-identical"
            assert (ra.mean_accuracy, ra.std_accuracy) == (rb.mean_accuracy, rb.std_accuracy)

        # directional comparison, reported but not gated: desk-scale margins
        # sit inside run-to-run noise
        comparison = repro.run_robustness(seed=0, epochs=16)
        lines = []
        for method, entry in comparison.items():
            cells = [f"{method} clean={entry['clean'].mean_accuracy:.4f}"]
            for res in entry["corruptions"]:
                cells.append(f"{res.spec.describe()}={res.mean_accuracy:.4f}+-{res.std_accuracy:.0e}")
            lines.append(" ".join(cells))
        return "deterministic, identity-exact; " + " | ".join(lines)

    _run(6, "corruption harness fidelity", body)


# -- 7: mixup correctness ----------------------------------------------------------------


def mixup_confidence(seed: int, separation: float = 6.0, noise_sigma: float = 10.0,
                     samples_per_class: int = 40, epochs: int = 40,
                     mixup_alpha: float = 1.0) -> dict:
    """Confidence floor (lowest correct-prediction probability) under mixup.

    Mixup's blended targets keep the model from saturating, so its floor
    sits below the plainly-trained model's. Blending strength here is
    alpha = 1 (uniform lambda): the saturation contrast is the phenomenon
    being demonstrated, and near-0/1 lambdas barely exercise it at this
    scale.
    """
    split = repro.blob_split(seed, separation=separation, samples_per_class=samples_per_class,
                             noise_sigma=noise_sigma, test_per_class=400, val_per_class=100)
    meta = repro.mlp_meta(split)
    floors = {}
    for strategy in ("none", "mixup"):
        cfg = replace(repro._base_cfg(seed, epochs, strategy), mixup_alpha=mixup_alpha)
        model, _ = fit(meta, split, cfg)
        floors[strategy] = evaluate(model, split.test).min_correct_probability
    return floors


def test_criterion_7_mixup():
    def body():
        started = time.perf_counter()
        # the blend law on a constant-image batch, against the draws it takes
        alpha = MixupConfig().alpha
        images = np.stack([np.full((1, 2, 2), v) for v in (4.0, 8.0, 4.0, 8.0)])
        labels = np.eye(3)[[0, 1, 2, 1]]
        mixed, soft = mixup_arrays(images, labels, MixupConfig(), Rng(702))
        draw_rng = Rng(702)
        perm, lams = draw_rng.permutation(4), draw_rng.beta(alpha, alpha, size=4)
        for i, j in enumerate(perm):
            assert np.all(mixed[i] == lams[i] * images[i] + (1.0 - lams[i]) * images[j])
            assert np.array_equal(soft[i], lams[i] * labels[i] + (1.0 - lams[i]) * labels[j])
            assert abs(soft[i].sum() - 1.0) < 1e-12

        draws = Rng(701).beta(alpha, alpha, size=100_000)
        for d in range(1, 10):
            q = betaincinv(alpha, alpha, d / 10)
            diff = abs((draws <= q).mean() - d / 10)
            assert diff < 0.01, f"decile {d}: empirical CDF off by {diff:.4f}"

        floors = []
        for seed in (0, 1, 2):
            result = mixup_confidence(seed)
            floors.append((seed, result["none"], result["mixup"]))
            assert result["mixup"] < result["none"], \
                f"seed {seed}: mixup floor {result['mixup']:.4f} >= none {result['none']:.4f}"
        elapsed = time.perf_counter() - started
        detail = " ".join(f"s{s}:{n:.3f}>{m:.3f}" for s, n, m in floors)
        return f"identities + Beta deciles; floors {detail}; {elapsed:.0f}s"

    _run(7, "mixup identities, lambda law, confidence floor", body)


# -- 8: data integrity -------------------------------------------------------------------


def test_criterion_8_data_integrity():
    def body():
        for label in (0, 7, 9):
            record = bytes([label]) + bytes((i * 31) % 256 for i in range(3072))
            assert serialize_cifar_record(parse_cifar_record(record)) == record

        blob = b"P6\n6 4\n255\n" + bytes([200, 100, 50]) * 24
        arr = decode_ppm(blob)
        resized = bilinear_resize(arr, 2, 3)
        assert np.all(resized[0] == 200.0) and np.all(resized[1] == 100.0) \
            and np.all(resized[2] == 50.0)
        const = np.full((3, 64, 64), 42.0)
        assert np.all(bilinear_resize(const, 32, 32) == 42.0)

        raw = make_synthetic_blobs(2, 10, (3, 8, 8), 4.0, Rng(801))
        split = normalize(raw)
        for orig, norm_s in zip(raw.test, split.test):
            back = denormalize_sample(norm_s, split.stats)
            assert np.abs(back.image.data - orig.image.data).max() < 1e-10
        return "CIFAR record bijection, PPM + bilinear exactness, normalization roundtrip"

    _run(8, "data integrity round trips", body)


# -- 9: CLI determinism -------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    # SmallMLP computes in float64, BasicCNN in float32; each reruns bit for bit
    model_lines = {"small_mlp": ["arch = small_mlp", "hidden_dims = 8"],
                   "basic_cnn": ["arch = basic_cnn"]}

    def body():
        def run(arch: str, tag: str) -> dict[str, bytes]:
            out = tmp_path / tag
            cfg_path = tmp_path / f"{tag}.ini"
            cfg_path.write_text("\n".join([
                "[dataset]", "kind = blobs", "classes = 3", "samples_per_class = 10",
                "image_shape = 1x8x8", "separation = 4.0", "split_seed = 5",
                "[model]", *model_lines[arch], "init_seed = 2",
                "[strategy]", "name = sign", "sign_k = 3,5", "sign_gamma = 0.01",
                "sign_normalize = unit-max-abs", "source_epochs = 2", "source_seed = 2",
                "[train]", "epochs = 2", "batch_size = 16", "seed = 9",
                "learning_rate = 0.05", "threads = 1",
                "[eval]", "[output]", f"dir = {out}", "",
            ]))
            assert main(["train", "-c", str(cfg_path)]) == 0
            assert main(["eval", "-c", str(cfg_path),
                         "--checkpoint", str(out / "checkpoint.bin")]) == 0
            artifacts = {}
            for name in ("checkpoint.bin", "source-checkpoint.bin", "report.csv",
                         "report.json", "transformed-train.container", "eval-report.json",
                         "per-sample.csv"):
                artifacts[name] = (out / name).read_bytes()
            return artifacts

        for arch in model_lines:
            first = run(arch, f"{arch}-a")
            second = run(arch, f"{arch}-b")
            for name in first:
                assert first[name] == second[name], \
                    f"{arch}: {name} differs between identical runs"
        return ("checkpoints, reports, transformed containers and eval outputs byte-identical, "
                "SmallMLP and BasicCNN")

    _run(9, "bit-identical reruns of cmd_train and cmd_eval", body)


# -- 10: transferability protocol ------------------------------------------------------------


def test_criterion_10_transferability():
    def body():
        started = time.perf_counter()
        result = repro.run_transfer(seed=0, epochs=4,
                                    sign_cfgs=[SignConfig(k=10, gamma=0.02,
                                                          normalize="unit-max-abs"),
                                               SignConfig(k=20, gamma=0.02,
                                                          normalize="unit-max-abs")])
        assert len(result.transfer_report.per_class) == 3
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"took {elapsed:.0f}s (budget 600s)"

        control = repro.run_transfer(seed=0, epochs=2, sign_cfgs=[])
        assert [r.accuracy for r in control.transfer_report.per_class] == \
            [r.accuracy for r in control.control_report.per_class]
        assert control.transfer_report.mean_accuracy == control.control_report.mean_accuracy
        assert control.transfer_report.min_correct_probability == \
            control.control_report.min_correct_probability
        return (f"conv->mlp transfer {result.control_report.mean_accuracy:.3f} vs "
                f"{result.transfer_report.mean_accuracy:.3f} in {elapsed:.0f}s; "
                "empty-config control arm bit-equal")

    _run(10, "cross-architecture transfer protocol", body)
