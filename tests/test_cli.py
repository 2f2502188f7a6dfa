"""Exit codes, run-directory artifacts, and container round trips via the CLI."""

import dataclasses
import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest
from oracles import cnn_meta, mlp_meta, rewrite_header

from signreg import cli, evalharness, repro, training
from signreg import config as cfgmod
from signreg.augment import CorruptionSpec, MixupConfig
from signreg.cli import main
from signreg.config import (ConfigError, ExperimentConfig, load_experiment_config,
                            parse_corruption, resolved_config_text)
from signreg.datasets import CIFAR_CLASSES, NormStats, Sample, load_container, save_container
from signreg.nn import build_model, load_checkpoint, params_checksum, save_checkpoint
from signreg.sign import SignConfig
from signreg.tensor import Rng, Tensor
from signreg.training import TrainConfig


def write_fake_cifar(root: str, per_file: int, rng: Rng):
    for i in range(1, 6):
        labels = rng.child("train", i).integers(0, 10, size=per_file)
        with open(os.path.join(root, f"data_batch_{i}.bin"), "wb") as fh:
            for j, lab in enumerate(labels):
                pixels = rng.child("px", i, j).integers(0, 256, size=3072)
                fh.write(bytes([int(lab)]) + bytes(int(p) for p in pixels))
    with open(os.path.join(root, "test_batch.bin"), "wb") as fh:
        for j in range(per_file):
            pixels = rng.child("test-px", j).integers(0, 256, size=3072)
            fh.write(bytes([j % 10]) + bytes(int(p) for p in pixels))


BLOB_LINES = ["kind = blobs", "classes = 3", "samples_per_class = 10",
              "image_shape = 1x8x8", "separation = 5.0", "split_seed = 1"]


def blobs_with(line):
    """The default blobs dataset lines, with ``line`` setting its key."""
    key = line.split("=")[0]
    return [kept for kept in BLOB_LINES if not kept.startswith(key)] + [line]


def write_config(path, *, epochs=0, strategy="none", out_dir, extra_strategy="",
                 extra_eval="", arch="small_mlp", dataset_lines=None, batch_size=16,
                 extra_train="", extra_model="", hidden_dims="12", init_seed=0, seed=3,
                 learning_rate=0.05):
    dataset = dataset_lines or BLOB_LINES
    text = "\n".join([
        "[dataset]", *dataset,
        "[model]", f"arch = {arch}", f"init_seed = {init_seed}", extra_model,
        "" if hidden_dims is None else f"hidden_dims = {hidden_dims}",
        "[strategy]", f"name = {strategy}", extra_strategy,
        "[train]", f"epochs = {epochs}", f"batch_size = {batch_size}", f"seed = {seed}",
        f"learning_rate = {learning_rate}", extra_train,
        "[eval]", extra_eval,
        "[output]", f"dir = {out_dir}",
    ])
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return str(path)


class TestCmdTrain:
    def test_zero_epochs_exit_zero_empty_report(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", epochs=0, out_dir=out)
        assert main(["train", "-c", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["epochs"] == 0 and report["selected_epoch"] is None
        assert (out / "checkpoint.bin").exists()
        assert (out / "resolved-config.ini").exists()

    def test_missing_dataset_path_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", epochs=1, out_dir=tmp_path / "run",
                           dataset_lines=["kind = cifar10", "path = /nonexistent/cifar"])
        assert main(["train", "-c", cfg]) == 1
        assert "path" in capsys.readouterr().err

    def test_sign_without_source_settings_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", epochs=1, strategy="sign",
                           out_dir=tmp_path / "run")
        assert main(["train", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert "source" in err

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini", epochs=1, out_dir=tmp_path / "run",
                            extra_train="warp_speed = 9")
        with pytest.raises(ConfigError, match=re.escape("[train] unknown key(s): warp_speed")):
            load_experiment_config(path)

    def test_short_training_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", epochs=2, out_dir=out)
        assert main(["train", "-c", cfg]) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + (train,val) x 2 epochs
        resolved = (out / "resolved-config.ini").read_text()
        assert "epochs = 2" in resolved and "strategy" in resolved

    @pytest.mark.parametrize("arch, extra_model, hidden_dims, meta", [
        ("basic_cnn", "", None, {"arch": "basic_cnn", "drop_prob": 0.3}),
        ("small_mlp", "uncertainty_head = true", "12",
         {"arch": "small_mlp", "hidden_dims": [12], "uncertainty_head": True})])
    def test_model_section_picks_the_model(self, tmp_path, arch, extra_model, hidden_dims, meta):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", epochs=1, out_dir=out, arch=arch,
                           extra_model=extra_model, hidden_dims=hidden_dims)
        assert main(["train", "-c", cfg]) == 0
        model = load_checkpoint(str(out / "checkpoint.bin"))
        assert meta.items() <= model.meta.items() and model.input_shape == (1, 8, 8)

    def test_cifar10_batches(self, tmp_path, monkeypatch):
        write_fake_cifar(str(tmp_path), per_file=3, rng=Rng(42))
        splits = []
        real_train = cli.train
        monkeypatch.setattr(cli, "train", lambda model, split, cfg: splits.append(split)
                            or real_train(model, split, cfg))
        cfg = write_config(tmp_path / "c.ini", epochs=1, out_dir=tmp_path / "run",
                           dataset_lines=["kind = cifar10", f"path = {tmp_path}", "val_count = 5"])
        assert main(["train", "-c", cfg]) == 0
        (split,) = splits
        assert (len(split.train), len(split.val), len(split.test)) == (10, 5, 3)
        assert split.class_names == CIFAR_CLASSES and split.train[0].image.shape == (3, 32, 32)

    def test_soft_labels_are_the_training_targets(self, tmp_path, monkeypatch):
        images = Rng(4).child("images").normal((12, 1, 8, 8))
        soft = (0.5, 0.25, 0.25)
        targets, losses = [], []
        real_stack = training.stack_samples

        def stacking(samples, ncls):
            stacked, rows = real_stack(samples, ncls)
            targets.append(rows)
            return stacked, rows

        monkeypatch.setattr(training, "stack_samples", stacking)
        for name, soft_label in (("hard", None), ("soft", soft)):
            container = str(tmp_path / f"{name}.container")
            save_container([Sample(image=Tensor(img), label=0, raw=False, soft_label=soft_label)
                            for img in images], container, ("a", "b", "c"), raw_domain=False,
                           stats=NormStats(mean=(128.0,), std=(12.0,)))
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.ini", epochs=1, out_dir=out,
                               dataset_lines=["kind = container", f"path = {container}"])
            assert main(["train", "-c", cfg]) == 0
            losses.append((out / "report.csv").read_text().splitlines()[1])
        assert np.array_equal(targets[-2], np.tile(soft, (len(targets[-2]), 1)))  # train split
        assert losses[0] != losses[1]


class TestSourceCheckpoint:
    def test_given_checkpoint_is_the_source(self, tmp_path, monkeypatch):
        run_a = tmp_path / "a"
        assert main(["train", "-c", write_config(tmp_path / "a.ini", epochs=2,
                                                 out_dir=run_a)]) == 0
        given = run_a / "checkpoint.bin"
        calls = []
        real_train = training.train
        for module in (training, cli):
            monkeypatch.setattr(module, "train", lambda *a, module=module, **k:
                                calls.append(module.__name__) or real_train(*a, **k))
        run_b = tmp_path / "b"
        cfg = write_config(tmp_path / "b.ini", epochs=1, strategy="sign", out_dir=run_b,
                           extra_strategy=f"source_checkpoint = {given}\nsign_k = 2\n"
                                          "sign_gamma = 0.01\nsign_normalize = unit-max-abs")
        assert main(["train", "-c", cfg]) == 0
        assert calls == ["signreg.cli"]  # the final model only

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert sha256(run_b / "source-checkpoint.bin") == sha256(given)
        checksum = params_checksum(load_checkpoint(str(given)).params)
        samples, _ = load_container(str(run_b / "transformed-train.container"))
        assert samples and all(s.provenance["source_model"] == checksum for s in samples)


def test_sign_run_initializes_final_model_from_init_seed(tmp_path):
    written = {}
    for init_seed in (0, 7):
        path, out = tmp_path / f"c{init_seed}.ini", tmp_path / f"run{init_seed}"
        write_config(path, epochs=1, strategy="sign", out_dir=out,
                     extra_strategy="source_epochs = 1\n" + SIGN_LINES)
        path.write_text(path.read_text().replace("init_seed = 0", f"init_seed = {init_seed}"))
        assert main(["train", "-c", str(path)]) == 0
        written[init_seed] = {name: (out / name).read_bytes()
                              for name in ("checkpoint.bin", "source-checkpoint.bin")}
    assert written[0]["source-checkpoint.bin"] == written[7]["source-checkpoint.bin"]
    assert written[0]["checkpoint.bin"] != written[7]["checkpoint.bin"]


def test_training_on_own_container_keeps_images_and_stats(tmp_path, monkeypatch):
    run_a = tmp_path / "a"
    assert main(["train", "-c", write_config(tmp_path / "a.ini", epochs=1, strategy="sign",
                                             out_dir=run_a, extra_strategy="source_epochs = 1\n"
                                             + SIGN_LINES)]) == 0
    container = str(run_a / "transformed-train.container")
    samples, manifest = load_container(container)
    splits = []
    real_train = cli.train
    monkeypatch.setattr(cli, "train", lambda model, split, cfg: splits.append(split)
                        or real_train(model, split, cfg))
    run_b = tmp_path / "b"
    cfg = write_config(tmp_path / "b.ini", epochs=1, out_dir=run_b,
                       dataset_lines=["kind = container", f"path = {container}"])
    assert main(["train", "-c", cfg]) == 0
    (split,) = splits
    assert manifest["stats"] is not None and split.stats == manifest["stats"]
    assert [s.image.data.tobytes() for s in split.train + split.val + split.test] == \
        [s.image.data.tobytes() for s in samples]
    assert main(["eval", "-c", cfg, "--checkpoint", str(run_b / "checkpoint.bin")]) == 0
    assert (run_b / "per-sample.csv").exists()


def test_sign_run_on_transformed_container_saves_only_new_copies(tmp_path):
    """The run's copies are found by position, not by provenance: here every
    training original already carries an earlier transform's provenance."""
    images = Rng(4).child("images").normal((24, 1, 8, 8))
    container = str(tmp_path / "earlier.container")
    save_container([Sample(image=Tensor(img), label=i % 3, raw=False,
                           provenance={"source_model": "earlier", "k": 2})
                    for i, img in enumerate(images)], container, ("a", "b", "c"),
                   raw_domain=False, stats=NormStats(mean=(128.0,), std=(12.0,)))
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.ini", epochs=1, strategy="sign", out_dir=out,
                       dataset_lines=["kind = container", f"path = {container}"],
                       extra_strategy="source_epochs = 1\nsign_k = 1,2\nsign_gamma = 0.01\n"
                                      "sign_normalize = unit-max-abs")
    assert main(["train", "-c", cfg]) == 0
    train_count = len(cfgmod.build_dataset(load_experiment_config(cfg)).train)
    samples, _ = load_container(str(out / "transformed-train.container"))
    assert len(samples) == train_count * 2
    checksum = params_checksum(load_checkpoint(str(out / "source-checkpoint.bin")).params)
    assert all(s.provenance["source_model"] == checksum for s in samples)


def _checkpoint(tmp_path, name, num_classes, input_shape, hidden=4):
    path = str(tmp_path / name)
    save_checkpoint(build_model(mlp_meta(input_shape, [hidden], num_classes), 1), path)
    return path


def _broken_container(path, breaks):
    """A one-sample container whose manifest ``breaks`` edits in place."""
    save_container([Sample(image=Tensor(np.zeros((1, 8, 8))), label=0, raw=False)], path,
                   ("a", "b", "c"), raw_domain=False)
    return rewrite_header(path, breaks)


def _broken_checkpoint(tmp_path, name, breaks):
    """A {fits} checkpoint whose header ``breaks`` edits in place."""
    return rewrite_header(_checkpoint(tmp_path, name, 3, (1, 8, 8)), breaks)


def _nan_checkpoint(path):
    """A {fits} checkpoint with one NaN in tensor fc1.w."""
    model = build_model(mlp_meta((1, 8, 8), [4], 3), 1)
    w = model.params["fc1.w"].copy()
    w[5, 2] = np.nan
    model.set_params({**model.params, "fc1.w": w})
    save_checkpoint(model, path)
    return path


def _two_class_soft_label(soft):
    """Breaks: two classes, and sample 0 carries the soft label ``soft``."""
    def breaks(manifest):
        manifest["class_names"] = ["a", "b"]
        manifest["samples"][0]["soft_label"] = soft
    return breaks


def _container(path, images, names=("a", "b", "c"), raw_domain=False, stats=None):
    """A container of one label-0 sample per image."""
    save_container([Sample(image=Tensor(img), label=0, raw=raw_domain) for img in images], path,
                   names, raw_domain=raw_domain, stats=stats)
    return path


def _ood_dir(root, blob):
    """An OOD directory whose one folder, ``zero``, holds one PPM file ``blob``."""
    os.makedirs(root / "zero")
    (root / "zero" / "0.ppm").write_bytes(blob)
    return str(root)


def _error_files(tmp_path):
    """The files the error tables name by key."""
    nan_image = np.zeros((1, 8, 8))
    nan_image[0, 3, 4] = np.nan
    files = {"fits": _checkpoint(tmp_path, "fits.bin", 3, (1, 8, 8)),
             "shape": _checkpoint(tmp_path, "shape.bin", 3, (1, 6, 6)),
             "classes": _checkpoint(tmp_path, "classes.bin", 2, (1, 8, 8)),
             "wide": _checkpoint(tmp_path, "wide.bin", 4, (1, 8, 8)),
             "narrow": _checkpoint(tmp_path, "narrow.bin", 3, (1, 8, 8), hidden=1),
             "nan": _container(str(tmp_path / "nan.container"), [np.zeros((1, 8, 8)), nan_image]),
             "ragged": _container(str(tmp_path / "ragged.container"),
                                  [np.zeros((1, 8, 8)), np.zeros((1, 4, 4))]),
             "twoclass": _container(str(tmp_path / "twoclass.container"), [np.zeros((1, 8, 8))],
                                    names=("a", "b")),
             "rawdomain": _container(str(tmp_path / "rawdomain.container"),
                                     [np.full((1, 8, 8), 128.0)], raw_domain=True),
             "modelspace": _container(str(tmp_path / "modelspace.container"),
                                      [np.zeros((1, 8, 8))] * 6,
                                      stats=NormStats(mean=(128.0,), std=(12.0,))),
             "pair": _container(str(tmp_path / "pair.container"), [np.zeros((1, 8, 8))] * 2),
             "nostatsdata": _container(str(tmp_path / "nostatsdata.container"),
                                       [np.zeros((1, 8, 8))] * 6),
             "ppmzero": _ood_dir(tmp_path / "ppmzero", b"P6 0 0 255\n"),
             "ppmtext": _ood_dir(tmp_path / "ppmtext", b"P6 x 2 255\n" + bytes(12)),
             "ppmrgb": _ood_dir(tmp_path / "ppmrgb", b"P6 2 2 255\n" + bytes(12)),
             "ppmshort": _ood_dir(tmp_path / "ppmshort", b"P6 2 "),
             "ppm16": _ood_dir(tmp_path / "ppm16", b"P6 2 2 65535\n" + bytes(24)),
             "oodempty": str(tmp_path / "oodempty"),
             "cifar": str(tmp_path / "cifar"),
             "missing": str(tmp_path / "missing"),
             "nanparam": _nan_checkpoint(str(tmp_path / "nanparam.bin")),
             "headershort": str(tmp_path / "headershort.bin"),
             "headertext": str(tmp_path / "headertext.bin"),
             "tensorslist": _broken_checkpoint(tmp_path, "tensorslist.bin",
                                               lambda h: h.update(tensors=[])),
             "tensordtype": _broken_checkpoint(
                 tmp_path, "tensordtype.bin",
                 lambda h: h["tensors"]["fc1.w"].update(dtype="<i8")),
             "tensorshape": _broken_checkpoint(
                 tmp_path, "tensorshape.bin",
                 lambda h: h["tensors"]["fc1.w"].update(shape=[4, 64])),
             "dropmeta": _broken_checkpoint(
                 tmp_path, "dropmeta.bin",
                 lambda h: h.update(meta={"arch": "basic_cnn", "input_shape": [1, 8, 8],
                                          "num_classes": 3, "drop_prob": 1.5})),
             "hiddenmeta": _broken_checkpoint(tmp_path, "hiddenmeta.bin",
                                              lambda h: h["meta"].update(hidden_dims=[0])),
             "flatmeta": _broken_checkpoint(tmp_path, "flatmeta.bin",
                                            lambda h: h["meta"].update(input_dim=63)),
             # a layer no memory could hold, and a JSON number (1e400) too large for an int
             "hugemeta": _broken_checkpoint(
                 tmp_path, "hugemeta.bin",
                 lambda h: h["meta"].update(hidden_dims=[1000000000000])),
             "infmeta": _broken_checkpoint(tmp_path, "infmeta.bin",
                                           lambda h: h["meta"].update(num_classes=1e400)),
             "rankzero": _broken_container(str(tmp_path / "rankzero.container"),
                                           lambda m: m["samples"][0].update(shape=[], nbytes=8)),
             "shapetext": _broken_container(str(tmp_path / "shapetext.container"),
                                            lambda m: m["samples"][0].update(shape=["x", 8, 8])),
             "nbytes": _broken_container(str(tmp_path / "nbytes.container"),
                                         lambda m: m["samples"][0].update(nbytes=7)),
             "shapeinf": _broken_container(str(tmp_path / "shapeinf.container"),
                                           lambda m: m["samples"][0].update(shape=[1e400, 8, 8])),
             "offsetinf": _broken_container(str(tmp_path / "offsetinf.container"),
                                            lambda m: m["samples"][0].update(offset=1e400)),
             "shapezero": _broken_container(str(tmp_path / "shapezero.container"),
                                            lambda m: m["samples"][0].update(shape=[0], nbytes=0)),
             "junk": str(tmp_path / "junk.bin"),
             "truncated": str(tmp_path / "truncated.bin"),
             "noshape": _broken_container(str(tmp_path / "noshape.container"),
                                          lambda m: m["samples"][0].pop("shape")),
             "nostats": _broken_container(str(tmp_path / "nostats.container"),
                                          lambda m: m.update(stats={})),
             "statsscalar": _broken_container(str(tmp_path / "statsscalar.container"),
                                              lambda m: m.update(stats={"mean": 5, "std": [1]})),
             "statswide": _broken_container(str(tmp_path / "statswide.container"),
                                            lambda m: m.update(stats={"mean": [0, 1],
                                                                      "std": [1, 1]})),
             "statszero": _broken_container(str(tmp_path / "statszero.container"),
                                            lambda m: m.update(stats={"mean": [0], "std": [0]})),
             "label5": _broken_container(str(tmp_path / "label5.container"),
                                         lambda m: m["samples"][0].update(label=5)),
             "negative": _broken_container(str(tmp_path / "negative.container"),
                                           lambda m: m["samples"][0].update(label=-1)),
             "softlen": _broken_container(str(tmp_path / "softlen.container"),
                                          lambda m: m["samples"][0].update(soft_label=[0.5, 0.5])),
             "softsum": _broken_container(str(tmp_path / "softsum.container"),
                                          _two_class_soft_label([0.9, 0.9])),
             "softneg": _broken_container(str(tmp_path / "softneg.container"),
                                          _two_class_soft_label([1.5, -0.5])),
             "softtext": _broken_container(str(tmp_path / "softtext.container"),
                                           _two_class_soft_label(["a", 1])),
             "out": str(tmp_path / "out.container")}
    (tmp_path / "junk.bin").write_bytes(b"junk")
    (tmp_path / "truncated.bin").write_bytes((tmp_path / "fits.bin").read_bytes()[:-3])
    (tmp_path / "headershort.bin").write_bytes(struct.pack("<Q", 100) + b"{}")
    (tmp_path / "headertext.bin").write_bytes(struct.pack("<Q", 5) + b"{nope")
    os.makedirs(files["cifar"])
    os.makedirs(os.path.join(files["oodempty"], "zero"))  # a class folder with no images
    write_fake_cifar(files["cifar"], per_file=2, rng=Rng(42))  # 10 training records
    return files


def _assert_one_line_error(err, named):
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    for text in named:
        assert text in err


# (strategy lines, expected exit code, text the one-line message must name);
# {fits}, {shape}, {classes} and {junk} are checkpoint files made by the test
TRAINED = "source_epochs = 1"
ERROR_CASES = {
    "normalize": ([TRAINED, "sign_normalize = bogus"], 1, "sign_normalize"),
    "eval-point": ([TRAINED, "sign_eval_point = midway"], 1, "sign_eval_point"),
    "k-zero": ([TRAINED, "sign_k = 5,0"], 1, "sign_k"),
    "k-empty": ([TRAINED, "sign_k ="], 1, "sign_k"),
    "gamma-negative": ([TRAINED, "sign_gamma = -0.1"], 1, "sign_gamma"),
    "gamma-nan": ([TRAINED, "sign_gamma = nan"], 1, "sign_gamma"),
    # a finite gamma that scales the steps past the float range
    "gamma-overflow": ([TRAINED, "sign_k = 3", "sign_gamma = 1e308"], 2,
                       "non-finite iterate at iteration"),
    "tap-unknown": ([TRAINED, "sign_tap = bottleneck"], 1, "sign_tap"),
    "tap-sigma-no-head": ([TRAINED, "sign_tap = sigma"], 1, "uncertainty_head"),
    "source-epochs-zero": (["source_epochs = 0"], 1, "[strategy] source_epochs"),
    "checkpoint-and-epochs": (["source_checkpoint = {fits}", "source_epochs = 2"], 1,
                              "source_epochs"),
    "checkpoint-and-seed": (["source_checkpoint = {fits}", "source_seed = 4"], 1,
                            "source_seed"),
    "checkpoint-shape": (["source_checkpoint = {shape}"], 2, "{shape}"),
    "checkpoint-classes": (["source_checkpoint = {classes}"], 2, "{classes}"),
    "checkpoint-not-a-checkpoint": (["source_checkpoint = {junk}"], 2, "{junk}"),
    "checkpoint-sigma-no-head": (["source_checkpoint = {fits}", "sign_tap = sigma"], 2,
                                 "sigma"),
    "checkpoint-missing": (["source_checkpoint = {missing}"], 1, "[strategy] source_checkpoint"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_sign_config_errors(tmp_path, capsys, case):
    files = _error_files(tmp_path)
    lines, code, named = ERROR_CASES[case]
    cfg = write_config(tmp_path / "c.ini", epochs=1, strategy="sign", out_dir=tmp_path / "run",
                       extra_strategy="\n".join(lines).format(**files))
    assert main(["train", "-c", cfg]) == code
    _assert_one_line_error(capsys.readouterr().err, [named.format(**files)])


# (write_config keywords, command line after "signreg" without -c, expected
# exit code, texts the one-line message must name); {...} are _error_files
RUN_ERROR_CASES = {
    "classes-zero": ({"dataset_lines": blobs_with("classes = 0")}, "train", 1,
                     ["[dataset] classes"]),
    "samples-per-class-zero": ({"dataset_lines": blobs_with("samples_per_class = 0")}, "train",
                               1, ["[dataset] samples_per_class"]),
    "separation-negative": ({"dataset_lines": blobs_with("separation = -1")}, "train", 1,
                            ["[dataset] separation"]),
    "noise-sigma-nan": ({"dataset_lines": blobs_with("noise_sigma = nan")}, "train", 1,
                        ["[dataset] noise_sigma"]),
    "noise-sigma-negative": ({"dataset_lines": blobs_with("noise_sigma = -2")}, "train", 1,
                             ["[dataset] noise_sigma"]),
    "image-shape-zero": ({"dataset_lines": blobs_with("image_shape = 0x8x8")}, "train", 1,
                         ["[dataset] image_shape"]),
    "split-seed-negative": ({"dataset_lines": blobs_with("split_seed = -1")}, "train", 1,
                            ["[dataset] split_seed"]),
    "val-count-zero": ({"dataset_lines": blobs_with("val_count = 0")}, "train", 1,
                       ["[dataset] val_count"]),
    "init-seed-negative": ({"init_seed": -1}, "train", 1, ["[model] init_seed"]),
    "seed-negative": ({"seed": -1}, "train", 1, ["[train] seed"]),
    "seed-too-large": ({"seed": 2**64}, "train", 1, ["[train] seed"]),
    "source-seed-negative": ({"extra_strategy": "source_seed = -1"}, "train", 1,
                             ["[strategy] source_seed"]),
    "hidden-dims-zero": ({"hidden_dims": "0"}, "train", 1, ["[model] hidden_dims"]),
    "hidden-dims-empty": ({"hidden_dims": ""}, "train", 1, ["[model] hidden_dims"]),
    "drop-prob-above-one": ({"extra_model": "drop_prob = 1.5"}, "train", 1,
                            ["[model] drop_prob"]),
    "drop-prob-one": ({"extra_model": "drop_prob = 1"}, "train", 1, ["[model] drop_prob"]),
    "drop-prob-negative": ({"extra_model": "drop_prob = -0.1"}, "train", 1,
                           ["[model] drop_prob"]),
    "drop-prob-small-mlp": ({"extra_model": "drop_prob = 0.3"}, "train", 1,
                            ["[model] drop_prob", "arch = small_mlp"]),
    "hidden-dims-basic-cnn": ({"arch": "basic_cnn"}, "train", 1,
                              ["[model] hidden_dims", "arch = basic_cnn"]),
    "val-count-blobs": ({"dataset_lines": blobs_with("val_count = 10")}, "train", 1,
                        ["[dataset] val_count", "kind = blobs"]),
    "val-count-container": ({"dataset_lines": ["kind = container", "path = {modelspace}",
                                               "val_count = 2"]}, "eval --checkpoint {fits}", 1,
                            ["[dataset] val_count", "kind = container"]),
    "learning-rate-nan": ({"learning_rate": "nan"}, "train", 1, ["[train] learning_rate"]),
    "learning-rate-negative": ({"learning_rate": -1}, "train", 1, ["[train] learning_rate"]),
    "learning-rate-zero": ({"learning_rate": 0}, "train", 1, ["[train] learning_rate"]),
    "momentum-nan": ({"extra_train": "momentum = nan"}, "train", 1, ["[train] momentum"]),
    "momentum-inf": ({"extra_train": "momentum = inf"}, "train", 1, ["[train] momentum"]),
    "momentum-adam": ({"extra_train": "optimizer = adam\nmomentum = 0.99"}, "train", 1,
                      ["[train] momentum", "[train] optimizer = adam"]),
    "corruption-mu-inf": ({"extra_eval": "corruptions = gaussian:inf:10"}, "train", 1,
                          ["[eval] corruptions"]),
    "corruption-sigma-nan": ({"extra_eval": "corruptions = gaussian:0:nan"}, "train", 1,
                             ["[eval] corruptions"]),
    "optimizer": ({"extra_train": "optimizer = rmsprop"}, "train", 1, ["[train] optimizer"]),
    "batch-size-zero": ({"batch_size": 0}, "train", 1, ["[train] batch_size"]),
    "mc-samples-zero": ({"extra_train": "mc_samples = 0"}, "train", 1, ["[train] mc_samples"]),
    "mixup-alpha-zero": ({"strategy": "mixup", "extra_strategy": "mixup_alpha = 0"}, "train", 1,
                         ["[strategy] mixup_alpha"]),
    "mixup-alpha-not-mixup": ({"extra_strategy": "mixup_alpha = 0.4"}, "train", 1,
                              ["[strategy] mixup_alpha", "[strategy] name = none"]),
    "repeats-zero": ({"extra_eval": "corruptions = gaussian\nrepeats = 0"},
                     "eval --checkpoint {fits}", 1, ["[eval] repeats"]),
    "projection-tap": ({"extra_eval": "projection = true\nprojection_tap = bottleneck"},
                       "eval --checkpoint {fits}", 1, ["[eval] projection_tap"]),
    "projection-tap-no-projection": ({"extra_eval": "projection_tap = logits"},
                                     "eval --checkpoint {fits}", 1,
                                     ["[eval] projection_tap", "[eval] projection = False"]),
    "projection-one-feature": ({"extra_eval": "projection = true"}, "eval --checkpoint {narrow}",
                               2, ["tap 'pre-logits' has 1"]),
    "checkpoint-truncated": ({}, "eval --checkpoint {truncated}", 2,
                             ["{truncated}", "payload truncated"]),
    "container-no-shape": ({}, "transform --checkpoint {fits} --in {noshape} --out {out}", 2,
                           ["{noshape}", "shape"]),
    "container-stats-no-mean": ({}, "transform --checkpoint {fits} --in {nostats} --out {out}",
                                2, ["{nostats}", "mean"]),
    "container-stats-scalar": ({}, "transform --checkpoint {fits} --in {statsscalar} --out {out}",
                               2, ["{statsscalar}", "stats mean"]),
    "container-stats-channels": ({}, "transform --checkpoint {fits} --in {statswide} --out {out}",
                                 2, ["{statswide}", "stats mean"]),
    "container-stats-std-zero": ({}, "transform --checkpoint {fits} --in {statszero} --out {out}",
                                 2, ["{statszero}", "stats std"]),
    "container-label-too-large": ({}, "transform --checkpoint {fits} --in {label5} --out {out}",
                                  2, ["{label5}", "sample 0", "label"]),
    "container-label-negative": ({}, "transform --checkpoint {fits} --in {negative} --out {out}",
                                 2, ["{negative}", "sample 0", "label"]),
    "container-soft-label-length": ({}, "transform --checkpoint {fits} --in {softlen} "
                                        "--out {out}", 2, ["{softlen}", "sample 0", "soft_label"]),
    "container-soft-label-sum": ({}, "transform --checkpoint {fits} --in {softsum} --out {out}",
                                 2, ["{softsum}", "sample 0", "soft_label"]),
    "container-soft-label-negative": ({}, "transform --checkpoint {fits} --in {softneg} "
                                          "--out {out}", 2, ["{softneg}", "sample 0", "soft_label"]),
    "container-soft-label-text": ({}, "transform --checkpoint {fits} --in {softtext} "
                                      "--out {out}", 2, ["{softtext}", "sample 0", "soft_label"]),
    "container-non-finite": ({}, "transform --checkpoint {fits} --in {nan} --out {out}", 2,
                             ["{nan}", "sample 1", "non-finite"]),
    "container-ragged-shapes": ({}, "transform --checkpoint {fits} --in {ragged} --out {out}",
                                2, ["{ragged}", "sample 1", "shape"]),
    "eval-checkpoint-shape": ({}, "eval --checkpoint {shape}", 2, ["{shape}"]),
    "eval-checkpoint-fewer-classes": ({}, "eval --checkpoint {classes}", 2, ["{classes}"]),
    "eval-checkpoint-more-classes": ({}, "eval --checkpoint {wide}", 2, ["{wide}"]),
    "ood-ppm-zero-size": ({"extra_eval": "ood_path = {ppmzero}\nood_class_map = zero=0"},
                          "eval --checkpoint {fits}", 2,
                          [os.path.join("{ppmzero}", "zero", "0.ppm"), "width 0"]),
    "ood-ppm-text-size": ({"extra_eval": "ood_path = {ppmtext}\nood_class_map = zero=0"},
                          "eval --checkpoint {fits}", 2,
                          [os.path.join("{ppmtext}", "zero", "0.ppm"), "width"]),
    "ood-channels": ({"extra_eval": "ood_path = {ppmrgb}\nood_class_map = zero=0"},
                     "eval --checkpoint {fits}", 2, ["{ppmrgb}", "(3, 8, 8)"]),
    "transform-checkpoint-classes": ({}, "transform --checkpoint {fits} --in {twoclass} "
                                         "--out {out}", 2, ["checkpoint {fits}:"]),
    "transform-raw-domain": ({}, "transform --checkpoint {fits} --in {rawdomain} --out {out}",
                             2, ["{rawdomain}", "raw_domain"]),
    "corruptions-model-space": ({"dataset_lines": ["kind = container", "path = {modelspace}"],
                                 "extra_eval": "corruptions = gaussian:0:10"},
                                "eval --checkpoint {fits}", 2, ["{modelspace}", "raw_domain"]),
    "container-too-few-samples": ({"dataset_lines": ["kind = container", "path = {pair}"]},
                                  "train", 2, ["{pair}", "2 samples"]),
    "ood-model-space-no-stats": ({"dataset_lines": ["kind = container", "path = {nostatsdata}"],
                                  "extra_eval": "ood_path = {ppmrgb}\nood_class_map = zero=0"},
                                 "eval --checkpoint {fits}", 2, ["{nostatsdata}", "stats"]),
    # a second -c replaces the written config
    "config-missing": ({}, "train -c {missing}", 1, ["config file not found", "{missing}"]),
    "unknown-section": ({"extra_eval": "[warp]\nspeed = 9"}, "train", 1,
                        ["unknown section [warp]"]),
    "duplicate-section": ({"extra_eval": "[train]\nmc_samples = 4"}, "train", 1,
                          ["cannot parse", "section 'train' already exists"]),
    "kind-missing": ({"dataset_lines": ["classes = 3"]}, "train", 1,
                     ["[dataset] missing required key: kind"]),
    "container-path-missing": ({"dataset_lines": ["kind = container"]}, "train", 1,
                               ["[dataset] missing required key: path"]),
    "uncertainty-head-not-bool": ({"extra_model": "uncertainty_head = maybe"}, "train", 1,
                                  ["[model] uncertainty_head"]),
    "corruption-pixel-count-negative": ({"extra_eval": "corruptions = pixel-off:-3"}, "train", 1,
                                        ["[eval] corruptions", "pixel_count"]),
    "ood-path-not-directory": ({"extra_eval": "ood_path = {junk}"}, "eval --checkpoint {fits}", 1,
                               ["[eval] ood_path", "{junk}"]),
    "ood-class-map-no-index": ({"extra_eval": "ood_path = {ppmrgb}\nood_class_map = zero"},
                               "eval --checkpoint {fits}", 1, ["[eval] ood_class_map", "zero"]),
    "ood-class-map-negative": ({"extra_eval": "ood_path = {ppmrgb}\nood_class_map = zero=-1"},
                               "eval --checkpoint {fits}", 1, ["[eval] ood_class_map", "zero=-1"]),
    "ood-class-map-too-large": ({"extra_eval": "ood_path = {ppmrgb}\nood_class_map = zero=7"},
                                "eval --checkpoint {fits}", 1,
                                ["[eval] ood_class_map", "zero=7", "[0, 3)"]),
    "ood-ppm-truncated-header": ({"extra_eval": "ood_path = {ppmshort}\nood_class_map = zero=0"},
                                 "eval --checkpoint {fits}", 2,
                                 [os.path.join("{ppmshort}", "zero", "0.ppm"), "truncated"]),
    "ood-no-images": ({"extra_eval": "ood_path = {oodempty}\nood_class_map = zero=0"},
                      "eval --checkpoint {fits}", 2, ["ood_path {oodempty}", "no images"]),
    "ood-ppm-16-bit": ({"extra_eval": "ood_path = {ppm16}\nood_class_map = zero=0"},
                       "eval --checkpoint {fits}", 2,
                       [os.path.join("{ppm16}", "zero", "0.ppm"), "maxval 65535"]),
    "cifar-val-count-too-large": ({"dataset_lines": ["kind = cifar10", "path = {cifar}",
                                                     "val_count = 10"]}, "train", 2,
                                  ["val_count 10", "no training data"]),
    "transform-input-missing": ({}, "transform --checkpoint {fits} --in {missing} --out {out}", 1,
                                ["input dataset not found", "{missing}"]),
    "checkpoint-non-finite": ({}, "eval --checkpoint {nanparam}", 2,
                              ["{nanparam}", "tensor fc1.w", "non-finite"]),
    "source-checkpoint-non-finite": ({"strategy": "sign",
                                      "extra_strategy": "source_checkpoint = {nanparam}"},
                                     "train", 2, ["{nanparam}", "tensor fc1.w", "non-finite"]),
    "checkpoint-header-truncated": ({}, "eval --checkpoint {headershort}", 2,
                                    ["{headershort}", "header truncated"]),
    "checkpoint-header-not-json": ({}, "eval --checkpoint {headertext}", 2,
                                   ["{headertext}", "header is not JSON"]),
    "checkpoint-tensors-not-a-dict": ({}, "eval --checkpoint {tensorslist}", 2,
                                      ["{tensorslist}", "tensors is not a JSON dict"]),
    "checkpoint-tensor-dtype": ({}, "eval --checkpoint {tensordtype}", 2,
                                ["{tensordtype}", "tensor fc1.w", "dtype '<i8'"]),
    "checkpoint-tensor-shape": ({}, "eval --checkpoint {tensorshape}", 2,
                                ["{tensorshape}", "tensors", "fc1.w"]),
    "checkpoint-meta-drop-prob": ({}, "eval --checkpoint {dropmeta}", 2,
                                  ["{dropmeta}", "meta", "drop probability"]),
    "checkpoint-meta-hidden-zero": ({}, "eval --checkpoint {hiddenmeta}", 2,
                                    ["{hiddenmeta}", "meta", "dims"]),
    "checkpoint-meta-input-dim": ({}, "eval --checkpoint {flatmeta}", 2,
                                  ["{flatmeta}", "meta", "flatten"]),
    "checkpoint-meta-hidden-huge": ({}, "transform --checkpoint {hugemeta} --in {modelspace} "
                                        "--out {out}", 2,
                                    ["{hugemeta}", "tensors", "(4,) != (1000000000000,)"]),
    "checkpoint-meta-classes-overflow": ({}, "transform --checkpoint {infmeta} --in {modelspace} "
                                             "--out {out}", 2, ["{infmeta}", "meta", "infinity"]),
    "container-rank-zero": ({}, "transform --checkpoint {fits} --in {rankzero} --out {out}", 2,
                            ["{rankzero}", "sample 0", "shape [] has rank 0"]),
    "container-shape-not-numbers": ({}, "transform --checkpoint {fits} --in {shapetext} "
                                        "--out {out}", 2, ["{shapetext}", "sample 0", "malformed"]),
    "container-nbytes": ({}, "transform --checkpoint {fits} --in {nbytes} --out {out}", 2,
                         ["{nbytes}", "sample 0", "nbytes 7"]),
    "container-shape-overflow": ({}, "transform --checkpoint {fits} --in {shapeinf} --out {out}",
                                 2, ["{shapeinf}", "sample 0", "malformed"]),
    "container-offset-overflow": ({}, "transform --checkpoint {fits} --in {offsetinf} "
                                      "--out {out}", 2, ["{offsetinf}", "sample 0", "malformed"]),
    "container-shape-zero": ({}, "transform --checkpoint {fits} --in {shapezero} --out {out}", 2,
                             ["{shapezero}", "sample 0", "extents must be >= 1"]),
}


@pytest.mark.parametrize("case", sorted(RUN_ERROR_CASES))
def test_run_errors(tmp_path, capsys, monkeypatch, case):
    files = _error_files(tmp_path)

    def started(*args, **kwargs):
        raise AssertionError("training, scoring or transforming started before the error")

    for name in ("train", "sign_pipeline", "score_samples", "transform_dataset"):
        monkeypatch.setattr(cli, name, started)
    settings, command, code, named = RUN_ERROR_CASES[case]

    def fill(value):
        if isinstance(value, list):
            return [fill(item) for item in value]
        return value.format(**files) if isinstance(value, str) else value

    settings = {k: fill(v) for k, v in settings.items()}
    cfg = write_config(tmp_path / "c.ini", epochs=1, out_dir=tmp_path / "run", **settings)
    words = command.format(**files).split()
    assert main([words[0], "-c", cfg, *words[1:]]) == code
    _assert_one_line_error(capsys.readouterr().err, [text.format(**files) for text in named])


# (write_config keywords, command line after "signreg" without -c, texts the
# one-line message must name): a run whose values leave the float range ends
# at the stage that meets them, before it writes a report; {huge} holds six
# samples of 1e39, finite in float64, and {cnn} is a float32 BasicCNN
NON_FINITE_RUN_CASES = {
    "training-diverges": ({"epochs": 8, "learning_rate": 1e12}, "train",
                          ["training diverged: epoch 7, batch 0: loss nan"]),
    # the epoch's last step leaves parameters that overflow the validation pass
    "validation-diverges": ({"epochs": 8, "learning_rate": 1e11}, "train",
                            ["training diverged: epoch", "validation scoring: sample 4 has a "
                             "non-finite predictive"]),
    # the transform's copies are finite, and overflow the final model
    "sign-copies-overflow": ({"epochs": 1, "strategy": "sign", "extra_strategy":
                              "source_epochs = 1\nsign_k = 1\nsign_gamma = 1e300"},
                             "train", ["training diverged: epoch 0, batch 1: loss nan"]),
    "cast-overflows": ({"dataset_lines": ["kind = container", "path = {huge}"]},
                       "eval --checkpoint {cnn}",
                       ["input batch", "cast to float32", "magnitudes up to 3.403e+38"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_RUN_CASES))
def test_non_finite_runs_exit_two(tmp_path, capsys, case):
    files = {"cnn": str(tmp_path / "cnn.bin"),
             "huge": _container(str(tmp_path / "huge.container"), [np.full((1, 8, 8), 1e39)] * 6)}
    save_checkpoint(build_model(cnn_meta((1, 8, 8), 3), 1), files["cnn"])
    settings, command, named = NON_FINITE_RUN_CASES[case]
    settings = {k: [line.format(**files) for line in v] if isinstance(v, list) else v
                for k, v in settings.items()}
    cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "run", **settings)
    words = command.format(**files).split()
    assert main([words[0], "-c", cfg, *words[1:]]) == 2
    _assert_one_line_error(capsys.readouterr().err, named)
    assert not {"report.csv", "checkpoint.bin", "eval-report.json"} & set(
        os.listdir(tmp_path / "run"))


def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    # what numpy raises for [model] hidden_dims = 1000000000000, without the allocation
    def out_of_memory(meta, seed=0):
        raise MemoryError("Unable to allocate 29.1 TiB for an array with shape "
                          "(64, 1000000000000) and data type float64")

    monkeypatch.setattr(cli, "build_model", out_of_memory)
    cfg = write_config(tmp_path / "c.ini", epochs=1, out_dir=tmp_path / "run")
    assert main(["train", "-c", cfg]) == 2
    _assert_one_line_error(capsys.readouterr().err, ["runtime error: Unable to allocate"])


# (library config, keywords, the last one holding a value the INI parsers
# reject), built directly
NAN, INF = float("nan"), float("inf")
NON_FINITE_CONFIGS = {
    "sign-gamma-nan": (SignConfig, {"k": 1, "gamma": NAN}),
    "sign-gamma-inf": (SignConfig, {"k": 1, "gamma": INF}),
    "mixup-alpha-nan": (MixupConfig, {"alpha": NAN}),
    "mixup-alpha-inf": (MixupConfig, {"alpha": INF}),
    "corruption-mu-nan": (CorruptionSpec, {"kind": "gaussian", "mu": NAN}),
    "corruption-mu-inf": (CorruptionSpec, {"kind": "gaussian", "mu": -INF}),
    "corruption-sigma-nan": (CorruptionSpec, {"kind": "gaussian", "sigma": NAN}),
    "corruption-sigma-inf": (CorruptionSpec, {"kind": "gaussian", "sigma": INF}),
    "learning-rate-nan": (TrainConfig, {"epochs": 1, "learning_rate": NAN}),
    "learning-rate-inf": (TrainConfig, {"epochs": 1, "learning_rate": INF}),
    "learning-rate-zero": (TrainConfig, {"epochs": 1, "learning_rate": 0.0}),
    "momentum-nan": (TrainConfig, {"epochs": 1, "momentum": NAN}),
    "momentum-inf": (TrainConfig, {"epochs": 1, "momentum": INF}),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CONFIGS))
def test_library_configs_apply_the_parsers_rules(case):
    kind, keywords = NON_FINITE_CONFIGS[case]
    key = list(keywords)[-1]
    with pytest.raises(ValueError, match=rf"\b{key} must be finite"):
        kind(**keywords)


class TestCmdTransform:
    def setup_inputs(self, tmp_path):
        model = build_model(mlp_meta((1, 8, 8), [8], 3), 5)
        ckpt = str(tmp_path / "model.bin")
        save_checkpoint(model, ckpt)
        samples = [Sample(image=Tensor(Rng(6).child(0).normal((1, 8, 8))),
                          label=1, raw=False)]
        container = str(tmp_path / "in.container")
        save_container(samples, container, ("a", "b", "c"), raw_domain=False)
        cfg = write_config(tmp_path / "c.ini", epochs=1, out_dir=tmp_path / "run",
                           extra_strategy="sign_k = 1\nsign_gamma = 0.5")
        return cfg, ckpt, container

    def test_single_sample_single_k(self, tmp_path):
        cfg, ckpt, container = self.setup_inputs(tmp_path)
        out = str(tmp_path / "out.container")
        assert main(["transform", "-c", cfg, "--checkpoint", ckpt,
                     "--in", container, "--out", out]) == 0
        samples, manifest = load_container(out)
        assert len(samples) == 2  # original + one transformed copy
        assert samples[0].provenance is None and samples[1].provenance is not None

    def test_rerun_byte_identical(self, tmp_path):
        cfg, ckpt, container = self.setup_inputs(tmp_path)
        out1, out2 = str(tmp_path / "o1.bin"), str(tmp_path / "o2.bin")
        main(["transform", "-c", cfg, "--checkpoint", ckpt, "--in", container, "--out", out1])
        main(["transform", "-c", cfg, "--checkpoint", ckpt, "--in", container, "--out", out2])
        assert (tmp_path / "o1.bin").read_bytes() == (tmp_path / "o2.bin").read_bytes()

    def test_provenance_roundtrips_config(self, tmp_path):
        cfg, ckpt, container = self.setup_inputs(tmp_path)
        out = str(tmp_path / "out.container")
        main(["transform", "-c", cfg, "--checkpoint", ckpt, "--in", container, "--out", out])
        samples, manifest = load_container(out)
        prov = samples[1].provenance
        assert prov["k"] == 1 and prov["gamma"] == 0.5
        assert prov["tap"] == "pre-logits" and prov["eval_point"] == "current-iterate"
        assert manifest["provenance"]["configs"][0]["k"] == 1

    def test_shape_mismatch_exit_two(self, tmp_path):
        cfg, ckpt, _ = self.setup_inputs(tmp_path)
        bad = str(tmp_path / "bad.container")
        save_container([Sample(image=Tensor(np.zeros((1, 4, 4))), label=0, raw=False)],
                       bad, ("a",), raw_domain=False)
        assert main(["transform", "-c", cfg, "--checkpoint", ckpt,
                     "--in", bad, "--out", str(tmp_path / "x.bin")]) == 2

    def test_missing_checkpoint_exit_one(self, tmp_path):
        cfg, _, container = self.setup_inputs(tmp_path)
        assert main(["transform", "-c", cfg, "--checkpoint", str(tmp_path / "nope.bin"),
                     "--in", container, "--out", str(tmp_path / "x.bin")]) == 1


class TestCmdEval:
    def trained_checkpoint(self, tmp_path, extra_eval=""):
        out = tmp_path / "train-run"
        cfg = write_config(tmp_path / "train.ini", epochs=2, out_dir=out)
        assert main(["train", "-c", cfg]) == 0
        eval_out = tmp_path / "eval-run"
        eval_cfg = write_config(tmp_path / "eval.ini", epochs=1, out_dir=eval_out,
                                extra_eval=extra_eval)
        return eval_cfg, str(out / "checkpoint.bin"), eval_out

    def test_plain_accuracy_report(self, tmp_path):
        cfg, ckpt, out = self.trained_checkpoint(tmp_path)
        assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 0
        report = json.loads((out / "eval-report.json").read_text())
        assert "mean_accuracy" in report and report["corruptions"] == []
        assert (out / "per-sample.csv").exists()

    def test_corruption_rows_present(self, tmp_path):
        cfg, ckpt, out = self.trained_checkpoint(
            tmp_path, extra_eval="corruptions = pixel-off:50 gaussian:0:10\nrepeats = 2")
        assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 0
        report = json.loads((out / "eval-report.json").read_text())
        specs = [row["spec"] for row in report["corruptions"]]
        assert specs == ["pixel-off:50", "gaussian:mu=0,sigma=10"]

    def test_projection_export(self, tmp_path):
        cfg, ckpt, out = self.trained_checkpoint(tmp_path, extra_eval="projection = true")
        assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 0
        header = (out / "projection.csv").read_text().splitlines()[0]
        assert header == "x,y,class,split"

    def test_nonexistent_checkpoint_exit_one(self, tmp_path):
        cfg, _, _ = self.trained_checkpoint(tmp_path)
        assert main(["eval", "-c", cfg, "--checkpoint", str(tmp_path / "ghost.bin")]) == 1

    def test_clean_test_set_scored_once(self, tmp_path, monkeypatch):
        cfg, ckpt, out = self.trained_checkpoint(tmp_path)
        scored = []
        real_score = evalharness.score_samples

        def counting(model, samples, *args, **kwargs):
            scored.append(len(samples))
            return real_score(model, samples, *args, **kwargs)

        monkeypatch.setattr(evalharness, "score_samples", counting)
        monkeypatch.setattr(cli, "score_samples", counting)
        assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 0
        report = json.loads((out / "eval-report.json").read_text())
        assert scored == [sum(row["total"] for row in report["per_class"])]

    def test_ood_directory_evaluated(self, tmp_path):
        ood_root = tmp_path / "ood"
        for folder, count in (("zero", 2), ("one", 3)):
            os.makedirs(ood_root / folder)
            for i in range(count):
                header = b"P6\n8 8\n255\n"
                (ood_root / folder / f"{i}.ppm").write_bytes(header + bytes([90, 90, 90]) * 64)
        # OOD images decode as 3-channel, so the dataset and model must be too
        train_out = tmp_path / "train3"
        cfg3 = write_config(tmp_path / "t3.ini", epochs=1, out_dir=train_out,
                            dataset_lines=["kind = blobs", "classes = 2",
                                           "samples_per_class = 8",
                                           "image_shape = 3x8x8", "separation = 5.0"])
        assert main(["train", "-c", cfg3]) == 0
        eval_out = tmp_path / "eval3"
        eval_cfg = write_config(
            tmp_path / "e3.ini", epochs=1, out_dir=eval_out,
            dataset_lines=["kind = blobs", "classes = 2", "samples_per_class = 8",
                           "image_shape = 3x8x8", "separation = 5.0"],
            extra_eval=f"ood_path = {ood_root}\nood_class_map = zero=0,one=1")
        assert main(["eval", "-c", eval_cfg,
                     "--checkpoint", str(train_out / "checkpoint.bin")]) == 0
        report = json.loads((eval_out / "ood-report.json").read_text())
        totals = {row["label"]: row["total"] for row in report["per_class"]}
        assert totals == {0: 2, 1: 3}

    def test_ood_directory_skips_stray_files(self, tmp_path):
        ood_root = tmp_path / "ood"
        os.makedirs(ood_root / "zero")
        (ood_root / "zero" / "0.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes([90]) * 192)
        (ood_root / "notes.txt").write_text("not a class folder")
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", out_dir=out,
                           dataset_lines=["kind = blobs", "classes = 2", "samples_per_class = 4",
                                          "image_shape = 3x8x8"],
                           extra_eval=f"ood_path = {ood_root}\nood_class_map = zero=0")
        ckpt = _checkpoint(tmp_path, "rgb.bin", 2, (3, 8, 8))
        assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 0
        report = json.loads((out / "ood-report.json").read_text())
        assert [(row["label"], row["total"]) for row in report["per_class"]] == [(0, 1)]


# recipe -> its table at seed 0, each number (or N/A) shown as #; transfer's
# table has the layout of classify's, and the recipe takes about 25 s
RECIPE_TABLES = {
    "classify": ["method class# class# class# mean", "none # # # #", "mixup # # # #",
                 "sign # # # #"],
    "uncertainty": ["method accuracy p<=# n bucket p uncert min corr p", "none # # # # #",
                    "mixup # # # # #", "sign # # # # #"],
    "robustness": ["method clean corruption results (mean +- std)",
                   "none # pixel-off:#=#+-# gaussian:mu=#,sigma=#=#+-#",
                   "sign # pixel-off:#=#+-# gaussian:mu=#,sigma=#=#+-#"],
    "ood": ["method=none mean=#", "class#: n=# acc=# bucket n=# p=#",
            "class#: n=# acc=# bucket n=# p=#", "method=sign mean=#",
            "class#: n=# acc=# bucket n=# p=#", "class#: n=# acc=# bucket n=# p=#"],
    "delta-only": ["source accuracy: #", "delta-only accuracy: #", "chance level: #",
                   "ratio over chance: #x"],
}


class TestCmdRepro:
    def test_unknown_recipe_lists_valid_names(self, capsys):
        assert main(["repro", "nonsense"]) == 1
        err = capsys.readouterr().err
        for name in ("classify", "uncertainty", "robustness", "ood", "transfer", "delta-only"):
            assert name in err

    @pytest.mark.parametrize("recipe", sorted(RECIPE_TABLES))
    def test_recipe_prints_its_table(self, capsys, recipe):
        assert main(["repro", recipe]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [re.sub(r"N/A|\d+(\.\d+)?(e[-+]\d+)?", "#", " ".join(line.split()))
                for line in lines] == RECIPE_TABLES[recipe]


# command line -> text the usage error must name
USAGE_ERROR_CASES = {
    "train-without-config": (["train"], "-c/--config"),
    "unknown-command": (["bogus"], "bogus"),
    "repro-without-recipe": (["repro"], "recipe"),
    "seed-not-a-number": (["repro", "classify", "--seed", "x"], "--seed"),
    "seed-negative": (["repro", "classify", "--seed", "-1"], "--seed"),
    "seed-too-large": (["repro", "classify", "--seed", str(2**64)], "--seed"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("case", sorted(USAGE_ERROR_CASES))
    def test_exit_one_naming_the_argument(self, capsys, monkeypatch, case):
        monkeypatch.setattr(repro, "run_recipe", lambda *a: pytest.fail("the recipe started"))
        argv, named = USAGE_ERROR_CASES[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and named in err.strip().splitlines()[-1]

    def test_help_exits_zero(self, capsys):
        assert main(["repro", "--help"]) == 0 and "--seed" in capsys.readouterr().out


class TestThreadsOverride:
    def test_env_var_overrides(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.ini", epochs=0, out_dir=tmp_path / "run")
        monkeypatch.setenv("SIGNREG_THREADS", "4")
        assert load_experiment_config(cfg).threads == 4
        monkeypatch.setenv("SIGNREG_THREADS", "zero")
        with pytest.raises(ConfigError):
            load_experiment_config(cfg)


SIGN_LINES = "sign_k = 2\nsign_gamma = 0.01\nsign_normalize = unit-max-abs"
# write_config keywords; {fits} is a checkpoint, {ood} a directory
SNAPSHOT_CASES = {
    "plain": {},
    "sign-trained": {"strategy": "sign", "extra_strategy": "source_epochs = 1\n" + SIGN_LINES},
    "sign-checkpoint": {"strategy": "sign",
                        "extra_strategy": "source_checkpoint = {fits}\n" + SIGN_LINES},
    "adam": {"extra_train": "optimizer = adam"},
    "eval-block": {"extra_eval": "corruptions = gaussian:0:10.1234567 pixel-off:7\n"
                                 "repeats = 2\nood_path = {ood}\nood_class_map = zero=0,one=1"},
}


class TestResolvedConfig:
    @pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
    def test_snapshot_loads_back(self, tmp_path, monkeypatch, case):
        monkeypatch.delenv("SIGNREG_THREADS", raising=False)
        if case == "eval-block":
            monkeypatch.setenv("SIGNREG_THREADS", "3")
        files = {"fits": _checkpoint(tmp_path, "fits.bin", 3, (1, 8, 8)),
                 "ood": str(tmp_path)}
        settings = {k: v.format(**files) for k, v in SNAPSHOT_CASES[case].items()}
        cfg = load_experiment_config(write_config(tmp_path / "c.ini", epochs=1,
                                                  out_dir=tmp_path / "run", **settings))
        text = resolved_config_text(cfg)
        (tmp_path / "resolved.ini").write_text(text)
        again = load_experiment_config(str(tmp_path / "resolved.ini"))
        assert again == cfg
        assert resolved_config_text(again) == text
        if case == "eval-block":
            assert again.threads == 3 and again.corruptions[0].sigma == 10.1234567
        if case == "sign-checkpoint":
            assert again.source_seed is None and "source_seed" not in text
        if case == "adam":
            assert again.momentum is None and "momentum" not in text

    @pytest.mark.parametrize("arch, kept, left_out", [
        ("small_mlp", "hidden_dims = 12", "drop_prob"),
        ("basic_cnn", "drop_prob = 0.3", "hidden_dims")])
    def test_snapshot_leaves_out_keys_without_effect(self, tmp_path, arch, kept, left_out):
        cfg = load_experiment_config(write_config(
            tmp_path / "c.ini", arch=arch, out_dir=tmp_path / "run",
            hidden_dims="12" if arch == "small_mlp" else None))
        text = resolved_config_text(cfg)
        assert kept in text and left_out not in text and "val_count" not in text
        assert getattr(cfg, left_out) is None and cfg.val_count is None
        (tmp_path / "resolved.ini").write_text(text)
        assert load_experiment_config(str(tmp_path / "resolved.ini")) == cfg

    @pytest.mark.parametrize("case", ["plain", "sign-trained", "adam"])
    def test_rerun_rewrites_artifacts_byte_for_byte(self, tmp_path, case):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", epochs=2, out_dir=out, **SNAPSHOT_CASES[case])
        assert main(["train", "-c", cfg]) == 0
        names = ["report.json", "report.csv", "checkpoint.bin"]
        if case == "sign-trained":
            names += ["source-checkpoint.bin", "transformed-train.container"]
        first = {name: (out / name).read_bytes() for name in names}
        for name in names:
            (out / name).unlink()
        assert main(["train", "-c", str(out / "resolved-config.ini")]) == 0
        assert {name: (out / name).read_bytes() for name in names} == first


def test_readme_config_block_lists_every_key():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Config file", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    listed, section = set(), None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
        elif "=" in line:
            listed.add((section, line.split("=", 1)[0].strip()))
    schema = {(f.metadata["section"], f.metadata["key"])
              for f in dataclasses.fields(ExperimentConfig)}
    assert listed == schema


class TestCorruptionTokens:
    def test_parse_forms(self):
        spec = parse_corruption("pixel-off:25")
        assert spec.kind == "pixel-off" and spec.pixel_count == 25
        spec = parse_corruption("gaussian:1:7.5")
        assert spec.mu == 1.0 and spec.sigma == 7.5
        assert parse_corruption("gaussian").sigma == 10.0
        with pytest.raises(ValueError):
            parse_corruption("saltpepper:3")
