"""Binary-format round trips, synthetic data separability, normalization."""

import os

import numpy as np
import pytest
from oracles import denormalize_sample, serialize_cifar_record

from signreg.datasets import (CIFAR_CLASSES, DatasetSplit, NormStats, Sample, bilinear_resize,
                              decode_ppm, load_cifar10_binary, load_container,
                              load_ood_directory, make_synthetic_blobs, normalize,
                              normalize_sample, parse_cifar_record, save_container)
from signreg.tensor import Rng, Tensor


def make_record(label: int) -> bytes:
    pixels = bytes(i % 256 for i in range(3072))
    return bytes([label]) + pixels


def least_squares_accuracy(train, test, num_classes) -> float:
    """Closed-form one-vs-all linear regression on one-hot labels."""
    def design(samples):
        flat = np.stack([s.image.data.reshape(-1) for s in samples])
        return np.hstack([flat, np.ones((len(samples), 1))])

    x = design(train)
    y = np.eye(num_classes)[[s.label for s in train]]
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    preds = design(test) @ w
    return float((preds.argmax(axis=1) == [s.label for s in test]).mean())


class TestCifarRecords:
    def test_synthesized_record_parses(self):
        sample = parse_cifar_record(make_record(3))
        assert sample.label == 3
        img = sample.image.data
        assert img.shape == (3, 32, 32)
        # payload byte k == k % 256, planes of 1024 bytes in R, G, B order
        assert img[0, 0, 0] == 0.0
        assert img[0, 7, 31] == 255.0  # byte 255 of the R plane
        assert img[1, 0, 0] == 0.0  # G plane starts at byte 1024: 1024 % 256 == 0

    def test_roundtrip_bijection(self):
        for label in (0, 5, 9):
            record = make_record(label)
            assert serialize_cifar_record(parse_cifar_record(record)) == record

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            parse_cifar_record(bytes([10]) + bytes(3072))

    def test_serialize_needs_a_raw_cifar_image(self):
        with pytest.raises(ValueError, match=r"\(3, 32, 32\)"):
            serialize_cifar_record(Sample(image=Tensor(np.zeros((1, 32, 32))), label=0))
        with pytest.raises(ValueError, match="0-255"):
            serialize_cifar_record(Sample(image=Tensor(np.full((3, 32, 32), 256.0)), label=0))

    def test_wrong_record_size(self):
        with pytest.raises(ValueError):
            parse_cifar_record(bytes(3072))


class TestCifarLoader:
    def write_batches(self, root, per_file=4, test_records=6):
        rng = Rng(0)
        for i in range(1, 6):
            labels = rng.child(i).integers(0, 10, size=per_file)
            with open(os.path.join(root, f"data_batch_{i}.bin"), "wb") as fh:
                for lab in labels:
                    fh.write(make_record(int(lab)))
        with open(os.path.join(root, "test_batch.bin"), "wb") as fh:
            for j in range(test_records):
                fh.write(make_record(j % 10))

    def test_counts_and_partition(self, tmp_path):
        self.write_batches(str(tmp_path))
        split = load_cifar10_binary(str(tmp_path), val_count=5, split_rng=Rng(1))
        assert len(split.train) + len(split.val) == 20
        assert len(split.val) == 5
        assert len(split.test) == 6
        assert split.class_names == CIFAR_CLASSES

    def test_truncated_file_rejected(self, tmp_path):
        self.write_batches(str(tmp_path))
        with open(os.path.join(str(tmp_path), "data_batch_2.bin"), "wb") as fh:
            fh.write(bytes(3072))
        with pytest.raises(ValueError, match="3073"):
            load_cifar10_binary(str(tmp_path), val_count=5, split_rng=Rng(1))

    def test_missing_batch_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10_binary(str(tmp_path), val_count=5, split_rng=Rng(1))

    def test_val_is_the_tail_of_a_seeded_shuffle(self, tmp_path):
        self.write_batches(str(tmp_path))
        split = load_cifar10_binary(str(tmp_path), val_count=5, split_rng=Rng(1))
        again = load_cifar10_binary(str(tmp_path), val_count=1, split_rng=Rng(1))
        tail = (again.train + again.val)[-5:]
        for a, b in zip(split.val, tail):
            assert np.array_equal(a.image.data, b.image.data)


class TestBlobs:
    def test_zero_separation_near_chance(self):
        split = make_synthetic_blobs(3, 60, (1, 8, 8), 0.0, Rng(1))
        acc = least_squares_accuracy(split.train, split.test, 3)
        assert acc < 0.55  # indistinguishable classes stay near 1/3

    def test_high_separation_linearly_separable(self):
        split = make_synthetic_blobs(3, 60, (1, 8, 8), 10.0, Rng(2))
        assert least_squares_accuracy(split.train, split.test, 3) > 0.95

    def test_fixed_seed_identical_bytes(self):
        a = make_synthetic_blobs(2, 10, (1, 6, 6), 3.0, Rng(3))
        b = make_synthetic_blobs(2, 10, (1, 6, 6), 3.0, Rng(3))
        for x, y in zip(a.train + a.val + a.test, b.train + b.val + b.test):
            assert x.image.data.tobytes() == y.image.data.tobytes()

    def test_raw_domain_range(self):
        split = make_synthetic_blobs(3, 20, (3, 8, 8), 10.0, Rng(4))
        for s in split.train:
            assert s.raw and s.image.data.min() >= 0.0 and s.image.data.max() <= 255.0

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_blobs(2, 5, (1, 4, 4), -1.0, Rng(0))


class TestNormalize:
    def blob_split(self):
        return make_synthetic_blobs(2, 20, (3, 6, 6), 4.0, Rng(5))

    def test_train_stats_unit(self):
        norm = normalize(self.blob_split())
        stacked = np.stack([s.image.data for s in norm.train])
        for c in range(3):
            assert abs(stacked[:, c].mean()) < 1e-9
            assert abs(stacked[:, c].std() - 1.0) < 1e-9

    def test_constant_train_set_floors_std(self):
        const = [Sample(image=Tensor(np.full((1, 4, 4), 7.0)), label=0, raw=True)
                 for _ in range(5)]
        split = DatasetSplit(train=const, val=const[:1], test=const[:1],
                             class_names=("only",))
        norm = normalize(split)
        assert norm.stats.std == (1e-6,)
        assert np.all(norm.train[0].image.data == 0.0)

    def test_roundtrip(self):
        split = self.blob_split()
        norm = normalize(split)
        for orig, n in zip(split.test, norm.test):
            back = denormalize_sample(n, norm.stats)
            np.testing.assert_allclose(back.image.data, orig.image.data, atol=1e-10, rtol=0)
            assert back.raw

    def test_denormalize_needs_model_space(self):
        raw = Sample(image=Tensor(np.zeros((1, 2, 2))), label=0, raw=True)
        with pytest.raises(ValueError, match="already in the raw domain"):
            denormalize_sample(raw, NormStats(mean=(0.0,), std=(1.0,)))

    def test_double_normalization_rejected(self):
        norm = normalize(self.blob_split())
        with pytest.raises(ValueError):
            normalize(norm)
        with pytest.raises(ValueError):
            normalize_sample(norm.train[0], norm.stats)


def write_ppm(path, width, height, rgb):
    header = f"P6\n{width} {height}\n255\n".encode()
    body = bytes(rgb) * (width * height)
    with open(path, "wb") as fh:
        fh.write(header + body)


class TestPpmAndResize:
    def test_decode_constant(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        write_ppm(path, 4, 3, (10, 20, 30))
        with open(path, "rb") as fh:
            arr = decode_ppm(fh.read())
        assert arr.shape == (3, 3, 4)
        assert np.all(arr[0] == 10.0) and np.all(arr[1] == 20.0) and np.all(arr[2] == 30.0)

    def test_decode_with_comment(self):
        blob = b"P6\n# a comment\n2 2\n255\n" + bytes(range(12))
        arr = decode_ppm(blob)
        assert arr.shape == (3, 2, 2)
        assert arr[0, 0, 0] == 0.0 and arr[2, 1, 1] == 11.0

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_ppm(b"P3\n2 2\n255\n" + bytes(12))

    def test_truncated_raster(self):
        with pytest.raises(ValueError):
            decode_ppm(b"P6\n2 2\n255\n" + bytes(5))

    def test_bilinear_constant_exact(self):
        img = np.full((3, 64, 64), 137.0)
        out = bilinear_resize(img, 32, 32)
        assert out.shape == (3, 32, 32)
        assert np.all(out == 137.0)

    def test_bilinear_identity_size(self):
        img = Rng(6).normal((1, 8, 8))
        np.testing.assert_allclose(bilinear_resize(img, 8, 8), img, atol=1e-12, rtol=0)


class TestOodDirectory:
    def test_not_a_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a directory"):
            load_ood_directory(str(tmp_path / "absent"), {})

    def test_empty_directory(self, tmp_path):
        assert load_ood_directory(str(tmp_path), {}) == []

    def test_class_folders_resized_and_labeled(self, tmp_path):
        for folder, count, color in (("dog", 3, (50, 60, 70)), ("cat", 2, (80, 90, 100))):
            os.makedirs(tmp_path / folder)
            for i in range(count):
                write_ppm(str(tmp_path / folder / f"{i}.ppm"), 64, 64, color)
        samples = load_ood_directory(str(tmp_path), {"dog": 5, "cat": 3}, size=(32, 32))
        assert len(samples) == 5
        labels = sorted(s.label for s in samples)
        assert labels == [3, 3, 5, 5, 5]
        for s in samples:
            assert s.image.shape == (3, 32, 32)

    def test_paper_protocol_shape(self, tmp_path):
        counts = {"automobile": 49, "bird": 146, "cat": 50, "dog": 298, "frog": 100}
        class_map = {"automobile": 1, "bird": 2, "cat": 3, "dog": 5, "frog": 6}
        for folder, count in counts.items():
            os.makedirs(tmp_path / folder)
            for i in range(count):
                write_ppm(str(tmp_path / folder / f"{i}.ppm"), 2, 2, (1, 2, 3))
        samples = load_ood_directory(str(tmp_path), class_map, size=(32, 32))
        assert len(samples) == 643
        per_class = {lab: sum(1 for s in samples if s.label == lab)
                     for lab in class_map.values()}
        assert per_class == {1: 49, 2: 146, 3: 50, 5: 298, 6: 100}

    def test_unmapped_folder(self, tmp_path):
        os.makedirs(tmp_path / "mystery")
        write_ppm(str(tmp_path / "mystery" / "a.ppm"), 2, 2, (0, 0, 0))
        with pytest.raises(ValueError, match="mystery"):
            load_ood_directory(str(tmp_path), {})

    def test_undecodable_file(self, tmp_path):
        os.makedirs(tmp_path / "dog")
        (tmp_path / "dog" / "notes.txt").write_text("not an image")
        with pytest.raises(ValueError):
            load_ood_directory(str(tmp_path), {"dog": 0})


class TestContainer:
    def make_samples(self):
        rng = Rng(7)
        return [
            Sample(image=Tensor(rng.child(0).normal((1, 3, 3))), label=0, raw=False,
                   provenance={"method": "sign", "k": 5}),
            Sample(image=Tensor(rng.child(1).normal((1, 3, 3))), label=1, raw=False,
                   soft_label=(0.25, 0.75)),
        ]

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "data.container")
        samples = self.make_samples()
        save_container(samples, path, ("a", "b"), raw_domain=False,
                       provenance={"k": [5]})
        loaded, manifest = load_container(path)
        assert manifest["class_names"] == ["a", "b"]
        assert manifest["provenance"] == {"k": [5]}
        for orig, got in zip(samples, loaded):
            assert np.array_equal(orig.image.data, got.image.data)
            assert orig.label == got.label
            assert orig.soft_label == got.soft_label
            assert orig.provenance == got.provenance
            assert not got.raw

    def test_mixup_soft_labels_load(self, tmp_path):
        # label blends as mixup makes them; inexact floats such as
        # 0.9400000000000001 must load back unchanged
        a, c = np.eye(3)[0], np.eye(3)[2]
        blends = [0.3 * a + 0.7 * c, 0.7 * c + (1.0 - 0.7) * c,
                  0.6 * (0.1 * a + 0.9 * c) + (1.0 - 0.6) * c]
        rng = Rng(8)
        samples = [Sample(image=Tensor(rng.child(i).normal((1, 3, 3))), label=2, raw=False,
                          soft_label=tuple(float(v) for v in soft))
                   for i, soft in enumerate(blends)]
        path = str(tmp_path / "mixup.container")
        save_container(samples, path, ("a", "b", "c"), raw_domain=False)
        loaded, _ = load_container(path)
        assert [s.soft_label for s in loaded] == [s.soft_label for s in samples]

    def test_write_is_deterministic(self, tmp_path):
        samples = self.make_samples()
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_container(samples, p1, ("a", "b"), raw_domain=False)
        save_container(samples, p2, ("a", "b"), raw_domain=False)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_version(self, tmp_path):
        import json
        import struct
        path = tmp_path / "bad.bin"
        doc = json.dumps({"version": "other", "raw_domain": True, "class_names": [],
                          "samples": []}).encode()
        path.write_bytes(struct.pack("<Q", len(doc)) + doc)
        with pytest.raises(ValueError, match="version"):
            load_container(str(path))
