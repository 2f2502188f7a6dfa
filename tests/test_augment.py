"""Augmentation identities, index oracles, and distributional checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv

from signreg.augment import (CorruptionSpec, MixupConfig, apply_classical,
                             classical_augment_array, corrupt, mixup_arrays)
from signreg.datasets import Sample
from signreg.tensor import Rng, ShapeError, Tensor


def image_sample(arr, label=0, raw=True) -> Sample:
    return Sample(image=Tensor(arr), label=label, raw=raw)


class TestClassical:
    def test_all_transforms_off_is_identity(self):
        img = Rng(1).normal((3, 6, 6))
        out = apply_classical(img, hflip=False, vflip=False, quarter_turns=0, dy=0, dx=0)
        assert np.array_equal(out, img)

    def test_horizontal_flip_involution(self):
        img = Rng(2).normal((3, 5, 7))
        once = apply_classical(img, True, False, 0, 0, 0)
        twice = apply_classical(once, True, False, 0, 0, 0)
        assert np.array_equal(twice, img)

    def test_shift_index_oracle(self):
        # pixel (c, y, x) moves to (c, y+2, x+1); vacated cells are zero
        img = Rng(3).normal((2, 8, 8)) + 10.0  # keep strictly nonzero
        out = apply_classical(img, False, False, 0, dy=2, dx=1)
        for c in range(2):
            for y in range(8):
                for x in range(8):
                    if y + 2 < 8 and x + 1 < 8:
                        assert out[c, y + 2, x + 1] == img[c, y, x]
        assert np.all(out[:, :2, :] == 0.0) and np.all(out[:, :, :1] == 0.0)

    @given(st.booleans(), st.booleans(), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_flips_rotations_preserve_pixel_multiset(self, hflip, vflip, turns):
        img = Rng(4).normal((1, 6, 6))
        out = apply_classical(img, hflip, vflip, turns, 0, 0)
        assert sorted(out.reshape(-1).tolist()) == sorted(img.reshape(-1).tolist())

    def test_label_unchanged_and_deterministic(self):
        # the training loop augments stacked images and leaves the labels as
        # they are; the augmented sample keeps its label
        sample = image_sample(Rng(5).normal((3, 10, 10)), label=7)
        a = replace(sample, image=Tensor(classical_augment_array(sample.image.data, Rng(6))))
        b = classical_augment_array(sample.image.data, Rng(6))
        assert a.label == 7
        assert np.array_equal(a.image.data, b)

    def test_needs_a_channel_axis(self):
        with pytest.raises(ShapeError, match="expects \\(C, H, W\\)"):
            classical_augment_array(np.ones((4, 4)), Rng(7))

    def test_tiny_image_degenerates_to_identity_shift(self):
        out = classical_augment_array(np.ones((1, 1, 1)), Rng(7))
        assert out.shape == (1, 1, 1)


def draws(seed: int, n: int, alpha: float = 0.2):
    """The partner permutation and the lambdas ``mixup_arrays`` takes from ``Rng(seed)``."""
    rng = Rng(seed)
    return rng.permutation(n), rng.beta(alpha, alpha, size=n)


class FixedDraws:
    """Stands in for the ``Rng`` of ``mixup_arrays``: a set partner permutation
    and set lambdas, so a blend can be checked at an exact lambda."""

    def __init__(self, perm, lams):
        self.perm, self.lams = np.asarray(perm), np.asarray(lams, dtype=np.float64)

    def permutation(self, n):
        assert n == len(self.perm)
        return self.perm

    def beta(self, a, b, size=None):
        assert size == len(self.lams)
        return self.lams


class TestMixup:
    """The blend law of ``mixup_arrays``, checked against its own draws."""

    def test_lambda_one_endpoint(self):
        images = np.stack([np.full((1, 2, 2), 3.0), np.full((1, 2, 2), 9.0)])
        labels = np.eye(3)[[0, 1]]
        mixed, soft = mixup_arrays(images, labels, MixupConfig(), FixedDraws([1, 0], [1.0, 1.0]))
        assert np.array_equal(mixed, images)
        assert soft[0].tolist() == [1.0, 0.0, 0.0]

    def test_lambda_half_soft_label(self):
        images = np.stack([np.zeros((1, 2, 2)), np.ones((1, 2, 2))])
        labels = np.eye(4)[[0, 1]]
        _, soft = mixup_arrays(images, labels, MixupConfig(), FixedDraws([1, 0], [0.5, 0.5]))
        assert soft[0].tolist() == [0.5, 0.5, 0.0, 0.0]
        assert soft[1].tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_row_blends_with_partner_by_lambda(self):
        # indicator images and one-hot labels show each row's two weights
        images, labels = np.eye(4).reshape(4, 1, 2, 2), np.eye(4)
        mixed, soft = mixup_arrays(images, labels, MixupConfig(), Rng(14))
        perm, lams = draws(14, 4)
        for i in range(4):
            want = lams[i] * labels[i] + (1.0 - lams[i]) * labels[perm[i]]
            np.testing.assert_allclose(mixed[i].reshape(-1), want, atol=1e-12, rtol=0)
            np.testing.assert_allclose(soft[i], want, atol=1e-12, rtol=0)

    def test_constant_images_blend(self):
        values = np.array([10.0, 20.0, 30.0])
        images = values[:, None, None, None] * np.ones((3, 1, 3, 3))
        mixed, _ = mixup_arrays(images, np.eye(3), MixupConfig(), Rng(15))
        perm, lams = draws(15, 3)
        for i in range(3):
            np.testing.assert_allclose(mixed[i], lams[i] * values[i]
                                       + (1.0 - lams[i]) * values[perm[i]], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_symmetry(self, seed, alpha):
        # a batch of two and the same batch swapped share the draws, so each
        # row of the two blends sums to img1 + img2, whatever lambda is
        img1 = Rng(8).normal((2, 3, 3))
        img2 = Rng(9).normal((2, 3, 3))
        labels = np.eye(2)
        fwd, _ = mixup_arrays(np.stack([img1, img2]), labels, MixupConfig(alpha), Rng(seed))
        bwd, _ = mixup_arrays(np.stack([img2, img1]), labels, MixupConfig(alpha), Rng(seed))
        for i in range(2):
            np.testing.assert_allclose(fwd[i] + bwd[i], img1 + img2, atol=1e-12, rtol=0)


class TestMixupBatch:
    def make_batch(self, n):
        images = np.stack([Rng(10).child(i).normal((1, 4, 4)) for i in range(n)])
        return images, np.eye(3)[[i % 3 for i in range(n)]]

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            mixup_arrays(*self.make_batch(1), MixupConfig(), Rng(0))

    def test_reproducible(self):
        batch = self.make_batch(6)
        images_a, labels_a = mixup_arrays(*batch, MixupConfig(), Rng(11))
        images_b, labels_b = mixup_arrays(*batch, MixupConfig(), Rng(11))
        assert np.array_equal(images_a, images_b)
        assert np.array_equal(labels_a, labels_b)

    def test_soft_labels_sum_to_one(self):
        _, labels = mixup_arrays(*self.make_batch(8), MixupConfig(), Rng(12))
        for row in labels:
            assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lambda_histogram_matches_beta_deciles(self):
        # empirical CDF at the Beta(0.2, 0.2) decile points, 1e5 draws
        alpha = 0.2
        draws = Rng(13).beta(alpha, alpha, size=100_000)
        for d in range(1, 10):
            q = betaincinv(alpha, alpha, d / 10)
            assert abs((draws <= q).mean() - d / 10) < 0.01

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            MixupConfig(alpha=0.0)


class TestCorrupt:
    def constant_image(self, value=100.0, shape=(3, 8, 8)):
        return image_sample(np.full(shape, value), label=2)

    def test_zero_count_and_zero_sigma_identity(self):
        s = self.constant_image()
        off = corrupt(s, CorruptionSpec(kind="pixel-off", pixel_count=0), Rng(0))
        noise = corrupt(s, CorruptionSpec(kind="gaussian", mu=0.0, sigma=0.0), Rng(0))
        assert np.array_equal(off.image.data, s.image.data)
        assert np.array_equal(noise.image.data, s.image.data)

    def test_full_pixel_off_zeroes_everything(self):
        s = self.constant_image(shape=(3, 4, 4))
        out = corrupt(s, CorruptionSpec(kind="pixel-off", pixel_count=16), Rng(1))
        assert np.all(out.image.data == 0.0)

    def test_exactly_fifty_positions_zeroed(self):
        img = Rng(2).uniform(1.0, 255.0, size=(3, 32, 32))  # no zero pixels
        s = image_sample(img)
        out = corrupt(s, CorruptionSpec(kind="pixel-off", pixel_count=50), Rng(3))
        zero_positions = np.all(out.image.data == 0.0, axis=0)
        assert int(zero_positions.sum()) == 50
        untouched = ~zero_positions
        assert np.array_equal(out.image.data[:, untouched], img[:, untouched])

    def test_gaussian_stays_in_range_and_label_kept(self):
        s = self.constant_image(value=250.0)
        out = corrupt(s, CorruptionSpec(kind="gaussian", mu=0.0, sigma=50.0), Rng(4))
        assert out.image.data.max() <= 255.0 and out.image.data.min() >= 0.0
        assert out.label == s.label and out.image.shape == s.image.shape

    def test_pixel_count_exceeding_image(self):
        with pytest.raises(ValueError):
            corrupt(self.constant_image(shape=(3, 4, 4)),
                    CorruptionSpec(kind="pixel-off", pixel_count=17), Rng(0))

    def test_requires_raw_domain(self):
        s = image_sample(np.zeros((1, 4, 4)), raw=False)
        with pytest.raises(ValueError):
            corrupt(s, CorruptionSpec(kind="gaussian"), Rng(0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorruptionSpec(kind="blur")
        with pytest.raises(ValueError):
            CorruptionSpec(kind="gaussian", sigma=-1.0)

    @given(st.integers(0, 16), st.floats(0.0, 30.0))
    @settings(max_examples=20, deadline=None)
    def test_corruptions_preserve_shape_and_range(self, count, sigma):
        img = Rng(5).uniform(0.0, 255.0, size=(3, 4, 4))
        s = image_sample(img, label=1)
        for spec in (CorruptionSpec(kind="pixel-off", pixel_count=count),
                     CorruptionSpec(kind="gaussian", sigma=sigma)):
            out = corrupt(s, spec, Rng(6))
            assert out.image.shape == (3, 4, 4) and out.label == 1
            assert out.image.data.min() >= 0.0 and out.image.data.max() <= 255.0
