import hashlib

import numpy as np
import pytest

from stoseg import data, pnm
from stoseg.metrics import confusion, metrics_from_counts
from stoseg.rng import SplitMix64


class TestSynthBlobs:
    def test_deterministic(self):
        a = data.synth_blobs(5, 32, 7)
        b = data.synth_blobs(5, 32, 7)
        for s, t in zip(a, b):
            assert s.ident == t.ident
            np.testing.assert_array_equal(s.image, t.image)
            np.testing.assert_array_equal(s.mask, t.mask)

    def test_seed_changes_content(self):
        a = data.synth_blobs(2, 32, 1)
        b = data.synth_blobs(2, 32, 2)
        assert (a[0].mask != b[0].mask).any()

    def test_foreground_fraction_window(self):
        ds = data.synth_blobs(40, 48, 3)
        for s in ds:
            assert 0.05 <= s.mask.mean() <= 0.4

    def test_masks_binary_images_in_range(self):
        ds = data.synth_blobs(10, 32, 4)
        for s in ds:
            assert set(np.unique(s.mask)) <= {0, 1}
            assert s.image.dtype == np.float32
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.image.shape == (3, 32, 32)
            assert s.orig_size == (32, 32)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            data.synth_blobs(0, 32, 0)
        with pytest.raises(ValueError):
            data.synth_blobs(1, 8, 0)

    def test_unique_identifiers(self):
        ds = data.synth_blobs(20, 32, 5)
        assert len({s.ident for s in ds}) == 20

    @pytest.mark.parametrize("n, size, seed, images, masks", [
        (6, 16, 3, "1b444d7756aa7f2692941207354e29e928b38efb176657eaa39785286043000f",
         "06596b0dae144420a11ef03e23b9886ead8eda33ec1774cdebe936dbba718f43"),
        (3, 64, 0, "ea56b4f91be4bf83ba6dbe33f9c9363eea8bd232bd5bb9712a4f5db1568f797c",
         "29ba9eb40a10c00750a2a633a8ab6d7b15ce9df949d0ba775848cb164b377c16"),
        (2, 96, 1, "260004070c009899fe0c0dd17394244da6a4ae71ea55d6fc458d96909f89b854",
         "075790fdd8d7fba09e2a59ef9d0d653838fcc2427904d903ea154b2d966c6339"),
    ])
    def test_bytes_are_pinned(self, n, size, seed, images, masks):
        """The SHA-256 of the stacked images and masks, recorded once: every
        training run and benchmark input starts from these bytes."""
        ds = data.synth_blobs(n, size, seed)
        assert hashlib.sha256(np.stack([s.image for s in ds]).tobytes()).hexdigest() == images
        assert hashlib.sha256(np.stack([s.mask for s in ds]).tobytes()).hexdigest() == masks


class TestPnmCodec:
    def test_pgm_binary_round_trip(self, tmp_path):
        mask = (SplitMix64(0).uniform_array(12 * 10).reshape(12, 10) < 0.5)
        raw = (mask * 255).astype(np.uint8)
        pnm.write_pgm(tmp_path / "m.pgm", raw)
        back, maxval = pnm.read_pnm(tmp_path / "m.pgm")
        assert maxval == 255
        np.testing.assert_array_equal(back, raw)

    def test_ppm_round_trip(self, tmp_path):
        rgb = (SplitMix64(1).uniform_array(8 * 9 * 3).reshape(8, 9, 3) * 255).astype(np.uint8)
        pnm.write_ppm(tmp_path / "i.ppm", rgb)
        back, _ = pnm.read_pnm(tmp_path / "i.ppm")
        np.testing.assert_array_equal(back, rgb)

    def test_p2_ascii_with_comments(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# a comment\n3 2\n255\n0 128 255\n10 # trailing\n20 30\n")
        arr, maxval = pnm.read_pnm(path)
        assert maxval == 255
        np.testing.assert_array_equal(arr, [[0, 128, 255], [10, 20, 30]])

    def test_bad_magic_names_file(self, tmp_path):
        path = tmp_path / "weird.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="weird.pgm"):
            pnm.read_pnm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="payload"):
            pnm.read_pnm(path)

    @pytest.mark.parametrize("raw", [b"P2\n2 1\n100\n50 200\n", b"P5\n2 1\n100\n\x32\xc8",
                                     b"P6\n1 1\n100\n\xc8\xc8\xc8"], ids=["P2", "P5", "P6"])
    def test_sample_above_maxval_rejected(self, tmp_path, raw):
        path = tmp_path / "hot.pnm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="hot.pnm: sample out of range for maxval 100"):
            pnm.read_pnm(path)

    def test_maxval_over_255_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            pnm.read_pnm(path)


class TestLoadDir:
    def test_round_trip_through_disk(self, tmp_path):
        ds = data.synth_blobs(4, 32, 9)
        data.save_dataset(ds, tmp_path)
        back = data.load_dir(tmp_path / "images", tmp_path / "masks")
        assert len(back) == 4
        for orig, loaded in zip(ds, back):
            assert loaded.ident == orig.ident
            np.testing.assert_array_equal(loaded.mask, orig.mask)
            # images pass through 8-bit quantization
            assert np.abs(loaded.image - orig.image).max() <= 0.5 / 255 + 1e-6
            assert loaded.orig_size == orig.orig_size

    def test_mask_threshold_at_128(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        rgb = np.zeros((1, 2, 3), dtype=np.uint8)
        pnm.write_ppm(tmp_path / "images" / "x.ppm", rgb)
        gray = np.array([[127, 128]], dtype=np.uint8)
        pnm.write_pgm(tmp_path / "masks" / "x.pgm", gray)
        ds = data.load_dir(tmp_path / "images", tmp_path / "masks")
        np.testing.assert_array_equal(ds[0].mask, [[0, 1]])

    @pytest.mark.parametrize("mask_file", [b"P5\n3 1\n1\n\x00\x01\x01", b"P2\n3 1\n1\n0 1 1\n"],
                             ids=["P5", "P2"])
    def test_mask_threshold_follows_maxval(self, tmp_path, mask_file):
        """A 0/1 mask stored with maxval 1 keeps its foreground."""
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        pnm.write_ppm(tmp_path / "images" / "x.ppm", np.zeros((1, 3, 3), dtype=np.uint8))
        (tmp_path / "masks" / "x.pgm").write_bytes(mask_file)
        ds = data.load_dir(tmp_path / "images", tmp_path / "masks")
        np.testing.assert_array_equal(ds[0].mask, [[0, 1, 1]])

    def test_missing_mask_named(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        pnm.write_ppm(tmp_path / "images" / "only.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(FileNotFoundError, match="only.pgm"):
            data.load_dir(tmp_path / "images", tmp_path / "masks")

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        with pytest.raises(FileNotFoundError, match="no .ppm"):
            data.load_dir(tmp_path / "images", tmp_path / "masks")


class TestSplit:
    def test_880_120_protocol(self):
        ds = data.synth_blobs(40, 32, 11)  # stand-in; counts scaled in acceptance
        train, test = data.split(ds, 30, 10, 5)
        assert len(train) == 30 and len(test) == 10
        assert {s.ident for s in train}.isdisjoint({s.ident for s in test})

    def test_ratio_scaled_down(self):
        ds = data.synth_blobs(50, 32, 12)
        train, test = data.split(ds, 44, 6, 1)
        assert (len(train), len(test)) == (44, 6)

    def test_deterministic(self):
        ds = data.synth_blobs(20, 32, 13)
        t1, _ = data.split(ds, 15, 5, 2)
        t2, _ = data.split(ds, 15, 5, 2)
        assert [s.ident for s in t1] == [s.ident for s in t2]

    def test_counts_must_sum(self):
        ds = data.synth_blobs(10, 32, 14)
        cases = [
            ((5, 6), r"counts 5\+6 != dataset size 10"),
            ((-1, 11), r"counts -1\+11 must not be negative"),
            ((11, -1), r"counts 11\+-1 must not be negative"),
        ]
        for counts, message in cases:
            with pytest.raises(ValueError, match=message):
                data.split(ds, *counts, 0)


class TestAugment:
    def test_deterministic(self):
        s = data.synth_blobs(1, 32, 15)[0]
        a = data.augment(s, 99)
        b = data.augment(s, 99)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_image_and_mask_stay_aligned(self):
        # encode the mask into an image channel; the transform must commute
        s = data.synth_blobs(1, 32, 16)[0]
        image = s.image.copy()
        image[0] = s.mask.astype(np.float32)
        probe = data.Sample(s.ident, image, s.mask, s.orig_size)
        for seed in range(25):
            out = data.augment(probe, seed)
            np.testing.assert_array_equal(out.image[0], out.mask.astype(np.float32))

    def test_flip_primitives(self):
        m = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(m[:, ::-1], [[2, 1], [4, 3]])  # hflip
        np.testing.assert_array_equal(np.rot90(np.rot90(np.rot90(np.rot90(m)))), m)
        np.testing.assert_array_equal(m[:, ::-1][:, ::-1], m)

    def test_covers_the_dihedral_orbit(self):
        s = data.synth_blobs(1, 32, 17)[0]
        variants = {data.augment(s, seed).mask.tobytes() for seed in range(200)}
        assert len(variants) >= 4  # flips and rotations actually happen

    def test_preserves_metadata(self):
        s = data.synth_blobs(1, 32, 18)[0]
        out = data.augment(s, 1)
        assert out.ident == s.ident
        assert out.orig_size == s.orig_size


class TestResizeForTrain:
    def test_same_size_returns_sample_unchanged(self):
        s = data.synth_blobs(1, 32, 19)[0]
        assert data.resize_for_train(s, 32) is s

    def test_constant_image_stays_constant(self):
        img = np.full((3, 20, 20), 0.3, dtype=np.float32)
        s = data.Sample("c", img, np.zeros((20, 20), dtype=np.uint8), (20, 20))
        out = data.resize_for_train(s, 32)
        assert (out.image == np.float32(0.3)).all()

    def test_mask_nearest_keeps_binary_blocks(self):
        img = np.zeros((3, 2, 2), dtype=np.float32)
        mask = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        s = data.Sample("m", img, mask, (2, 2))
        out = data.resize_for_train(s, 8)
        np.testing.assert_array_equal(out.mask[:4, :4], np.ones((4, 4), dtype=np.uint8))
        assert out.mask.sum() == 16
        assert set(np.unique(out.mask)) <= {0, 1}

    def test_original_dims_retained(self):
        s = data.synth_blobs(1, 48, 20)[0]
        out = data.resize_for_train(s, 32)
        assert out.orig_size == (48, 48)
        assert out.image.shape == (3, 32, 32)


class TestResizePredBack:
    def test_threshold_without_resize(self):
        prob = np.array([[0.49, 0.5], [0.51, 0.1]])
        np.testing.assert_array_equal(
            data.resize_pred_back(prob, (2, 2)), [[0, 1], [1, 0]]
        )

    def test_constant_above_half_fills(self):
        prob = np.full((4, 4), 0.7)
        out = data.resize_pred_back(prob, (9, 13))
        assert out.shape == (9, 13)
        assert (out == 1).all()

    def test_bilinear_then_threshold_row(self):
        prob = np.array([[0.0, 1.0]])
        out = data.resize_pred_back(prob, (1, 4))
        np.testing.assert_array_equal(out, [[0, 0, 1, 1]])

    def test_round_trip_dice_bound(self):
        # ground truth itself through the resize protocol keeps dice >= 0.9
        ds = data.synth_blobs(12, 96, 21)
        for s in ds:
            resized = data.resize_for_train(s, 64)
            back = data.resize_pred_back(resized.mask.astype(np.float64), s.orig_size)
            rep = metrics_from_counts(confusion(back, s.mask))
            assert rep.dice >= 0.9


def test_mask_to_onehot():
    m = np.array([[1, 0]], dtype=np.uint8)
    t = data.mask_to_onehot(m)
    np.testing.assert_array_equal(t, [[[0.0, 1.0]], [[1.0, 0.0]]])
    assert t.dtype == np.float32
