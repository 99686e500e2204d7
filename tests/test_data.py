"""Tests for synthetic data generation, metrics, persistence."""

import struct
import zlib

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from flowseg.data import (DOMAINS, BlobConfig, DomainConfig, FormatError,
                          Sample, _upsample_bilinear, dataset_load,
                          dataset_meta, dataset_save, dice_score, gen_dataset,
                          pgm_write, zscore)


def _clean_domain(**overrides):
    base = dict(name="clean", noise_sigma=0.0, bias_amplitude=0.0,
                contrast_gamma=1.0, seed=7)
    base.update(overrides)
    return DomainConfig(**base)


def _tiny(n, h, w):
    # Blob scaled down so it fits small test images.
    blob = BlobConfig(center_jitter=1.0, radius_lo=0.15, radius_hi=0.25)
    return gen_dataset(_clean_domain(blob=blob, noise_sigma=0.05), n,
                       image_size=(h, w))


# -- generation -----------------------------------------------------------------

def test_generated_images_are_z_scored():
    for s in gen_dataset(DOMAINS["A"], 5):
        assert abs(s.image.mean()) < 1e-6
        assert abs(s.image.std() - 1.0) < 1e-6


def test_mask_labels_are_binary():
    for s in gen_dataset(DOMAINS["B"], 5):
        assert set(np.unique(s.mask)).issubset({0, 1})


def test_same_seed_gives_identical_dataset():
    a = gen_dataset(DOMAINS["C"], 4)
    b = gen_dataset(DOMAINS["C"], 4)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.image, sb.image)
        np.testing.assert_array_equal(sa.mask, sb.mask)


def test_clean_domain_separates_foreground_from_background():
    # No noise/bias/unit gamma: class-conditional means must sit more than
    # one (overall) standard deviation apart; images are z-scored so the
    # overall std is 1.
    for s in gen_dataset(_clean_domain(), 20):
        fg = s.image[s.mask == 1].mean()
        bg = s.image[s.mask == 0].mean()
        assert fg - bg > 1.0


def test_foreground_area_matches_radii_expectation():
    domain = _clean_domain()
    blob = domain.blob
    samples = gen_dataset(domain, 1000)
    h, w = samples[0].image.shape
    mean_r = (blob.radius_lo + blob.radius_hi) / 2.0 * min(h, w)
    expected = np.pi * mean_r * mean_r / (h * w)
    actual = np.mean([s.mask.mean() for s in samples])
    assert abs(actual - expected) <= 0.2 * expected


def test_named_domains_differ():
    keys = list(DOMAINS)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            da, db = DOMAINS[a], DOMAINS[b]
            assert (da.noise_sigma, da.bias_amplitude, da.contrast_gamma) != \
                (db.noise_sigma, db.bias_amplitude, db.contrast_gamma)


def test_gen_rejects_bad_counts_and_radii():
    with pytest.raises(ValueError):
        gen_dataset(DOMAINS["A"], 0)
    with pytest.raises(ValueError):
        BlobConfig(radius_lo=0.3, radius_hi=0.2)
    with pytest.raises(ValueError):
        BlobConfig(radius_lo=0.0, radius_hi=0.0)
    huge = _clean_domain(blob=BlobConfig(radius_lo=0.45, radius_hi=0.49,
                                         center_jitter=6.0))
    with pytest.raises(ValueError):
        gen_dataset(huge, 1)


@pytest.mark.parametrize("grid", [(8, 8), (2, 2), (3, 7), (11, 5), (1, 4)])
@pytest.mark.parametrize("size", [(64, 64), (32, 48), (37, 53), (5, 129),
                                  (1, 9)])
def test_upsample_bilinear_equals_scipy_map_coordinates(grid, size):
    # scipy is the oracle: the texture upsampling must stay bit-for-bit its
    # order-1, edge-clamped interpolation, or every dataset file changes.
    coarse = np.random.default_rng(0).standard_normal(grid)
    h, w = size
    ii, jj = np.meshgrid(np.linspace(0.0, grid[0] - 1.0, h),
                         np.linspace(0.0, grid[1] - 1.0, w), indexing="ij")
    want = map_coordinates(coarse, [ii, jj], order=1, mode="nearest")
    assert np.array_equal(_upsample_bilinear(coarse, h, w), want)


def test_domain_config_validation():
    with pytest.raises(ValueError):
        _clean_domain(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        _clean_domain(contrast_gamma=0.0)


def test_zscore_rejects_constant_image():
    with pytest.raises(ValueError):
        zscore(np.full((4, 4), 3.0))


# -- dice ---------------------------------------------------------------------------

def test_dice_perfect_and_disjoint():
    a = np.zeros((8, 8), dtype=int)
    a[:4] = 1
    assert dice_score(a, a) == 1.0
    assert dice_score(a, 1 - a) == 0.0


def test_dice_half_overlap():
    pred = np.zeros(300, dtype=int)
    gt = np.zeros(300, dtype=int)
    pred[:100] = 1
    gt[50:150] = 1
    assert dice_score(pred, gt) == pytest.approx(0.5)


def test_dice_both_empty_is_one():
    z = np.zeros((4, 4), dtype=int)
    assert dice_score(z, z, k=1) == 1.0


def test_dice_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(3)
    a = (rng.random((6, 6)) > 0.5).astype(int)
    b = (rng.random((6, 6)) > 0.5).astype(int)
    assert dice_score(a, b) == dice_score(b, a)
    perm = rng.permutation(36)
    assert dice_score(a.ravel()[perm], b.ravel()[perm]) == dice_score(a, b)


def test_dice_shape_mismatch():
    with pytest.raises(ValueError):
        dice_score(np.zeros((4, 4), dtype=int), np.zeros((4, 5), dtype=int))


# -- persistence -----------------------------------------------------------------------

def test_dataset_roundtrip_and_resave_identical(tmp_path):
    samples = _tiny(3, 16, 24)
    p1, p2 = tmp_path / "a.dbfd", tmp_path / "b.dbfd"
    dataset_save(samples, p1)
    loaded = dataset_load(p1)
    assert len(loaded) == 3
    for orig, back in zip(samples, loaded):
        np.testing.assert_array_equal(orig.image, back.image)
        np.testing.assert_array_equal(orig.mask, back.mask)
    dataset_save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_file_size_formula(tmp_path):
    h, w, n = 16, 24, 5
    samples = _tiny(n, h, w)
    path = tmp_path / "sized.dbfd"
    dataset_save(samples, path)
    assert path.stat().st_size == 15 + n * (h * w * 9) + 4


def test_dataset_meta_reads_header(tmp_path):
    samples = _tiny(4, 16, 16)
    path = tmp_path / "m.dbfd"
    dataset_save(samples, path, num_classes=2)
    assert dataset_meta(path) == (4, 16, 16, 2)


def test_load_empty_file_errors(tmp_path):
    path = tmp_path / "empty.dbfd"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        dataset_load(path)


def test_load_bad_magic_names_both(tmp_path):
    path = tmp_path / "bad.dbfd"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(FormatError, match="DBFD.*NOPE"):
        dataset_load(path)


def test_load_bad_version(tmp_path):
    samples = _tiny(1, 8, 8)
    path = tmp_path / "v.dbfd"
    dataset_save(samples, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        dataset_load(path)


def test_load_truncated_file(tmp_path):
    samples = _tiny(2, 8, 8)
    path = tmp_path / "t.dbfd"
    dataset_save(samples, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(FormatError, match="truncated"):
        dataset_load(path)


def test_load_corrupted_payload_fails_checksum(tmp_path):
    samples = _tiny(2, 8, 8)
    path = tmp_path / "c.dbfd"
    dataset_save(samples, path)
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checksum"):
        dataset_load(path)


def test_save_empty_list_errors(tmp_path):
    with pytest.raises(ValueError):
        dataset_save([], tmp_path / "x.dbfd")


def test_save_rejects_a_non_finite_image(tmp_path):
    bad = _tiny(2, 8, 8)
    bad[1].image[3, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        dataset_save(bad, tmp_path / "x.dbfd")
    assert not (tmp_path / "x.dbfd").exists()


def test_save_rejects_labels_above_num_classes(tmp_path):
    bad = Sample(image=np.random.default_rng(0).normal(size=(4, 4)),
                 mask=np.full((4, 4), 3, dtype=np.int64))
    with pytest.raises(ValueError):
        dataset_save([bad], tmp_path / "x.dbfd", num_classes=2)


def test_pgm_dump(tmp_path):
    arr = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "img.pgm"
    pgm_write(arr, path)
    raw = path.read_bytes()
    header = b"P5\n4 3\n255\n"
    assert raw.startswith(header)
    body = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert body.size == 12
    assert body.min() == 0 and body.max() == 255


def test_pgm_constant_image_is_all_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    pgm_write(np.full((2, 2), 5.0), path)
    body = np.frombuffer(path.read_bytes()[-4:], dtype=np.uint8)
    assert np.all(body == 0)
