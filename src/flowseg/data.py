"""Synthetic multi-domain segmentation data.

Each sample is a soft-boundary ellipse on a textured background. Named domains
share the blob geometry (so the task is identical) and differ only in intensity
statistics: gamma contrast, a low-frequency multiplicative bias field, and
additive Gaussian noise. Training on the mild domain and evaluating on the
harsh one exhibits a real performance gap, which the ablation harness needs.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import (DATASET_MAGIC, FormatError, Writer, atomic_write,
                        read_head, unseal)


# -- types ---------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One image/mask pair: image (H, W) float64 z-scored, mask (H, W) int labels."""

    image: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class BlobConfig:
    """Foreground ellipse geometry. Radii are fractions of min(H, W)."""

    center_jitter: float = 6.0
    radius_lo: float = 0.18
    radius_hi: float = 0.30
    softness: float = 1.5

    def __post_init__(self):
        if not (0.0 < self.radius_lo <= self.radius_hi):
            raise ValueError(
                f"degenerate blob radii: lo={self.radius_lo} hi={self.radius_hi}")
        if self.softness <= 0.0:
            raise ValueError(f"boundary softness must be > 0, got {self.softness}")
        if self.center_jitter < 0.0:
            raise ValueError(f"center jitter must be >= 0, got {self.center_jitter}")


@dataclass(frozen=True)
class DomainConfig:
    """Intensity-statistics profile of one acquisition domain."""

    name: str
    noise_sigma: float
    bias_amplitude: float
    contrast_gamma: float
    blob: BlobConfig = field(default_factory=BlobConfig)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.bias_amplitude < np.inf:
            raise ValueError(f"bias_amplitude must be finite and >= 0, "
                             f"got {self.bias_amplitude}")
        if not 0.0 < self.contrast_gamma < np.inf:
            raise ValueError(f"contrast_gamma must be finite and > 0, "
                             f"got {self.contrast_gamma}")


# A is the mild source domain; C is deliberately harsh (heavy noise, strong
# bias field, hard gamma) so the A-to-C shift is nontrivial.
DOMAINS = {
    "A": DomainConfig("A", noise_sigma=0.05, bias_amplitude=0.0,
                      contrast_gamma=1.0, seed=101),
    "B": DomainConfig("B", noise_sigma=0.10, bias_amplitude=0.2,
                      contrast_gamma=0.8, seed=202),
    "C": DomainConfig("C", noise_sigma=0.6, bias_amplitude=1.0,
                      contrast_gamma=2.2, seed=303),
    "D": DomainConfig("D", noise_sigma=0.15, bias_amplitude=0.4,
                      contrast_gamma=1.25, seed=404),
}

_BACKGROUND_LEVEL = 0.2
_FOREGROUND_CONTRAST = 0.8
_TEXTURE_AMPLITUDE = 0.08
_TEXTURE_GRID = 8


def zscore(image: np.ndarray) -> np.ndarray:
    """Normalize to mean 0, std 1. Constant images are rejected."""
    sd = float(image.std())
    if sd < 1e-12:
        raise ValueError("cannot z-score a constant image")
    return (image - image.mean()) / sd


def _bilinear_axis(n_coarse: int, n: int):
    """The two source indices and their weights for each of n points spread
    corner to corner over a coarse axis of n_coarse samples. Only the upper
    index can step past the last sample, so only it is clamped. The upper
    weight is 1 - w0, not g - lo: that is how scipy rounds it."""
    g = np.linspace(0.0, n_coarse - 1.0, n)
    lo = np.floor(g)
    w0 = 1.0 - (g - lo)
    i0 = lo.astype(np.intp)
    return ((i0, w0), (np.minimum(i0 + 1, n_coarse - 1), 1.0 - w0))


def _upsample_bilinear(coarse: np.ndarray, h: int, w: int) -> np.ndarray:
    """Bilinear upsampling with edge-clamped indices. The weights, the corner
    order and the product order are those of scipy's
    map_coordinates(order=1, mode="nearest"), so the two agree bit for bit."""
    rows = _bilinear_axis(coarse.shape[0], h)
    cols = _bilinear_axis(coarse.shape[1], w)
    out = np.zeros((h, w))
    for r, wr in rows:
        for c, wc in cols:
            out += (coarse[r][:, c] * wr[:, None]) * wc[None, :]
    return out


def _gen_sample(domain: DomainConfig, h: int, w: int,
                rng: np.random.Generator) -> Sample:
    blob = domain.blob
    scale = min(h, w)
    r_i, r_j = rng.uniform(blob.radius_lo, blob.radius_hi, size=2) * scale
    if max(r_i, r_j) + blob.center_jitter >= scale / 2.0:
        raise ValueError(
            f"blob cannot fit: radius {max(r_i, r_j):.1f}px + jitter "
            f"{blob.center_jitter:.1f}px exceeds half extent {scale / 2.0:.1f}px")
    ci = h / 2.0 + rng.uniform(-blob.center_jitter, blob.center_jitter)
    cj = w / 2.0 + rng.uniform(-blob.center_jitter, blob.center_jitter)
    theta = rng.uniform(0.0, np.pi)

    ii, jj = np.meshgrid(np.arange(h, dtype=float),
                         np.arange(w, dtype=float), indexing="ij")
    di, dj = ii - ci, jj - cj
    u = np.cos(theta) * di + np.sin(theta) * dj
    v = -np.sin(theta) * di + np.cos(theta) * dj
    radial = np.sqrt((u / r_i) ** 2 + (v / r_j) ** 2)
    mask = (radial <= 1.0).astype(np.int64)

    # Signed boundary distance in pixels, softened into [0, 1].
    dist = (1.0 - radial) * np.sqrt(r_i * r_j)
    fg = 1.0 / (1.0 + np.exp(-dist / blob.softness))

    texture = _upsample_bilinear(
        rng.standard_normal((_TEXTURE_GRID, _TEXTURE_GRID)), h, w)
    img = _BACKGROUND_LEVEL + _TEXTURE_AMPLITUDE * texture \
        + _FOREGROUND_CONTRAST * fg

    # Domain transform: gamma contrast, multiplicative bias field, noise.
    img = np.clip(img, 0.0, None) ** domain.contrast_gamma
    if domain.bias_amplitude > 0.0:
        fi, fj = rng.uniform(0.5, 1.5, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        bias = np.cos(2.0 * np.pi * (fi * ii / h + fj * jj / w) + phase)
        img = img * (1.0 + domain.bias_amplitude * bias)
    if domain.noise_sigma > 0.0:
        img = img + rng.normal(0.0, domain.noise_sigma, size=(h, w))

    return Sample(image=zscore(img), mask=mask)


def gen_dataset(domain: DomainConfig, n: int,
                rng: np.random.Generator | None = None,
                image_size: tuple[int, int] = (64, 64)) -> list[Sample]:
    """Generate n samples; pure function of (domain, n, seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h, w = image_size
    if rng is None:
        rng = np.random.default_rng(domain.seed)
    return [_gen_sample(domain, h, w, rng) for _ in range(n)]


# -- metrics ----------------------------------------------------------------------

def dice_score(pred: np.ndarray, gt: np.ndarray, k: int = 1) -> float:
    """2 |P intersect G| / (|P| + |G|) for class k; 1.0 when both sets are empty."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    p = pred == k
    g = gt == k
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


# -- persistence --------------------------------------------------------------------

_HEAD = "<IHHB"  # n, H, W, K


def _payload_size(n: int, h: int, w: int, k: int) -> int:
    return n * (h * w * 9)  # f64 image + u8 mask per sample


def dataset_save(samples: list[Sample], path: str | Path,
                 num_classes: int | None = None) -> None:
    """Write the header and per-sample f64 image / u8 mask in a sealed file."""
    if not samples:
        raise ValueError("refusing to save an empty dataset")
    h, w = samples[0].image.shape
    max_label = max(int(s.mask.max()) for s in samples)
    k = num_classes if num_classes is not None else max_label + 1
    if not (0 < k <= 255):
        raise ValueError(f"num_classes must be in [1, 255], got {k}")
    if max_label >= k:
        raise ValueError(f"mask label {max_label} >= num_classes {k}")

    out = Writer(DATASET_MAGIC)
    out.put(_HEAD, len(samples), h, w, k)
    for s in samples:
        if s.image.shape != (h, w) or s.mask.shape != (h, w):
            raise ValueError(
                f"inconsistent sample shape: {s.image.shape} vs {(h, w)}")
        if not np.isfinite(s.image).all():
            raise ValueError("refusing to save an image with a non-finite value")
        out.put_bytes(np.ascontiguousarray(s.image, dtype="<f8"))
        out.put_bytes(np.ascontiguousarray(s.mask, dtype=np.uint8))
    atomic_write(path, out.seal())


def dataset_load(path: str | Path) -> list[Sample]:
    """Inverse of dataset_save; what it would not write raises FormatError."""
    body = unseal(Path(path).read_bytes(), DATASET_MAGIC, path, _HEAD,
                  _payload_size)
    n, h, w, k = body.take(_HEAD)
    if n == 0:
        raise FormatError(path, "the dataset declares 0 samples")
    samples = []
    for i in range(n):
        img = np.frombuffer(body.take_bytes(h * w * 8),
                            dtype="<f8").reshape(h, w).copy()
        if not np.isfinite(img).all():
            raise FormatError(path, f"sample {i}: image holds a non-finite value")
        mask = np.frombuffer(body.take_bytes(h * w),
                             dtype=np.uint8).reshape(h, w).astype(np.int64)
        if mask.max(initial=0) >= k:
            raise FormatError(
                path, f"sample {i}: mask label {mask.max()} >= declared K {k}")
        samples.append(Sample(image=img, mask=mask))
    return samples


def dataset_meta(path: str | Path) -> tuple[int, int, int, int]:
    """Header fields (n, H, W, K) without loading sample payloads."""
    return read_head(path, DATASET_MAGIC, _HEAD)


def pgm_write(arr: np.ndarray, path: str | Path) -> None:
    """Dump a 2D array as binary PGM (P5, maxval 255), min-max scaled."""
    if arr.ndim != 2:
        raise ValueError(f"PGM dump needs a 2D array, got shape {arr.shape}")
    a = np.asarray(arr, dtype=float)
    lo, hi = float(a.min()), float(a.max())
    if hi - lo < 1e-12:
        scaled = np.zeros(a.shape, dtype=np.uint8)
    else:
        scaled = np.round((a - lo) / (hi - lo) * 255.0).astype(np.uint8)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())
