"""Synthetic Gaussian data with structured covariance, and the MNIST
inpainting task (IDX parsing, patch split, round-trip reassembly)."""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, InvalidDimensionError
from .features import FeatureMap, apply_features, identity_map


@functools.lru_cache(maxsize=8)
def haar_orthogonal(d, seed):
    """Haar-distributed orthogonal d x d matrix: QR of a standard Gaussian
    matrix with the R-diagonal sign correction. Memoized, since every
    sample_synthetic call needs it; the array is shared, so read-only."""
    if d < 1:
        raise InvalidDimensionError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    G = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Q = Q * signs[None, :]
    Q.flags.writeable = False
    return Q


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian data X ~ N(0, Q Diag(spectrum) Q^T) with labels
    Y = theta_star^T phi_star(X) + eps, eps ~ N(0, noise_sigma2).

    spectrum is either the string "power-law" (eigenvalue k^{-1} for
    k = 1..d) or an explicit array of positive eigenvalues.
    """

    d: int
    n: int
    theta_star: np.ndarray
    truth_map: FeatureMap
    noise_sigma2: float = 0.0
    spectrum: object = "power-law"
    q_seed: int = 0

    def eigenvalues(self):
        if isinstance(self.spectrum, str):
            if self.spectrum == "power-law":
                vals = 1.0 / np.arange(1, self.d + 1)
            elif self.spectrum == "isotropic":
                vals = np.ones(self.d)
            else:
                raise ConfigError(f"unknown spectrum {self.spectrum!r}")
        else:
            vals = np.asarray(self.spectrum, dtype=float)
        if vals.shape != (self.d,) or np.any(vals <= 0):
            raise ConfigError("need d positive eigenvalues")
        return vals

    def covariance(self):
        Q = haar_orthogonal(self.d, self.q_seed)
        return (Q * self.eigenvalues()[None, :]) @ Q.T

    def covariance_sqrt(self):
        Q = haar_orthogonal(self.d, self.q_seed)
        return Q * np.sqrt(self.eigenvalues())[None, :]


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    theta_star: np.ndarray | None = None
    noise_sigma2: float | None = None


def sample_synthetic(spec, rng, n=None) -> Dataset:
    """Draw n i.i.d. columns from the spec's data law."""
    n = spec.n if n is None else int(n)
    root = spec.covariance_sqrt()
    X = root @ rng.standard_normal((spec.d, n))
    theta = np.atleast_2d(np.asarray(spec.theta_star, dtype=float).T).T
    q = theta.shape[1]
    Y = theta.T @ apply_features(spec.truth_map, X)
    if spec.noise_sigma2 > 0:
        Y = Y + np.sqrt(spec.noise_sigma2) * rng.standard_normal((q, n))
    return Dataset(X=X, Y=Y, theta_star=theta,
                   noise_sigma2=spec.noise_sigma2)


def synthetic_sampler(spec):
    """A (n, rng) -> (X, Y) closure for moment estimation."""
    def draw(n, rng):
        ds = sample_synthetic(spec, rng, n=n)
        return ds.X, ds.Y
    return draw


_IDX_IMAGE_MAGIC = 0x00000803


def mnist_load(images_path):
    """Parse a big-endian IDX image file into an (n, 28, 28)-like float
    array scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise FormatError(
            f"{images_path}: truncated header ({len(data)} bytes, need 16)"
        )
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != _IDX_IMAGE_MAGIC:
        raise FormatError(
            f"{images_path}: bad magic 0x{magic:08x} at byte 0 "
            f"(expected 0x{_IDX_IMAGE_MAGIC:08x})"
        )
    expected = 16 + count * rows * cols
    if len(data) < expected:
        raise FormatError(
            f"{images_path}: truncated pixel data at byte {len(data)} "
            f"(expected {expected})"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16,
                           count=count * rows * cols)
    return pixels.reshape(count, rows, cols).astype(float) / 255.0


def _patch_indices(side=28, patch=5):
    start = (side - patch) // 2  # rows/cols 11..15 for 28 and 5
    flat = np.arange(side * side).reshape(side, side)
    patch_idx = flat[start:start + patch, start:start + patch].ravel()
    mask = np.ones(side * side, dtype=bool)
    mask[patch_idx] = False
    visible_idx = flat.ravel()[mask]
    return visible_idx, patch_idx


@dataclass(frozen=True)
class InpaintingTask:
    """Visible pixels X (759 x n) and the removed centered 5x5 patch
    Y (25 x n), with frozen raster-order index maps for reassembly."""

    X: np.ndarray
    Y: np.ndarray
    visible_idx: np.ndarray
    patch_idx: np.ndarray
    side: int = 28
    patch: int = 5

    def reassemble(self, i=None):
        """Rebuild the original image(s) from X and Y columns."""
        if i is not None:
            img = np.empty(self.side * self.side)
            img[self.visible_idx] = self.X[:, i]
            img[self.patch_idx] = self.Y[:, i]
            return img.reshape(self.side, self.side)
        n = self.X.shape[1]
        out = np.empty((n, self.side, self.side))
        for c in range(n):
            out[c] = self.reassemble(c)
        return out


def inpainting_task(images, patch_size=5) -> InpaintingTask:
    """Split 28 x 28 images into visible covariates and the centered
    patch targets, both in fixed raster order."""
    images = np.asarray(images, dtype=float)
    if images.ndim == 2:
        images = images[None]
    if images.shape[1:] != (28, 28):
        raise FormatError(f"expected 28x28 images, got {images.shape[1:]}")
    visible_idx, patch_idx = _patch_indices(28, patch_size)
    flat = images.reshape(images.shape[0], -1).T
    return InpaintingTask(
        X=np.ascontiguousarray(flat[visible_idx]),
        Y=np.ascontiguousarray(flat[patch_idx]),
        visible_idx=visible_idx,
        patch_idx=patch_idx,
        patch=patch_size,
    )
