import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augridge.datasets import (
    FormatError,
    SyntheticSpec,
    haar_orthogonal,
    inpainting_task,
    mnist_load,
    sample_synthetic,
    synthetic_sampler,
)
from augridge.features import identity_map


def test_haar_orthogonality():
    for d in (2, 5, 50):
        Q = haar_orthogonal(d, seed=3)
        assert np.allclose(Q @ Q.T, np.eye(d), atol=1e-10)
        assert np.allclose(Q.T @ Q, np.eye(d), atol=1e-10)


def test_haar_one_dimensional_is_sign():
    Q = haar_orthogonal(1, seed=0)
    assert Q.shape == (1, 1)
    assert abs(abs(Q[0, 0]) - 1.0) <= 1e-12


def test_haar_reproducible():
    a = haar_orthogonal(10, seed=7)
    b = haar_orthogonal(10, seed=7)
    c = haar_orthogonal(10, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_memoized_and_read_only():
    # sample_synthetic reuses one cached rotation; no caller may alter it
    a = haar_orthogonal(6, seed=2)
    assert haar_orthogonal(6, seed=2) is a
    with pytest.raises(ValueError):
        a[0, 0] = 0.0


def test_spectrum_options():
    spec = SyntheticSpec(d=4, n=1, theta_star=np.zeros(4),
                         truth_map=identity_map(4))
    assert np.allclose(spec.eigenvalues(), [1, 1 / 2, 1 / 3, 1 / 4])
    iso = SyntheticSpec(d=4, n=1, theta_star=np.zeros(4),
                        truth_map=identity_map(4), spectrum="isotropic")
    assert np.allclose(iso.eigenvalues(), 1.0)
    explicit = SyntheticSpec(d=3, n=1, theta_star=np.zeros(3),
                             truth_map=identity_map(3),
                             spectrum=[2.0, 1.0, 0.5])
    assert np.allclose(explicit.eigenvalues(), [2.0, 1.0, 0.5])


def test_spectrum_errors():
    bad_name = SyntheticSpec(d=3, n=1, theta_star=np.zeros(3),
                             truth_map=identity_map(3), spectrum="flat")
    with pytest.raises(ValueError):
        bad_name.eigenvalues()
    bad_vals = SyntheticSpec(d=3, n=1, theta_star=np.zeros(3),
                             truth_map=identity_map(3),
                             spectrum=[1.0, -1.0, 0.5])
    with pytest.raises(ValueError):
        bad_vals.eigenvalues()


def test_covariance_consistent_with_sqrt():
    spec = SyntheticSpec(d=6, n=1, theta_star=np.zeros(6),
                         truth_map=identity_map(6), q_seed=4)
    root = spec.covariance_sqrt()
    assert np.allclose(root @ root.T, spec.covariance(), atol=1e-12)
    assert np.allclose(np.trace(spec.covariance()),
                       np.sum(spec.eigenvalues()), atol=1e-10)


def test_sample_noiseless_labels_exact():
    theta = np.array([1.0, -2.0, 0.5])
    spec = SyntheticSpec(d=3, n=40, theta_star=theta,
                         truth_map=identity_map(3))
    ds = sample_synthetic(spec, np.random.default_rng(0))
    assert ds.X.shape == (3, 40) and ds.Y.shape == (1, 40)
    assert np.allclose(ds.Y, theta @ ds.X)


def test_sample_covariance_matches_spec():
    d, N = 5, 200_000
    spec = SyntheticSpec(d=d, n=N, theta_star=np.zeros(d),
                         truth_map=identity_map(d), q_seed=1)
    rng = np.random.default_rng(2)
    ds = sample_synthetic(spec, rng)
    emp = ds.X @ ds.X.T / N
    C = spec.covariance()
    # entrywise SE of a Gaussian second moment is about
    # sqrt((C_ii C_jj + C_ij^2) / N)
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C ** 2) / N)
    assert np.all(np.abs(emp - C) <= 4 * se)


def test_sampler_closure_respects_n():
    spec = SyntheticSpec(d=3, n=5, theta_star=np.zeros(3),
                         truth_map=identity_map(3))
    draw = synthetic_sampler(spec)
    X, Y = draw(17, np.random.default_rng(0))
    assert X.shape == (3, 17) and Y.shape == (1, 17)


def _idx_bytes(images):
    """Serialize a uint8 array (n, 28, 28) into IDX image bytes."""
    images = np.asarray(images, dtype=np.uint8)
    n, r, c = images.shape
    return struct.pack(">IIII", 0x00000803, n, r, c) + images.tobytes()


def test_mnist_load_exact_pixels(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    path = tmp_path / "images-idx3-ubyte"
    path.write_bytes(_idx_bytes(imgs))
    out = mnist_load(path)
    assert out.shape == (3, 28, 28)
    assert np.array_equal(out, imgs.astype(float) / 255.0)


def test_mnist_load_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0x12345678, 1, 28, 28)
                     + bytes(28 * 28))
    with pytest.raises(FormatError, match="magic"):
        mnist_load(path)


def test_mnist_load_truncated(tmp_path):
    short = tmp_path / "short"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(FormatError, match="truncated"):
        mnist_load(short)
    cut = tmp_path / "cut"
    cut.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28)
                    + bytes(28 * 28))
    with pytest.raises(FormatError, match="truncated"):
        mnist_load(cut)


def test_inpainting_dimensions():
    imgs = np.zeros((4, 28, 28))
    task = inpainting_task(imgs)
    assert task.X.shape == (759, 4)
    assert task.Y.shape == (25, 4)
    assert len(task.visible_idx) + len(task.patch_idx) == 784


def test_inpainting_patch_location():
    # patch must cover rows and columns 11..15 (0-indexed)
    img = np.zeros((28, 28))
    img[11:16, 11:16] = 1.0
    task = inpainting_task(img)
    assert np.all(task.Y == 1.0)
    assert np.all(task.X == 0.0)


def test_inpainting_rejects_wrong_shape():
    with pytest.raises(FormatError):
        inpainting_task(np.zeros((2, 27, 28)))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_inpainting_roundtrip_bit_exact(seed):
    rng = np.random.default_rng(seed)
    imgs = rng.random((2, 28, 28))
    task = inpainting_task(imgs)
    back = task.reassemble()
    assert np.array_equal(back, imgs)
    assert np.array_equal(task.reassemble(1), imgs[1])
