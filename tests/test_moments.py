import tracemalloc

import numpy as np
import pytest

from augridge.datasets import SyntheticSpec, sample_synthetic
from augridge.features import identity_map, random_mlp_map
from augridge.moments import (
    InsufficientSamplesError,
    batch_sample_moments,
    closed_population_moment_set,
    estimate_moment_set,
    psd_clip,
)
from augridge.schemes import additive_noise, masking, salt_and_pepper


def _rng(seed=0):
    return np.random.default_rng(seed)


def _draws(spec, rng):
    """A take(a, b) that draws b - a fresh columns from the spec."""
    return lambda a, b: sample_synthetic(spec, rng, n=b - a)


def _one_column(scheme, fm, z, n_mc, rng):
    """The moments of one datum: a one-column batch_sample_moments call."""
    x, y = z
    mu_x, mu_y, lam, om = batch_sample_moments(scheme, fm, x[:, None],
                                               y[:, None], n_mc, rng)
    return mu_x[:, 0], mu_y[:, 0], lam, om


def test_per_sample_closed_zero_noise():
    fm = identity_map(3)
    z = (np.array([1.0, 2.0, 3.0]), np.array([0.5]))
    mu_x, _, lam, om = _one_column(additive_noise(0.0), fm, z, 10, _rng())
    assert np.array_equal(mu_x, z[0])
    assert np.allclose(lam, 0.0) and np.allclose(om, 0.0)


def test_per_sample_closed_additive():
    fm = identity_map(2)
    z = (np.array([1.0, -1.0]), np.array([2.0]))
    mu_x, _, lam, _ = _one_column(additive_noise(0.5), fm, z, 10, _rng())
    assert np.allclose(lam, 0.25 * np.eye(2))
    assert np.array_equal(mu_x, z[0])


def test_per_sample_requires_samples_without_closed_form():
    fm = random_mlp_map(2, [3], 2, seed=0)
    z = (np.zeros(2), np.zeros(1))
    with pytest.raises(InsufficientSamplesError):
        _one_column(additive_noise(0.1), fm, z, 1, _rng())


def test_per_sample_mc_linear_feature_oracle():
    # single linear layer: feature-space moments are exact linear images
    fm = random_mlp_map(3, [], 4, seed=2)
    W = fm.weights[0]
    sigma = 0.4
    z = (np.array([1.0, 2.0, -1.0]), np.array([0.0]))
    mu_x, _, lam, _ = _one_column(additive_noise(sigma), fm, z, 40_000,
                                  _rng(1))
    assert np.allclose(mu_x, W @ z[0], atol=0.02)
    assert np.allclose(lam, sigma ** 2 * W @ W.T, atol=0.02)


def test_per_sample_lambda_symmetric_psd():
    fm = random_mlp_map(4, [5], 3, seed=1)
    z = (np.ones(4), np.zeros(1))
    _, _, lam, _ = _one_column(salt_and_pepper(0.5, 1.0), fm, z, 500, _rng(2))
    assert np.allclose(lam, lam.T, atol=1e-10)
    w = np.linalg.eigvalsh(lam)
    assert w[0] >= -1e-8 * max(w[-1], 1.0)


def test_empirical_average_shrinks_like_root_n():
    # Frobenius distance of Lambda(Z) to LambdaBar at n vs 4n
    scheme = salt_and_pepper(0.6, 0.5)
    d = 6
    spec = SyntheticSpec(d=d, n=1, theta_star=np.zeros(d),
                         truth_map=identity_map(d), spectrum="isotropic")
    fm = identity_map(d)
    ms = closed_population_moment_set(spec.covariance(), scheme,
                                     np.zeros(d), 0.0)
    errs = {}
    for n in (200, 800):
        dev = []
        for rep in range(60):
            rng = _rng(1000 * n + rep)
            X = spec.covariance_sqrt() @ rng.standard_normal((d, n))
            _, _, lam_bar, _ = batch_sample_moments(
                scheme, fm, X, np.zeros((1, n)), 2, rng)
            dev.append(np.linalg.norm(lam_bar - ms.LambdaBar))
        errs[n] = np.mean(dev)
    ratio = errs[200] / errs[800]
    assert 1.4 <= ratio <= 2.9


def test_estimate_identity_augmentation_blocks_collapse():
    d = 5
    spec = SyntheticSpec(d=d, n=1, theta_star=np.ones(d) / np.sqrt(d),
                         truth_map=identity_map(d), noise_sigma2=0.1,
                         q_seed=1)
    rng = _rng(3)
    ms = estimate_moment_set(
        identity_map(d), identity_map(d), additive_noise(0.0),
        _draws(spec, rng), 4000, 2, rng,
        theta_star=spec.theta_star, noise_sigma2=0.1,
    )
    assert np.allclose(ms.SigmaPrime, ms.Sigma)
    assert np.allclose(ms.SigmaDoublePrime, ms.Sigma)
    assert np.allclose(ms.G2, ms.G1) and np.allclose(ms.G3, ms.G1)
    assert np.allclose(ms.G4, ms.G1)
    assert np.allclose(ms.PsiSecond[0], ms.PsiSecond[0][0, 0])


def test_estimate_sigma_consistency():
    d = 4
    spec = SyntheticSpec(d=d, n=1, theta_star=np.zeros(d),
                         truth_map=identity_map(d), q_seed=2)
    C = spec.covariance()
    rng = _rng(4)
    ms = estimate_moment_set(
        identity_map(d), identity_map(d), additive_noise(0.0),
        _draws(spec, rng), 60_000, 2, rng,
        theta_star=spec.theta_star, noise_sigma2=0.0,
    )
    assert np.linalg.norm(ms.Sigma - C) <= 0.05 * np.linalg.norm(C)


def test_estimate_pure_noise_labels():
    d = 4
    spec = SyntheticSpec(d=d, n=1, theta_star=np.zeros(d),
                         truth_map=identity_map(d), noise_sigma2=1.0,
                         q_seed=0)
    # raw labels (no conditioning): G1 should vanish within MC error
    rng = _rng(5)
    ms = estimate_moment_set(
        identity_map(d), identity_map(d), additive_noise(0.2),
        _draws(spec, rng), 30_000, 2, rng,
    )
    assert np.all(np.abs(ms.G1) <= 3 * 1.0 / np.sqrt(30_000) * 3)


def test_estimate_debias_second_moment():
    # with few augmentation draws the mu-outer-product bias Lambda/n_mc is
    # large; the corrected SigmaDoublePrime must still match the truth
    d = 4
    sigma = 1.0
    spec = SyntheticSpec(d=d, n=1, theta_star=np.zeros(d),
                         truth_map=identity_map(d), q_seed=3,
                         spectrum="isotropic")
    fm = random_mlp_map(d, [], d, seed=7)
    W = fm.weights[0]
    rng = _rng(6)
    ms = estimate_moment_set(
        fm, identity_map(d), additive_noise(sigma),
        _draws(spec, rng), 40_000, 4, rng,
        theta_star=spec.theta_star, noise_sigma2=0.0,
    )
    truth = W @ W.T  # E[mu_x mu_x^T] = W Sigma W^T with Sigma = I
    bias_scale = np.linalg.norm(sigma ** 2 * W @ W.T) / 4
    err = np.linalg.norm(ms.SigmaDoublePrime - truth)
    assert err <= 0.25 * bias_scale


def test_stacked_second_moment_psd():
    d = 5
    spec = SyntheticSpec(d=d, n=1, theta_star=np.zeros(d),
                         truth_map=identity_map(d), q_seed=4)
    rng = _rng(7)
    ms = estimate_moment_set(
        identity_map(d), identity_map(d), masking(0.6),
        _draws(spec, rng), 5000, 2, rng,
        theta_star=spec.theta_star, noise_sigma2=0.0,
    )
    # [[Sigma, Sigma'], [Sigma'^T, Sigma'']] = E[(phi, mu_x)(phi, mu_x)^T]
    w = np.linalg.eigvalsh(np.block([
        [ms.Sigma, ms.SigmaPrime],
        [ms.SigmaPrime.T, ms.SigmaDoublePrime],
    ]))
    assert w[0] >= -1e-8 * w[-1]


def test_estimate_reads_fixed_data_in_chunks():
    # 1100 columns arrive in blocks of CHUNK = 512 and sum to the
    # one-shot statistics of the whole dataset
    d, n = 4, 1100
    rng = _rng(8)
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((2, n))
    seen = []

    def take(a, b):
        seen.append((a, b))
        return X[:, a:b], Y[:, a:b]

    fm = identity_map(d)
    ms = estimate_moment_set(fm, None, masking(0.7), take, n, 2, rng)
    assert seen == [(0, 512), (512, 1024), (1024, 1100)]
    assert ms.provenance == "empirical-plugin" and ms.n_mc_used == n
    assert ms.SigmaStar is None and ms.SigmaStarStar is None
    MuX, MuY, Lam, Om = batch_sample_moments(masking(0.7), fm, X, Y, 2, rng)
    expected = {
        "Sigma": X @ X.T / n, "SigmaPrime": X @ MuX.T / n,
        "SigmaDoublePrime": MuX @ MuX.T / n, "G1": X @ Y.T / n,
        "G2": X @ MuY.T / n, "G3": MuX @ Y.T / n, "G4": MuX @ MuY.T / n,
        "LambdaBar": Lam, "OmegaBar": Om,
    }
    for name, M in expected.items():
        assert np.allclose(getattr(ms, name), M, rtol=0, atol=1e-12), name
    psi = [[np.sum(Y * Y, 1), np.sum(Y * MuY, 1)],
           [np.sum(MuY * Y, 1), np.sum(MuY * MuY, 1)]]
    assert np.allclose(ms.PsiSecond, np.moveaxis(np.array(psi), 2, 0) / n,
                       rtol=0, atol=1e-12)


def test_estimate_needs_two_columns_before_reading():
    def take(a, b):
        raise AssertionError("take called")

    with pytest.raises(InsufficientSamplesError):
        estimate_moment_set(identity_map(2), None, masking(0.5), take, 1, 2,
                            _rng())


def test_estimate_psi_second_shape():
    # q outputs give a symmetric, C-contiguous (q, 2, 2) PsiSecond
    d, q, n = 3, 5, 600
    rng = _rng(9)
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((q, n))
    fm = random_mlp_map(d, [4], 3, seed=1)
    ms = estimate_moment_set(fm, None, additive_noise(0.3),
                             lambda a, b: (X[:, a:b], Y[:, a:b]), n, 3, rng)
    psi = ms.PsiSecond
    assert psi.shape == (q, 2, 2) and psi.flags.c_contiguous
    assert np.array_equal(psi, psi.transpose(0, 2, 1))


def test_psd_clip_warns_and_clips():
    M = np.diag([1.0, -0.1])
    with pytest.warns(UserWarning):
        out = psd_clip(M)
    w = np.linalg.eigvalsh(out)
    assert w[0] >= -1e-12


def test_closed_population_masking_blocks():
    d = 3
    Sigma = np.diag([1.0, 2.0, 3.0])
    theta = np.array([1.0, 0.0, -1.0])
    ms = closed_population_moment_set(Sigma, masking(0.8), theta, 0.1)
    assert np.allclose(ms.SigmaPrime, 0.8 * Sigma)
    assert np.allclose(ms.SigmaDoublePrime, 0.64 * Sigma)
    assert np.allclose(ms.LambdaBar, 0.2 * 0.8 * np.diag(np.diag(Sigma)))
    assert np.allclose(ms.G1, (Sigma @ theta)[:, None])
    assert np.allclose(ms.G3, 0.8 * ms.G1)
    ey2 = theta @ Sigma @ theta + 0.1
    assert np.allclose(ms.PsiSecond[0], ey2)


def test_batch_kernel_peak_memory():
    # the augmented draws, their bool mask and their features at once,
    # with 2 MB for the hidden block and the rest: no repeated copy of X
    # and no float mask (the kernel with both peaked above this bound)
    d, hidden, p, n, T = 50, 60, 40, 64, 64
    fm = random_mlp_map(d, [hidden], p, seed=1)
    X = _rng(1).standard_normal((d, n))
    Y = _rng(2).standard_normal((1, n))
    tracemalloc.start()
    try:
        batch_sample_moments(salt_and_pepper(0.5, 0.7), fm, X, Y, T, _rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (8 * (d + p) + d) * n * T + 2 * 2 ** 20
