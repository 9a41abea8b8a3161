import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augridge import moments, schemes
from augridge.datasets import SyntheticSpec, sample_synthetic
from augridge.detequiv import (compute_second_order, equivalents,
                               solve_fixed_point)
from augridge.errors import (InvalidDimensionError, NumericalFailureError,
                             PreconditionViolationError)
from augridge.features import apply_features, identity_map, random_mlp_map
from augridge.moments import (
    DRAWS,
    PROVENANCES,
    InsufficientSamplesError,
    MomentSet,
    batch_sample_moments,
    closed_population_moment_set,
    estimate_moment_set,
    identity_moment_set,
    psd_clip,
    symmetrize,
)
from augridge.ridge import assemble_design
from augridge.schemes import (
    additive_noise,
    closed_moments,
    heteroskedastic,
    masking,
    mixture,
    salt_and_pepper,
    sample_augmented_batch,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _draws(spec, rng):
    """A take(a, b) that draws b - a fresh columns from the spec."""
    return lambda a, b: sample_synthetic(spec, rng, n=b - a)


def _one_column(scheme, fm, z, n_mc, rng):
    """The moments of one datum: a one-column batch_sample_moments call."""
    x, y = z
    mu_x, lam, om, _, _ = batch_sample_moments(scheme, fm, x[:, None],
                                               y[:, None], n_mc, rng)
    return mu_x[:, 0], lam, om


def test_per_sample_closed_zero_noise():
    fm = identity_map(3)
    z = (np.array([1.0, 2.0, 3.0]), np.array([0.5]))
    mu_x, lam, om = _one_column(additive_noise(0.0), fm, z, 10, _rng())
    assert np.array_equal(mu_x, z[0])
    assert np.allclose(lam, 0.0) and np.allclose(om, 0.0)


def test_per_sample_closed_additive():
    fm = identity_map(2)
    z = (np.array([1.0, -1.0]), np.array([2.0]))
    mu_x, lam, _ = _one_column(additive_noise(0.5), fm, z, 10, _rng())
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
    mu_x, lam, _ = _one_column(additive_noise(sigma), fm, z, 40_000,
                               _rng(1))
    assert np.allclose(mu_x, W @ z[0], atol=0.02)
    assert np.allclose(lam, sigma ** 2 * W @ W.T, atol=0.02)


def test_per_sample_lambda_symmetric_psd():
    fm = random_mlp_map(4, [5], 3, seed=1)
    z = (np.ones(4), np.zeros(1))
    _, lam, _ = _one_column(salt_and_pepper(0.5, 1.0), fm, z, 500, _rng(2))
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
            _, lam_bar, _, _, _ = batch_sample_moments(
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
        _draws(spec, rng), 4000, rng,
        theta_star=spec.theta_star, noise_sigma2=0.1,
    )
    assert np.allclose(ms.SigmaPrime, ms.Sigma)
    assert np.allclose(ms.SigmaDoublePrime, ms.Sigma)
    assert np.allclose(ms.G3, ms.G1)
    # conditioned labels: E[Y^2] = theta*^T Sigma theta* + sigma2 over the
    # same columns
    theta = spec.theta_star
    assert np.allclose(ms.EY2, theta @ ms.Sigma @ theta + 0.1)


def test_estimate_sigma_consistency():
    d = 4
    spec = SyntheticSpec(d=d, n=1, theta_star=np.zeros(d),
                         truth_map=identity_map(d), q_seed=2)
    C = spec.covariance()
    rng = _rng(4)
    ms = estimate_moment_set(
        identity_map(d), identity_map(d), additive_noise(0.0),
        _draws(spec, rng), 60_000, rng,
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
        _draws(spec, rng), 30_000, rng,
    )
    assert np.all(np.abs(ms.G1) <= 3 * 1.0 / np.sqrt(30_000) * 3)


def test_estimate_debias_second_moment():
    # with DRAWS augmentation draws the mu-outer-product bias Lambda/DRAWS
    # is large; the corrected SigmaDoublePrime must still match the truth
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
        _draws(spec, rng), 40_000, rng,
        theta_star=spec.theta_star, noise_sigma2=0.0,
    )
    truth = W @ W.T  # E[mu_x mu_x^T] = W Sigma W^T with Sigma = I
    bias_scale = np.linalg.norm(sigma ** 2 * W @ W.T) / DRAWS
    err = np.linalg.norm(ms.SigmaDoublePrime - truth)
    assert err <= 0.25 * bias_scale


def test_stacked_second_moment_psd():
    d = 5
    spec = SyntheticSpec(d=d, n=1, theta_star=np.zeros(d),
                         truth_map=identity_map(d), q_seed=4)
    rng = _rng(7)
    ms = estimate_moment_set(
        identity_map(d), identity_map(d), masking(0.6),
        _draws(spec, rng), 5000, rng,
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
    ms = estimate_moment_set(fm, None, masking(0.7), take, n, rng)
    assert seen == [(0, 512), (512, 1024), (1024, 1100)]
    assert ms.provenance == "empirical-plugin" and ms.n_mc_used == n
    MuX, Lam, Om, _, _ = batch_sample_moments(masking(0.7), fm, X, Y, 2,
                                              rng)
    expected = {
        "Sigma": X @ X.T / n, "SigmaPrime": X @ MuX.T / n,
        "SigmaDoublePrime": MuX @ MuX.T / n, "G1": X @ Y.T / n,
        "G3": MuX @ Y.T / n, "EY2": np.sum(Y * Y, 1) / n,
        "LambdaBar": Lam, "OmegaBar": Om,
    }
    for name, M in expected.items():
        assert np.allclose(getattr(ms, name), M, rtol=0, atol=1e-12), name


def test_estimate_needs_two_columns_before_reading():
    def take(a, b):
        raise AssertionError("take called")

    with pytest.raises(InsufficientSamplesError):
        estimate_moment_set(identity_map(2), None, masking(0.5), take, 1,
                            _rng())


def test_estimate_ey2_shape():
    # q outputs give a float64 EY2 of length q, one E[Y^2] per output
    d, q, n = 3, 5, 600
    rng = _rng(9)
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((q, n))
    fm = random_mlp_map(d, [4], 3, seed=1)
    ms = estimate_moment_set(fm, None, additive_noise(0.3),
                             lambda a, b: (X[:, a:b], Y[:, a:b]), n, rng)
    assert ms.EY2.shape == (q,) and ms.EY2.dtype == np.float64


def test_psd_clip_warns_and_clips():
    M = np.diag([1.0, -0.1])
    with pytest.warns(UserWarning):
        out = psd_clip(M)
    w = np.linalg.eigvalsh(out)
    assert w[0] >= -1e-12
    # the clip the fuzzed configs hit: a real negative mass, whatever the
    # scale of the moment set
    with pytest.warns(UserWarning, match="-2.440e-01"):
        psd_clip(np.diag([0.0156, -0.244]), 1e-8)
    # a block that is zero up to rounding, in a moment set of unit scale
    # (a float64 floor of 1e-8): clipped, but without a warning
    noise = np.diag([2.115e-16, -6.049e-16])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = psd_clip(noise, 1e-8)
    assert np.linalg.eigvalsh(out)[0] >= 0.0
    # on its own scale the same block still warns
    with pytest.warns(UserWarning):
        psd_clip(noise)


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
    assert np.allclose(ms.EY2, ey2)


_S_X = np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]])
_S_Y = np.array([[0.8, -0.3]])
_DIAG = np.diag([1.0, 2.0, 3.0])
_SPREAD = 0.4 + 0.6 * 0.7 ** 2 - (0.4 + 0.6 * 0.7) ** 2  # Var of c_j


@pytest.mark.parametrize("scheme,c,lam,om", [
    (heteroskedastic(_S_X, _S_Y), 1.0, _S_X @ _S_X.T, _S_X @ _S_Y.T),
    (mixture([additive_noise(0.3), masking(0.7)], [0.4, 0.6]),
     0.4 + 0.6 * 0.7,
     0.4 * 0.09 * np.eye(3) + 0.6 * 0.3 * 0.7 * _DIAG + _SPREAD * _DIAG,
     np.zeros((3, 1))),
], ids=["heteroskedastic", "mixture"])
def test_closed_population_blocks(scheme, c, lam, om):
    # the blocks of test_closed_population_masking_blocks for the kinds
    # with a label term (Omega = s_x s_y^T) and a mean spread (mixture)
    Sigma = _DIAG
    theta = np.array([1.0, 0.0, -1.0])
    ms = closed_population_moment_set(Sigma, scheme, theta, 0.1)
    assert np.allclose(ms.SigmaPrime, c * Sigma)
    assert np.allclose(ms.SigmaDoublePrime, c * c * Sigma)
    assert np.allclose(ms.LambdaBar, lam)
    assert np.allclose(ms.OmegaBar, om)
    assert np.allclose(ms.G1, (Sigma @ theta)[:, None])
    assert np.allclose(ms.G3, c * ms.G1)
    ey2 = theta @ Sigma @ theta + 0.1
    assert np.allclose(ms.EY2, ey2)


def _assert_conditioned_labels(scheme):
    # the risk reads the truth only from G1 and E[Y^2]; with conditioned
    # labels they are the truth's cross and self products over the same
    # columns: G1 = Phi Phi*^T theta*/N and E[Y^2] - sigma2 =
    # theta*^T Phi* Phi*^T theta*/N, for a truth map unlike the features
    d, N, sigma2 = 6, 1100, 0.3
    fm = random_mlp_map(d, [7], 5, seed=1)
    truth = random_mlp_map(d, [9], 4, seed=2)
    rng = _rng(21)
    X = rng.standard_normal((d, N))
    theta_star = rng.standard_normal(4)
    ms = estimate_moment_set(
        fm, truth, scheme, lambda a, b: (
            X[:, a:b], rng.standard_normal((1, b - a))),
        N, rng, theta_star=theta_star, noise_sigma2=sigma2)
    Phi, PhiStar = apply_features(fm, X), apply_features(truth, X)
    np.testing.assert_allclose(ms.G1[:, 0], Phi @ PhiStar.T @ theta_star / N,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        ms.EY2[0] - sigma2,
        theta_star @ PhiStar @ PhiStar.T @ theta_star / N,
        rtol=1e-12, atol=0.0)


def test_conditioned_labels_carry_the_truth():
    _assert_conditioned_labels(salt_and_pepper(0.5, 0.7))


def test_label_changing_scheme_conditions_its_labels():
    # the blocks never read the augmented labels, so a scheme that changes
    # them is conditioned on the truth too
    _assert_conditioned_labels(heteroskedastic(np.full((6, 2), 0.3),
                                               np.array([[0.8, -0.3]])))


def test_closed_population_mixture_matches_estimate():
    # identity maps: the exact set against estimate_moment_set over
    # 20 groups of 5000 columns, every block within 4 grouped SEs
    d = 4
    spec = SyntheticSpec(d=d, n=1, theta_star=np.ones(d) / 2.0,
                         truth_map=identity_map(d), noise_sigma2=0.3,
                         q_seed=5)
    mix = mixture([masking(0.6), salt_and_pepper(0.8, 0.5),
                   heteroskedastic(_S_X[[0, 1, 2, 0]], _S_Y)],
                  [0.5, 0.3, 0.2])
    exact = closed_population_moment_set(spec.covariance(), mix,
                                         spec.theta_star, 0.3)
    rng = _rng(10)
    groups = [estimate_moment_set(identity_map(d), identity_map(d), mix,
                                  _draws(spec, rng), 5000, rng)
              for _ in range(20)]
    for name in ("Sigma", "SigmaPrime", "SigmaDoublePrime", "G1", "G3",
                 "EY2", "LambdaBar", "OmegaBar"):
        est = np.stack([getattr(ms, name) for ms in groups])
        se = est.std(axis=0, ddof=1) / np.sqrt(len(groups))
        gap = np.abs(est.mean(axis=0) - getattr(exact, name))
        assert np.all(gap <= 4 * se + 1e-12), name


def _linear_image(exact, W):
    """The population blocks of phi(x) = W x from those of x (identity
    features, identity truth map): every feature-side index maps by W."""
    blocks = {name: getattr(exact, name) for name in (
        "Sigma", "SigmaPrime", "SigmaDoublePrime", "LambdaBar")}
    blocks = {name: W @ M @ W.T for name, M in blocks.items()}
    blocks.update({name: W @ getattr(exact, name)
                   for name in ("G1", "G3", "OmegaBar")})
    blocks.update(EY2=exact.EY2)
    return blocks


@pytest.mark.parametrize("scheme", [
    salt_and_pepper(0.5, 0.7071067811865476),
    heteroskedastic(_S_X[[0, 1, 2, 0, 1]], _S_Y),
], ids=["salt-and-pepper", "heteroskedastic"])
def test_estimate_at_draws_matches_linear_features(scheme):
    # a linear random MLP phi(x) = W x has exact population blocks
    # (SigmaDoublePrime = c^2 W Sigma W^T, LambdaBar = W Lambda_x W^T, ...);
    # the Monte-Carlo set at DRAWS draws a column, debiased, must match
    # them: every block within 4 grouped SEs over 40 groups of 2048
    # columns. Heteroskedastic labels are read and reach OmegaBar.
    d, p = 5, 3
    fm = random_mlp_map(d, [], p, seed=3)
    spec = SyntheticSpec(d=d, n=1, theta_star=np.ones(d) / 2.0,
                         truth_map=identity_map(d), noise_sigma2=0.3,
                         q_seed=6)
    exact = _linear_image(closed_population_moment_set(
        spec.covariance(), scheme, spec.theta_star, 0.3), fm.weights[0])
    rng = _rng(15)
    groups = [estimate_moment_set(fm, identity_map(d), scheme,
                                  _draws(spec, rng), 2048, rng,
                                  theta_star=spec.theta_star,
                                  noise_sigma2=0.3)
              for _ in range(40)]
    for name, M in exact.items():
        est = np.stack([getattr(ms, name) for ms in groups])
        se = est.std(axis=0, ddof=1) / np.sqrt(len(groups))
        gap = np.abs(est.mean(axis=0) - M)
        assert np.all(gap <= 4 * se + 1e-12), name


_HET_LINEAR = heteroskedastic(_S_X[[0, 1, 2, 0, 1]], _S_Y)


def _het_linear_sets(groups, rng):
    """The heteroskedastic case of the test above: groups Monte-Carlo sets
    of 2048 columns under the linear map phi(x) = W x (5 -> 3), where
    LambdaBar = W s_x s_x^T W^T has rank 2 of 3."""
    d = 5
    fm = random_mlp_map(d, [], 3, seed=3)
    spec = SyntheticSpec(d=d, n=1, theta_star=np.ones(d) / 2.0,
                         truth_map=identity_map(d), noise_sigma2=0.3,
                         q_seed=6)
    return [estimate_moment_set(fm, identity_map(d), _HET_LINEAR,
                                _draws(spec, rng), 2048, rng,
                                theta_star=spec.theta_star, noise_sigma2=0.3)
            for _ in range(groups)]


def test_psd_clip_floor_of_the_float32_kernel(monkeypatch):
    # the float32 kernel rounds LambdaBar's null eigenvalue to about 1e-7
    # of the moment set's size, below its sqrt(CHUNK * DRAWS) float32
    # epsilons: no warning (a 1e-8 floor warned on 17 of 40 such sets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _het_linear_sets(20, _rng(15))
    # a Monte-Carlo LambdaBar whose null eigenvalue is pushed to -1e-4 of
    # the moment set's size (Sigma's largest eigenvalue) still warns
    W = random_mlp_map(5, [], 3, seed=3).weights[0]
    v = np.linalg.svd(W @ _HET_LINEAR.s_x)[0][:, -1]  # LambdaBar's null space
    size = np.linalg.eigvalsh(_het_linear_sets(1, _rng(15))[0].Sigma)[-1]
    kernel = moments.batch_sample_moments

    def shifted(*args):
        MuX, Lam, Om, draws, scale = kernel(*args)
        return MuX, Lam - 1e-4 * size * np.outer(v, v), Om, draws, scale

    monkeypatch.setattr(moments, "batch_sample_moments", shifted)
    with pytest.warns(UserWarning, match="clipping eigenvalue -"):
        _het_linear_sets(1, _rng(15))


def test_label_noise_reaches_the_equivalents_only_through_omega():
    # mu_y = y: heteroskedastic label noise enters a moment set only
    # through OmegaBar. The same read labels and draws with and without
    # s_y give bit-identical blocks once OmegaBar is shared, and so
    # bit-identical equivalents
    d, N = 6, 1100
    fm = random_mlp_map(d, [7], 5, seed=1)
    rng = _rng(24)
    X = rng.standard_normal((d, N))
    Y = (rng.standard_normal((1, d)) @ X / np.sqrt(d)
         + 0.5 * rng.standard_normal((1, N)))
    s_x = rng.standard_normal((d, 2)) / np.sqrt(d)
    noisy, clean = (
        estimate_moment_set(fm, None, scheme,
                            lambda a, b: (X[:, a:b], Y[:, a:b]), N, _rng(25))
        for scheme in (heteroskedastic(s_x, np.array([[0.8, -0.3]])),
                       heteroskedastic(s_x)))
    assert np.abs(noisy.OmegaBar).max() > 1e-2
    clean = replace(clean, OmegaBar=noisy.OmegaBar)
    for f in fields(MomentSet):
        assert np.array_equal(getattr(noisy, f.name),
                              getattr(clean, f.name)), f.name
    reports = []
    for ms in (noisy, clean):
        st = solve_fixed_point(ms, 0.5, 0.1, 200)
        reports.append(equivalents(st, compute_second_order(st, ms), ms,
                                   0.25))
    for name in ("g_bar_mean", "chi_bar_mean", "overlap_bar_mean"):
        assert getattr(reports[0], name) == getattr(reports[1], name), name


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


@pytest.mark.parametrize("scheme", [
    salt_and_pepper(0.5, 0.7),
    heteroskedastic(np.full((8, 2), 0.3), np.ones((1, 2))),
], ids=["salt-and-pepper", "heteroskedastic-sy"])
def test_batch_kernel_is_float32_with_float64_blocks(scheme):
    # the kernel's draws and features are float32 and every block it
    # returns is float64; labels that change (a float64 Ya) must not
    # promote the features to a full-width float64 copy in Pa @ Ya^T, which
    # would add 8 p n T bytes. Bound: the float32 draws and features and
    # the float64 labels, ten p x p float64 temporaries and 1 MB.
    d, hidden, p, q, n, T = 8, 8, 256, 1, 64, 256
    fm = random_mlp_map(d, [hidden], p, seed=1)
    X = _rng(1).standard_normal((d, n))
    Y = _rng(2).standard_normal((q, n))
    tracemalloc.start()
    try:
        out = batch_sample_moments(scheme, fm, X, Y, T, _rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(M.dtype == np.float64 for M in out[:3])
    assert peak <= (4 * d + 4 * p + 8 * q) * n * T + 10 * 8 * p * p + 2 ** 20


def test_kernel_runs_numpy_blas_on_one_thread(monkeypatch):
    # every task of the kernel (four blocks of 16 columns here, on two
    # threads) runs numpy's BLAS on one thread, and the caller's count is
    # back after the call, also when a task raises
    calls = schemes._blas_calls()
    if calls is None:
        pytest.skip("numpy's BLAS has no thread-count call")
    get, put = calls
    monkeypatch.setattr(schemes, "usable_cpus", lambda: 2)
    fm = random_mlp_map(16, [64], 32, seed=1)
    X = _rng(1).standard_normal((16, 64))
    seen = []
    kernel_mlp = moments.mlp

    def recording(*args):
        seen.append(get())
        return kernel_mlp(*args)

    def failing(*args):
        raise RuntimeError("task failed")

    before = get()
    try:
        put(2)
        monkeypatch.setattr(moments, "mlp", recording)
        batch_sample_moments(masking(0.5), fm, X, X[:1], 200, _rng(2))
        assert seen == [1] * 4 and get() == 2
        monkeypatch.setattr(moments, "mlp", failing)
        with pytest.raises(RuntimeError, match="task failed"):
            batch_sample_moments(masking(0.5), fm, X, X[:1], 200, _rng(2))
        assert get() == 2
    finally:
        put(before)


@pytest.mark.parametrize("scheme", [
    salt_and_pepper(0.5, 0.7),
    heteroskedastic(np.full((8, 2), 0.3), np.ones((1, 2))),
], ids=["salt-and-pepper", "heteroskedastic-sy"])
def test_kernel_blocks_do_not_depend_on_threads(monkeypatch, scheme):
    # the kernel's tasks write disjoint columns of MuX and of the labels,
    # and the calling thread sums their Gram products in block order: with
    # more threads than cores and a short switch interval, 64 blocks of one
    # column give every block the bits of one thread
    monkeypatch.setattr(moments, "block_columns", lambda smallest: 1)
    fm = random_mlp_map(8, [6], 5, seed=1)
    X = _rng(1).standard_normal((8, 64))
    Y = _rng(2).standard_normal((1, 64))
    outs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 8):
            monkeypatch.setattr(schemes, "usable_cpus", lambda t=threads: t)
            outs.append(batch_sample_moments(scheme, fm, X, Y, 9, _rng(3)))
    finally:
        sys.setswitchinterval(interval)
    for one, many in zip(*outs):
        assert np.array_equal(one, many)


def test_estimate_checks_its_set_once(monkeypatch):
    # a Monte-Carlo estimate clips its blocks first and builds its set
    # once: one full check, not one more per clipped block
    checks = []
    check = MomentSet.__post_init__

    def counting(ms):
        checks.append(ms.provenance)
        check(ms)

    monkeypatch.setattr(MomentSet, "__post_init__", counting)
    d = 5
    spec = SyntheticSpec(d=d, n=8, theta_star=np.ones(d) / np.sqrt(d),
                         truth_map=identity_map(d), noise_sigma2=0.3)
    rng = _rng(6)
    estimate_moment_set(random_mlp_map(d, [7], 4, seed=2), identity_map(d),
                        salt_and_pepper(0.5, 0.7), _draws(spec, rng), 1100,
                        rng, theta_star=spec.theta_star, noise_sigma2=0.3)
    assert checks == ["monte-carlo"]


def _float64_moments(scheme, fm, X, Y, n_mc, rng):
    """batch_sample_moments of a label-preserving scheme on the same
    float32 draws, with the feature map, the means and the Gram products
    all in float64: the reference of the rounding test."""
    Xa, Ya = sample_augmented_batch(scheme, X, Y, n_mc, rng)
    Pa = apply_features(fm, Xa.astype(float))
    p, n = Pa.shape[0], X.shape[1]
    MuX = Pa.reshape(p, n, n_mc).mean(axis=2)
    Lam = symmetrize(n_mc / (n_mc - 1)
                     * (Pa @ Pa.T / (n * n_mc) - MuX @ MuX.T / n))
    return MuX, Lam, np.zeros((p, Y.shape[0])), n_mc, None


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_float32_kernel_rounding_below_monte_carlo_error(monkeypatch):
    # the same draws through the float32 kernel and a float64 reference,
    # at the criterion-1 size (200 -> 200 -> 150 tanh, salt-and-pepper,
    # n 300, 200 draws a sample) and a moment set of 2048 columns: MuX,
    # LambdaBar, a replicate's debiased SigmaDoublePrime and the moment
    # set's SigmaDoublePrime each differ by less
    # than 1e-3 of the Monte-Carlo error 1/sqrt(columns), relative
    d, n, T, total = 200, 300, 200, 2048
    spec = SyntheticSpec(d=d, n=n, theta_star=np.ones(d) / np.sqrt(d),
                         truth_map=identity_map(d), noise_sigma2=0.5)
    fm = random_mlp_map(d, [200], 150, seed=11)
    scheme = salt_and_pepper(0.5, np.sqrt(0.5))
    X, Y = sample_synthetic(spec, _rng(1))
    new = batch_sample_moments(scheme, fm, X, Y, T, _rng(2))
    ref = _float64_moments(scheme, fm, X, Y, T, _rng(2))
    bound = 1e-3 / np.sqrt(n * T)
    assert _rel(new[0], ref[0]) < bound
    assert _rel(new[1], ref[1]) < bound
    assert _rel(assemble_design(X, Y, fm, new).SigmaDoublePrime,
                assemble_design(X, Y, fm, ref).SigmaDoublePrime) < bound

    def moment_set():
        rng = _rng(4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the same psd_clip on both
            return estimate_moment_set(fm, identity_map(d), scheme,
                                       _draws(spec, rng), total, rng,
                                       theta_star=spec.theta_star,
                                       noise_sigma2=0.5)

    ms = moment_set()
    monkeypatch.setattr(moments, "batch_sample_moments", _float64_moments)
    ms_ref = moment_set()
    assert (_rel(ms.SigmaDoublePrime, ms_ref.SigmaDoublePrime)
            < 1e-3 / np.sqrt(total * DRAWS))


_SYMMETRIC_BLOCKS = ("Sigma", "SigmaPrime", "SigmaDoublePrime", "LambdaBar")
_BLOCKS = _SYMMETRIC_BLOCKS + ("G1", "G3", "EY2", "OmegaBar")


@settings(max_examples=80, deadline=None)
@given(p=st.integers(2, 6), q=st.integers(1, 3), seed=st.integers(0, 2**16),
       fault=st.sampled_from(["shape", "nan", "overflow", "asymmetric",
                              "no-sigma-prime", "provenance"]),
       data=st.data())
def test_a_broken_moment_set_is_refused_where_it_is_made(p, q, seed, fault,
                                                        data):
    # one field of a valid population set made wrong: a shape, a NaN, an
    # entry whose square overflows, one asymmetric ulp in a symmetric
    # block, no SigmaPrime (a shape, on a set of any provenance), or a
    # provenance that is not one of the four names in use. Each is a
    # package error
    # with its exit code, never a bare numpy, scipy or attribute error,
    # whether from the set or from a solve on it
    rng = _rng(seed)
    A = rng.standard_normal((p, p))
    ms = closed_population_moment_set(
        A @ A.T / p + 0.1 * np.eye(p),
        heteroskedastic(0.3 * rng.standard_normal((p, 2)),
                        0.3 * rng.standard_normal((q, 2))),
        rng.standard_normal((p, q)), 0.1)
    field = data.draw(st.sampled_from(
        _SYMMETRIC_BLOCKS if fault == "asymmetric" else _BLOCKS))
    M = getattr(ms, field).copy()
    entry = data.draw(st.integers(0, M.size - 1))
    if fault == "shape":
        change = {field: np.concatenate([M, M[..., -1:]], axis=-1)}
        error = InvalidDimensionError
    elif fault in ("nan", "overflow"):
        M.flat[entry] = np.nan if fault == "nan" else -1e155
        change, error = {field: M}, NumericalFailureError
    elif fault == "asymmetric":
        M[0, 1] = np.nextafter(M[0, 1], np.inf)
        change, error = {field: M}, PreconditionViolationError
    elif fault == "no-sigma-prime":
        change = dict(SigmaPrime=None,
                      provenance=data.draw(st.sampled_from(PROVENANCES)))
        error = InvalidDimensionError
    else:
        change = dict(provenance=data.draw(
            st.text(max_size=20).filter(lambda s: s not in PROVENANCES)))
        error = PreconditionViolationError
    with pytest.raises(error) as raised:
        bad = replace(ms, **change)
        state = solve_fixed_point(bad, 0.5, 0.1, 10)
        equivalents(state, compute_second_order(state, bad), bad, 0.1)
    assert raised.value.exit_code == error.exit_code


_HET_SY = heteroskedastic(0.3 * np.ones((5, 2)) + 0.1 * np.eye(5, 2),
                          np.array([[0.4, -0.2], [0.1, 0.3]]))


@pytest.mark.parametrize("scheme", [
    additive_noise(0.4), masking(0.7), salt_and_pepper(0.6, 0.5), _HET_SY,
    mixture([masking(0.5), _HET_SY, additive_noise(0.2)], [0.3, 0.3, 0.4]),
], ids=["additive", "masking", "salt-and-pepper", "heteroskedastic",
        "mixture"])
def test_identity_plugin_is_the_closed_form_of_the_data(scheme):
    # the chunked identity estimate sums X X^T, X Y^T and Y^2 over three
    # chunks, and equals identity_moment_set of the whole data's second
    # moments at once: every block, the scale, and no clip (a Gram is PSD)
    d, q, N = 5, 2, 1100
    rng = _rng(31)
    X = rng.standard_normal((d, d)) @ rng.standard_normal((d, N))
    Y = rng.standard_normal((q, d)) @ X + rng.standard_normal((q, N))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ms = estimate_moment_set(identity_map(d), None, scheme,
                                 lambda a, b: (X[:, a:b], Y[:, a:b]), N,
                                 _rng(32))
    S = X @ X.T / N
    exact = identity_moment_set(
        S, X @ Y.T / N, (Y * Y).mean(1),
        closed_moments(scheme, np.diag(S), lambda: S, q), N,
        "empirical-plugin")
    assert ms.provenance == "empirical-plugin" and ms.n_mc_used == N
    assert ms.scale == exact.scale
    for f in fields(MomentSet):
        got, want = getattr(ms, f.name), getattr(exact, f.name)
        if isinstance(want, np.ndarray):
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() <= 1e-12 * scale, f.name


@pytest.mark.parametrize("fault", ["sigma-prime", "sigma-double-prime",
                                   "scale", "sample"])
def test_a_set_whose_blocks_are_not_its_scaled_sigma_is_refused(fault):
    # a set of scale c must have Sigma' = c Sigma and Sigma'' = c c Sigma
    # exactly: one ulp off in a symmetric block, a scale that its blocks do
    # not have, or a set marked as a replicate's whose Sigma'' is off,
    # each exit 2
    rng = _rng(33)
    A = rng.standard_normal((4, 4))
    ms = closed_population_moment_set(A @ A.T, masking(0.5),
                                      rng.standard_normal(4), 0.1)
    assert ms.scale == 0.5
    up = np.nextafter(ms.SigmaDoublePrime, np.inf)  # still symmetric
    change = {
        "sigma-prime": dict(SigmaPrime=np.nextafter(ms.SigmaPrime, np.inf)),
        "sigma-double-prime": dict(SigmaDoublePrime=up),
        "scale": dict(scale=0.6),
        "sample": dict(provenance="sample", SigmaDoublePrime=up),
    }[fault]
    with pytest.raises(PreconditionViolationError,
                       match="needs SigmaPrime = c Sigma") as raised:
        replace(ms, **change)
    assert raised.value.exit_code == 2
    replace(ms, **{**change, "scale": None})  # no scale: valid
