import tracemalloc
import warnings

import numpy as np
import pytest

from augridge import moments
from augridge.datasets import SyntheticSpec, sample_synthetic
from augridge.features import apply_features, identity_map, random_mlp_map
from augridge.moments import (
    DRAWS,
    InsufficientSamplesError,
    batch_sample_moments,
    closed_population_moment_set,
    estimate_moment_set,
    psd_clip,
    symmetrize,
)
from augridge.ridge import assemble_design
from augridge.schemes import (
    additive_noise,
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
    mu_x, mu_y, lam, om, _ = batch_sample_moments(scheme, fm, x[:, None],
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
            _, _, lam_bar, _, _ = batch_sample_moments(
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
    MuX, MuY, Lam, Om, _ = batch_sample_moments(masking(0.7), fm, X, Y, 2,
                                                rng)
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
        estimate_moment_set(identity_map(2), None, masking(0.5), take, 1,
                            _rng())


def test_estimate_psi_second_shape():
    # q outputs give a symmetric, C-contiguous (q, 2, 2) PsiSecond
    d, q, n = 3, 5, 600
    rng = _rng(9)
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((q, n))
    fm = random_mlp_map(d, [4], 3, seed=1)
    ms = estimate_moment_set(fm, None, additive_noise(0.3),
                             lambda a, b: (X[:, a:b], Y[:, a:b]), n, rng)
    psi = ms.PsiSecond
    assert psi.shape == (q, 2, 2) and psi.flags.c_contiguous
    assert np.array_equal(psi, psi.transpose(0, 2, 1))


def test_psd_clip_warns_and_clips():
    M = np.diag([1.0, -0.1])
    with pytest.warns(UserWarning):
        out = psd_clip(M)
    w = np.linalg.eigvalsh(out)
    assert w[0] >= -1e-12
    # the clip the fuzzed configs hit: a real negative mass, whatever the
    # scale of the moment set
    with pytest.warns(UserWarning, match="-2.440e-01"):
        psd_clip(np.diag([0.0156, -0.244]), 1.0)
    # a block that is zero up to rounding, in a moment set of unit scale:
    # clipped, but without a warning
    noise = np.diag([2.115e-16, -6.049e-16])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = psd_clip(noise, 1.0)
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
    assert np.allclose(ms.PsiSecond[0], ey2)


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
    assert np.allclose(ms.G2, ms.G1) and np.allclose(ms.G3, c * ms.G1)
    ey2 = theta @ Sigma @ theta + 0.1
    assert np.allclose(ms.PsiSecond[0], ey2)


def test_conditioned_labels_carry_the_truth():
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
        fm, truth, salt_and_pepper(0.5, 0.7), lambda a, b: (
            X[:, a:b], rng.standard_normal((1, b - a))),
        N, rng, theta_star=theta_star, noise_sigma2=sigma2)
    Phi, PhiStar = apply_features(fm, X), apply_features(truth, X)
    np.testing.assert_allclose(ms.G1[:, 0], Phi @ PhiStar.T @ theta_star / N,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        ms.PsiSecond[0, 0, 0] - sigma2,
        theta_star @ PhiStar @ PhiStar.T @ theta_star / N,
        rtol=1e-12, atol=0.0)


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
    for name in ("Sigma", "SigmaPrime", "SigmaDoublePrime", "G1", "G2", "G3",
                 "G4", "PsiSecond", "LambdaBar", "OmegaBar"):
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
                   for name in ("G1", "G2", "G3", "G4", "OmegaBar")})
    blocks.update(PsiSecond=exact.PsiSecond)
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
    # columns. Heteroskedastic labels reach the G4 and E[mu_y^2] debias.
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
    # would add 8 p n T bytes. Bound: the float32 draws, mask and features
    # and the float64 labels, ten p x p float64 temporaries and 1 MB.
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
    assert all(M.dtype == np.float64 for M in out[:4])
    assert peak <= (5 * d + 4 * p + 8 * q) * n * T + 10 * 8 * p * p + 2 ** 20


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
    return MuX, np.atleast_2d(Y).copy(), Lam, np.zeros((p, Y.shape[0])), n_mc


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_float32_kernel_rounding_below_monte_carlo_error(monkeypatch):
    # the same draws through the float32 kernel and a float64 reference,
    # at the criterion-1 size (200 -> 200 -> 150 tanh, salt-and-pepper,
    # n 300, 200 draws a sample) and a moment set of 2048 columns: MuX,
    # LambdaBar, the debiased C' and SigmaDoublePrime each differ by less
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
    assert _rel(new[2], ref[2]) < bound
    assert _rel(assemble_design(X, Y, fm, new).Cprime,
                assemble_design(X, Y, fm, ref).Cprime) < bound

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
