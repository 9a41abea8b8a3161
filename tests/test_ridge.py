from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky

from augridge.datasets import SyntheticSpec
from augridge.detequiv import (compute_second_order, equivalents,
                               solve_fixed_point)
from augridge.errors import InvalidParameterError, NumericalFailureError
from augridge.features import apply_features, identity_map, random_mlp_map
from augridge.moments import (
    batch_sample_moments,
    closed_population_moment_set,
    symmetrize,
)
from augridge.ridge import (
    assemble_design,
    chi_stat,
    empirical_generalization,
    fit,
    normal_equations,
    overlap_stat,
    population_generalization,
    population_risk,
    quadratic_terms,
    resolvent_shifted,
    xi_derivative_fd,
)
from augridge.schemes import (
    additive_noise,
    heteroskedastic,
    masking,
    salt_and_pepper,
)


def _design(X, Y, fmap, scheme, n_mc=200, seed=0):
    rng = np.random.default_rng(seed)
    psm = batch_sample_moments(scheme, fmap, X, Y, n_mc, rng)
    return assemble_design(X, Y, fmap, psm)


def _w2(alpha):
    """B = W^2, the infinite-data dilation that weights a fit's system."""
    return np.diag([1.0 - alpha, alpha])


def _system(design, alpha):
    return normal_equations(design, _w2(alpha), alpha)


def _fit(design, alpha, lam):
    return fit(_system(design, alpha), lam)


def test_assemble_identity_augmentation_collapses():
    fm = identity_map(3)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 10))
    Y = rng.standard_normal((1, 10))
    d = _design(X, Y, fm, additive_noise(0.0))
    assert np.allclose(d.SigmaDoublePrime, d.Sigma)
    assert np.allclose(d.G3, d.G1)
    assert np.allclose(d.LambdaBar, 0.0) and np.allclose(d.OmegaBar, 0.0)


def test_assemble_tiny_arithmetic():
    fm = identity_map(1)
    d = _design(np.array([[2.0]]), np.array([[3.0]]), fm, additive_noise(0.0))
    assert d.Sigma[0, 0] == pytest.approx(4.0)
    assert d.G1[0, 0] == pytest.approx(6.0)
    assert d.n_mc_used == 1


def test_assemble_additive_lambda_closed():
    fm = identity_map(2)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2, 5))
    d = _design(X, np.zeros((1, 5)), fm, additive_noise(0.5))
    assert np.allclose(d.LambdaBar, 0.25 * np.eye(2))


def test_fit_classic_ridge_hand_computed():
    fm = identity_map(1)
    X = np.array([[1.0, -1.0]])
    Y = np.array([[2.0, 0.0]])
    d = _design(X, Y, fm, additive_noise(0.0))
    assert _fit(d, 0.0, 1.0)[0, 0] == pytest.approx(0.5)


def test_fit_full_augmentation_hand_computed():
    fm = identity_map(1)
    X = np.array([[1.0, -1.0]])
    Y = np.array([[2.0, 0.0]])
    d = _design(X, Y, fm, additive_noise(1.0))
    # mu_x = x so Sigma'' = Sigma = 1, G3 = G1 = 1, Lambda = 1:
    # theta = 1/(1+1+1)
    assert _fit(d, 1.0, 1.0)[0, 0] == pytest.approx(1.0 / 3.0)


def test_fit_huge_lambda_shrinks():
    fm = identity_map(3)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 20))
    Y = rng.standard_normal((1, 20))
    d = _design(X, Y, fm, additive_noise(0.0))
    theta = _fit(d, 0.0, 1e6)
    assert np.linalg.norm(theta) <= np.linalg.norm(d.G1) / 1e6 * 1.001


def test_fit_rejects_bad_parameters():
    fm = identity_map(2)
    d = _design(np.eye(2), np.ones((1, 2)), fm, additive_noise(0.0))
    with pytest.raises(InvalidParameterError):
        _fit(d, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        normal_equations(d, np.eye(2), 1.5)


def test_shared_system_is_reused_unchanged():
    # every lambda of one (design, alpha) is fitted from one system: a fit
    # must neither change it nor depend on the fits before it
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 20))
    Y = rng.standard_normal((2, 20))
    d = _design(X, Y, identity_map(6), salt_and_pepper(0.6, 0.5))
    system = _system(d, 0.5)
    before = [a.copy() for a in system]
    first, _, again = (fit(system, lam) for lam in (0.3, 2.0, 0.3))
    assert np.array_equal(first, again)
    assert np.array_equal(first, _fit(d, 0.5, 0.3))
    assert all(np.array_equal(a, b) for a, b in zip(system, before))


def test_fit_matches_reference_cholesky_at_blocked_size():
    # at p = 200 LAPACK factors in blocks; the in-place per-lambda path
    # must give the bits of a factorization of symmetrize(M + lam I)
    rng = np.random.default_rng(11)
    p = 200
    X = rng.standard_normal((p, 150))
    Y = rng.standard_normal((2, 150))
    d = _design(X, Y, identity_map(p), salt_and_pepper(0.6, 0.5))
    system = _system(d, 0.5)
    before = [a.copy() for a in system]
    M, H = system
    for lam in (1e-5, 1e-2, 1.0, 100.0):
        L = cholesky(symmetrize(M + lam * np.eye(p)), lower=True)
        assert np.array_equal(fit(system, lam), cho_solve((L, True), H))
    assert all(np.array_equal(a, b) for a, b in zip(system, before))


@pytest.mark.parametrize("block,name", [
    ("SigmaDoublePrime", "regularized matrix"),
    ("OmegaBar", "right-hand side"),
])
def test_non_finite_design_raises(block, name):
    # the set refuses a non-finite block where it is made, naming it; a
    # finite set (entries near 1e154, their squares finite) whose system
    # overflows at a large b11 is refused by normal_equations, naming the
    # array whose b11 block overflows
    rng = np.random.default_rng(12)
    d = _design(rng.standard_normal((4, 10)), rng.standard_normal((1, 10)),
                identity_map(4), additive_noise(0.5))
    bad = getattr(d, block).copy()
    bad[1, 0] = np.inf
    with pytest.raises(NumericalFailureError,
                       match=f"moment set block {block} has a non-finite"):
        replace(d, **{block: bad})
    first = {"regularized matrix": "Sigma", "right-hand side": "G1"}[name]
    M = getattr(d, first)
    # Sigma'' no longer equals the scaled Sigma: the set has no scale
    huge = replace(d, **{first: 1e154 / np.abs(M).max() * M}, scale=None)
    with np.errstate(over="ignore"), pytest.raises(
            NumericalFailureError, match=f"{name} is not finite"):
        normal_equations(huge, np.diag([1e200, 0.0]), 0.5)


def test_indefinite_system_names_smallest_eigenvalue():
    # n = 4 < p = 6: debiasing Sigma'' by Lambda / n_mc = 0.125 I leaves it
    # two eigenvalues of -0.125, which a small lambda does not lift
    rng = np.random.default_rng(13)
    X = rng.standard_normal((6, 4))
    fm = identity_map(6)
    psm = batch_sample_moments(additive_noise(0.5), fm, X, np.ones((1, 4)),
                               2, rng)
    # exact means that claim 2 draws: assemble_design debiases by them
    d = assemble_design(X, np.ones((1, 4)), fm, psm[:3] + (2, None))
    lam = 1e-3
    smallest = float(np.linalg.eigvalsh(d.SigmaDoublePrime
                                        + lam * np.eye(6))[0])
    assert smallest == pytest.approx(-0.125 + lam)
    with pytest.raises(NumericalFailureError,
                       match=f"regularized matrix not positive definite "
                             f"\\(smallest eigenvalue {smallest:.3e}\\)"):
        fit((d.SigmaDoublePrime, d.G1), lam)


def test_design_debiases_by_the_draw_count():
    # random-MLP means estimated from T draws: Sigma'' loses Lambda/T, and
    # no argument asks for it; G3 reads Y itself (mu_y = y), so nothing of
    # Omega is subtracted
    rng = np.random.default_rng(14)
    n, T = 9, 7
    X = rng.standard_normal((3, n))
    Y = rng.standard_normal((1, n))
    fm = random_mlp_map(3, [6], 4, seed=1)
    scheme = heteroskedastic(rng.standard_normal((3, 2)),
                             rng.standard_normal((1, 2)))
    psm = batch_sample_moments(scheme, fm, X, Y, T, rng)
    MuX, Lam, Om, draws, _ = psm
    assert draws == T and np.any(Om != 0)
    d = assemble_design(X, Y, fm, psm)
    assert np.array_equal(d.SigmaDoublePrime,
                          symmetrize(symmetrize(MuX @ MuX.T / n) - Lam / T))
    assert np.array_equal(d.G3, MuX @ Y.T / n)


def test_identity_design_is_not_debiased():
    # identity features have exact means: 0 draws, no debias
    rng = np.random.default_rng(15)
    X = rng.standard_normal((4, 6))
    Y = rng.standard_normal((1, 6))
    psm = batch_sample_moments(additive_noise(0.5), identity_map(4), X, Y,
                               7, rng)
    MuX, _, _, draws, _ = psm
    assert draws == 0
    d = assemble_design(X, Y, identity_map(4), psm)
    assert np.array_equal(d.SigmaDoublePrime, symmetrize(MuX @ MuX.T / 6))
    assert np.array_equal(d.G3, MuX @ Y.T / 6)


def test_identity_design_is_one_gram():
    # masking's exact means mu_x = m x: the sample's Sigma' is m Sigma,
    # its Sigma'' m m Sigma and its G3 m G1, the products of the means
    # within rounding; a replicate's set records no scale
    rng = np.random.default_rng(17)
    X = rng.standard_normal((5, 8))
    Y = rng.standard_normal((2, 8))
    fm = identity_map(5)
    psm = batch_sample_moments(masking(0.7), fm, X, Y, 7, rng)
    assert psm[3:] == (0, 0.7)
    d = assemble_design(X, Y, fm, psm)
    assert d.scale is None
    assert np.array_equal(d.SigmaPrime, 0.7 * d.Sigma)
    assert np.array_equal(d.Sigma, X @ X.T / 8)
    assert np.array_equal(d.SigmaDoublePrime, 0.7 * 0.7 * d.Sigma)
    assert np.array_equal(d.G3, 0.7 * d.G1)
    MuX = psm[0]
    np.testing.assert_allclose(d.SigmaDoublePrime, MuX @ MuX.T / 8,
                               rtol=1e-14, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000),
       alpha=st.floats(0.0, 1.0),
       lam=st.floats(0.01, 10.0))
def test_normal_equation_residual(seed, alpha, lam):
    rng = np.random.default_rng(seed)
    fm = identity_map(4)
    X = rng.standard_normal((4, 12))
    Y = rng.standard_normal((2, 12))
    d = _design(X, Y, fm, salt_and_pepper(0.6, 0.5), seed=seed)
    theta = _fit(d, alpha, lam)
    M = ((1 - alpha) * d.Sigma + alpha * d.SigmaDoublePrime
         + alpha * d.LambdaBar + lam * np.eye(4))
    Ha = (1 - alpha) * d.G1 + alpha * d.G3 + alpha * d.OmegaBar
    res = np.linalg.norm(M @ theta - Ha)
    assert res <= 1e-8 * max(np.linalg.norm(Ha), 1e-30)


def test_alpha_continuity():
    fm = identity_map(5)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 30))
    Y = rng.standard_normal((1, 30))
    d = _design(X, Y, fm, salt_and_pepper(0.5, 0.5))
    for alpha in (0.0, 0.3, 0.7):
        a = _fit(d, alpha, 0.5)
        b = _fit(d, alpha + 1e-4, 0.5)
        assert np.linalg.norm(b - a) <= 1e-2 * max(np.linalg.norm(a), 1e-12)


def test_coordinatewise_equivalence():
    fm = identity_map(6)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 25))
    Y = rng.standard_normal((3, 25))
    d = _design(X, Y, fm, salt_and_pepper(0.7, 0.3))
    joint = _fit(d, 0.5, 0.2)
    for j in range(3):
        # scalar fit on the same design restricted to output j
        dj = replace(d, G1=d.G1[:, [j]], G3=d.G3[:, [j]], EY2=d.EY2[[j]],
                     OmegaBar=d.OmegaBar[:, [j]])
        single = _fit(dj, 0.5, 0.2)[:, 0]
        assert np.max(np.abs(joint[:, j] - single)) <= 1e-10


def test_resolvent_zero_shift_matches_fit_matrix():
    fm = identity_map(3)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 15))
    Y = rng.standard_normal((1, 15))
    d = _design(X, Y, fm, additive_noise(0.3))
    R = resolvent_shifted(_system(d, 0.5), 0.7)
    M = (0.5 * d.Sigma + 0.5 * d.SigmaDoublePrime + 0.5 * d.LambdaBar
         + 0.7 * np.eye(3))
    assert np.allclose(R @ M, np.eye(3), atol=1e-10)


def test_resolvent_scalar_closed_form():
    fm = identity_map(1)
    d = _design(np.array([[2.0]]), np.array([[1.0]]), fm, additive_noise(1.0))
    Sigma = np.array([[3.0]])
    R = resolvent_shifted(_system(d, 0.5), 0.25, 2.0 * Sigma)
    denom = (0.5 * d.Sigma[0, 0] + 0.5 * d.SigmaDoublePrime[0, 0] + 0.5 * 1.0
             + 0.25 + 6.0)
    assert R[0, 0] == pytest.approx(1.0 / denom)


def test_xi_derivative_identity():
    fm = identity_map(5)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 30))
    Y = rng.standard_normal((1, 30))
    d = _design(X, Y, fm, salt_and_pepper(0.5, 0.5))
    Sigma = closed_population_moment_set(
        np.eye(5), salt_and_pepper(0.5, 0.5), np.zeros(5), 0.0).Sigma
    system = _system(d, 0.5)
    theta = fit(system, 0.3)[:, 0]
    fd = xi_derivative_fd(system, 0.3, Sigma)
    exact = -float(theta @ Sigma @ theta)
    assert abs(fd - exact) <= 1e-3 * abs(exact)


def test_empirical_generalization_trivials():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((2, 50))
    theta = np.array([[1.0], [2.0]])
    Y = theta.T @ X
    assert empirical_generalization(np.zeros((2, 1)), X, Y) == \
        pytest.approx(float(np.mean(Y ** 2)))
    assert empirical_generalization(theta, X, Y) == pytest.approx(0.0)


def test_population_generalization_trivials():
    d = 3
    Sigma = np.diag([1.0, 2.0, 0.5])
    theta_star = np.array([1.0, -1.0, 2.0])
    ms = closed_population_moment_set(Sigma, additive_noise(0.0),
                                      theta_star, 0.3)
    assert population_generalization(theta_star[:, None],
                                     ms) == pytest.approx(0.3)
    null_risk = float(theta_star @ Sigma @ theta_star) + 0.3
    assert population_generalization(np.zeros((d, 1)),
                                     ms) == pytest.approx(null_risk)


def test_population_matches_empirical():
    d = 4
    rng = np.random.default_rng(9)
    Sigma = np.eye(d)
    theta_star = np.array([0.5, -0.5, 1.0, 0.0])
    sigma2 = 0.25
    ms = closed_population_moment_set(Sigma, additive_noise(0.0),
                                      theta_star, sigma2)
    theta = rng.standard_normal((d, 1)) * 0.3
    N = 200_000
    Xt = rng.standard_normal((d, N))
    Yt = theta_star @ Xt + np.sqrt(sigma2) * rng.standard_normal(N)
    emp = empirical_generalization(theta, Xt, Yt[None])
    pop = population_generalization(theta, ms)
    per = (theta[:, 0] @ Xt - Yt) ** 2
    se = per.std() / np.sqrt(N)
    assert abs(emp - pop) <= 3 * se


def test_overlap_and_chi_stats():
    d = 2
    Sigma = np.diag([2.0, 1.0])
    theta_star = np.array([1.0, 1.0])
    ms = closed_population_moment_set(Sigma, additive_noise(0.0),
                                      theta_star, 0.0)
    th = np.array([[0.5], [2.0]])
    assert chi_stat(th, ms) == pytest.approx(0.25 * 2 + 4.0)
    assert overlap_stat(th, ms) == pytest.approx(1.0 + 2.0)


@pytest.mark.parametrize("q", [1, 25])
def test_quadratic_terms_match_per_column_loop(q):
    # p = 759 is the MNIST feature dimension; G1 is not Sigma theta* and
    # E[Y^2] differs per output, so each term must pair its own block
    # with its own column
    p = 759
    rng = np.random.default_rng(41)
    G = rng.standard_normal((p, p)) / np.sqrt(p)
    Sigma = G @ G.T
    theta_star = rng.standard_normal((p, q)) / np.sqrt(p)
    closed = closed_population_moment_set(Sigma, additive_noise(0.0),
                                          theta_star, 0.2)
    ms = replace(closed,
                 G1=closed.G1 + 0.3 * rng.standard_normal((p, q)) / np.sqrt(p),
                 EY2=closed.EY2 + rng.uniform(0.0, 1.0, q))
    theta = theta_star + 0.1 * rng.standard_normal((p, q)) / np.sqrt(p)
    chi, overlap = quadratic_terms(theta, ms)
    g = population_risk(chi, overlap, ms)

    def loop(A, S, B):
        return np.array([A[:, j] @ S @ B[:, j] for j in range(q)])

    overlap_loop = np.array([ms.G1[:, j] @ theta[:, j] for j in range(q)])
    chi_loop = loop(theta, Sigma, theta)
    for got, want in ((chi, chi_loop), (overlap, overlap_loop),
                      (g, ms.EY2 - 2.0 * overlap_loop
                       + chi_loop)):
        assert got.shape == (q,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _hand_built_system(X, Y, fm, psm, alpha):
    """A fit's system written out from the per-sample moments: M =
    (1-a) C + a C'' + a Lambda and H = (1-a) G1 + a G3 + a Omega, with
    C'' debiased by Lambda / draws, each summed left to right."""
    MuX, Lam, Om, draws, _ = psm
    n = X.shape[1]
    Phi = apply_features(fm, X)
    C2 = symmetrize(MuX @ MuX.T / n)
    if draws:
        C2 = symmetrize(C2 - Lam / draws)
    system = []
    for A, B, D in ((symmetrize(Phi @ Phi.T / n), C2, symmetrize(Lam)),
                    (Phi @ Y.T / n, MuX @ Y.T / n, Om)):
        S = (1.0 - alpha) * A
        S += alpha * B
        S += alpha * D
        system.append(S)
    return system


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("case", ["identity-additive", "mlp-salt-and-pepper",
                                  "mlp-heteroskedastic-sy"])
def test_fit_system_matches_the_hand_built_formula(case, alpha):
    # normal_equations at B = W^2 on a sample's moment set is, bit for
    # bit, the fit's formula; b12 = 0 never reads the set's SigmaPrime,
    # c Sigma for exact means mu_x = c x and sym(phi mu_x^T) / n otherwise
    rng = np.random.default_rng(16)
    d, n, T = 5, 12, 6
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((2, n))
    mlp = random_mlp_map(d, [7], 6, seed=1)
    fm, scheme = {
        "identity-additive": (identity_map(d), additive_noise(0.5)),
        "mlp-salt-and-pepper": (mlp, salt_and_pepper(0.6, 0.5)),
        "mlp-heteroskedastic-sy": (mlp, heteroskedastic(
            rng.standard_normal((d, 2)), rng.standard_normal((2, 2)))),
    }[case]
    psm = batch_sample_moments(scheme, fm, X, Y, T, rng)
    assert psm[3] == (0 if case == "identity-additive" else T)
    if case == "mlp-heteroskedastic-sy":
        assert np.any(psm[2] != 0)
    design = assemble_design(X, Y, fm, psm)
    MuX, c = psm[0], psm[4]
    assert np.array_equal(design.SigmaPrime, symmetrize(
        apply_features(fm, X) @ MuX.T / n) if c is None else c * design.Sigma)
    for got, want in zip(_system(design, alpha),
                         _hand_built_system(X, Y, fm, psm, alpha)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_fit_is_the_equivalents_at_infinite_data(alpha):
    # as n grows the dilation B tends to W^2, and the equivalents'
    # theta_bar to the fit of the W^2 system on the same moment set. The
    # power-law covariance is not exactly symmetric as built; the closed
    # set symmetrizes it, as the solves need
    p, lam = 40, 0.1
    spec = SyntheticSpec(d=p, n=1, theta_star=np.ones(p) / np.sqrt(p),
                         truth_map=identity_map(p))
    Sigma = spec.covariance()
    assert not np.array_equal(Sigma, Sigma.T)
    ms = closed_population_moment_set(Sigma, salt_and_pepper(0.6, 0.5),
                                      spec.theta_star, 0.25)
    assert np.array_equal(ms.Sigma, ms.Sigma.T)
    state = solve_fixed_point(ms, alpha, lam, 10 ** 12)
    assert state.converged
    assert np.abs(state.B - _w2(alpha)).max() <= 1e-9
    report = equivalents(state, compute_second_order(state, ms), ms, 0.25)
    theta = fit(normal_equations(ms, _w2(alpha), alpha), lam)
    assert (np.linalg.norm(report.theta_bar - theta)
            <= 1e-8 * np.linalg.norm(theta))
