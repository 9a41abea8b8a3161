from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky

from augridge.errors import NumericalFailureError
from augridge.features import identity_map, random_mlp_map
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
    quadratic_terms,
    resolvent_shifted,
    truth_term,
    xi_derivative_fd,
)
from augridge.schemes import (
    InvalidParameterError,
    additive_noise,
    heteroskedastic,
    salt_and_pepper,
)


def _design(X, Y, fmap, scheme, n_mc=200, seed=0):
    rng = np.random.default_rng(seed)
    psm = batch_sample_moments(scheme, fmap, X, Y, n_mc, rng)
    return assemble_design(X, Y, fmap, psm)


def _fit(design, alpha, lam):
    return fit(normal_equations(design, alpha), lam)


def test_assemble_identity_augmentation_collapses():
    fm = identity_map(3)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 10))
    Y = rng.standard_normal((1, 10))
    d = _design(X, Y, fm, additive_noise(0.0))
    assert np.allclose(d.Cprime, d.C)
    assert np.allclose(d.Hprime, d.H)
    assert np.allclose(d.LambdaEmp, 0.0) and np.allclose(d.OmegaEmp, 0.0)


def test_assemble_tiny_arithmetic():
    fm = identity_map(1)
    d = _design(np.array([[2.0]]), np.array([[3.0]]), fm, additive_noise(0.0))
    assert d.C[0, 0] == pytest.approx(4.0)
    assert d.H[0, 0] == pytest.approx(6.0)
    assert d.n == 1


def test_assemble_additive_lambda_closed():
    fm = identity_map(2)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2, 5))
    d = _design(X, np.zeros((1, 5)), fm, additive_noise(0.5))
    assert np.allclose(d.LambdaEmp, 0.25 * np.eye(2))


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
    # mu_x = x so C' = C = 1, H' = H = 1, Lambda = 1: theta = 1/(1+1+1)
    assert _fit(d, 1.0, 1.0)[0, 0] == pytest.approx(1.0 / 3.0)


def test_fit_huge_lambda_shrinks():
    fm = identity_map(3)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 20))
    Y = rng.standard_normal((1, 20))
    d = _design(X, Y, fm, additive_noise(0.0))
    theta = _fit(d, 0.0, 1e6)
    assert np.linalg.norm(theta) <= np.linalg.norm(d.H) / 1e6 * 1.001


def test_fit_rejects_bad_parameters():
    fm = identity_map(2)
    d = _design(np.eye(2), np.ones((1, 2)), fm, additive_noise(0.0))
    with pytest.raises(InvalidParameterError):
        _fit(d, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        normal_equations(d, 1.5)


def test_shared_system_is_reused_unchanged():
    # every lambda of one (design, alpha) is fitted from one system: a fit
    # must neither change it nor depend on the fits before it
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 20))
    Y = rng.standard_normal((2, 20))
    d = _design(X, Y, identity_map(6), salt_and_pepper(0.6, 0.5))
    system = normal_equations(d, 0.5)
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
    system = normal_equations(d, 0.5)
    before = [a.copy() for a in system]
    M, H = system
    for lam in (1e-5, 1e-2, 1.0, 100.0):
        L = cholesky(symmetrize(M + lam * np.eye(p)), lower=True)
        assert np.array_equal(fit(system, lam), cho_solve((L, True), H))
    assert all(np.array_equal(a, b) for a, b in zip(system, before))


@pytest.mark.parametrize("block,name", [
    ("Cprime", "regularized matrix"), ("OmegaEmp", "right-hand side"),
])
def test_non_finite_design_raises(block, name):
    rng = np.random.default_rng(12)
    d = _design(rng.standard_normal((4, 10)), rng.standard_normal((1, 10)),
                identity_map(4), additive_noise(0.5))
    bad = getattr(d, block).copy()
    bad[1, 0] = np.inf
    with pytest.raises(NumericalFailureError, match=f"{name} is not finite"):
        normal_equations(replace(d, **{block: bad}), 0.5)


def test_indefinite_system_names_smallest_eigenvalue():
    # n = 4 < p = 6: debiasing C' by Lambda / n_mc = 0.125 I leaves it two
    # eigenvalues of -0.125, which a small lambda does not lift
    rng = np.random.default_rng(13)
    X = rng.standard_normal((6, 4))
    fm = identity_map(6)
    psm = batch_sample_moments(additive_noise(0.5), fm, X, np.ones((1, 4)),
                               2, rng)
    # exact means that claim 2 draws: assemble_design debiases by them
    d = assemble_design(X, np.ones((1, 4)), fm, psm[:4] + (2,))
    lam = 1e-3
    smallest = float(np.linalg.eigvalsh(d.Cprime + lam * np.eye(6))[0])
    assert smallest == pytest.approx(-0.125 + lam)
    with pytest.raises(NumericalFailureError,
                       match=f"regularized matrix not positive definite "
                             f"\\(smallest eigenvalue {smallest:.3e}\\)"):
        fit((d.Cprime, d.H), lam)


def test_design_debiases_by_the_draw_count():
    # random-MLP means estimated from T draws: C' and H' lose Lambda/T and
    # Omega/T, and no argument asks for it
    rng = np.random.default_rng(14)
    n, T = 9, 7
    X = rng.standard_normal((3, n))
    Y = rng.standard_normal((1, n))
    fm = random_mlp_map(3, [6], 4, seed=1)
    scheme = heteroskedastic(rng.standard_normal((3, 2)),
                             rng.standard_normal((1, 2)))
    psm = batch_sample_moments(scheme, fm, X, Y, T, rng)
    MuX, MuY, Lam, Om, draws = psm
    assert draws == T and np.any(Om != 0)
    d = assemble_design(X, Y, fm, psm)
    assert np.array_equal(d.Cprime,
                          symmetrize(symmetrize(MuX @ MuX.T / n) - Lam / T))
    assert np.array_equal(d.Hprime, MuX @ MuY.T / n - Om / T)


def test_identity_design_is_not_debiased():
    # identity features have exact means: 0 draws, no debias
    rng = np.random.default_rng(15)
    X = rng.standard_normal((4, 6))
    Y = rng.standard_normal((1, 6))
    psm = batch_sample_moments(additive_noise(0.5), identity_map(4), X, Y,
                               7, rng)
    MuX, MuY, _, _, draws = psm
    assert draws == 0
    d = assemble_design(X, Y, identity_map(4), psm)
    assert np.array_equal(d.Cprime, symmetrize(MuX @ MuX.T / 6))
    assert np.array_equal(d.Hprime, MuX @ MuY.T / 6)


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
    M = ((1 - alpha) * d.C + alpha * d.Cprime + alpha * d.LambdaEmp
         + lam * np.eye(4))
    Ha = (1 - alpha) * d.H + alpha * d.Hprime + alpha * d.OmegaEmp
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
    from augridge.ridge import AugmentedDesign
    for j in range(3):
        # scalar fit on the same design restricted to output j
        dj = AugmentedDesign(C=d.C, Cprime=d.Cprime, H=d.H[:, [j]],
                             Hprime=d.Hprime[:, [j]], LambdaEmp=d.LambdaEmp,
                             OmegaEmp=d.OmegaEmp[:, [j]], n=d.n)
        single = _fit(dj, 0.5, 0.2)[:, 0]
        assert np.max(np.abs(joint[:, j] - single)) <= 1e-10


def test_resolvent_zero_shift_matches_fit_matrix():
    fm = identity_map(3)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 15))
    Y = rng.standard_normal((1, 15))
    d = _design(X, Y, fm, additive_noise(0.3))
    R = resolvent_shifted(normal_equations(d, 0.5), 0.7)
    M = 0.5 * d.C + 0.5 * d.Cprime + 0.5 * d.LambdaEmp + 0.7 * np.eye(3)
    assert np.allclose(R @ M, np.eye(3), atol=1e-10)


def test_resolvent_scalar_closed_form():
    fm = identity_map(1)
    d = _design(np.array([[2.0]]), np.array([[1.0]]), fm, additive_noise(1.0))
    Sigma = np.array([[3.0]])
    R = resolvent_shifted(normal_equations(d, 0.5), 0.25, 2.0 * Sigma)
    denom = 0.5 * d.C[0, 0] + 0.5 * d.Cprime[0, 0] + 0.5 * 1.0 + 0.25 + 6.0
    assert R[0, 0] == pytest.approx(1.0 / denom)


def test_xi_derivative_identity():
    fm = identity_map(5)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 30))
    Y = rng.standard_normal((1, 30))
    d = _design(X, Y, fm, salt_and_pepper(0.5, 0.5))
    Sigma = closed_population_moment_set(
        np.eye(5), salt_and_pepper(0.5, 0.5), np.zeros(5), 0.0).Sigma
    system = normal_equations(d, 0.5)
    theta = fit(system, 0.3)[:, 0]
    fd = xi_derivative_fd(system, 0.3, Sigma)
    exact = -float(theta @ Sigma @ theta)
    assert abs(fd - exact) <= 1e-3 * abs(exact)


def test_empirical_generalization_trivials():
    fm = identity_map(2)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((2, 50))
    theta = np.array([[1.0], [2.0]])
    Y = theta.T @ X
    assert empirical_generalization(np.zeros((2, 1)), X, Y, fm) == \
        pytest.approx(float(np.mean(Y ** 2)))
    assert empirical_generalization(theta, X, Y, fm) == pytest.approx(0.0)


def test_population_generalization_trivials():
    d = 3
    Sigma = np.diag([1.0, 2.0, 0.5])
    theta_star = np.array([1.0, -1.0, 2.0])
    ms = closed_population_moment_set(Sigma, additive_noise(0.0),
                                      theta_star, 0.3)
    assert population_generalization(theta_star[:, None], ms, theta_star,
                                     0.3) == pytest.approx(0.3)
    null_risk = float(theta_star @ Sigma @ theta_star) + 0.3
    assert population_generalization(np.zeros((d, 1)), ms, theta_star,
                                     0.3) == pytest.approx(null_risk)


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
    emp = empirical_generalization(theta, Xt, Yt[None], identity_map(d))
    pop = population_generalization(theta, ms, theta_star, sigma2)
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
    assert overlap_stat(th, ms, theta_star) == pytest.approx(1.0 + 2.0)


@pytest.mark.parametrize("q", [1, 25])
def test_quadratic_terms_match_per_column_loop(q):
    # p = 759 is the MNIST feature dimension; SigmaStar is not symmetric
    # and SigmaStarStar differs from Sigma, so each term must pair its own
    # block with its own operands
    p = 759
    rng = np.random.default_rng(41)
    G = rng.standard_normal((p, p)) / np.sqrt(p)
    K = rng.standard_normal((p, p)) / np.sqrt(p)
    Sigma = G @ G.T
    theta_star = rng.standard_normal((p, q)) / np.sqrt(p)
    ms = replace(
        closed_population_moment_set(Sigma, additive_noise(0.0),
                                     theta_star, 0.2),
        SigmaStar=Sigma + 0.3 * K, SigmaStarStar=Sigma + K @ K.T)
    theta = theta_star + 0.1 * rng.standard_normal((p, q)) / np.sqrt(p)
    if q == 1:  # a 1-D truth, as configs give it
        theta_star = theta_star[:, 0]
    chi, tSs, tSSt = quadratic_terms(theta, ms, theta_star,
                                     truth_term(ms, theta_star, 0.2))
    ts = theta_star.reshape(p, q)

    def loop(A, S, B):
        return np.array([A[:, j] @ S @ B[:, j] for j in range(q)])

    for got, want in ((chi, loop(theta, Sigma, theta)),
                      (tSs, loop(ts, ms.SigmaStar, theta)),
                      (tSSt, loop(ts, ms.SigmaStarStar, ts))):
        assert got.shape == (q,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
