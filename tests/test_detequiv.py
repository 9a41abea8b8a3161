from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

from augridge.detequiv import (
    _DilationMap,
    NotConvergedError,
    PreconditionViolationError,
    compute_second_order,
    equivalents,
    loewner_gap_eigs,
    solve_fixed_point,
    wellspecified_reduction,
)
from augridge.moments import closed_population_moment_set
from augridge.schemes import InvalidParameterError, additive_noise, masking


def _iso_ms(p, theta_star=None, sigma2=0.0):
    th = np.zeros(p) if theta_star is None else theta_star
    return closed_population_moment_set(np.eye(p), additive_noise(0.0),
                                        th, sigma2)


def _beta_closed(lam, p, n):
    # positive root of beta^2 + beta (lam + p/n - 1) - lam = 0, the scalar
    # fixed point at alpha = 0 with isotropic covariance; in the form free
    # of cancellation, as beta ~ lam / (p/n - 1) is tiny for p > n
    b = lam + p / n - 1.0
    s = np.sqrt(b * b + 4.0 * lam)
    return 2.0 * lam / (b + s) if b > 0 else (-b + s) / 2.0


def _aniso_masking_ms(p, seed):
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    Sigma = (Q * rng.uniform(0.2, 3.0, p)) @ Q.T
    return closed_population_moment_set(Sigma, masking(0.7),
                                        rng.standard_normal(p) / np.sqrt(p),
                                        0.1)


SIGMA_AUG = 0.5
ISO_ADDITIVE_40 = closed_population_moment_set(
    np.eye(40), additive_noise(SIGMA_AUG), np.ones(40) / np.sqrt(40), 0.1)


def test_fixed_point_rejects_bad_parameters():
    ms = _iso_ms(3)
    with pytest.raises(InvalidParameterError):
        solve_fixed_point(ms, 0.0, 0.0, 10)
    with pytest.raises(InvalidParameterError):
        solve_fixed_point(ms, -0.1, 1.0, 10)
    with pytest.raises(InvalidParameterError):
        solve_fixed_point(ms, 0.0, 1.0, 0)


def test_fixed_point_scalar_closed_form():
    for lam in (0.05, 0.3, 1.0, 5.0):
        for (p, n) in ((40, 40), (60, 30), (30, 90)):
            ms = _iso_ms(p)
            st = solve_fixed_point(ms, 0.0, lam, n)
            assert st.converged
            beta = float(st.B.sum())
            assert beta == pytest.approx(_beta_closed(lam, p, n), abs=1e-9)


def test_fixed_point_golden_value_p_equals_n_lambda_one():
    # p = n, lam = 1: beta = (sqrt(5) - 1) / 2
    ms = _iso_ms(50)
    st = solve_fixed_point(ms, 0.0, 1.0, 50)
    assert float(st.B.sum()) == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-9)


def test_fixed_point_infinite_data_limit():
    ms = _iso_ms(10)
    st = solve_fixed_point(ms, 0.3, 0.5, 10 ** 9)
    W2 = st.W @ st.W
    assert np.allclose(st.B, W2, atol=1e-6)


def test_fixed_point_huge_lambda_limit():
    ms = _iso_ms(10)
    st = solve_fixed_point(ms, 0.4, 1e6, 20)
    W2 = st.W @ st.W
    assert np.allclose(st.B, W2, atol=1e-4)


def test_fixed_point_b_dominated_by_w_squared():
    rng = np.random.default_rng(0)
    for trial in range(5):
        p = 20
        evals = rng.uniform(0.2, 3.0, p)
        ms = closed_population_moment_set(np.diag(evals), masking(0.7),
                                          rng.standard_normal(p), 0.1)
        alpha = rng.uniform(0.0, 1.0)
        lam = rng.uniform(0.05, 2.0)
        st = solve_fixed_point(ms, alpha, lam, 30)
        assert st.converged
        lo, hi = loewner_gap_eigs(st.W @ st.W - st.B)
        assert lo >= -1e-10
        beta = float(st.B.sum())
        assert 0.0 < beta <= 1.0 + 1e-10


def test_resolvent_trace_decreasing_in_lambda():
    ms = _iso_ms(15)
    traces = []
    for lam in (0.05, 0.2, 1.0, 5.0):
        st = solve_fixed_point(ms, 0.0, lam, 20)
        traces.append(float(np.sum(ms.Sigma * st.R_bar)))
    assert all(a > b for a, b in zip(traces, traces[1:]))


def test_second_order_requires_convergence():
    ms = _iso_ms(30)
    st = solve_fixed_point(ms, 0.0, 0.05, 30, max_iter=1)
    assert not st.converged
    with pytest.raises(NotConvergedError):
        compute_second_order(st, ms)


def test_second_order_golden_value():
    # p = n, lam = 1, alpha = 0, isotropic: D11 = kappa / (1 - kappa),
    # kappa = beta^2 p / (n (beta + lam)^2)
    p = n = 80
    ms = _iso_ms(p)
    st = solve_fixed_point(ms, 0.0, 1.0, n)
    D = compute_second_order(st, ms)
    beta = float(st.B.sum())
    kappa = beta ** 2 * p / (n * (beta + 1.0) ** 2)
    assert D[0, 0] == pytest.approx(kappa / (1.0 - kappa), abs=1e-9)
    assert np.allclose(D - D.T, 0.0)
    assert float(D.sum()) >= 0.0


def test_second_order_vanishes_with_infinite_data():
    ms = _iso_ms(10)
    st = solve_fixed_point(ms, 0.5, 0.3, 10 ** 9)
    D = compute_second_order(st, ms)
    assert np.linalg.norm(D) <= 1e-6


def test_null_signal_risk_is_noise_inflation():
    # theta* = 0: risk equals sigma2 (1 + delta) exactly
    p, n = 40, 60
    sigma2 = 0.7
    ms = _iso_ms(p, np.zeros(p), sigma2)
    st = solve_fixed_point(ms, 0.0, 0.4, n)
    D = compute_second_order(st, ms)
    rep = equivalents(st, D, ms, np.zeros(p), sigma2)
    assert rep.g_bar_mean == pytest.approx(sigma2 * (1.0 + rep.delta),
                                           rel=1e-10)
    assert rep.bias2_bar_mean == pytest.approx(0.0, abs=1e-12)
    assert rep.var_bar_mean == pytest.approx(rep.g_bar_mean, rel=1e-10)


def test_identity_augmentation_alpha_invariance():
    # a no-op augmentation makes every block equal, so predictions cannot
    # depend on alpha
    p, n = 25, 40
    rng = np.random.default_rng(1)
    theta = rng.standard_normal(p) / np.sqrt(p)
    Sigma = np.diag(rng.uniform(0.5, 2.0, p))
    ms = closed_population_moment_set(Sigma, additive_noise(0.0), theta, 0.2)
    base = None
    for alpha in (0.0, 0.3, 0.8, 1.0):
        st = solve_fixed_point(ms, alpha, 0.3, n)
        D = compute_second_order(st, ms)
        rep = equivalents(st, D, ms, theta, 0.2)
        vec = np.array([rep.g_bar_mean, rep.chi_bar_mean,
                        rep.bias2_bar_mean, rep.var_bar_mean, rep.beta,
                        rep.delta])
        if base is None:
            base = vec
        else:
            assert np.allclose(vec, base, atol=1e-8)


def test_wellspecified_reduction_matches_general():
    p, n = 30, 50
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(p) / np.sqrt(p)
    Sigma = np.diag(rng.uniform(0.5, 2.0, p))
    ms = closed_population_moment_set(Sigma, additive_noise(0.4), theta, 0.3)
    for alpha in (0.0, 0.5, 1.0):
        st = solve_fixed_point(ms, alpha, 0.2, n)
        D = compute_second_order(st, ms)
        rep = equivalents(st, D, ms, theta, 0.3)
        red = wellspecified_reduction(st, D, ms, theta, 0.3)
        assert red["g_bar_simple_mean"] == pytest.approx(rep.g_bar_mean,
                                                         rel=1e-9)
        assert np.allclose(red["theta_bar"], rep.theta_bar, atol=1e-10)


def test_wellspecified_reduction_rejects_biased_scheme():
    p = 10
    theta = np.ones(p)
    ms = closed_population_moment_set(np.eye(p), masking(0.6), theta, 0.1)
    st = solve_fixed_point(ms, 0.5, 0.3, 20)
    D = compute_second_order(st, ms)
    with pytest.raises(PreconditionViolationError):
        wellspecified_reduction(st, D, ms, theta, 0.1)


def test_plugin_mode_flag():
    p, n = 12, 20
    theta = np.ones(p) / np.sqrt(p)
    ms = closed_population_moment_set(np.eye(p), additive_noise(0.2),
                                      theta, 0.1)
    st = solve_fixed_point(ms, 0.5, 0.3, n)
    D = compute_second_order(st, ms)
    rep = equivalents(st, D, ms, theta, 0.1)
    assert not rep.plugin_mode
    rep2 = equivalents(st, D, ms, None, 0.1)
    assert rep2.plugin_mode
    # plugin substitution is exact for well-specified identity features
    assert rep2.g_bar_mean == pytest.approx(rep.g_bar_mean, rel=1e-8)


def test_loewner_gap_eigs_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.standard_normal((2, 2))
        M = 0.5 * (M + M.T)
        lo, hi = loewner_gap_eigs(M)
        w = np.linalg.eigvalsh(M)
        assert lo == pytest.approx(w[0], abs=1e-12)
        assert hi == pytest.approx(w[1], abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(log_lam=st.floats(-8.0, 3.0), log_ratio=st.floats(-1.0, 1.0),
       alpha=st.floats(0.0, 1.0))
def test_fixed_point_converges_over_documented_range(log_lam, log_ratio,
                                                     alpha):
    # isotropic additive noise: augmented ridge is plain ridge at
    # lam' = lam + alpha sigma_aug^2, so beta is the scalar root at lam'
    p = 40
    lam = 10.0 ** log_lam
    n = int(round(p / 10.0 ** log_ratio))
    st_ = solve_fixed_point(ISO_ADDITIVE_40, alpha, lam, n)
    assert st_.converged
    assert st_.iterations <= 20
    beta = _beta_closed(lam + alpha * SIGMA_AUG ** 2, p, n)
    assert abs(float(st_.B.sum()) - beta) <= 1e-9 * beta


def test_fixed_point_converges_at_interpolation_threshold():
    # p = n, tiny lam: the fixed-point map has slope ~1 - 2 sqrt(lam) there
    p = n = 200
    ms = closed_population_moment_set(np.eye(p), additive_noise(0.5),
                                      np.ones(p) / np.sqrt(p), 0.25)
    st_ = solve_fixed_point(ms, 0.0, 1e-5, n)
    assert st_.converged and st_.iterations <= 20
    assert st_.residual <= 1e-10
    beta = _beta_closed(1e-5, p, n)
    assert abs(float(st_.B.sum()) - beta) <= 1e-9 * beta


def test_fixed_point_on_loewner_boundary_under_masking():
    # masking makes A rank one, so W^2 - B is singular at the fixed point
    ms = _aniso_masking_ms(30, seed=4)
    for lam in (1e-6, 1e-3, 0.1):
        st_ = solve_fixed_point(ms, 0.5, lam, 20)
        assert st_.converged
        lo, hi = loewner_gap_eigs(st_.W @ st_.W - st_.B)
        assert -1e-10 <= lo <= 1e-12
        assert hi > 0.1


def test_second_order_from_stored_traces_matches_direct():
    ms = _aniso_masking_ms(30, seed=5)
    n = 25
    for alpha in (0.0, 0.5, 1.0):
        st_ = solve_fixed_point(ms, alpha, 0.05, n)
        R, B = st_.R_bar, st_.B
        # d = (d11, d12, d22) solves (I - J) d = d0: d0 holds the slots of
        # B C B / n and column j of J those of w_j B C_j B / n, with
        # C_j = [[t_0j, t_1j], [t_1j, t_2j]], t_ij = tr(X_i R X_j R) over
        # X = (Sigma, sym Sigma', Sigma'') and w = (1, 2, 1)
        X = (ms.Sigma, 0.5 * (ms.SigmaPrime + ms.SigmaPrime.T),
             ms.SigmaDoublePrime)
        t = np.array([[np.trace(Xi @ R @ Xj @ R) for Xj in X] for Xi in X])

        def slots(j):
            M = B @ np.array([[t[0, j], t[1, j]], [t[1, j], t[2, j]]]) @ B
            return np.array([M[0, 0], M[0, 1], M[1, 1]]) / n

        J = np.column_stack([w * slots(j) for j, w in enumerate((1, 2, 1))])
        d = np.linalg.solve(np.eye(3) - J, slots(0))
        D_ref = np.array([[d[0], d[1]], [d[1], d[2]]])
        D = compute_second_order(st_, ms)
        assert np.linalg.norm(D - D_ref) <= 1e-12 * np.linalg.norm(D_ref)


def test_whitened_traces_match_two_triangular_solves():
    # three distinct blocks, the diagonal blocks and sym Sigma' of one
    # joint covariance, with Sigma' not symmetric; the reference whitens
    # each full symmetric block by two dtrsm calls and takes its trace
    # and Frobenius products
    p = 200
    rng = np.random.default_rng(43)
    G = rng.standard_normal((2 * p, 2 * p)) / np.sqrt(2 * p)
    K = G @ G.T
    ms = replace(_aniso_masking_ms(p, seed=6), Sigma=K[:p, :p],
                 SigmaPrime=K[:p, p:], SigmaDoublePrime=K[p:, p:])
    alpha, lam, n = 0.5, 0.05, 150
    state = solve_fixed_point(ms, alpha, lam, n)
    assert state.converged
    P = _DilationMap(ms, alpha, lam, n).at(state.B[[0, 0, 1], [0, 1, 1]])
    X = (ms.Sigma, 0.5 * (ms.SigmaPrime + ms.SigmaPrime.T),
         ms.SigmaDoublePrime)
    Z = [blas.dtrsm(1.0, P.L, blas.dtrsm(1.0, P.L, Xi, lower=1),
                    side=1, lower=1, trans_a=1) for Xi in X]
    a = np.array([np.trace(Zi) for Zi in Z])
    T = np.array([[np.sum(Zi * Zj) for Zj in Z] for Zi in Z])
    np.testing.assert_allclose(P.a, a, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(P.T, T, rtol=1e-12, atol=0.0)
