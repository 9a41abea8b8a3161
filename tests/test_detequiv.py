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
    solve_fixed_point,
    wellspecified_reduction,
)
from augridge.features import identity_map, random_mlp_map
from augridge.moments import (batch_sample_moments,
                              closed_population_moment_set,
                              estimate_moment_set)
from augridge.ridge import assemble_design, normal_equations
from augridge.schemes import (
    InvalidParameterError,
    additive_noise,
    masking,
    salt_and_pepper,
)


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
        lo, hi = np.linalg.eigvalsh(st.W @ st.W - st.B)
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
    rep = equivalents(st, D, ms, sigma2)
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
        rep = equivalents(st, D, ms, 0.2)
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
        rep = equivalents(st, D, ms, 0.3)
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


@pytest.mark.parametrize("block", ["G1", "EY2"])
def test_wellspecified_reduction_rejects_inconsistent_truth(block):
    # an unbiased label-preserving scheme, so every Sigma and G block
    # equals its reference; only the truth's G1 = Sigma theta* or
    # E[Y^2] = theta*^T Sigma theta* + sigma2 is broken, by 1e-3 of
    # ||Sigma||_F, above the 1e-6 rule
    p, sigma2 = 10, 0.1
    theta = np.ones(p) / np.sqrt(p)
    ms = closed_population_moment_set(np.eye(p), additive_noise(0.3),
                                      theta, sigma2)
    st = solve_fixed_point(ms, 0.5, 0.3, 20)
    D = compute_second_order(st, ms)
    wellspecified_reduction(st, D, ms, theta, sigma2)
    bump = 1e-3 * np.linalg.norm(ms.Sigma)
    if block == "G1":
        G1 = ms.G1.copy()
        G1[0, 0] += bump
        bad = replace(ms, G1=G1, G3=G1)
    else:
        bad = replace(ms, EY2=ms.EY2 + bump)
    with pytest.raises(PreconditionViolationError, match=block):
        wellspecified_reduction(st, D, bad, theta, sigma2)


def _plugin_ms():
    # a Monte-Carlo moment set from fixed data whose labels are read, not
    # conditioned on a truth, as the MNIST pipeline builds one
    d, N = 6, 1100
    rng = np.random.default_rng(6)
    X = rng.standard_normal((d, N))
    Y = (rng.standard_normal((1, d)) @ X / np.sqrt(d)
         + 0.5 * rng.standard_normal((1, N)))
    return estimate_moment_set(random_mlp_map(d, [8], 5, seed=2), None,
                               salt_and_pepper(0.7, 0.5),
                               lambda a, b: (X[:, a:b], Y[:, a:b]), N, rng)


@pytest.mark.parametrize("kind", ["closed", "plugin"])
def test_equivalents_risk_does_not_read_sigma2(kind):
    # sigma2 enters only the bias split: the risk, overlap and chi
    # equivalents are the same bits at any sigma2, and bias2 moves by it
    ms = _aniso_masking_ms(20, seed=6) if kind == "closed" else _plugin_ms()
    st_ = solve_fixed_point(ms, 0.5, 0.1, 30)
    D = compute_second_order(st_, ms)
    r0, r1 = (equivalents(st_, D, ms, sigma2) for sigma2 in (0.0, 0.7))
    for name in ("g_bar_mean", "overlap_bar_mean", "chi_bar_mean"):
        assert getattr(r1, name) == getattr(r0, name), name
    assert r0.bias2_bar_mean - r1.bias2_bar_mean == pytest.approx(0.7,
                                                                  abs=1e-12)
    assert r1.var_bar_mean - r0.var_bar_mean == pytest.approx(0.7, abs=1e-12)


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
        lo, hi = np.linalg.eigvalsh(st_.W @ st_.W - st_.B)
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
    # joint covariance (a set stores Sigma' symmetric); the reference
    # whitens each full symmetric block by two dtrsm calls and takes its
    # trace and Frobenius products
    p = 200
    rng = np.random.default_rng(43)
    G = rng.standard_normal((2 * p, 2 * p)) / np.sqrt(2 * p)
    K = G @ G.T
    ms = replace(_aniso_masking_ms(p, seed=6), Sigma=K[:p, :p],
                 SigmaPrime=0.5 * (K[:p, p:] + K[p:, :p]),
                 SigmaDoublePrime=K[p:, p:], scale=None)
    alpha, lam, n = 0.5, 0.05, 150
    state = solve_fixed_point(ms, alpha, lam, n)
    assert state.converged
    P = _DilationMap(ms, alpha, lam, n).at(state.B[[0, 0, 1], [0, 1, 1]])
    X = (ms.Sigma, ms.SigmaPrime, ms.SigmaDoublePrime)
    Z = [blas.dtrsm(1.0, P.L, blas.dtrsm(1.0, P.L, Xi, lower=1),
                    side=1, lower=1, trans_a=1) for Xi in X]
    a = np.array([np.trace(Zi) for Zi in Z])
    T = np.array([[np.sum(Zi * Zj) for Zj in Z] for Zi in Z])
    np.testing.assert_allclose(P.a, a, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(P.T, T, rtol=1e-12, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), alpha=st.floats(0.01, 0.99),
       b12=st.floats(0.01, 1.0),
       call=st.sampled_from(["fixed-point", "normal-equations",
                             "wellspecified"]))
def test_sample_set_refuses_every_reader_of_sigma_prime(seed, alpha, b12,
                                                        call):
    # a replicate's set has no SigmaPrime: a fixed point at 0 < alpha < 1,
    # a system at b12 != 0 and the well-specified reduction each raise a
    # PreconditionViolationError (exit 2) that names it, before any
    # factorization; an alpha = 0 fixed point never reads it
    rng = np.random.default_rng(seed)
    p, n = 4, 10
    theta = rng.standard_normal(p)
    X = rng.standard_normal((p, n))
    Y = theta[None, :] @ X
    fm = identity_map(p)
    ms = assemble_design(X, Y, fm, batch_sample_moments(
        additive_noise(0.5), fm, X, Y, 2, rng))
    state = solve_fixed_point(ms, 0.0, 0.1, n)
    with pytest.raises(PreconditionViolationError,
                       match="SigmaPrime") as raised:
        if call == "fixed-point":
            solve_fixed_point(ms, alpha, 0.1, n)
        elif call == "normal-equations":
            normal_equations(ms, np.array([[0.5, b12], [b12, 0.5]]), alpha)
        else:
            wellspecified_reduction(state, compute_second_order(state, ms),
                                    ms, theta, 0.0)
    assert raised.value.exit_code == 2


@pytest.mark.parametrize("c", [1.0, 0.5, 0.7])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_recorded_scale_whitens_sigma_alone(monkeypatch, c, alpha):
    # a set of scale c has Sigma' = c Sigma and Sigma'' = c c Sigma, so a
    # Newton point whitens Sigma once and scales the result. Against the
    # same blocks with the scale dropped (a dsygst per block), the state
    # is bit for bit the same where c^k Z is exact (c = 1 and 0.5), and
    # within rounding at c = 0.7; the scaled solve whitens once a point
    # (at alpha = 1 the last point's Z_0 is kept for C_bar)
    from augridge import detequiv

    p, lam, n = 60, 0.05, 45
    rng = np.random.default_rng(71)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    ms = closed_population_moment_set((Q * rng.uniform(0.1, 3.0, p)) @ Q.T,
                                      masking(c), rng.standard_normal(p)
                                      / np.sqrt(p), 0.1)
    assert ms.scale == c
    dsygst, calls = detequiv.lapack.dsygst, []

    def counted(*args, **kwargs):
        calls.append(None)
        return dsygst(*args, **kwargs)

    monkeypatch.setattr(detequiv.lapack, "dsygst", counted)
    states, counts = [], []
    for s in (ms, replace(ms, scale=None)):
        calls.clear()
        states.append(solve_fixed_point(s, alpha, lam, n))
        counts.append(len(calls))
    scaled, plain = states
    assert scaled.converged and scaled.iterations == plain.iterations
    free = detequiv._free(alpha)
    assert counts[1] == len(free) * counts[0] + (alpha == 1.0)
    for name in ("B", "T_traces", "R_bar"):
        got, want = getattr(scaled, name), getattr(plain, name)
        if c in (1.0, 0.5):
            assert np.array_equal(got, want), name
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
