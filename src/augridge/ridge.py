"""Empirical augmented ridge: design assembly, the closed-form fit, the
shifted resolvent and its quadratic statistic, and generalization error.

The estimator solves

    theta_hat = ((1-a) C + a C' + a Lambda(Z) + lam I)^{-1} H_a,
    H_a = (1-a) H + a H' + a Omega(Z),

with C = phi(X) phi(X)^T / n, C' = mu_x(Z) mu_x(Z)^T / n, H = phi(X) Y^T / n,
H' = mu_x(Z) mu_y(Z)^T / n. assemble_design symmetrizes C, C' and Lambda,
so normal_equations, called once per (design, alpha), builds an exactly
symmetric M_a and checks (M_a, H_a) finite there, once for every lambda.
_solve, the one regularized solve (the equivalents' too), then costs one
copy of M_a per lambda, lam added to its diagonal in place, and LAPACK's
dpotrf (in place) and dpotrs for all q output columns; only a shifted
solve symmetrizes. truth_term, the one theta-free risk term, is computed
once per sweep and passed to quadratic_terms for every fit. Every risk
term theta_a^T S theta_b, per output column, is quadratic_form: one GEMM
S @ theta_b and a column sum of its product with theta_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import EmptyInputError, NumericalFailureError
from .features import InvalidDimensionError, apply_features
from .moments import symmetrize
from .schemes import InvalidParameterError


@dataclass(frozen=True)
class AugmentedDesign:
    C: np.ndarray
    Cprime: np.ndarray
    H: np.ndarray
    Hprime: np.ndarray
    LambdaEmp: np.ndarray
    OmegaEmp: np.ndarray
    n: int


def assemble_design(X, Y, feature_map, sample_moments):
    """Build the six design blocks with 1/n normalization.

    sample_moments is the (MuX, MuY, LambdaBar, OmegaBar, draws) tuple
    from moments.batch_sample_moments. When the per-sample means were
    estimated from draws > 0 augmentations, the O(1/draws) bias of Cprime
    and Hprime (outer products of estimated means) is removed.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[1]
    if n < 1:
        raise EmptyInputError("need at least one sample")
    if Y.shape[1] != n:
        raise InvalidDimensionError("X and Y column counts differ")
    Phi = apply_features(feature_map, X)
    MuX, MuY, LambdaEmp, OmegaEmp, draws = sample_moments
    MuY = np.atleast_2d(MuY)
    if MuX.shape[1] != n:
        raise InvalidDimensionError("per-sample moments do not match n")
    C = symmetrize(Phi @ Phi.T / n)
    Cprime = symmetrize(MuX @ MuX.T / n)
    H = Phi @ Y.T / n
    Hprime = MuX @ MuY.T / n
    if draws:
        Cprime = symmetrize(Cprime - LambdaEmp / draws)
        Hprime = Hprime - OmegaEmp / draws
    return AugmentedDesign(
        C=C, Cprime=Cprime, H=H, Hprime=Hprime,
        LambdaEmp=symmetrize(LambdaEmp), OmegaEmp=OmegaEmp, n=n,
    )


def _not_positive_definite(A, what):
    """The NumericalFailureError of a symmetric A (its lower triangle is
    read) that has no Cholesky factor, naming `what` and A's smallest
    eigenvalue."""
    smallest = float(np.linalg.eigvalsh(A)[0])
    return NumericalFailureError(
        f"{what} not positive definite (smallest eigenvalue {smallest:.3e})"
    )


def _cholesky(M, what=None):
    """Lower Cholesky factor of the symmetric matrix M (its lower triangle
    is read). If M is not positive definite: None when `what` is None,
    else a NumericalFailureError naming `what` and M's smallest
    eigenvalue; with `what` given, a non-finite M is one too."""
    if what is not None and not np.isfinite(M).all():
        raise NumericalFailureError(f"{what} is not finite")
    L, info = lapack.dpotrf(M, lower=1)
    if info == 0:
        return L
    if what is None:
        return None
    raise _not_positive_definite(M, what)


def normal_equations(design, alpha):
    """The system (M_a, H_a) = ((1-a)C + aC' + aLambda, (1-a)H + aH' +
    aOmega) of one (design, alpha), which every lambda shares. M_a is
    built by in-place scaled adds from the design's symmetrized blocks, so
    it is exactly symmetric; both arrays are checked finite here, once per
    system, and not again per lambda."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in [0,1], got {alpha}")
    system = []
    for name, (A, B, D) in (
        ("regularized matrix", (design.C, design.Cprime, design.LambdaEmp)),
        ("right-hand side", (design.H, design.Hprime, design.OmegaEmp)),
    ):
        S = (1.0 - alpha) * A
        T = alpha * B
        S += T
        S += np.multiply(alpha, D, out=T)
        if not np.isfinite(S).all():
            raise NumericalFailureError(f"{name} is not finite")
        system.append(S)
    return tuple(system)


def _regularized(M, lam, shift):
    """A fresh M + lam I, plus shift and symmetrized when one is given."""
    A = M.copy()
    A.flat[::A.shape[0] + 1] += lam
    return A if shift is None else symmetrize(A + shift)


def _solve(M, lam, rhs, what, shift=None):
    """(M + lam I + shift)^{-1} rhs, `what` naming the matrix in a failure.

    M is exactly symmetric (a normal_equations system, or symmetrized by
    the caller) and finite, as is rhs; neither is changed, so every
    lambda can reuse them. Without a shift this is one copy of M that
    takes lam on its diagonal in place, factored in place by dpotrf and
    solved for every column of rhs by dpotrs. A shift, which need not be
    symmetric, is added to that copy and the sum symmetrized."""
    A = _regularized(M, lam, shift)
    # A is exactly symmetric, so A.T is it in the Fortran order that
    # dpotrf overwrites without a copy
    L, info = lapack.dpotrf(A.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise _not_positive_definite(_regularized(M, lam, shift), what)
    return lapack.dpotrs(L, rhs, lower=1)[0]


def fit(system, lam):
    """theta_hat (p x q) of a normal_equations system at penalty lam: one
    copy of M_a, one in-place Cholesky factorization and one dpotrs
    solve for all q outputs (see _solve)."""
    if lam <= 0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    M, H = system
    return _solve(M, lam, H, "regularized matrix")


def resolvent_shifted(system, lam, shift=None):
    """The matrix (M_a + lam I + shift)^{-1} of a normal_equations
    system; the shift is z Sigma for a resolvent at z."""
    M = system[0]
    return _solve(M, lam, np.eye(M.shape[0]), "regularized matrix", shift)


def xi_derivative_fd(system, lam, Sigma):
    """Central finite difference at z = 0 of the q x q quadratic form
    xi(z) = H_a^T R(z) H_a (scalar for q = 1), R(z) the resolvent shifted
    by z Sigma; by the resolvent identity this equals
    -theta_hat^T Sigma theta_hat."""
    M, Ha = system
    xp, xm = (Ha.T @ _solve(M, lam, Ha, "regularized matrix", z * Sigma)
              for z in (1e-4, -1e-4))
    out = (xp - xm) / 2e-4
    return float(out[0, 0]) if out.shape == (1, 1) else out


def empirical_generalization(theta, test_X, test_Y, feature_map):
    """Mean squared test error of theta, averaged over outputs."""
    test_X = np.asarray(test_X, dtype=float)
    test_Y = np.atleast_2d(np.asarray(test_Y, dtype=float))
    if test_X.shape[1] == 0:
        raise EmptyInputError("empty test set")
    pred = theta.T @ apply_features(feature_map, test_X)
    return float(np.mean((pred - test_Y) ** 2))


def quadratic_form(A, S, B):
    """Per column j, A[:, j]^T S B[:, j]: one GEMM and a column sum."""
    return np.einsum("ij,ij->j", A, S @ B)


def truth_term(moment_set, theta_star, sigma2):
    """Per-output theta*^T SigmaStarStar theta*, or E[Y^2] - sigma2
    without truth blocks: the one risk term that does not depend on
    theta, so a sweep computes it once and passes it to quadratic_terms."""
    if theta_star is not None and moment_set.SigmaStar is not None:
        th = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
        return quadratic_form(th, moment_set.SigmaStarStar, th)
    return moment_set.PsiSecond[:, 0, 0] - sigma2


def quadratic_terms(theta, moment_set, theta_star, truth):
    """Per-output (theta^T Sigma theta, theta*^T SigmaStar theta, truth),
    the terms every risk statistic is made of, with truth from
    truth_term; without truth blocks G1^T theta stands in for the
    second."""
    chi = quadratic_form(theta, moment_set.Sigma, theta)
    if theta_star is not None and moment_set.SigmaStar is not None:
        th = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
        tSs = quadratic_form(th, moment_set.SigmaStar, theta)
    else:
        tSs = np.einsum("ij,ij->j", moment_set.G1, theta)
    return chi, tSs, truth


def population_risk(terms, sigma2):
    """Risk from quadratic_terms: theta^T Sigma theta - 2 theta*^T
    SigmaStar theta + theta*^T SigmaStarStar theta* + sigma2, averaged
    over outputs."""
    chi, tSs, tSSt = terms
    return float(np.mean(chi - 2.0 * tSs + tSSt + sigma2))


def population_generalization(theta, moment_set, theta_star, sigma2):
    """The population risk of theta (see population_risk)."""
    truth = truth_term(moment_set, theta_star, sigma2)
    return population_risk(quadratic_terms(theta, moment_set, theta_star,
                                           truth), sigma2)


def overlap_stat(theta, moment_set, theta_star):
    """theta*^T SigmaStar theta per output, averaged (plugin substitution
    G1^T theta when truth blocks are absent)."""
    return float(np.mean(quadratic_terms(theta, moment_set,
                                         theta_star, None)[1]))


def chi_stat(theta, moment_set):
    """theta^T Sigma theta per output, averaged."""
    return float(np.mean(quadratic_terms(theta, moment_set,
                                         None, None)[0]))
