"""Empirical augmented ridge: design assembly, the closed-form fit, the
shifted resolvent and its quadratic statistic, and generalization error.

The estimator solves

    theta_hat = ((1-a) C + a C' + a Lambda(Z) + lam I)^{-1} H_a,
    H_a = (1-a) H + a H' + a Omega(Z),

with C = phi(X) phi(X)^T / n, C' = mu_x(Z) mu_x(Z)^T / n, H = phi(X) Y^T / n,
H' = mu_x(Z) mu_y(Z)^T / n. One symmetric positive-definite factorization is
reused across all q output columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lapack

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


@dataclass(frozen=True)
class RidgeFit:
    theta_hat: np.ndarray
    alpha: float
    lam: float


def assemble_design(X, Y, feature_map, sample_moments, debias_n_mc=None):
    """Build the six design blocks with 1/n normalization.

    sample_moments is the (MuX, MuY, LambdaBar, OmegaBar) tuple from
    moments.batch_sample_moments. When the per-sample means were estimated
    from debias_n_mc augmentation draws, the O(1/n_mc) bias of Cprime and
    Hprime (outer products of estimated means) is removed.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[1]
    if n < 1:
        raise EmptyInputError("need at least one sample")
    if Y.shape[1] != n:
        raise InvalidDimensionError("X and Y column counts differ")
    Phi = apply_features(feature_map, X)
    MuX, MuY, LambdaEmp, OmegaEmp = sample_moments
    MuY = np.atleast_2d(MuY)
    if MuX.shape[1] != n:
        raise InvalidDimensionError("per-sample moments do not match n")
    C = symmetrize(Phi @ Phi.T / n)
    Cprime = symmetrize(MuX @ MuX.T / n)
    H = Phi @ Y.T / n
    Hprime = MuX @ MuY.T / n
    if debias_n_mc is not None and debias_n_mc > 0:
        Cprime = symmetrize(Cprime - LambdaEmp / debias_n_mc)
        Hprime = Hprime - OmegaEmp / debias_n_mc
    return AugmentedDesign(
        C=C, Cprime=Cprime, H=H, Hprime=Hprime,
        LambdaEmp=symmetrize(LambdaEmp), OmegaEmp=OmegaEmp, n=n,
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
    smallest = float(np.linalg.eigvalsh(M)[0])
    raise NumericalFailureError(
        f"{what} not positive definite (smallest eigenvalue {smallest:.3e})"
    )


def _regularized_factor(design, alpha, lam, zeta=0.0, Sigma=None):
    """cho_solve factor of (1-a)C + aC' + aLambda + lam I (+ zeta Sigma)."""
    if zeta != 0.0 and Sigma is None:
        raise InvalidParameterError("Sigma required when zeta != 0")
    M = ((1.0 - alpha) * design.C + alpha * design.Cprime
         + alpha * design.LambdaEmp)
    M = M + lam * np.eye(M.shape[0])
    if zeta != 0.0:
        M = M + zeta * Sigma
    return _cholesky(symmetrize(M), "regularized matrix"), True


def _h_alpha(design, alpha):
    return ((1.0 - alpha) * design.H + alpha * design.Hprime
            + alpha * design.OmegaEmp)


def fit(design, alpha, lam) -> RidgeFit:
    """Solve the normal equations; one factorization for all q outputs."""
    if lam <= 0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in [0,1], got {alpha}")
    theta = cho_solve(_regularized_factor(design, alpha, lam),
                      _h_alpha(design, alpha))
    return RidgeFit(theta_hat=theta, alpha=float(alpha), lam=float(lam))


def resolvent_shifted(design, alpha, lam, zeta, Sigma=None):
    """The matrix ((1-a)C + aC' + aLambda + lam I + zeta Sigma)^{-1}."""
    factor = _regularized_factor(design, alpha, lam, zeta, Sigma)
    return cho_solve(factor, np.eye(design.C.shape[0]))


def xi_derivative_fd(design, alpha, lam, Sigma, h=1e-4):
    """Central finite difference at zeta = 0 of the q x q quadratic form
    xi(zeta) = H_a^T R(zeta) H_a (scalar for q = 1), R(zeta) the resolvent
    shifted by zeta Sigma; by the resolvent identity this equals
    -theta_hat^T Sigma theta_hat."""
    Ha = _h_alpha(design, alpha)
    xp, xm = (Ha.T @ cho_solve(_regularized_factor(design, alpha, lam, z,
                                                   Sigma), Ha)
              for z in (h, -h))
    out = (xp - xm) / (2.0 * h)
    return float(out[0, 0]) if out.shape == (1, 1) else out


def empirical_generalization(ridge_fit, test_X, test_Y, feature_map):
    """Mean squared test error, averaged over outputs."""
    test_X = np.asarray(test_X, dtype=float)
    test_Y = np.atleast_2d(np.asarray(test_Y, dtype=float))
    if test_X.shape[1] == 0:
        raise EmptyInputError("empty test set")
    pred = ridge_fit.theta_hat.T @ apply_features(feature_map, test_X)
    return float(np.mean((pred - test_Y) ** 2))


def quadratic_terms(theta, moment_set, theta_star, sigma2):
    """Per-output (theta^T Sigma theta, theta*^T SigmaStar theta,
    theta*^T SigmaStarStar theta*), the terms every risk statistic is made
    of; without truth blocks, G1^T theta and E[Y^2] - sigma2 stand in for
    the last two."""
    chi = np.einsum("ij,ik,kj->j", theta, moment_set.Sigma, theta)
    if theta_star is not None and moment_set.SigmaStar is not None:
        th = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
        tSSt = np.einsum("ij,ik,kj->j", th, moment_set.SigmaStarStar, th)
        tSs = np.einsum("ij,ik,kj->j", th, moment_set.SigmaStar, theta)
    else:
        tSSt = moment_set.PsiSecond[:, 0, 0] - sigma2
        tSs = np.einsum("ij,ij->j", moment_set.G1, theta)
    return chi, tSs, tSSt


def population_risk(terms, sigma2):
    """Risk from quadratic_terms: theta^T Sigma theta - 2 theta*^T
    SigmaStar theta + theta*^T SigmaStarStar theta* + sigma2, averaged
    over outputs."""
    chi, tSs, tSSt = terms
    return float(np.mean(chi - 2.0 * tSs + tSSt + sigma2))


def population_generalization(ridge_fit, moment_set, theta_star, sigma2):
    """The population risk of a fit (see population_risk)."""
    return population_risk(quadratic_terms(ridge_fit.theta_hat, moment_set,
                                           theta_star, sigma2), sigma2)


def overlap_stat(ridge_fit, moment_set, theta_star, sigma2=0.0):
    """theta*^T SigmaStar theta_hat per output, averaged (plugin
    substitution G1^T theta_hat when truth blocks are absent)."""
    return float(np.mean(quadratic_terms(ridge_fit.theta_hat, moment_set,
                                         theta_star, sigma2)[1]))


def chi_stat(ridge_fit, moment_set):
    """theta_hat^T Sigma theta_hat per output, averaged."""
    return float(np.mean(quadratic_terms(ridge_fit.theta_hat, moment_set,
                                         None, 0.0)[0]))
