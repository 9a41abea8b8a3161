"""Empirical augmented ridge: a replicate's moment set, the one builder
of every ridge system, the closed-form fit, the shifted resolvent and its
quadratic statistic, and generalization error.

normal_equations(ms, B, a) builds, from a MomentSet and 2x2 weights B,

    M = Sigma_bar(B) + a LambdaBar,  H = Gamma_bar(B) + a OmegaBar,
    Sigma_bar(B) = b11 Sigma + 2 b12 Sigma' + b22 Sigma'',
    Gamma_bar(B) = b11 G1 + b12 (G1 + G3) + b22 G3.

A fit is the deterministic equivalents' system at their infinite-data
dilation B = W^2 = Diag(1-a, a), built on its sample's MomentSet
(assemble_design): theta_hat = (M + lam I)^{-1} H with M = (1-a) C +
a C'' + a Lambda and H = (1-a) G1 + a G3 + a Omega. detequiv builds its
systems with the same function on the population's set. A MomentSet's
p x p blocks are exactly symmetric (Sigma' is stored so), so M is.
_solve, the one regularized solve, costs one copy of M per lambda, lam
added to its diagonal in place, and LAPACK's dpotrf (in place) and
dpotrs for all q output columns; only a shifted solve symmetrizes.

The population risk of theta is g = E[Y^2] - 2 G1^T theta +
theta^T Sigma theta per output, for every data source: the truth enters
only through G1 = E[phi(X) Y^T] and EY2 = E[Y^2], and the label noise
sigma2 is part of E[Y^2]. population_risk is that one formula, from the
terms quadratic_terms forms; the fits, their mean and the deterministic
equivalents all go through it, and sigma2 is subtracted only where a
bias^2 is split from the variance. theta^T Sigma theta is
quadratic_form: one GEMM Sigma @ theta and a column sum of its product
with theta.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import (EmptyInputError, InvalidDimensionError,
                     InvalidParameterError, NumericalFailureError)
from .features import apply_features
from .moments import MomentSet, identity_moment_set, symmetrize


def assemble_design(X, Y, feature_map, sample_moments):
    """The MomentSet of the n columns of (X, Y): Sigma = phi phi^T / n,
    SigmaPrime = sym(phi mu_x^T) / n, SigmaDoublePrime = mu_x mu_x^T / n,
    G1 = phi Y^T / n, G3 = mu_x Y^T / n, EY2 the mean of Y^2, the averaged
    LambdaBar and OmegaBar, n_mc_used = n and provenance "sample".

    sample_moments is the (MuX, LambdaBar, OmegaBar, draws, scale) tuple
    from moments.batch_sample_moments. With exact means mu_x = c x (scale
    c), the set is moments.identity_moment_set of its one Gram. Otherwise
    the means come from draws >= 2 augmentations, and the O(1/draws) bias
    of SigmaDoublePrime (an outer product of estimated means) is removed.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[1]
    if n < 1:
        raise EmptyInputError("need at least one sample")
    if Y.shape[1] != n:
        raise InvalidDimensionError("X and Y column counts differ")
    Phi = apply_features(feature_map, X)
    MuX, LambdaBar, OmegaBar, draws, scale = sample_moments
    if MuX.shape[1] != n:
        raise InvalidDimensionError("per-sample moments do not match n")
    # numpy's A @ A.T mirrors one triangle: exactly symmetric, as required
    Sigma = Phi @ Phi.T / n
    G1, EY2 = Phi @ Y.T / n, (Y * Y).mean(1)
    if scale is not None:
        return identity_moment_set(Sigma, G1, EY2,
                                   (scale, LambdaBar, OmegaBar), n, "sample")
    return MomentSet(
        Sigma=Sigma, SigmaPrime=symmetrize(Phi @ MuX.T / n),
        SigmaDoublePrime=MuX @ MuX.T / n - LambdaBar / draws, G1=G1,
        G3=MuX @ Y.T / n, EY2=EY2, LambdaBar=LambdaBar, OmegaBar=OmegaBar,
        n_mc_used=n, provenance="sample")


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


def normal_equations(moment_set, B, alpha):
    """The system (Sigma_bar(B) + alpha LambdaBar, Gamma_bar(B) + alpha
    OmegaBar) of a moment set at symmetric 2x2 weights B (see the module
    docstring), which every lambda shares. After the b11 term, a term of
    weight 0 is skipped. A finite set can overflow at a large B, so both
    arrays are checked finite here, once per system."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in [0,1], got {alpha}")
    ms = moment_set
    b11, b12, b22 = B[0, 0], B[0, 1], B[1, 1]
    system = []
    for name, first, terms in (
        ("regularized matrix", ms.Sigma,
         ((2.0 * b12, ms.SigmaPrime), (b22, ms.SigmaDoublePrime),
          (alpha, ms.LambdaBar))),
        ("right-hand side", ms.G1,
         ((b12, ms.G1 + ms.G3), (b22, ms.G3), (alpha, ms.OmegaBar))),
    ):
        S = b11 * first
        T = None  # one buffer for every later term
        for w, block in terms:
            if w != 0.0:
                T = np.multiply(w, block, out=T)
                S += T
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

    M and rhs are a normal_equations system: finite, and M is exactly
    symmetric (a MomentSet's p x p blocks are); neither is changed, so
    every lambda can reuse them. Without a shift this is one copy of M
    that takes lam on its diagonal in place, factored in place by dpotrf
    and solved for every column of rhs by dpotrs. A shift, which need not
    be symmetric, is added to that copy and the sum symmetrized."""
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


def empirical_generalization(theta, test_features, test_Y):
    """Mean squared test error of theta on a test set's features, averaged
    over outputs."""
    test_features = np.asarray(test_features, dtype=float)
    test_Y = np.atleast_2d(np.asarray(test_Y, dtype=float))
    if test_features.shape[1] == 0:
        raise EmptyInputError("empty test set")
    return float(np.mean((theta.T @ test_features - test_Y) ** 2))


def quadratic_form(A, S, B):
    """Per column j, A[:, j]^T S B[:, j]: one GEMM and a column sum."""
    return np.einsum("ij,ij->j", A, S @ B)


def quadratic_terms(theta, moment_set):
    """Per-output (theta^T Sigma theta, G1^T theta): the theta-dependent
    terms of population_risk."""
    chi = quadratic_form(theta, moment_set.Sigma, theta)
    overlap = np.einsum("ij,ij->j", moment_set.G1, theta)
    return chi, overlap


def population_risk(chi, overlap, moment_set):
    """The population risk g = chi - 2 overlap + E[Y^2] per output, with
    (chi, overlap) = quadratic_terms(theta, moment_set) for a fit theta,
    or chi a deterministic equivalent of it."""
    return chi - 2.0 * overlap + moment_set.EY2


def population_generalization(theta, moment_set):
    """The population risk of theta, averaged over outputs."""
    return float(np.mean(population_risk(*quadratic_terms(theta, moment_set),
                                         moment_set)))


def overlap_stat(theta, moment_set):
    """G1^T theta per output, averaged."""
    return float(np.mean(quadratic_terms(theta, moment_set)[1]))


def chi_stat(theta, moment_set):
    """theta^T Sigma theta per output, averaged."""
    return float(np.mean(quadratic_terms(theta, moment_set)[0]))
