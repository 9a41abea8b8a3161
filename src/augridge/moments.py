"""Per-sample and population augmentation moments in feature space.

Per-sample moments are mu_x(z) = E[phi(tau_x(z, eta))], mu_y(z) =
E[tau_y(z, eta)] and the covariances Lambda(z) = Cov[phi(tau_x)],
Omega(z) = Cov[phi(tau_x), tau_y]. The MomentSet gathers every population
block the deterministic-equivalent engine consumes.

Monte-Carlo estimation notes:

- per-sample covariances use the unbiased 1/(n_mc - 1) normalization and
  explicit symmetrization;
- the estimated mean mu_hat over n_mc draws satisfies
  E[mu_hat mu_hat^T] = mu mu^T + Lambda/n_mc, so second-moment blocks built
  from mu_hat (SigmaDoublePrime, G4) are debiased by subtracting
  LambdaBar/n_mc (OmegaBar/n_mc);
- label-preserving schemes use mu_y = y exactly and Omega = 0 without
  sampling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSamplesError,
    InvalidParameterError,
    NumericalFailureError,
)
from .features import apply_features
from .schemes import _masking_lambda, closed_moments, sample_augmented_batch


def symmetrize(M):
    return 0.5 * (M + M.T)


def psd_clip(M, rel_tol=1e-8):
    """Symmetrize and clip small negative eigenvalues to zero.

    Eigenvalues below -rel_tol times the largest eigenvalue trigger a
    warning; the clipped matrix is returned either way.
    """
    M = symmetrize(np.asarray(M, dtype=float))
    w, V = np.linalg.eigh(M)
    top = max(w[-1], 0.0)
    if w[0] < -rel_tol * max(top, 1e-300):
        warnings.warn(
            f"clipping eigenvalue {w[0]:.3e} (largest {top:.3e}) to zero"
        )
    if w[0] >= 0:
        return M
    w = np.clip(w, 0.0, None)
    return symmetrize((V * w) @ V.T)


def batch_sample_moments(scheme, feature_map, X, Y, n_mc, rng):
    """Vectorized per-sample moments of all columns of (X, Y).

    Returns (MuX: p x n, MuY: q x n, LambdaBar: p x p, OmegaBar: p x q)
    where LambdaBar, OmegaBar are the empirical averages over the n
    samples (unbiased per-sample normalization). Closed forms are used for
    identity features; otherwise n_mc Monte-Carlo draws per sample, pushed
    through the feature map in one batch. One column gives the moments of
    one datum.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[1]
    q = Y.shape[0]
    p = feature_map.output_dim
    if feature_map.kind == "identity":
        return _batch_closed_moments(scheme, X, Y)
    if n_mc < 2:
        raise InsufficientSamplesError(
            "n_mc >= 2 required without a closed form"
        )
    Xa, Ya = sample_augmented_batch(scheme, X, Y, n_mc, rng)
    Pa = apply_features(feature_map, Xa)
    del Xa  # freed before the Gram products
    MuX = Pa.reshape(p, n, n_mc).mean(axis=2)
    # mean of per-sample unbiased covariances, via one GEMM:
    # (n_mc/(n_mc-1)) [ (1/(n n_mc)) sum phi phi^T - (1/n) sum mu mu^T ]
    S = Pa @ Pa.T / (n * n_mc)
    M = MuX @ MuX.T / n
    LambdaBar = symmetrize(n_mc / (n_mc - 1) * (S - M))
    if scheme.label_preserving:
        MuY = Y.copy()
        OmegaBar = np.zeros((p, q))
    else:
        MuY = Ya.reshape(q, n, n_mc).mean(axis=2)
        Sxy = Pa @ Ya.T / (n * n_mc)
        Mxy = MuX @ MuY.T / n
        OmegaBar = n_mc / (n_mc - 1) * (Sxy - Mxy)
    return MuX, MuY, LambdaBar, OmegaBar


# scheme kinds whose mean map is mu_x = c x, with Lambda from the
# coordinate second moments alone
_LINEAR_MEAN_KINDS = ("additive-noise", "masking", "salt-and-pepper")


def _linear_mean_lambda(scheme, d, v):
    """(c, Lambda) of a scheme of _LINEAR_MEAN_KINDS on R^d: mu_x = c x,
    and Lambda from the coordinate second moments v()."""
    if scheme.kind == "additive-noise":
        return 1.0, scheme.sigma_aug ** 2 * np.eye(d)
    c = scheme.keep_prob  # a masking scheme's replacement is 0
    return c, _masking_lambda(v(), c, scheme.replacement)


def _batch_closed_moments(scheme, X, Y):
    d, n = X.shape
    q = Y.shape[0]
    if scheme.kind in _LINEAR_MEAN_KINDS:
        c, LambdaBar = _linear_mean_lambda(scheme, d, lambda: (X * X).mean(1))
        return c * X, Y.copy(), LambdaBar, np.zeros((d, q))
    MuX = np.empty((d, n))
    MuY = np.empty((q, n))
    LambdaBar = np.zeros((d, d))
    OmegaBar = np.zeros((d, q))
    for i in range(n):
        mu_x, mu_y, Lam, Om = closed_moments(scheme, (X[:, i], Y[:, i]))
        MuX[:, i] = mu_x
        MuY[:, i] = np.atleast_1d(mu_y)
        LambdaBar += symmetrize(Lam)
        OmegaBar += np.atleast_2d(Om)
    return MuX, MuY, LambdaBar / n, OmegaBar / n


@dataclass
class MomentSet:
    """Population first/second-order blocks feeding the equivalents.

    SigmaStar is the cross-covariance E[phi_star(X) phi(X)^T] (p_star x p);
    SigmaStar and SigmaStarStar are None in empirical-plugin mode (no truth
    map available). PsiSecond has shape (q, 2, 2) with per-output entries
    [[E[Y^2], E[Y mu_y]], [E[Y mu_y], E[mu_y^2]]].
    """

    Sigma: np.ndarray
    SigmaPrime: np.ndarray
    SigmaDoublePrime: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    G3: np.ndarray
    G4: np.ndarray
    PsiSecond: np.ndarray
    LambdaBar: np.ndarray
    OmegaBar: np.ndarray
    SigmaStar: np.ndarray | None = None
    SigmaStarStar: np.ndarray | None = None
    n_mc_used: int = 0
    provenance: str = "closed-form"

    @property
    def q(self):
        return self.G1.shape[1]


CHUNK = 512  # data columns per estimation block


def _check_finite(blocks):
    """Raise NumericalFailureError naming the first block with a
    non-finite entry (an overflow near 1e308 in the data or the truth)."""
    for name, M in blocks.items():
        if not np.all(np.isfinite(M)):
            raise NumericalFailureError(
                f"moment set block {name} has a non-finite entry")


def estimate_moment_set(feature_map, truth_map, scheme, take, total,
                        n_mc_aug, rng, theta_star=None, noise_sigma2=None):
    """Estimate every MomentSet block by Monte-Carlo averaging over `total`
    data columns, read in blocks of CHUNK columns: ``take(a, b)`` returns
    the columns a..b-1 as (X: d x (b-a), Y: q x (b-a)). When truth_map is
    None the SigmaStar blocks are omitted and provenance is
    "empirical-plugin".

    When theta_star and noise_sigma2 are given (synthetic well-known truth)
    and the scheme is label-preserving (its parameters are constants, so
    none depends on y), label noise is integrated out analytically: the G
    blocks use the conditional mean theta_star^T phi_star(X) in place of Y,
    and PsiSecond adds noise_sigma2 exactly. This removes the label-noise
    Monte-Carlo error without changing the estimand.
    """
    if total < 2:
        raise InsufficientSamplesError("n_mc_data >= 2 required")
    condition_labels = (
        theta_star is not None
        and truth_map is not None
        and noise_sigma2 is not None
        and scheme.label_preserving
    )
    if condition_labels:
        theta_star = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
    sums = {}  # MomentSet field -> sum over the columns read so far

    def add(name, block):
        if name not in sums:
            sums[name] = np.zeros(block.shape)
        sums[name] += block

    for a in range(0, total, CHUNK):
        X, Y = take(a, min(a + CHUNK, total))
        Phi = apply_features(feature_map, X)
        MuX, MuY, Lam_c, Om_c = batch_sample_moments(
            scheme, feature_map, X, Y, n_mc_aug, rng
        )
        if truth_map is not None:
            PhiStar = apply_features(truth_map, X)
            add("SigmaStar", PhiStar @ Phi.T)
            add("SigmaStarStar", PhiStar @ PhiStar.T)
        if condition_labels:
            Y = MuY = theta_star.T @ PhiStar
        for name, (A, B) in (
            ("Sigma", (Phi, Phi)), ("SigmaPrime", (Phi, MuX)),
            ("SigmaDoublePrime", (MuX, MuX)), ("G1", (Phi, Y)),
            ("G2", (Phi, MuY)), ("G3", (MuX, Y)), ("G4", (MuX, MuY)),
        ):
            add(name, A @ B.T)
        # per output [[sum Y^2, sum Y mu_y], [sum Y mu_y, sum mu_y^2]]
        P = np.stack([Y, MuY])
        add("PsiSecond", (P[:, None] * P[None]).sum(-1).transpose(2, 0, 1))
        add("LambdaBar", X.shape[1] * Lam_c)
        add("OmegaBar", X.shape[1] * Om_c)

    for M in sums.values():
        M /= total
    if feature_map.kind != "identity":
        # remove the O(1/n_mc_aug) bias of mu_hat outer products
        sums["SigmaDoublePrime"] -= sums["LambdaBar"] / n_mc_aug
        sums["G4"] -= sums["OmegaBar"] / n_mc_aug
    if condition_labels:
        sums["PsiSecond"] += float(noise_sigma2)
    _check_finite(sums)
    for name in ("Sigma", "SigmaDoublePrime", "LambdaBar", "SigmaStarStar"):
        if name in sums:
            sums[name] = psd_clip(sums[name])
    return MomentSet(
        **sums,
        n_mc_used=total,
        provenance="empirical-plugin" if truth_map is None else "monte-carlo",
    )


def closed_population_moment_set(Sigma, scheme, theta_star, sigma2):
    """Exact population MomentSet for identity features, identity truth
    map, centered data with covariance Sigma, and a label-preserving scheme
    whose mean map is mu_x = c x.

    Supported kinds: additive-noise (c = 1, exactly well specified),
    masking and salt-and-pepper (c = keep_prob). Every block is an exact
    formula, so no Monte-Carlo error enters the equivalents.
    """
    if scheme.kind not in _LINEAR_MEAN_KINDS:
        raise InvalidParameterError(
            "closed-form moments need an additive-noise, masking or "
            f"salt-and-pepper scheme, got {scheme.kind!r}")
    Sigma = np.asarray(Sigma, dtype=float)
    p = Sigma.shape[0]
    theta = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
    q = theta.shape[1]
    c, LambdaBar = _linear_mean_lambda(scheme, p, lambda: np.diag(Sigma))
    G1 = Sigma @ theta
    ey2 = np.einsum("ij,ik,kj->j", theta, Sigma, theta) + sigma2
    Psi = np.empty((q, 2, 2))
    Psi[:] = ey2[:, None, None]
    blocks = dict(
        Sigma=Sigma,
        SigmaPrime=c * Sigma,
        SigmaDoublePrime=c * c * Sigma,
        G1=G1, G2=G1, G3=c * G1, G4=c * G1,
        PsiSecond=Psi,
        LambdaBar=LambdaBar,
        OmegaBar=np.zeros((p, q)),
        SigmaStar=Sigma.copy(),
        SigmaStarStar=Sigma.copy(),
    )
    _check_finite(blocks)
    return MomentSet(**blocks, n_mc_used=0, provenance="closed-form")
