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
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyInputError, InsufficientSamplesError
from .features import FeatureMap, apply_features
from .schemes import (
    AugmentationScheme,
    _constant_params,
    _masking_lambda,
    closed_moments,
    sample_augmented,
    sample_augmented_batch,
)


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


@dataclass(frozen=True)
class PerSampleMoments:
    mu_x: np.ndarray
    mu_y: np.ndarray
    Lambda: np.ndarray
    Omega: np.ndarray


def per_sample_moments(scheme, feature_map, z, n_mc, rng) -> PerSampleMoments:
    """Moments of one datum, by closed form (identity features + scheme
    formulas) or Monte-Carlo over n_mc augmentation draws."""
    x, y = z
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if feature_map.kind == "identity" and scheme.has_closed_moments:
        mu_x, mu_y, Lam, Om = closed_moments(scheme, (np.asarray(x, float), y))
        return PerSampleMoments(mu_x, np.atleast_1d(mu_y), symmetrize(Lam),
                                np.atleast_2d(Om))
    if n_mc < 2:
        raise InsufficientSamplesError(
            "n_mc >= 2 required without a closed form"
        )
    q = y.shape[0]
    draws_x = np.empty((feature_map.output_dim, n_mc))
    draws_y = np.empty((q, n_mc))
    for t in range(n_mc):
        xp, yp = sample_augmented(scheme, z, rng)
        draws_x[:, t] = apply_features(feature_map, xp)
        draws_y[:, t] = yp
    mu_x = draws_x.mean(axis=1)
    cx = draws_x - mu_x[:, None]
    Lam = symmetrize(cx @ cx.T / (n_mc - 1))
    if scheme.label_preserving:
        mu_y = y.copy()
        Om = np.zeros((feature_map.output_dim, q))
    else:
        mu_y = draws_y.mean(axis=1)
        cy = draws_y - mu_y[:, None]
        Om = cx @ cy.T / (n_mc - 1)
    return PerSampleMoments(mu_x, mu_y, Lam, Om)


def empirical_lambda_omega(moments):
    """Arithmetic means Lambda(Z) and Omega(Z) over per-sample moments."""
    moments = list(moments)
    if not moments:
        raise EmptyInputError("need at least one per-sample moment")
    Lam = sum(m.Lambda for m in moments) / len(moments)
    Om = sum(m.Omega for m in moments) / len(moments)
    return Lam, Om


def batch_sample_moments(scheme, feature_map, X, Y, n_mc, rng):
    """Vectorized per-sample moments of all columns of (X, Y).

    Returns (MuX: p x n, MuY: q x n, LambdaBar: p x p, OmegaBar: p x q)
    where LambdaBar, OmegaBar are the empirical averages over the n
    samples (unbiased per-sample normalization). Closed forms are used for
    identity features when available; otherwise n_mc Monte-Carlo draws per
    sample, pushed through the feature map in one batch.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    d, n = X.shape
    q = Y.shape[0]
    p = feature_map.output_dim
    if feature_map.kind == "identity" and scheme.has_closed_moments:
        return _batch_closed_moments(scheme, X, Y)
    if n_mc < 2:
        raise InsufficientSamplesError(
            "n_mc >= 2 required without a closed form"
        )
    Xa, Ya = sample_augmented_batch(scheme, X, Y, n_mc, rng)
    Pa = apply_features(feature_map, Xa)
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
    """(c, Lambda) of a constant-parameter scheme of _LINEAR_MEAN_KINDS on
    R^d: mu_x = c x, and Lambda from the coordinate second moments v()."""
    if scheme.kind == "additive-noise":
        return 1.0, scheme.sigma_aug ** 2 * np.eye(d)
    c = float(scheme.keep_prob)
    s = scheme.replacement if scheme.kind == "salt-and-pepper" else 0.0
    return c, _masking_lambda(v(), c, s)


def _batch_closed_moments(scheme, X, Y):
    d, n = X.shape
    q = Y.shape[0]
    if _constant_params(scheme) and scheme.kind in _LINEAR_MEAN_KINDS:
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
    def p(self):
        return self.Sigma.shape[0]

    @property
    def q(self):
        return self.G1.shape[1]

    def check(self, rel_tol=1e-8):
        """Assert symmetry/PSD invariants; returns self for chaining."""
        for name in ("Sigma", "SigmaDoublePrime", "SigmaStarStar"):
            M = getattr(self, name)
            if M is None:
                continue
            if not np.allclose(M, M.T, atol=1e-10):
                raise ValueError(f"{name} not symmetric")
            w = np.linalg.eigvalsh(symmetrize(M))
            if w[0] < -rel_tol * max(w[-1], 1e-300):
                raise ValueError(f"{name} not PSD: min eig {w[0]:.3e}")
        for j in range(self.PsiSecond.shape[0]):
            w = np.linalg.eigvalsh(self.PsiSecond[j])
            if w[0] < -rel_tol * max(w[-1], 1e-300):
                raise ValueError(f"PsiSecond[{j}] not PSD: {w[0]:.3e}")
        return self

    def stacked_second_moment(self):
        """The 2p x 2p block matrix [[Sigma, SigmaPrime],
        [SigmaPrime^T, SigmaDoublePrime]]; PSD by construction."""
        return np.block([
            [self.Sigma, self.SigmaPrime],
            [self.SigmaPrime.T, self.SigmaDoublePrime],
        ])

    def save(self, path):
        """Every field that is not None, one .npz entry each."""
        blocks = {f.name: getattr(self, f.name) for f in fields(self)}
        np.savez(path, **{k: v for k, v in blocks.items() if v is not None})

    @classmethod
    def load(cls, path):
        with np.load(path, allow_pickle=False) as z:
            kw = {k: z[k] for k in z.files
                  if k not in ("n_mc_used", "provenance")}
            return cls(**kw, n_mc_used=int(z["n_mc_used"]),
                       provenance=str(z["provenance"]))


def estimate_moment_set(
    feature_map,
    truth_map,
    scheme,
    source,
    n_mc_data,
    n_mc_aug,
    rng,
    theta_star=None,
    noise_sigma2=None,
    chunk=512,
):
    """Estimate every MomentSet block by Monte-Carlo averaging.

    source is either a callable ``(n, rng) -> (X, Y)`` drawing fresh data,
    or a fixed ``(X, Y)`` dataset (then n_mc_data is ignored and the whole
    dataset is used). When truth_map is None the SigmaStar blocks are
    omitted and provenance is "empirical-plugin".

    When theta_star and noise_sigma2 are given (synthetic well-known truth)
    and the scheme is label-preserving with parameters independent of y,
    label noise is integrated out analytically: the G blocks use the
    conditional mean theta_star^T phi_star(X) in place of Y, and PsiSecond
    adds noise_sigma2 exactly. This removes the label-noise Monte-Carlo
    error without changing the estimand.
    """
    fixed = not callable(source)
    if fixed:
        X_all = np.asarray(source[0], dtype=float)
        Y_all = np.atleast_2d(np.asarray(source[1], dtype=float))
        total = X_all.shape[1]
    else:
        total = int(n_mc_data)
    if total < 2:
        raise InsufficientSamplesError("n_mc_data >= 2 required")
    p = feature_map.output_dim
    condition_labels = (
        theta_star is not None
        and truth_map is not None
        and noise_sigma2 is not None
        and scheme.label_preserving
        and _constant_params(scheme)
    )
    theta_star = None if theta_star is None else np.atleast_2d(
        np.asarray(theta_star, dtype=float).T
    ).T
    # probe q from one sample
    if fixed:
        q = Y_all.shape[0]
    elif theta_star is not None:
        q = theta_star.shape[1]
    else:
        Xp, Yp = source(1, rng)
        q = np.atleast_2d(np.asarray(Yp)).shape[0]
    ps = truth_map.output_dim if truth_map is not None else 0

    Sigma = np.zeros((p, p))
    SigmaPrime = np.zeros((p, p))
    SigmaDouble = np.zeros((p, p))
    G = [np.zeros((p, q)) for _ in range(4)]
    Psi = np.zeros((q, 2, 2))
    LambdaBar = np.zeros((p, p))
    OmegaBar = np.zeros((p, q))
    SigmaStar = np.zeros((ps, p)) if truth_map is not None else None
    SigmaStarStar = np.zeros((ps, ps)) if truth_map is not None else None

    closed = feature_map.kind == "identity" and scheme.has_closed_moments
    done = 0
    while done < total:
        m = min(chunk, total - done)
        if fixed:
            X = X_all[:, done:done + m]
            Y = Y_all[:, done:done + m]
        else:
            X, Y = source(m, rng)
            Y = np.atleast_2d(np.asarray(Y, dtype=float))
        Phi = apply_features(feature_map, X)
        MuX, MuY, Lam_c, Om_c = batch_sample_moments(
            scheme, feature_map, X, Y, n_mc_aug, rng
        )
        if condition_labels:
            Yc = theta_star.T @ apply_features(truth_map, X)
            MuYc = Yc
        else:
            Yc = Y
            MuYc = MuY
        Sigma += Phi @ Phi.T
        SigmaPrime += Phi @ MuX.T
        SigmaDouble += MuX @ MuX.T
        G[0] += Phi @ Yc.T
        G[1] += Phi @ MuYc.T
        G[2] += MuX @ Yc.T
        G[3] += MuX @ MuYc.T
        Psi[:, 0, 0] += np.sum(Yc * Yc, axis=1)
        Psi[:, 0, 1] += np.sum(Yc * MuYc, axis=1)
        Psi[:, 1, 1] += np.sum(MuYc * MuYc, axis=1)
        LambdaBar += m * Lam_c
        OmegaBar += m * Om_c
        if truth_map is not None:
            PhiStar = apply_features(truth_map, X)
            SigmaStar += PhiStar @ Phi.T
            SigmaStarStar += PhiStar @ PhiStar.T
        done += m

    for M in (Sigma, SigmaPrime, SigmaDouble, LambdaBar, OmegaBar, Psi, *G):
        M /= total
    if SigmaStar is not None:
        SigmaStar /= total
        SigmaStarStar /= total
    if not closed:
        # remove the O(1/n_mc_aug) bias of mu_hat outer products
        SigmaDouble -= LambdaBar / n_mc_aug
        G[3] -= OmegaBar / n_mc_aug
    if condition_labels:
        Psi[:, 0, 0] += float(noise_sigma2)
        Psi[:, 0, 1] += float(noise_sigma2)
        Psi[:, 1, 1] += float(noise_sigma2)
    Psi[:, 1, 0] = Psi[:, 0, 1]

    provenance = "empirical-plugin" if truth_map is None else "monte-carlo"
    return MomentSet(
        Sigma=psd_clip(Sigma),
        SigmaPrime=SigmaPrime,
        SigmaDoublePrime=psd_clip(SigmaDouble),
        G1=G[0], G2=G[1], G3=G[2], G4=G[3],
        PsiSecond=Psi,
        LambdaBar=psd_clip(LambdaBar),
        OmegaBar=OmegaBar,
        SigmaStar=SigmaStar,
        SigmaStarStar=None if SigmaStarStar is None else psd_clip(SigmaStarStar),
        n_mc_used=total,
        provenance=provenance,
    )


def closed_population_moment_set(Sigma, scheme, theta_star, sigma2):
    """Exact population MomentSet for identity features, identity truth
    map, centered data with covariance Sigma, and a constant-parameter
    label-preserving scheme whose mean map is mu_x = c x.

    Supported kinds: additive-noise (c = 1, exactly well specified),
    masking and salt-and-pepper with constant keep probability
    (c = keep_prob). Every block is an exact formula, so no Monte-Carlo
    error enters the equivalents.
    """
    if scheme.kind not in _LINEAR_MEAN_KINDS or not _constant_params(scheme):
        raise ValueError("need a constant-parameter additive-noise, masking "
                         f"or salt-and-pepper scheme, got {scheme.kind!r}")
    Sigma = np.asarray(Sigma, dtype=float)
    p = Sigma.shape[0]
    theta = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
    q = theta.shape[1]
    c, LambdaBar = _linear_mean_lambda(scheme, p, lambda: np.diag(Sigma))
    G1 = Sigma @ theta
    ey2 = np.einsum("ij,ik,kj->j", theta, Sigma, theta) + sigma2
    Psi = np.empty((q, 2, 2))
    Psi[:] = ey2[:, None, None]
    return MomentSet(
        Sigma=Sigma,
        SigmaPrime=c * Sigma,
        SigmaDoublePrime=c * c * Sigma,
        G1=G1, G2=G1, G3=c * G1, G4=c * G1,
        PsiSecond=Psi,
        LambdaBar=LambdaBar,
        OmegaBar=np.zeros((p, q)),
        SigmaStar=Sigma.copy(),
        SigmaStarStar=Sigma.copy(),
        n_mc_used=0,
        provenance="closed-form",
    )
