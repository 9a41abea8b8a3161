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
  from mu_hat are debiased by subtracting LambdaBar/n_mc (OmegaBar/n_mc,
  and the label variance/n_mc);
- label-preserving schemes use mu_y = y exactly and Omega = 0 without
  sampling;
- a replicate draws the config's n_mc_aug augmentations per sample, which
  define its estimator; a population moment set draws DRAWS per data
  column: the debias keeps every block unbiased at any n_mc >= 2, so few
  draws add only Monte-Carlo error, which the data columns average out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError, NumericalFailureError
from .features import apply_features
from .schemes import closed_moments, label_variance, sample_augmented_batch


def symmetrize(M):
    return 0.5 * (M + M.T)


def psd_clip(M, scale=0.0):
    """Symmetrize and clip negative eigenvalues to zero.

    An eigenvalue below -1e-8 times the larger of M's largest eigenvalue
    and `scale` (the size of M's moment set) is more than rounding and
    triggers a warning; the clipped matrix is returned either way.
    """
    M = symmetrize(np.asarray(M, dtype=float))
    w, V = np.linalg.eigh(M)
    top = max(w[-1], 0.0)
    if w[0] < -1e-8 * max(top, scale, 1e-300):
        warnings.warn(
            f"clipping eigenvalue {w[0]:.3e} (largest {top:.3e}) to zero"
        )
    if w[0] >= 0:
        return M
    w = np.clip(w, 0.0, None)
    return symmetrize((V * w) @ V.T)


def batch_sample_moments(scheme, feature_map, X, Y, n_mc, rng):
    """Vectorized per-sample moments of all columns of (X, Y).

    Returns (MuX: p x n, MuY: q x n, LambdaBar: p x p, OmegaBar: p x q,
    draws) where LambdaBar, OmegaBar are the empirical averages over the n
    samples (unbiased per-sample normalization). Identity features take
    the closed form of schemes.closed_moments, with the batch's coordinate
    second moments and second-moment matrix, and draws = 0; otherwise
    draws = n_mc Monte-Carlo draws per sample, pushed through the feature
    map in one batch. One column gives the moments of one datum.

    The draws and the feature map run in float32 (the kernel's values
    carry a Monte-Carlo error far above its rounding). The means are
    accumulated in float64, each Gram product is one float32 GEMM whose
    small result is cast to float64, and every debias subtraction (here,
    in ridge.assemble_design and in estimate_moment_set) is in float64.
    All the returned blocks are float64.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[1]
    q = Y.shape[0]
    p = feature_map.output_dim
    if feature_map.kind == "identity":
        c, LambdaBar, OmegaBar = closed_moments(
            scheme, (X * X).mean(1), lambda: X @ X.T / n, q)
        return c * X, Y.copy(), LambdaBar, OmegaBar, 0
    if n_mc < 2:
        raise InsufficientSamplesError(
            "n_mc >= 2 required without a closed form"
        )
    Xa, Ya = sample_augmented_batch(scheme, X, Y, n_mc, rng)
    Pa = apply_features(feature_map, Xa)
    del Xa  # freed before the Gram products
    MuX = Pa.reshape(p, n, n_mc).mean(axis=2, dtype=float)
    # mean of per-sample unbiased covariances, via one GEMM:
    # (n_mc/(n_mc-1)) [ (1/(n n_mc)) sum phi phi^T - (1/n) sum mu mu^T ]
    S = (Pa @ Pa.T).astype(float) / (n * n_mc)
    M = MuX @ MuX.T / n
    LambdaBar = symmetrize(n_mc / (n_mc - 1) * (S - M))
    if scheme.label_preserving:
        MuY = Y.copy()
        OmegaBar = np.zeros((p, q))
    else:
        MuY = Ya.reshape(q, n, n_mc).mean(axis=2)
        # Ya in float32 too: a float64 operand would promote all of Pa
        Sxy = (Pa @ Ya.T.astype(np.float32)).astype(float) / (n * n_mc)
        Mxy = MuX @ MuY.T / n
        OmegaBar = n_mc / (n_mc - 1) * (Sxy - Mxy)
    return MuX, MuY, LambdaBar, OmegaBar, n_mc


@dataclass
class MomentSet:
    """Population first/second-order blocks feeding the equivalents.

    PsiSecond has shape (q, 2, 2) with per-output entries
    [[E[Y^2], E[Y mu_y]], [E[Y mu_y], E[mu_y^2]]]. The truth enters only
    through G1 = E[phi(X) Y^T] and E[Y^2] = PsiSecond[:, 0, 0]: the risk
    of any theta is E[Y^2] - 2 G1^T theta + theta^T Sigma theta, whatever
    the data source.
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
    n_mc_used: int = 0
    provenance: str = "closed-form"

    @property
    def q(self):
        return self.G1.shape[1]


CHUNK = 512  # data columns per estimation block
DRAWS = 10  # augmentations per data column of a Monte-Carlo moment set


# the largest magnitude whose square is finite
_LARGEST = float(np.sqrt(np.finfo(float).max))


def _check_finite(blocks):
    """Raise NumericalFailureError naming the first block with an entry
    that is not finite or whose square is not (an overflow near 1e308 in
    the data or the truth): the risk statistics square quantities of a
    block's size, such as E[Y^2] in the replicates' spread."""
    for name, M in blocks.items():
        if not np.abs(M).max() <= _LARGEST:
            raise NumericalFailureError(
                f"moment set block {name} has a non-finite entry or square")


def estimate_moment_set(feature_map, truth_map, scheme, take, total, rng,
                        theta_star=None, noise_sigma2=None):
    """Estimate every MomentSet block by Monte-Carlo averaging over `total`
    data columns, read in blocks of CHUNK columns: ``take(a, b)`` returns
    the columns a..b-1 as (X: d x (b-a), Y: q x (b-a)). provenance is
    "empirical-plugin" when truth_map is None (labels read from the data),
    "monte-carlo" otherwise.

    Each column's augmentation moments come from DRAWS draws (none with
    identity features). The blocks built from two estimated means
    (SigmaDoublePrime, G4 and E[mu_y^2] in PsiSecond) are debiased by the
    draw count the chunks report: LambdaBar/draws, OmegaBar/draws and
    schemes.label_variance/draws, so every block is unbiased.

    When theta_star and noise_sigma2 are given (synthetic well-known truth)
    and the scheme is label-preserving (its parameters are constants, so
    none depends on y), label noise is integrated out analytically: the G
    blocks use the conditional mean theta_star^T phi_star(X) in place of Y,
    and PsiSecond adds noise_sigma2 exactly. This removes the label-noise
    Monte-Carlo error without changing the estimand. G1 is then
    E[phi phi_star^T] theta_star and PsiSecond[:, 0, 0] - noise_sigma2 is
    theta_star^T E[phi_star phi_star^T] theta_star over the same columns,
    which is all of the truth the risk needs. Labels of a label-changing
    scheme, or without a truth map, are read from the data, so G1 and
    E[Y^2] carry their Monte-Carlo error.
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
        MuX, MuY, Lam_c, Om_c, draws = batch_sample_moments(
            scheme, feature_map, X, Y, DRAWS, rng
        )
        if condition_labels:
            Y = MuY = theta_star.T @ apply_features(truth_map, X)
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
    if draws:
        # remove the O(1/draws) bias of mu_hat outer products
        sums["SigmaDoublePrime"] -= sums["LambdaBar"] / draws
        sums["G4"] -= sums["OmegaBar"] / draws
        sums["PsiSecond"][:, 1, 1] -= (
            label_variance(scheme, sums["G1"].shape[1]) / draws)
    if condition_labels:
        sums["PsiSecond"] += float(noise_sigma2)
    _check_finite(sums)
    sums["Sigma"] = psd_clip(sums["Sigma"])
    # the other blocks' rounding is relative to the size of Sigma
    scale = float(np.linalg.eigvalsh(sums["Sigma"])[-1])
    for name in ("SigmaDoublePrime", "LambdaBar"):
        sums[name] = psd_clip(sums[name], scale)
    return MomentSet(
        **sums,
        n_mc_used=total,
        provenance="empirical-plugin" if truth_map is None else "monte-carlo",
    )


def closed_population_moment_set(Sigma, scheme, theta_star, sigma2):
    """Exact population MomentSet for identity features, identity truth
    map and centered data with covariance Sigma, for any scheme.

    schemes.closed_moments gives (c, LambdaBar, OmegaBar) with
    v = diag Sigma and S = Sigma; then Sigma' = c Sigma, Sigma'' = c^2 Sigma,
    G1 = G2 = Sigma theta*, G3 = G4 = c G1, and PsiSecond is E[Y^2] in
    every entry (mu_y = y). Every block is an exact formula, so no
    Monte-Carlo error enters the equivalents.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    theta = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
    q = theta.shape[1]
    c, LambdaBar, OmegaBar = closed_moments(scheme, np.diag(Sigma),
                                            lambda: Sigma, q)
    G1 = Sigma @ theta
    # theta^T Sigma theta per output: ridge.quadratic_form with its GEMM
    # already done as G1
    ey2 = np.einsum("ij,ij->j", theta, G1) + sigma2
    Psi = np.empty((q, 2, 2))
    Psi[:] = ey2[:, None, None]
    blocks = dict(
        Sigma=Sigma,
        SigmaPrime=c * Sigma,
        SigmaDoublePrime=c * c * Sigma,
        G1=G1, G2=G1, G3=c * G1, G4=c * G1,
        PsiSecond=Psi,
        LambdaBar=LambdaBar,
        OmegaBar=OmegaBar,
    )
    _check_finite(blocks)
    return MomentSet(**blocks, n_mc_used=0, provenance="closed-form")
