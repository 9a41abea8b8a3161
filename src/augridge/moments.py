"""Per-sample and population augmentation moments in feature space.

Per-sample moments are mu_x(z) = E[phi(tau_x(z, eta))], mu_y(z) =
E[tau_y(z, eta)] and the covariances Lambda(z) = Cov[phi(tau_x)],
Omega(z) = Cov[phi(tau_x), tau_y]. The MomentSet gathers the blocks of a
population or of a replicate's sample, and checks their shapes,
finiteness and exact symmetry where it is made, so no reader repeats it.

Monte-Carlo estimation notes:

- per-sample covariances use the unbiased 1/(n_mc - 1) normalization and
  explicit symmetrization;
- the estimated mean mu_hat over n_mc draws satisfies
  E[mu_hat mu_hat^T] = mu mu^T + Lambda/n_mc, so SigmaDoublePrime, the one
  block built from two estimated means, is debiased by subtracting
  LambdaBar/n_mc; the label blocks read y itself and need no debias;
- label-preserving schemes use mu_y = y exactly and Omega = 0 without
  sampling; every scheme has mu_y = y in population, so the moment set
  reads its label blocks from y alone;
- a replicate draws the config's n_mc_aug augmentations per sample, which
  define its estimator; a population moment set draws DRAWS per data
  column: the debias keeps every block unbiased at any n_mc >= 2, so few
  draws add only Monte-Carlo error, which the data columns average out;
- each data column's draws come from a child generator spawned from the
  caller's (schemes.sample_augmented_batch): the caller's bits do not
  advance, so the data draws that share its generator are the same
  whatever the augmentation draws, and no block depends on the
  sampler's thread count or task size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (InsufficientSamplesError, InvalidDimensionError,
                     NumericalFailureError, PreconditionViolationError)
from .features import apply_features
from .schemes import closed_moments, sample_augmented_batch


def symmetrize(M):
    return 0.5 * (M + M.T)


def psd_clip(M, floor=0.0):
    """Symmetrize and clip negative eigenvalues to zero.

    An eigenvalue below -1e-8 times M's largest eigenvalue, or below
    -floor (the rounding the caller's M carries, see estimate_moment_set),
    is more than rounding and triggers a warning; the clipped matrix is
    returned either way.
    """
    M = symmetrize(np.asarray(M, dtype=float))
    w, V = np.linalg.eigh(M)
    top = max(w[-1], 0.0)
    if w[0] < -max(1e-8 * top, floor, 1e-308):
        warnings.warn(
            f"clipping eigenvalue {w[0]:.3e} (largest {top:.3e}) to zero"
        )
    if w[0] >= 0:
        return M
    w = np.clip(w, 0.0, None)
    return symmetrize((V * w) @ V.T)


def batch_sample_moments(scheme, feature_map, X, Y, n_mc, rng):
    """Vectorized per-sample moments of all columns of (X, Y).

    Returns (MuX: p x n, LambdaBar: p x p, OmegaBar: p x q, draws, scale)
    where LambdaBar, OmegaBar are the empirical averages over the n samples
    (unbiased per-sample normalization); mu_y = y is not estimated.
    Identity features take the closed form of schemes.closed_moments, with
    the batch's coordinate second moments and second-moment matrix: MuX =
    c X, draws = 0 and scale = c; otherwise n_mc draws per sample go
    through the feature map in one batch, and scale is None. One column
    gives the moments of one datum.

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
        return c * X, LambdaBar, OmegaBar, 0, c
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
        OmegaBar = np.zeros((p, q))
    else:
        MuY = Ya.reshape(q, n, n_mc).mean(axis=2)
        # Ya in float32 too: a float64 operand would promote all of Pa
        Sxy = (Pa @ Ya.T.astype(np.float32)).astype(float) / (n * n_mc)
        Mxy = MuX @ MuY.T / n
        OmegaBar = n_mc / (n_mc - 1) * (Sxy - Mxy)
    return MuX, LambdaBar, OmegaBar, n_mc, None


# the largest magnitude whose square is finite
_LARGEST = float(np.sqrt(np.finfo(float).max))
# each block's shape in p (features) and q (outputs); "pp" is symmetric
_SHAPES = dict(Sigma="pp", SigmaPrime="pp", SigmaDoublePrime="pp", G1="pq",
               G3="pq", EY2="q", LambdaBar="pp", OmegaBar="pq")
PROVENANCES = ("closed-form", "monte-carlo", "empirical-plugin", "sample")


@dataclass(frozen=True)
class MomentSet:
    """First/second-order blocks of a population, feeding the equivalents,
    or of a replicate's n columns (ridge.assemble_design), feeding its fit.

    Sigma = E[phi phi^T], SigmaPrime = sym E[phi mu_x^T] (the systems
    read only b12 (Sigma' + Sigma'^T)), SigmaDoublePrime = E[mu_x mu_x^T],
    G1 = E[phi(X) Y^T], G3 = E[mu_x Y^T] and EY2 = E[Y^2] (length q).
    Every scheme has mu_y = y (schemes), so E[phi mu_y^T] = G1,
    E[mu_x mu_y^T] = G3 and every second moment of (Y, mu_y) is EY2. The
    truth enters only through G1 and EY2: the risk of any theta is
    E[Y^2] - 2 G1^T theta + theta^T Sigma theta, whatever the data source.

    Frozen, the set checks itself where it is made and in replace: p x p,
    p x q and length-q shapes (InvalidDimensionError), every entry and
    its square finite (NumericalFailureError), and the p x p blocks
    exactly symmetric, the provenance one of PROVENANCES and, at a scale
    c (identity features, mu_x = c x), Sigma' = c Sigma and Sigma'' =
    c c Sigma exactly (PreconditionViolationError). Only a replicate's set
    ("sample") has SigmaPrime = None, read through sigma_prime(): its
    fit's system has b12 = 0, and forming it costs a p x n x p product.
    """

    Sigma: np.ndarray
    SigmaPrime: np.ndarray | None
    SigmaDoublePrime: np.ndarray
    G1: np.ndarray
    G3: np.ndarray
    EY2: np.ndarray
    LambdaBar: np.ndarray
    OmegaBar: np.ndarray
    n_mc_used: int = 0
    provenance: str = "closed-form"
    scale: float | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise PreconditionViolationError(
                f"moment set provenance {self.provenance!r} is not one of "
                f"{', '.join(PROVENANCES)}")
        if self.SigmaPrime is None and self.provenance != "sample":
            raise PreconditionViolationError(
                f"a {self.provenance} moment set needs SigmaPrime")
        size = dict(zip("pq", np.shape(self.G1)))
        for name, form in _SHAPES.items():
            M, shape = getattr(self, name), tuple(size.get(c, 0) for c in form)
            if M is None:
                continue
            what = f"moment set block {name}"
            if 0 in shape or np.shape(M) != shape:
                raise InvalidDimensionError(
                    f"{what} has shape {np.shape(M)}, not {shape}")
            if not (M.min() >= -_LARGEST and M.max() <= _LARGEST):
                raise NumericalFailureError(
                    f"{what} has a non-finite entry or square")
            if form == "pp" and not np.array_equal(M, M.T):
                raise PreconditionViolationError(f"{what} is not symmetric")
        c = self.scale
        if c is not None and not all(
                M is None or np.array_equal(M, w * self.Sigma)
                for M, w in ((self.SigmaPrime, c), (self.SigmaDoublePrime,
                                                    c * c))):
            raise PreconditionViolationError(
                f"a moment set of scale {c!r} needs SigmaPrime = c Sigma "
                "and SigmaDoublePrime = c c Sigma")

    @property
    def q(self):
        return self.G1.shape[1]

    def sigma_prime(self):
        """SigmaPrime, which a replicate's set does not have."""
        if self.SigmaPrime is None:
            raise PreconditionViolationError(
                "a sample moment set has no SigmaPrime (b12 = 0 only)")
        return self.SigmaPrime


CHUNK = 512  # data columns per estimation block
DRAWS = 10  # augmentations per data column of a Monte-Carlo moment set
# A Monte-Carlo block's rounding relative to its moment set's size: the
# CHUNK * DRAWS float32 terms (draws, features, sgemm products) a chunk
# sums, each rounded within float32's epsilon, add up as a random walk to
# sqrt(CHUNK * DRAWS) eps = 8.5e-6
_KERNEL_ROUNDING = float(np.sqrt(CHUNK * DRAWS) * np.finfo(np.float32).eps)


def estimate_moment_set(feature_map, truth_map, scheme, take, total, rng,
                        theta_star=None, noise_sigma2=None):
    """Estimate every MomentSet block by averaging over `total` data
    columns, read in blocks of CHUNK columns: ``take(a, b)`` returns the
    columns a..b-1 as (X: d x (b-a), Y: q x (b-a)). provenance is
    "empirical-plugin" when truth_map is None (labels read from the data),
    "monte-carlo" otherwise.

    Identity features sum only X X^T, X Y^T and Y^2: identity_moment_set
    of their averages needs no clip, a Gram having no negative eigenvalue.
    Otherwise each column's augmentation moments come from DRAWS draws,
    and SigmaDoublePrime, built from two estimated means, is debiased by
    LambdaBar/draws, so every block is unbiased. The label blocks read Y
    itself: mu_y = y for every scheme.

    When theta_star and noise_sigma2 are given (synthetic well-known truth),
    label noise is integrated out analytically: Y is its conditional mean
    theta_star^T phi_star(X), and EY2 adds noise_sigma2 exactly. This
    removes the label-noise Monte-Carlo error without changing the
    estimand, for every scheme: the blocks read Y, never the augmented
    labels, and tau_x does not depend on the label noise. Without a truth
    map the labels are read from the data, so G1, G3 and EY2 carry their
    Monte-Carlo error.
    """
    if total < 2:
        raise InsufficientSamplesError("n_mc_data >= 2 required")
    condition_labels = all(v is not None for v in
                           (theta_star, truth_map, noise_sigma2))
    if condition_labels:
        theta_star = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
    provenance = "empirical-plugin" if truth_map is None else "monte-carlo"
    identity = feature_map.kind == "identity"
    sums = {}  # MomentSet field -> sum over the columns read so far

    def add(name, block):
        if name not in sums:
            sums[name] = np.zeros(block.shape)
        sums[name] += block

    for a in range(0, total, CHUNK):
        X, Y = take(a, min(a + CHUNK, total))
        Phi = apply_features(feature_map, X)
        if not identity:
            MuX, Lam_c, Om_c, draws, _ = batch_sample_moments(
                scheme, feature_map, X, Y, DRAWS, rng)
            add("LambdaBar", X.shape[1] * Lam_c)
            add("OmegaBar", X.shape[1] * Om_c)
        if condition_labels:
            Y = theta_star.T @ apply_features(truth_map, X)
        products = (("Sigma", Phi, Phi), ("G1", Phi, Y))
        if not identity:
            products += (("SigmaPrime", Phi, MuX),
                         ("SigmaDoublePrime", MuX, MuX), ("G3", MuX, Y))
        for name, A, B in products:
            add(name, A @ B.T)
        add("EY2", (Y * Y).sum(1))

    for M in sums.values():
        M /= total
    if condition_labels:
        sums["EY2"] += float(noise_sigma2)
    if identity:
        S, G1 = sums["Sigma"], sums["G1"]
        return identity_moment_set(S, G1, sums["EY2"], closed_moments(
            scheme, np.diag(S), lambda: S, G1.shape[1]), total, provenance)
    # remove the O(1/draws) bias of mu_hat outer products
    sums["SigmaDoublePrime"] -= sums["LambdaBar"] / draws
    sums["SigmaPrime"] = symmetrize(sums["SigmaPrime"])
    # the set checks its blocks finite before eigh reads them
    ms = MomentSet(**sums, n_mc_used=total, provenance=provenance)
    del sums  # each clip below then frees the block it replaces
    ms = replace(ms, Sigma=psd_clip(ms.Sigma))
    # the other blocks' rounding is relative to the size of Sigma
    floor = _KERNEL_ROUNDING * float(np.linalg.eigvalsh(ms.Sigma)[-1])
    for name in ("SigmaDoublePrime", "LambdaBar"):
        ms = replace(ms, **{name: psd_clip(getattr(ms, name), floor)})
    return ms


def identity_moment_set(S, G1, EY2, closed, n_mc_used, provenance):
    """The MomentSet of identity features (population, plug-in estimate or
    replicate's sample) from its one Gram S = E[x x^T], G1 = E[x y^T],
    EY2 = E[y^2] and closed = schemes.closed_moments = (c, LambdaBar,
    OmegaBar): mu_x = c x, so Sigma' = c S (none for a "sample"),
    Sigma'' = c c S, G3 = c G1, and the set's scale is c."""
    c, LambdaBar, OmegaBar = closed
    return MomentSet(
        Sigma=S, SigmaPrime=None if provenance == "sample" else c * S,
        SigmaDoublePrime=c * c * S, G1=G1, G3=c * G1, EY2=EY2,
        LambdaBar=LambdaBar, OmegaBar=OmegaBar, n_mc_used=n_mc_used,
        provenance=provenance, scale=c)


def closed_population_moment_set(Sigma, scheme, theta_star, sigma2):
    """Exact population MomentSet for identity features, identity truth
    map and centered data with covariance Sigma, for any scheme.

    Sigma is symmetrized first (Q diag(e) Q^T is not exactly symmetric).
    G1 = Sigma theta* and EY2 = theta*^T Sigma theta* + sigma2: every block
    is an exact formula, so no Monte-Carlo error enters the equivalents.
    """
    Sigma = symmetrize(np.asarray(Sigma, dtype=float))
    theta = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
    G1 = Sigma @ theta
    # theta^T Sigma theta per output: ridge.quadratic_form with its GEMM
    # already done as G1
    return identity_moment_set(
        Sigma, G1, np.einsum("ij,ij->j", theta, G1) + sigma2,
        closed_moments(scheme, np.diag(Sigma), lambda: Sigma, theta.shape[1]),
        0, "closed-form")
