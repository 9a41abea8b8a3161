"""Data-augmentation schemes: samplers and closed-form raw-space moments.

A scheme is a random pair transformation (tau_x, tau_y) applied to a datum
z = (x, y). Five kinds are supported:

- additive-noise: tau_x = x + sigma_aug * eta, tau_y = y
- masking: tau_x = x (*) m with i.i.d. Bernoulli(keep_prob) mask m, tau_y = y
- salt-and-pepper: tau_x = x (*) m + s (eta2 - eta2 (*) m), tau_y = y,
  where eta2 is centered with identity second moment
- heteroskedastic: tau_x = x + s_x eta, tau_y = y + s_y eta
- mixture: draws a component index by inverse CDF on the weights, then
  applies that component

Every parameter is a constant: a finite number, or a constant array for the
heteroskedastic factors; none depends on z. Every kind keeps the mean
label, mu_y = E[tau_y] = y (label noise has mean zero), so a moment set
stores no block of mu_y. With identity features every scheme's moments
have one closed form (closed_moments): mu_x = c x, Lambda affine in the
data's second moments, Omega a constant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True, eq=False)
class AugmentationScheme:
    """One augmentation scheme; immutable, sampling takes a caller RNG.
    Two schemes are equal when every field is, arrays entry by entry."""

    kind: str
    sigma_aug: float = 0.0
    keep_prob: float = 1.0
    replacement: float = 0.0
    s_x: np.ndarray | None = None
    s_y: np.ndarray | None = None
    components: tuple = ()
    weights: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, AugmentationScheme):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                   or isinstance(b, np.ndarray) else a == b
                   for a, b in pairs)

    @property
    def label_preserving(self) -> bool:
        if self.kind in ("additive-noise", "masking", "salt-and-pepper"):
            return True
        if self.kind == "heteroskedastic":
            return self.s_y is None
        if self.kind == "mixture":
            return all(c.label_preserving for c in self.components)
        return False


def _number(name, v):
    """v as a float; InvalidParameterError unless it is a finite real."""
    if not (isinstance(v, numbers.Real) and math.isfinite(v)):
        raise InvalidParameterError(f"{name} must be a finite number, "
                                    f"got {v!r}")
    return float(v)


def additive_noise(sigma_aug) -> AugmentationScheme:
    sigma_aug = _number("sigma_aug", sigma_aug)
    if sigma_aug < 0:
        raise InvalidParameterError(f"sigma_aug must be >= 0, got {sigma_aug}")
    return AugmentationScheme(kind="additive-noise", sigma_aug=sigma_aug)


def masking(keep_prob) -> AugmentationScheme:
    return AugmentationScheme(kind="masking", keep_prob=_prob(keep_prob))


def salt_and_pepper(keep_prob, replacement) -> AugmentationScheme:
    """replacement is the isotropic scale s of the replacement noise."""
    keep_prob, s = _prob(keep_prob), _number("replacement", replacement)
    if s < 0:
        raise InvalidParameterError("replacement scale must be >= 0")
    return AugmentationScheme(kind="salt-and-pepper", keep_prob=keep_prob,
                              replacement=s)


def heteroskedastic(s_x, s_y=None) -> AugmentationScheme:
    """s_x, s_y are constant d x k and q x k factors."""
    return AugmentationScheme(kind="heteroskedastic", s_x=_factor("s_x", s_x),
                              s_y=None if s_y is None else _factor("s_y", s_y))


def mixture(components, weights) -> AugmentationScheme:
    components = tuple(components)
    if not components:
        raise InvalidParameterError("mixture needs at least one component")
    weights = tuple(_number("weight", w) for w in weights)
    w = np.array(weights)
    if len(w) != len(components):
        raise InvalidParameterError("one weight per component required")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise InvalidParameterError(
            f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
    return AugmentationScheme(kind="mixture", components=components,
                              weights=weights)


def _prob(p):
    p = _number("probability", p)
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"probability must be in [0,1], got {p}")
    return p


def _factor(name, s):
    try:
        s = np.atleast_2d(np.asarray(s, dtype=float))
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be numeric") from None
    if s.ndim != 2 or not np.all(np.isfinite(s)):
        raise InvalidParameterError(f"{name} must be a finite 2-D array")
    return s


def sample_augmented_batch(scheme, X, Y, n_draws, rng):
    """n_draws augmentations of every column of (X, Y) in one call.

    Returns (Xa, Ya) of shapes (d, n*n_draws) and (q, n*n_draws); the draws
    for sample i occupy columns i*n_draws .. (i+1)*n_draws - 1. Xa is
    float32, drawn from float32 uniforms and normals: its values carry a
    Monte-Carlo error far above float32 rounding, and the moments built
    from them are summed in float64 (moments.batch_sample_moments). Ya is
    float64.
    """
    X = np.asarray(X, dtype=np.float32)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    T = int(n_draws)
    if T < 1:
        raise InvalidParameterError("n_draws must be >= 1")
    Yr = np.repeat(Y, T, axis=1)
    return _batch_constant(scheme, X, T, Yr, rng), Yr


def _batch_constant(scheme, X, T, Yr, rng):
    """T draws for every column of X, without repeating X: the result's
    columns i*T .. (i+1)*T - 1 are the draws of column i, against the
    broadcast view X[:, :, None]. Label noise lands in Yr (already
    repeated). Masks stay boolean, u < keep_prob on float32 uniforms in
    [0, 1), so keep_prob 0 and 1 are exact; every draw has the shape and
    order of one draw per column of X repeated T times."""
    d, n = X.shape
    shape = (d, n * T)
    X3 = X[:, :, None]

    def draws(A):  # the (d, n, T) view of a (d, n*T) array
        return A.reshape(d, n, T)

    if scheme.kind == "additive-noise":
        Xa = rng.standard_normal(shape, dtype=np.float32)
        Xa *= scheme.sigma_aug
        np.add(draws(Xa), X3, out=draws(Xa))
    elif scheme.kind == "masking":
        M = rng.random(shape, dtype=np.float32) < scheme.keep_prob
        Xa = np.empty(shape, dtype=np.float32)
        np.multiply(X3, draws(M), out=draws(Xa))
    elif scheme.kind == "salt-and-pepper":
        M = rng.random(shape, dtype=np.float32) < scheme.keep_prob
        Xa = rng.standard_normal(shape, dtype=np.float32)
        Xa *= scheme.replacement
        np.copyto(draws(Xa), X3, where=draws(M))
    elif scheme.kind == "heteroskedastic":
        eta = rng.standard_normal((scheme.s_x.shape[1], shape[1]),
                                  dtype=np.float32)
        Xa = scheme.s_x.astype(np.float32) @ eta
        np.add(draws(Xa), X3, out=draws(Xa))
        if scheme.s_y is not None:
            Yr += scheme.s_y @ eta
    elif scheme.kind == "mixture":
        u = rng.random(shape[1], dtype=np.float32)
        idx = np.searchsorted(np.cumsum(scheme.weights), u, side="right")
        idx = np.minimum(idx, len(scheme.components) - 1)
        Xa = np.empty(shape, dtype=np.float32)
        for j, comp in enumerate(scheme.components):
            cols = np.flatnonzero(idx == j)
            if cols.size == 0:
                continue
            Ysub = np.ascontiguousarray(Yr[:, cols])
            Xa[:, cols] = _batch_constant(comp, X[:, cols // T], 1, Ysub, rng)
            Yr[:, cols] = Ysub
    else:
        raise InvalidParameterError(f"unknown scheme kind {scheme.kind!r}")
    return Xa


def closed_moments(scheme, v, S, q):
    """(c, LambdaBar, OmegaBar) of a scheme with identity features: every
    kind has mu_x = c x and mu_y = y, LambdaBar is affine in the data's
    second moments and OmegaBar is a constant. v holds the coordinate
    second moments of the data, S() returns its second-moment matrix (read
    by mixtures only) and q is the number of outputs. One datum is
    v = x * x, S = x x^T; a population, v = diag Sigma, S = Sigma.

    - additive noise: (1, sigma^2 I, 0);
    - masking and salt-and-pepper: (m, (1-m)(m Diag v + s^2 I), 0);
    - heteroskedastic: (1, s_x s_x^T, s_x s_y^T);
    - mixture, by the law of total covariance: (sum_j w_j c_j,
      sum_j w_j Lambda_j + (sum_j w_j c_j^2 - c^2) S, sum_j w_j Omega_j).
    """
    d = v.shape[0]
    if scheme.kind == "additive-noise":
        return 1.0, scheme.sigma_aug ** 2 * np.eye(d), np.zeros((d, q))
    if scheme.kind in ("masking", "salt-and-pepper"):
        m, s = scheme.keep_prob, scheme.replacement  # s = 0 for masking
        return (m, (1.0 - m) * (m * np.diag(v) + float(s) ** 2 * np.eye(d)),
                np.zeros((d, q)))
    if scheme.kind == "heteroskedastic":
        s_x, s_y = scheme.s_x, scheme.s_y
        return (1.0, s_x @ s_x.T, np.zeros((d, q)) if s_y is None
                else s_x @ s_y.T)
    if scheme.kind == "mixture":
        w = scheme.weights
        cs, lams, oms = zip(*(closed_moments(comp, v, S, q)
                              for comp in scheme.components))
        c = sum(wj * cj for wj, cj in zip(w, cs))
        spread = max(sum(wj * cj * cj for wj, cj in zip(w, cs)) - c * c, 0.0)
        return (c, sum(wj * L for wj, L in zip(w, lams)) + spread * S(),
                sum(wj * O for wj, O in zip(w, oms)))
    raise InvalidParameterError(f"unknown scheme kind {scheme.kind!r}")

