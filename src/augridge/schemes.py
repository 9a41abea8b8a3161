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
heteroskedastic factors; none depends on z. The raw-space per-sample
moments mu_x, mu_y, Lambda(z), Omega(z) of every scheme are available in
closed form (closed_moments).
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
    _check_weights(np.array(weights), len(components))
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


def _check_weights(w, k):
    if len(w) != k:
        raise InvalidParameterError("one weight per component required")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise InvalidParameterError(
            f"weights must be nonnegative and sum to 1, got sum {w.sum()}"
        )


def sample_augmented(scheme, z, rng):
    """One draw (x', y') of (tau_x(z, eta), tau_y(z, eta)): a one-column,
    one-draw call of sample_augmented_batch."""
    x, y = (np.asarray(v, dtype=float) for v in z)
    Xa, Ya = sample_augmented_batch(scheme, x[:, None], y.reshape(-1, 1), 1,
                                    rng)
    return Xa[:, 0], Ya[:, 0].reshape(y.shape)


def sample_augmented_batch(scheme, X, Y, n_draws, rng):
    """n_draws augmentations of every column of (X, Y) in one call.

    Returns (Xa, Ya) of shapes (d, n*n_draws) and (q, n*n_draws); the draws
    for sample i occupy columns i*n_draws .. (i+1)*n_draws - 1.
    """
    X = np.asarray(X, dtype=float)
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
    repeated). Masks stay boolean, and every draw has the shape and order
    of one draw per column of X repeated T times."""
    d, n = X.shape
    shape = (d, n * T)
    X3 = X[:, :, None]

    def draws(A):  # the (d, n, T) view of a (d, n*T) array
        return A.reshape(d, n, T)

    if scheme.kind == "additive-noise":
        Xa = rng.standard_normal(shape)
        Xa *= scheme.sigma_aug
        np.add(draws(Xa), X3, out=draws(Xa))
    elif scheme.kind == "masking":
        M = rng.random(shape) <= scheme.keep_prob
        Xa = np.empty(shape)
        np.multiply(X3, draws(M), out=draws(Xa))
    elif scheme.kind == "salt-and-pepper":
        M = rng.random(shape) <= scheme.keep_prob
        Xa = rng.standard_normal(shape)
        Xa *= scheme.replacement
        np.copyto(draws(Xa), X3, where=draws(M))
    elif scheme.kind == "heteroskedastic":
        eta = rng.standard_normal((scheme.s_x.shape[1], shape[1]))
        Xa = scheme.s_x @ eta
        np.add(draws(Xa), X3, out=draws(Xa))
        if scheme.s_y is not None:
            Yr += scheme.s_y @ eta
    elif scheme.kind == "mixture":
        idx = np.searchsorted(np.cumsum(scheme.weights), rng.random(shape[1]),
                              side="right")
        idx = np.minimum(idx, len(scheme.components) - 1)
        Xa = np.empty(shape)
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


def _masking_lambda(v, m, s):
    """(1-m)[m Diag(v) + s^2 I]: the masking / salt-and-pepper Lambda for
    keep probability m, replacement scale s and the vector v of second
    moments of the coordinates (x * x for one sample)."""
    return (1.0 - m) * (m * np.diag(v) + float(s) ** 2 * np.eye(v.shape[0]))


def salt_pepper_lambda_closed(x, m, s):
    """Closed-form Lambda(z) = (1-m)[m Diag(x x^T) + s^2 I] for the
    salt-and-pepper scheme with identity features; Omega(z) = 0."""
    if not 0.0 <= m <= 1.0:
        raise InvalidParameterError(f"keep probability must be in [0,1], got {m}")
    x = np.asarray(x, dtype=float)
    return _masking_lambda(x * x, m, s)


def heteroskedastic_moments_closed(z, s_x, s_y):
    """Closed moments for tau_x = x + s_x eta, tau_y = y + s_y eta with
    2-D factors s_x, s_y and E[eta eta^T] = I: mu_x = x, mu_y = y,
    Lambda = s_x s_x^T, Omega = s_x s_y^T."""
    x, y = z
    x = np.asarray(x, dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sy = np.zeros((y.shape[0], s_x.shape[1])) if s_y is None else s_y
    return x.copy(), y.copy(), s_x @ s_x.T, s_x @ sy.T


def mixture_moments_closed(component_moments, weights):
    """Combine component (mu_x, mu_y, Lambda, Omega) tuples.

    mu = sum_j pi_j mu_j and the law-of-total-covariance corrections
    Lambda = sum_j pi_j {Lambda_j + mu_xj mu_xj^T} - mu_x mu_x^T,
    Omega = sum_j pi_j {Omega_j + mu_xj mu_yj^T} - mu_x mu_y^T.
    """
    w = np.asarray(weights, dtype=float)
    _check_weights(w, len(component_moments))
    mu_x = sum(wj * mj[0] for wj, mj in zip(w, component_moments))
    mu_y = sum(wj * mj[1] for wj, mj in zip(w, component_moments))
    Lam = sum(
        wj * (mj[2] + np.outer(mj[0], mj[0])) for wj, mj in zip(w, component_moments)
    ) - np.outer(mu_x, mu_x)
    Om = sum(
        wj * (mj[3] + np.outer(mj[0], mj[1])) for wj, mj in zip(w, component_moments)
    ) - np.outer(mu_x, mu_y)
    return mu_x, mu_y, Lam, Om


def closed_moments(scheme, z):
    """Raw-space per-sample moments (mu_x, mu_y, Lambda, Omega) of the
    datum z (identity feature map assumed)."""
    x, y = z
    x = np.asarray(x, dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d, q = x.shape[0], y.shape[0]
    if scheme.kind == "additive-noise":
        return (x.copy(), y.copy(), scheme.sigma_aug ** 2 * np.eye(d),
                np.zeros((d, q)))
    if scheme.kind in ("masking", "salt-and-pepper"):
        m, s = scheme.keep_prob, scheme.replacement  # s = 0 for masking
        return (m * x, y.copy(), salt_pepper_lambda_closed(x, m, s),
                np.zeros((d, q)))
    if scheme.kind == "heteroskedastic":
        return heteroskedastic_moments_closed(z, scheme.s_x, scheme.s_y)
    if scheme.kind == "mixture":
        comp = [closed_moments(c, z) for c in scheme.components]
        return mixture_moments_closed(comp, scheme.weights)
    raise InvalidParameterError(f"unknown scheme kind {scheme.kind!r}")
