"""Data-augmentation schemes: samplers and closed-form raw-space moments.

A scheme is a random pair transformation (tau_x, tau_y) applied to a datum
z = (x, y). Five kinds are supported:

- additive-noise: tau_x = x + sigma_aug * eta, tau_y = y
- masking: tau_x = x (*) m with i.i.d. Bernoulli(keep_prob) mask m, tau_y = y
- salt-and-pepper: tau_x = x (*) m + s(z)(eta2 - eta2 (*) m), tau_y = y,
  where eta2 is centered with identity second moment
- heteroskedastic: tau_x = x + s_x(z) eta, tau_y = y + s_y(z) eta
- mixture: draws a component index by inverse CDF on the weights, then
  applies that component

Probability parameters and maps may be constants or callables of z. The
raw-space per-sample moments mu_x, mu_y, Lambda(z), Omega(z) of every
scheme are available in closed form (closed_moments).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError


def _resolve(param, z):
    return param(z) if callable(param) else param


@dataclass(frozen=True)
class AugmentationScheme:
    """One augmentation scheme; immutable, sampling takes a caller RNG."""

    kind: str
    sigma_aug: float = 0.0
    keep_prob: object = 1.0
    replacement: object = 0.0
    s_x: object = None
    s_y: object = None
    components: tuple = ()
    weights: object = ()

    @property
    def label_preserving(self) -> bool:
        if self.kind in ("additive-noise", "masking", "salt-and-pepper"):
            return True
        if self.kind == "heteroskedastic":
            return self.s_y is None
        if self.kind == "mixture":
            return all(c.label_preserving for c in self.components)
        return False


def additive_noise(sigma_aug: float) -> AugmentationScheme:
    if sigma_aug < 0:
        raise InvalidParameterError(f"sigma_aug must be >= 0, got {sigma_aug}")
    return AugmentationScheme(kind="additive-noise", sigma_aug=float(sigma_aug))


def masking(keep_prob) -> AugmentationScheme:
    _check_prob(keep_prob)
    return AugmentationScheme(kind="masking", keep_prob=keep_prob)


def salt_and_pepper(keep_prob, replacement) -> AugmentationScheme:
    """replacement is an isotropic scale (float) or a map z -> d x d matrix."""
    _check_prob(keep_prob)
    if not callable(replacement) and replacement < 0:
        raise InvalidParameterError("replacement scale must be >= 0")
    return AugmentationScheme(
        kind="salt-and-pepper", keep_prob=keep_prob, replacement=replacement
    )


def heteroskedastic(s_x, s_y=None) -> AugmentationScheme:
    """s_x, s_y map z to d x k and q x k factors (or are constant arrays)."""
    return AugmentationScheme(kind="heteroskedastic", s_x=s_x, s_y=s_y)


def mixture(components, weights) -> AugmentationScheme:
    components = tuple(components)
    if not components:
        raise InvalidParameterError("mixture needs at least one component")
    if not callable(weights):
        weights = tuple(float(w) for w in weights)
        _check_weights(np.array(weights), len(components))
    return AugmentationScheme(kind="mixture", components=components,
                              weights=weights)


def _check_prob(p):
    if not callable(p) and not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"probability must be in [0,1], got {p}")


def _check_weights(w, k):
    if len(w) != k:
        raise InvalidParameterError("one weight per component required")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise InvalidParameterError(
            f"weights must be nonnegative and sum to 1, got sum {w.sum()}"
        )


def _resolved(scheme, z, d):
    """The scheme with every parameter that is a map of z evaluated at z
    and checked, the components of a mixture included."""
    if (scheme.kind in ("additive-noise", "masking", "salt-and-pepper")
            and _constant_params(scheme)):
        return scheme  # nothing depends on z; its constructor checked it
    at = {k: _resolve(getattr(scheme, k), z)
          for k in ("keep_prob", "replacement", "s_x", "s_y", "weights")}
    _check_prob(at["keep_prob"])
    if np.ndim(at["replacement"]) != 0:
        at["replacement"] = np.asarray(at["replacement"], dtype=float)
        if at["replacement"].shape != (d, d):
            raise InvalidDimensionError(f"replacement map must be {d}x{d}, "
                                        f"got {at['replacement'].shape}")
    for k in ("s_x", "s_y"):
        if at[k] is not None:
            at[k] = np.atleast_2d(np.asarray(at[k], dtype=float))
    if at["s_x"] is not None and at["s_x"].shape[0] != d:
        raise InvalidDimensionError(
            f"s_x must have {d} rows, got {at['s_x'].shape[0]}")
    if scheme.kind == "mixture":
        at["weights"] = np.asarray(at["weights"], dtype=float)
        _check_weights(at["weights"], len(scheme.components))
    comps = tuple(_resolved(c, z, d) for c in scheme.components)
    return replace(scheme, components=comps, **at)


def sample_augmented(scheme, z, rng):
    """One draw (x', y') of (tau_x(z, eta), tau_y(z, eta)): a one-column,
    one-draw call of sample_augmented_batch."""
    x, y = (np.asarray(v, dtype=float) for v in z)
    Xa, Ya = sample_augmented_batch(scheme, x[:, None], y.reshape(-1, 1), 1,
                                    rng)
    return Xa[:, 0], Ya[:, 0].reshape(y.shape)


def _constant_params(scheme) -> bool:
    if scheme.kind == "additive-noise":
        return True
    if scheme.kind == "masking":
        return not callable(scheme.keep_prob)
    if scheme.kind == "salt-and-pepper":
        return (not callable(scheme.keep_prob)
                and not callable(scheme.replacement)
                and np.ndim(scheme.replacement) == 0)
    if scheme.kind == "heteroskedastic":
        return not callable(scheme.s_x) and not callable(scheme.s_y)
    if scheme.kind == "mixture":
        return not callable(scheme.weights) and all(
            _constant_params(c) for c in scheme.components
        )
    return False


def sample_augmented_batch(scheme, X, Y, n_draws, rng):
    """n_draws augmentations of every column of (X, Y) in one call.

    Returns (Xa, Ya) of shapes (d, n*n_draws) and (q, n*n_draws); the draws
    for sample i occupy columns i*n_draws .. (i+1)*n_draws - 1. Constant
    parameter schemes draw all columns at once; a scheme whose parameters
    are maps of z is resolved once per sample, which then draws its
    n_draws columns at once.
    """
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    d, n = X.shape
    T = int(n_draws)
    if T < 1:
        raise InvalidParameterError("n_draws must be >= 1")
    Xr = np.repeat(X, T, axis=1)
    Yr = np.repeat(Y, T, axis=1)
    if _constant_params(scheme):
        return _batch_constant(scheme, Xr, Yr, d, rng), Yr
    Xa = np.empty_like(Xr)
    for i in range(n):
        cols = slice(i * T, (i + 1) * T)
        at = _resolved(scheme, (X[:, i], Y[:, i]), d)
        # Yr[:, cols] is a view: label noise lands in Yr
        Xa[:, cols] = _batch_constant(at, Xr[:, cols], Yr[:, cols], d, rng)
    return Xa, Yr


def _batch_constant(scheme, Xr, Yr, d, rng):
    ncols = Xr.shape[1]
    if scheme.kind == "additive-noise":
        Xa = Xr + scheme.sigma_aug * rng.standard_normal((d, ncols))
    elif scheme.kind == "masking":
        M = (rng.random((d, ncols)) <= scheme.keep_prob).astype(float)
        Xa = Xr * M
    elif scheme.kind == "salt-and-pepper":
        M = (rng.random((d, ncols)) <= scheme.keep_prob).astype(float)
        noise = rng.standard_normal((d, ncols)) * (1.0 - M)
        repl = scheme.replacement
        if np.ndim(repl) == 0:
            Xa = Xr * M + float(repl) * noise
        else:
            Xa = Xr * M + repl @ noise
    elif scheme.kind == "heteroskedastic":
        sx = np.atleast_2d(np.asarray(scheme.s_x, dtype=float))
        eta = rng.standard_normal((sx.shape[1], ncols))
        Xa = Xr + sx @ eta
        if scheme.s_y is not None:
            sy = np.atleast_2d(np.asarray(scheme.s_y, dtype=float))
            Yr += sy @ eta
    elif scheme.kind == "mixture":
        w = np.asarray(scheme.weights, dtype=float)
        idx = np.searchsorted(np.cumsum(w), rng.random(ncols), side="right")
        idx = np.minimum(idx, len(scheme.components) - 1)
        Xa = np.empty_like(Xr)
        for j, comp in enumerate(scheme.components):
            cols = np.flatnonzero(idx == j)
            if cols.size == 0:
                continue
            Xsub = np.ascontiguousarray(Xr[:, cols])
            Ysub = np.ascontiguousarray(Yr[:, cols])
            Xa[:, cols] = _batch_constant(comp, Xsub, Ysub, d, rng)
            Yr[:, cols] = Ysub
    else:
        raise InvalidParameterError(f"unknown scheme kind {scheme.kind!r}")
    return Xa


def _masking_lambda(v, m, s):
    """(1-m)[m Diag(v) + s s^T]: the masking / salt-and-pepper Lambda for
    keep probability m, replacement s (a scale or a matrix) and the vector
    v of second moments of the coordinates (x * x for one sample)."""
    if np.ndim(s) == 0:
        ssT = float(s) ** 2 * np.eye(v.shape[0])
    else:
        s = np.asarray(s, dtype=float)
        ssT = s @ s.T
    return (1.0 - m) * (m * np.diag(v) + ssT)


def salt_pepper_lambda_closed(x, m, s):
    """Closed-form Lambda(z) = (1-m)[m Diag(x x^T) + s s^T] for the
    salt-and-pepper scheme with identity features; Omega(z) = 0."""
    if not 0.0 <= m <= 1.0:
        raise InvalidParameterError(f"keep probability must be in [0,1], got {m}")
    x = np.asarray(x, dtype=float)
    return _masking_lambda(x * x, m, s)


def heteroskedastic_moments_closed(z, s_x, s_y):
    """Closed moments for tau_x = x + s_x eta, tau_y = y + s_y eta with
    E[eta eta^T] = I: mu_x = x, mu_y = y, Lambda = s_x s_x^T,
    Omega = s_x s_y^T."""
    x, y = z
    x = np.asarray(x, dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sx = np.atleast_2d(np.asarray(_resolve(s_x, z), dtype=float))
    if s_y is None:
        sy = np.zeros((y.shape[0], sx.shape[1]))
    else:
        sy = np.atleast_2d(np.asarray(_resolve(s_y, z), dtype=float))
    return x.copy(), y.copy(), sx @ sx.T, sx @ sy.T


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
        m = _resolve(scheme.keep_prob, z)
        s = _resolve(scheme.replacement, z)  # 0.0 for masking
        return (m * x, y.copy(), salt_pepper_lambda_closed(x, m, s),
                np.zeros((d, q)))
    if scheme.kind == "heteroskedastic":
        return heteroskedastic_moments_closed(z, scheme.s_x, scheme.s_y)
    if scheme.kind == "mixture":
        comp = [closed_moments(c, z) for c in scheme.components]
        w = _resolve(scheme.weights, z)
        return mixture_moments_closed(comp, w)
    raise InvalidParameterError(f"unknown scheme kind {scheme.kind!r}")
