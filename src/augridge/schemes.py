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
import os
from concurrent.futures import ThreadPoolExecutor
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


def usable_cpus():
    """The number of CPUs this process may run on: its affinity mask, which
    a container or taskset may set below os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# draws x data dimension per task of the sampler's thread pool: a task
# outweighs its dispatch, and each thread's temporaries stay well under
# a megabyte, so per-thread malloc arenas keep little
TASK_ENTRIES = 1 << 17
# draws x data dimension per column below which the columns run in the
# calling thread: a column holds the interpreter lock for a few dozen
# microseconds of numpy calls, and below this its lock-free draws take
# no longer, so threads would only take turns (on 2 cores, 2000 entries
# a column ran slower on two threads than on one, 8000 faster)
POOL_COLUMN_ENTRIES = 1 << 12
# the width of the sampler's thread pool; None for usable_cpus(). A
# process-pool worker sets it to 1, so k workers run k sampler threads,
# not k times the cores
SAMPLER_THREADS = None
# bytes a sampler thread holds per entry of the column it draws: the raw
# mask bits (4), their comparison (1), the dropped entries' indices (8)
# and, under a mixture, a component's block (4)
THREAD_BYTES_PER_ENTRY = 17


def _columns_per_task(entries):
    return max(1, TASK_ENTRIES // entries)


def sampler_width(n, n_draws, d):
    """The threads that sample_augmented_batch runs n columns of n_draws
    draws of d entries on, for a scheme without a heteroskedastic
    component: 1 (the calling thread) when a column has fewer than
    POOL_COLUMN_ENTRIES entries, else SAMPLER_THREADS (None:
    usable_cpus()), and no more than there are tasks."""
    entries = n_draws * d
    if entries < POOL_COLUMN_ENTRIES:
        return 1
    tasks = -(-n // _columns_per_task(entries))
    return min(SAMPLER_THREADS or usable_cpus(), tasks)


def _has_product(scheme):
    """Whether the scheme draws through a matrix product: a
    heteroskedastic kind, alone or in a mixture."""
    if scheme.kind == "mixture":
        return any(_has_product(c) for c in scheme.components)
    return scheme.kind == "heteroskedastic"


def sample_augmented_batch(scheme, X, Y, n_draws, rng):
    """n_draws augmentations of every column of (X, Y) in one call.

    Returns (Xa, Ya) of shapes (d, n*n_draws) and (q, n*n_draws); the draws
    for sample i occupy columns i*n_draws .. (i+1)*n_draws - 1. Xa is
    float32, the transpose of a row-major (n*n_draws, d) array, so each
    sample's draws are one contiguous block; its values carry a
    Monte-Carlo error far above float32 rounding, and the moments built
    from them are summed in float64 (moments.batch_sample_moments). Ya is
    float64.

    Every data column draws from its own child generator, spawned once per
    call (rng.spawn(n)); the caller's bit generator does not advance, but
    its seed sequence counts the children, so two generators must not
    share one seed sequence object. No value depends on how the columns
    are grouped into tasks of about TASK_ENTRIES entries, or on how many
    threads run them. The tasks run on a pool of sampler_width threads,
    which lives only for the call. The pool runs random draws and
    elementwise numpy only: a scheme with a heteroskedastic component,
    whose s_x eta is a matrix product, runs in the calling thread.
    """
    X = np.asarray(X, dtype=np.float32)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    T = int(n_draws)
    if T < 1:
        raise InvalidParameterError("n_draws must be >= 1")
    d, n = X.shape
    XT = np.ascontiguousarray(X.T)
    Yr = np.repeat(Y, T, axis=1)
    Xa = np.empty((n * T, d), dtype=np.float32)
    gens = rng.spawn(n)
    per = _columns_per_task(T * d)

    def task(a):
        for i in range(a, min(a + per, n)):
            rows = slice(i * T, (i + 1) * T)
            _batch_constant(scheme, XT[i], Xa[rows], Yr[:, rows], gens[i])

    starts = range(0, n, per)
    width = 1 if _has_product(scheme) else sampler_width(n, T, d)
    if width <= 1:
        for a in starts:
            task(a)
    else:
        with ThreadPoolExecutor(max_workers=width) as pool:
            list(pool.map(task, starts))
    return Xa.T, Yr


def _batch_constant(scheme, x, out, y, gen):
    """Fill out, a contiguous (m, d) float32 block, with m draws of the
    augmented datum x (length d) from the column's generator gen, and add
    their label noise to y, the (q, m) block of the datum's repeated
    labels.

    - Masks come from raw bits: 32-bit integers, two per 64-bit draw,
      compared with keep_prob * 2**32. keep_prob 0 and 1 draw no bits and
      are exact.
    - Normals are drawn only where an entry is replaced: x is copied by a
      broadcast, then the scaled normals are written into the replaced
      entries by their flat indices.
    - A heteroskedastic kind draws its normals eta and forms x + s_x eta,
      and adds s_y eta to y.
    - A mixture draws a component index per draw by inverse CDF on the
      weights, from float32 uniforms, then fills each component's draws.
    """
    m, d = out.shape
    if scheme.kind == "additive-noise":
        gen.standard_normal(out=out, dtype=np.float32)
        out *= scheme.sigma_aug
        out += x
    elif scheme.kind in ("masking", "salt-and-pepper"):
        drop = _dropped(gen, m * d, scheme.keep_prob)
        np.copyto(out, x)
        fill = 0.0
        if scheme.kind == "salt-and-pepper":
            fill = gen.standard_normal(drop.size, dtype=np.float32)
            fill *= scheme.replacement
        out.reshape(-1)[drop] = fill
    elif scheme.kind == "heteroskedastic":
        eta = gen.standard_normal((m, scheme.s_x.shape[1]), dtype=np.float32)
        np.matmul(eta, scheme.s_x.T.astype(np.float32), out=out)
        out += x
        if scheme.s_y is not None:
            y += scheme.s_y @ eta.T
    elif scheme.kind == "mixture":
        u = gen.random(m, dtype=np.float32)
        idx = np.searchsorted(np.cumsum(scheme.weights), u, side="right")
        idx = np.minimum(idx, len(scheme.components) - 1)
        for j, comp in enumerate(scheme.components):
            sel = np.flatnonzero(idx == j)
            if sel.size == 0:
                continue
            sub, ysub = np.empty((sel.size, d), dtype=np.float32), y[:, sel]
            _batch_constant(comp, x, sub, ysub, gen)
            out[sel], y[:, sel] = sub, ysub
    else:
        raise InvalidParameterError(f"unknown scheme kind {scheme.kind!r}")


def _dropped(gen, size, keep_prob):
    """The flat indices of the dropped entries among size masked ones. An
    entry is kept when a 32-bit integer from the generator's raw bits is
    below keep_prob * 2**32, rounded and held inside [1, 2**32 - 1] so
    that 0 < keep_prob < 1 keeps a chance of either outcome; keep_prob 0
    and 1 draw no bits."""
    if keep_prob >= 1.0:
        return np.arange(0)
    if keep_prob <= 0.0:
        return np.arange(size)
    bits = gen.bit_generator.random_raw(-(-size // 2)).view(np.uint32)
    cut = min(max(round(keep_prob * 2 ** 32), 1), 2 ** 32 - 1)
    return np.flatnonzero(bits[:size] >= np.uint32(cut))


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
        return (m, np.diag((1.0 - m) * (m * v + float(s) ** 2)),
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

