"""Deterministic equivalents: the 2x2 dilation fixed point, its
second-order companion, and the predicted risk and bias/variance split.

The fixed point is the symmetric 2x2 matrix B with B = F(B):

    R_bar = M(B)^{-1},  M(B) = Sigma_bar(B) + alpha LambdaBar + lam I
    A = [[tr(Sigma R_bar), tr(Sigma' R_bar)],
         [tr(Sigma' R_bar), tr(Sigma'' R_bar)]]
    F(B) = W (I_2 + n^{-1} W A W)^{-1} W,  W = Diag(sqrt(1-alpha), sqrt(alpha))

(slot 1 weights the true data, slot 2 the augmented means), and
Sigma_bar(B) + alpha LambdaBar the matrix of ridge.normal_equations, the
one builder of every system: the fixed point's and the equivalents' at B
and D, and a fit's at B = W^2 on its sample's moment set. It is solved by
safeguarded Newton on the free entries of B, starting from the
infinite-data limit B = W^2: b11 alone at alpha = 0, b22 alone at
alpha = 1, (b11, b12, b22) otherwise. A step factors M(B) = L L^T once and
whitens each distinct block of X = (Sigma, sym Sigma', Sigma'') (Sigma
alone on a set of scale c, whose X_i = c^i Sigma) into Z = L^{-1} X L^{-T}
by one LAPACK dsygst, so tr(X_i R_bar) = tr Z_i. dsygst reads and writes
only the lower triangle, so each Z_i is kept as its lower triangle over
zeros. Through dR_bar = -R_bar dM R_bar and dF = -n^{-1} F dA F, the
exact Jacobian of F needs only T_ij = tr(X_i R_bar X_j R_bar) =
<Z_i, Z_j>_F, read from the lower triangles as 2 <tril Z_i, tril Z_j> -
<diag Z_i, diag Z_j>. A step is halved while M(B) is not positive
definite or the residual ||F(B) - B||_F grows; it is not held inside the
Loewner box 0 <= B <= W^2, because with a nearly rank-one A (masking) the
fixed point lies on its boundary.

The random resolvent expectation is closed with R_bar itself, the only
deterministic closure available; its validity is what the Monte-Carlo
oracle checks confirm. The second-order matrix D solves the linear
system (I - J) d = d0 on the free entries of B: d0 = n^{-1} B C_bar B
with C_bar the traces of X R_bar Sigma R_bar, and J the Jacobian of F at
the fixed point, both read from T. This resums the first-order term
through the fixed point: on isotropic data delta = kappa / (1 - kappa)
with kappa = n^{-1} p beta^2 / (beta + lam)^2, where d0 alone gives kappa.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (InvalidParameterError, NotConvergedError,
                     NumericalFailureError, PreconditionViolationError)
from .ridge import (_cholesky, fit, normal_equations, population_risk,
                    quadratic_form, quadratic_terms)


@dataclass(frozen=True)
class DilationState:
    """The fixed point B and what it was solved from. T_traces holds the
    3x3 traces tr(X_i R_bar X_j R_bar) over the blocks
    X = (Sigma, sym Sigma', Sigma''). Traces of a block that does not
    enter the solve are 0: sym Sigma' at alpha in {0, 1}, and Sigma'' at
    alpha = 0."""

    W: np.ndarray
    B: np.ndarray
    T_traces: np.ndarray
    R_bar: np.ndarray
    residual: float
    iterations: int
    converged: bool
    alpha: float
    lam: float
    n: int


@dataclass(frozen=True)
class EquivalentReport:
    """beta = sum(B), delta = sum(D), theta_bar (p x q) and the
    output-averaged equivalents."""

    beta: float
    delta: float
    theta_bar: np.ndarray
    chi_bar_mean: float
    g_bar_mean: float
    bias2_bar_mean: float
    var_bar_mean: float
    overlap_bar_mean: float


# free entry k of B, as (b11, b12, b22): its slot in B, and the weight of
# its block in M(B) (b12 multiplies 2 Sigma', stored symmetric)
_SLOT = ((0, 0), (0, 1), (1, 1))
_WEIGHT = (1.0, 2.0, 1.0)
_MAX_HALVINGS = 30
_TOL = 1e-10


def _sym2(v):
    return np.array([[v[0], v[1]], [v[1], v[2]]])


def _free(alpha):
    """The free entries of B: b11 at alpha = 0, b22 at alpha = 1, all
    three otherwise."""
    return (0,) if alpha == 0.0 else (2,) if alpha == 1.0 else (0, 1, 2)


def _solve_linearized(F, T, free, n, rhs):
    """x on the free entries (0 elsewhere) with (I - J) x = rhs's slots,
    where J is the Jacobian of F: dF/db_j = n^{-1} weight_j F
    _sym2(T[:, j]) F."""
    J = np.empty((len(free), len(free)))
    for col, j in enumerate(free):
        dF = F @ _sym2(_WEIGHT[j] * T[:, j]) @ F / n
        J[:, col] = [dF[_SLOT[k]] for k in free]
    x = np.zeros(3)
    x[list(free)] = np.linalg.solve(np.eye(len(free)) - J,
                                    [rhs[_SLOT[k]] for k in free])
    return x


@dataclass
class _Point:
    b: np.ndarray  # (b11, b12, b22)
    L: np.ndarray | None  # Cholesky factor of M(B)
    a: np.ndarray  # tr(X_i R_bar)
    T: np.ndarray  # tr(X_i R_bar X_j R_bar)
    F: np.ndarray  # F(B)
    residual: float  # ||F(B) - B||_F


class _DilationMap:
    """F on the free entries of B, with the traces its Jacobian needs."""

    def __init__(self, ms, alpha, lam, n):
        self.ms, self.alpha, self.lam, self.n = ms, alpha, lam, n
        self.W = np.diag([np.sqrt(1.0 - alpha), np.sqrt(alpha)])
        self.free = _free(alpha)
        # the traced blocks: the free ones and Sigma, which C_bar reads at
        # alpha = 1 (where W's zero first row takes it out of F exactly);
        # the distinct ones as their lower triangles over zeros, in the
        # Fortran order dsygst copies without a transpose (the set stores
        # Sigma' symmetric); block i is w_i times block source_i: itself,
        # or c^i Sigma on a set of scale c
        c = ms.scale
        self.w = (1.0, 1.0, 1.0) if c is None else (1.0, c, c * c)
        self.source = (0, 1, 2) if c is None else (0, 0, 0)
        block = (ms.Sigma, ms.SigmaPrime, ms.SigmaDoublePrime)
        self.blocks = tuple(sorted({0, *self.free}))
        self.X = {k: np.asfortranarray(np.tril(block[k]))
                  for k in {self.source[i] for i in self.blocks}}

    def traces(self, L):
        """(a, T): a_i = tr Z_i and T_ij = <Z_i, Z_j>_F over the traced
        blocks (0 elsewhere), Z_i = w_i Z_source(i), each distinct block
        whitened by one dsygst on a copy of X_k. Each Z_k holds a
        symmetric matrix as its lower triangle over zeros, so the
        Frobenius product of two is twice that of the stored arrays less
        that of their diagonals."""
        src, w, blocks = self.source, self.w, self.blocks
        Z = {k: lapack.dsygst(X, L, itype=1, lower=1)[0]
             for k, X in self.X.items()}

        @functools.cache  # once per pair of distinct blocks
        def frobenius(k, m):
            return (2.0 * np.dot(Z[k].ravel(order="K"), Z[m].ravel(order="K"))
                    - np.dot(np.diagonal(Z[k]), np.diagonal(Z[m])))

        a, T = np.zeros(3), np.zeros((3, 3))
        for first, i in enumerate(blocks):
            a[i] = w[i] * np.diagonal(Z[src[i]]).sum()
            for j in blocks[first:]:
                T[i, j] = T[j, i] = w[i] * w[j] * frobenius(src[i], src[j])
        return a, T

    def at(self, b, what=None):
        """The point b, or None when M(B) is not finite or not positive
        definite (and `what` is None, see _cholesky)."""
        try:
            M = normal_equations(self.ms, _sym2(b), self.alpha)[0]
        except NumericalFailureError:
            if what is None:
                return None
            raise
        M.flat[::M.shape[0] + 1] += self.lam
        L = _cholesky(M, what)
        if L is None:
            return None
        a, T = self.traces(L)
        W = self.W
        F = W @ np.linalg.solve(np.eye(2) + W @ _sym2(a) @ W / self.n, W)
        F = 0.5 * (F + F.T)
        residual = float(np.linalg.norm(F - _sym2(b)))
        return _Point(b, L, a, T, F, residual)


def solve_fixed_point(moment_set, alpha, lam, n,
                      max_iter=500) -> DilationState:
    """Safeguarded Newton iteration for B from the infinite-data limit
    B0 = W^2 (see the module docstring). `iterations` counts the Newton
    iterates, B0 included. The solve stops at the first iterate where both
    the residual ||F(B) - B||_F and the Newton correction are at most
    _TOL * min(1, ||F(B)||_F): relative where B is small, never looser than
    an absolute _TOL. It also stops, unconverged, after max_iter iterates or
    when 30 halvings of a step find no point that is positive definite
    with a residual no larger. Never raises on non-convergence; the state
    carries an honest converged flag.

    R_bar, the traces and the residual belong to the last iterate. A
    converged B is that iterate plus its Newton correction, so its error is
    of the order of the correction squared: the bound above caps only the
    error of ||B||_F, and beta = sum(B) can be much smaller than ||B||_F."""
    if lam <= 0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in [0,1], got {alpha}")
    if n < 1 or max_iter < 1:
        raise InvalidParameterError("need n >= 1 and max_iter >= 1")
    fmap = _DilationMap(moment_set, alpha, lam, n)
    P = fmap.at(np.array([1.0 - alpha, 0.0, alpha]),
                what="Sigma_bar + alpha LambdaBar + lam I")
    converged = False
    for iterations in range(1, max_iter + 1):
        # the Newton step: (I - J) step = F(B) - B on the free entries
        step = _solve_linearized(P.F, P.T, fmap.free, n, P.F - _sym2(P.b))
        bound = _TOL * min(1.0, float(np.linalg.norm(P.F)))
        if P.residual <= bound and np.linalg.norm(_sym2(step)) <= bound:
            converged = True
            break
        if iterations == max_iter:
            break
        b, residual = P.b, P.residual
        P.L = None  # freed before the trials allocate their own
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = fmap.at(b + t * step)
            if trial is not None and trial.residual <= residual:
                P = trial
                break
            t *= 0.5
        else:
            break
    if P.L is None:  # the last line search failed
        P = fmap.at(P.b)
    R, _ = lapack.dpotri(P.L, lower=1, overwrite_c=1)
    R += np.tril(R, -1).T
    return DilationState(
        W=fmap.W, B=_sym2(P.b + step if converged else P.b),
        T_traces=P.T, R_bar=R, residual=P.residual,
        iterations=iterations, converged=converged,
        alpha=float(alpha), lam=float(lam), n=int(n),
    )


def compute_second_order(state, moment_set):
    """D, whose free entries d solve (I - J) d = d0 (see the module
    docstring): d0 = n^{-1} B C_bar B with C_bar_ij = tr(X_i R_bar Sigma
    R_bar), the first row of the converged state's T_traces, and J the
    Jacobian of F at B. Raises NotConvergedError, naming the cell, on an
    unconverged state."""
    if not state.converged:
        raise NotConvergedError(
            f"fixed point not converged at lambda={state.lam:g}, "
            f"alpha={state.alpha:g}, n={state.n} "
            f"(residual {state.residual:.3e} after {state.iterations} "
            f"iterations)"
        )
    B, T, n = state.B, state.T_traces, state.n
    return _sym2(_solve_linearized(B, T, _free(state.alpha), n,
                                   B @ _sym2(T[:, 0]) @ B / n))


def equivalents(state, D, moment_set, sigma2) -> EquivalentReport:
    """Deterministic equivalents of theta_hat, chi, risk, and the
    bias/variance split, per output and output-averaged.

    theta_bar is the fit of the normal_equations system at B, and
    Sigma_bar(D), Gamma_bar(D) are that system's blocks weighted by D.
    Both risks are ridge.population_risk at the overlap G1^T theta_bar:
    g_bar at chi_bar, and the bias^2 at theta_bar^T Sigma theta_bar, less
    the label noise sigma2, which enters nothing else.
    """
    ms = moment_set
    B = state.B
    theta_bar = fit(normal_equations(ms, B, state.alpha), state.lam)
    Sigma_bar_prime, Gamma_bar_prime = normal_equations(ms, D, 0.0)
    gamma_bar = D.sum() * ms.EY2  # every second moment of (y, mu_y = y)

    quad = quadratic_form(theta_bar, Sigma_bar_prime + ms.Sigma, theta_bar)
    cross = np.einsum("ij,ij->j", theta_bar, Gamma_bar_prime)
    chi_bar = quad - 2.0 * cross + gamma_bar

    theta_sig, overlap = quadratic_terms(theta_bar, ms)
    g_bar = population_risk(chi_bar, overlap, ms)
    bias2_bar = population_risk(theta_sig, overlap, ms) - sigma2
    var_bar = g_bar - bias2_bar

    return EquivalentReport(
        beta=float(B.sum()), delta=float(D.sum()),
        theta_bar=theta_bar,
        chi_bar_mean=float(chi_bar.mean()),
        g_bar_mean=float(g_bar.mean()),
        bias2_bar_mean=float(bias2_bar.mean()),
        var_bar_mean=float(var_bar.mean()),
        overlap_bar_mean=float(overlap.mean()),
    )


def wellspecified_reduction(state, D, moment_set, theta_star, sigma2):
    """Scalar beta/delta form valid when phi = phi_star and the scheme is
    unbiased and label-preserving, i.e. every Sigma block equals Sigma,
    G3 equals G1, G1 = Sigma theta* and EY2 = theta*^T Sigma theta* +
    sigma2; the last two make its risk equal the general E[Y^2] -
    2 G1^T theta + theta^T Sigma theta form. Returns beta, delta,
    theta_bar and the simplified risk (1 + delta)[(theta_bar - theta*)^T
    Sigma (theta_bar - theta*) + sigma2]. A block is equal when it is
    within 1e-6 of its reference, relative to ||Sigma||_F."""
    alpha = state.alpha
    ms = moment_set
    th = np.atleast_2d(np.asarray(theta_star, dtype=float).T).T
    scale = max(float(np.linalg.norm(ms.Sigma)), 1e-300)
    for name, M, ref in (
        ("SigmaPrime", ms.SigmaPrime, ms.Sigma),
        ("SigmaDoublePrime", ms.SigmaDoublePrime, ms.Sigma),
        ("G1", ms.G1, ms.Sigma @ th),
        ("G3", ms.G3, ms.G1),
        ("EY2", ms.EY2, quadratic_form(th, ms.Sigma, th) + sigma2),
    ):
        if np.linalg.norm(M - ref) > 1e-6 * scale:
            raise PreconditionViolationError(
                f"moment set is not well specified: block {name} deviates"
            )
    beta = float(state.B.sum())
    delta = float(D.sum())
    # beta Sigma + alpha LambdaBar and beta G1 + alpha OmegaBar
    theta_bar = fit(normal_equations(ms, np.diag([beta, 0.0]), alpha),
                    state.lam)
    diff = theta_bar - th
    g_simple = (1.0 + delta) * (
        quadratic_form(diff, ms.Sigma, diff) + sigma2
    )
    return {
        "beta": beta,
        "delta": delta,
        "theta_bar": theta_bar,
        "g_bar_simple": g_simple,
        "g_bar_simple_mean": float(np.mean(g_simple)),
    }
