"""Feature maps: identity and frozen randomly-initialized MLPs.

Maps are immutable after construction and applied columnwise to d x n
matrices. The random MLP draws Gaussian weights with variance 1/fan_in
(zero biases), applies the activation after every hidden layer, and keeps
the final readout linear, so the analytic Lipschitz bound is the product
of the layer spectral norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidDimensionError


_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
}


@dataclass(frozen=True)
class FeatureMap:
    """A deterministic map R^d -> R^p applied columnwise.

    kind is "identity" or "random-mlp". For the MLP, ``weights`` holds one
    matrix per layer (hidden layers then the linear readout).
    """

    input_dim: int
    output_dim: int
    kind: str
    activation: str = "tanh"
    seed: int = 0
    hidden_sizes: tuple = ()
    weights: tuple = field(default=(), repr=False)
    lipschitz_bound: float = 1.0

    def __call__(self, M):
        return apply_features(self, M)


def identity_map(d: int) -> FeatureMap:
    """Identity feature map on R^d; Lipschitz bound exactly 1."""
    if d < 1:
        raise InvalidDimensionError(f"input dimension must be >= 1, got {d}")
    return FeatureMap(input_dim=d, output_dim=d, kind="identity", lipschitz_bound=1.0)


def random_mlp_map(d, hidden_sizes, p_out, activation="tanh", seed=0) -> FeatureMap:
    """Frozen random MLP: R^d -> R^{p_out}.

    Weights are i.i.d. N(0, 1/fan_in), biases zero, fixed forever. Empty
    hidden_sizes yields a single linear layer.
    """
    sizes = [int(d)] + [int(h) for h in hidden_sizes] + [int(p_out)]
    if any(s < 1 for s in sizes):
        raise InvalidDimensionError(f"all layer sizes must be >= 1, got {sizes}")
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        weights.append(W)
    # tanh/relu are 1-Lipschitz, so the product of spectral norms bounds
    # the Lipschitz constant of the whole network.
    bound = 1.0
    for W in weights:
        bound *= np.linalg.norm(W, 2)
    return FeatureMap(
        input_dim=int(d),
        output_dim=int(p_out),
        kind="random-mlp",
        activation=activation,
        seed=int(seed),
        hidden_sizes=tuple(int(h) for h in hidden_sizes),
        weights=tuple(weights),
        lipschitz_bound=float(bound),
    )


def apply_features(fmap: FeatureMap, M):
    """Apply fmap to every column of the d x n matrix M (a vector is a
    single column); returns p x n (or a length-p vector)."""
    M = np.asarray(M, dtype=float)
    single = M.ndim == 1
    if single:
        M = M[:, None]
    if M.shape[0] != fmap.input_dim:
        raise InvalidDimensionError(
            f"expected {fmap.input_dim} rows, got {M.shape[0]}"
        )
    if fmap.kind == "identity":
        out = M.copy()
    else:
        act = _ACTIVATIONS[fmap.activation]
        h = M
        for W in fmap.weights[:-1]:
            h = act(W @ h)
        out = fmap.weights[-1] @ h
    return out[:, 0] if single else out
