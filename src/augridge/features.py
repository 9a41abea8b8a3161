"""Feature maps: identity and frozen randomly-initialized MLPs.

Maps are immutable after construction and applied columnwise to d x n
matrices. The random MLP draws Gaussian weights with variance 1/fan_in
(zero biases), applies the activation after every hidden layer, and keeps
the final readout linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidDimensionError


_ACTIVATIONS = {  # each takes out= and may work in place
    "tanh": np.tanh,
    "relu": lambda x, out=None: np.maximum(x, 0.0, out=out),
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

    def __call__(self, M):
        return apply_features(self, M)


def identity_map(d: int) -> FeatureMap:
    """Identity feature map on R^d."""
    if d < 1:
        raise InvalidDimensionError(f"input dimension must be >= 1, got {d}")
    return FeatureMap(input_dim=d, output_dim=d, kind="identity")


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
    return FeatureMap(
        input_dim=int(d),
        output_dim=int(p_out),
        kind="random-mlp",
        activation=activation,
        seed=int(seed),
        hidden_sizes=tuple(int(h) for h in hidden_sizes),
        weights=tuple(weights),
    )


COLS = 4096  # columns per block of the MLP's hidden activations


def block_columns(smallest):
    """Columns per block of an MLP whose smallest layer has `smallest`
    weights; the last block of apply_features takes the remainder, so it
    has fewer than twice this many.

    A block gives the bits of the full-width product only where BLAS
    multiplies both alike. Block edges fall on whole register tiles
    (multiples of COLS), and each block has at least 2**20 multiply-adds
    in its smallest layer: OpenBLAS multiplies products of up to 1e6 with
    a small-matrix kernel that rounds the odd last columns otherwise."""
    return COLS * -(-2 ** 20 // (COLS * smallest))


def mlp(weights, activation, M, outs):
    """Run the MLP of weights (hidden layers, then the linear readout) on
    the columns of M: each layer writes into its array of outs (None
    allocates it), the activation works in place after every hidden layer,
    and the readout's output is returned. The weights share M's dtype."""
    act = _ACTIVATIONS[activation]
    h = M
    for i, (W, out) in enumerate(zip(weights, outs)):
        h = np.matmul(W, h, out=out)
        if i < len(weights) - 1:
            act(h, out=h)
    return h


def apply_features(fmap: FeatureMap, M):
    """Apply fmap to every column of the d x n matrix M (a vector is a
    single column); returns p x n (or a length-p vector) in M's float
    dtype: float32 stays float32, anything else is computed in float64.
    The MLP runs in blocks of COLS columns, written into one p x n output,
    so no hidden activation exists at full width."""
    M = np.asarray(M)
    if M.dtype != np.float32:
        M = M.astype(float, copy=False)
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
        weights = [W.astype(M.dtype, copy=False) for W in fmap.weights]
        n = M.shape[1]
        cols = block_columns(min(W.size for W in weights))
        edges = [i * cols for i in range(max(1, n // cols))] + [n]
        out = np.empty((fmap.output_dim, n), dtype=M.dtype)
        hidden = [None] * (len(weights) - 1)
        for a, b in zip(edges, edges[1:]):
            mlp(weights, fmap.activation, M[:, a:b], hidden + [out[:, a:b]])
    return out[:, 0] if single else out
