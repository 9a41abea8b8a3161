import numpy as np
import pytest

from augridge.features import (
    COLS,
    InvalidDimensionError,
    apply_features,
    identity_map,
    random_mlp_map,
)


def test_identity_roundtrip():
    fm = identity_map(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(fm(x), x)
    assert fm.output_dim == 3


def test_identity_scalar_and_big():
    assert identity_map(1)(np.array([-4.5]))[0] == -4.5
    assert identity_map(759).output_dim == 759


def test_identity_rejects_zero_dim():
    with pytest.raises(InvalidDimensionError):
        identity_map(0)


def test_mlp_rejects_zero_sizes():
    with pytest.raises(InvalidDimensionError):
        random_mlp_map(4, [0], 2)
    with pytest.raises(InvalidDimensionError):
        random_mlp_map(0, [3], 2)


def test_mlp_determinism():
    x = np.linspace(-1, 1, 10)
    a = random_mlp_map(10, [20, 20], 7, seed=42)(x)
    b = random_mlp_map(10, [20, 20], 7, seed=42)(x)
    assert np.array_equal(a, b)
    c = random_mlp_map(10, [20, 20], 7, seed=43)(x)
    assert not np.array_equal(a, c)


def test_mlp_shapes_match_hidden_config():
    fm = random_mlp_map(1000, [500, 500], 700, seed=0)
    assert fm.input_dim == 1000 and fm.output_dim == 700
    assert [w.shape for w in fm.weights] == [(500, 1000), (500, 500),
                                             (700, 500)]


def test_empty_hidden_is_linear():
    fm = random_mlp_map(5, [], 3, seed=1)
    x = np.arange(5.0)
    assert np.allclose(fm(x), fm.weights[0] @ x)


def test_apply_columnwise_matches_pointwise():
    fm = random_mlp_map(6, [8], 4, seed=2)
    M = np.random.default_rng(0).standard_normal((6, 5))
    out = apply_features(fm, M)
    assert out.shape == (4, 5)
    for j in range(5):
        assert np.allclose(out[:, j], fm(M[:, j]))


def test_apply_duplicate_columns_equal():
    fm = random_mlp_map(4, [6], 3, seed=3)
    x = np.ones(4)
    out = apply_features(fm, np.stack([x, x], axis=1))
    assert np.array_equal(out[:, 0], out[:, 1])


def test_apply_dimension_mismatch():
    with pytest.raises(InvalidDimensionError):
        apply_features(identity_map(3), np.zeros((4, 2)))


_BLOCK_SHAPES = [
    (50, 60, 40, 2 * COLS + 37),
    # layers of 192 and 160 weights: blocks of COLS columns would take
    # OpenBLAS's small-matrix kernel where the full product does not
    (12, 16, 10, 3 * COLS + 100),
]


@pytest.mark.parametrize("activation,act", [
    ("tanh", np.tanh), ("relu", lambda h: np.maximum(h, 0.0))])
@pytest.mark.parametrize("d,hidden,p,n,dtype", [
    pytest.param(*shape, dtype, id="-".join(map(str, shape)) + suffix)
    for shape in _BLOCK_SHAPES
    for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))])
def test_blocked_mlp_equals_one_shot(activation, act, d, hidden, p, n,
                                     dtype):
    # the MLP runs in column blocks and must give the one-shot product bit
    # for bit, the last block's odd columns included, in either precision
    fm = random_mlp_map(d, [hidden], p, activation=activation, seed=3)
    M = np.random.default_rng(4).standard_normal((d, n)).astype(dtype)
    W1, W2 = (W.astype(dtype) for W in fm.weights)
    out = apply_features(fm, M)
    assert out.dtype == dtype
    assert np.array_equal(out, W2 @ act(W1 @ M))
