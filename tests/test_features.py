import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augridge.features import (
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
    assert fm.lipschitz_bound == 1.0


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


def _lipschitz_ratio(fmap, trials, rng_seed=0):
    """max ||phi(x) - phi(x')|| / ||x - x'|| over random pairs: a lower
    bound on the Lipschitz constant."""
    rng = np.random.default_rng(rng_seed)
    X = rng.standard_normal((fmap.input_dim, trials))
    Xp = X + 0.5 * rng.standard_normal(X.shape)
    num = np.linalg.norm(apply_features(fmap, X) - apply_features(fmap, Xp),
                         axis=0)
    return float(np.max(num / np.linalg.norm(X - Xp, axis=0)))


def test_lipschitz_identity_is_one():
    fm = identity_map(8)
    assert _lipschitz_ratio(fm, 100) == pytest.approx(fm.lipschitz_bound)


def test_lipschitz_linear_layer_spectral_norm():
    fm = random_mlp_map(12, [], 6, seed=5)
    W = fm.weights[0]
    # power iteration oracle for the top singular value
    v = np.random.default_rng(1).standard_normal(12)
    for _ in range(500):
        v = W.T @ (W @ v)
        v /= np.linalg.norm(v)
    sigma_top = np.linalg.norm(W @ v)
    assert fm.lipschitz_bound == pytest.approx(sigma_top, rel=1e-8)
    probe = _lipschitz_ratio(fm, 2000, rng_seed=2)
    assert probe <= fm.lipschitz_bound + 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(0, 2))
def test_lipschitz_sandwich(seed, depth):
    fm = random_mlp_map(5, [7] * depth, 4, seed=seed)
    probe = _lipschitz_ratio(fm, 500, rng_seed=seed)
    assert 0.0 <= probe <= fm.lipschitz_bound + 1e-12


def test_lipschitz_probe_large_sample():
    fm = random_mlp_map(10, [15], 8, seed=9)
    probe = _lipschitz_ratio(fm, 10_000, rng_seed=0)
    assert probe <= fm.lipschitz_bound + 1e-12
