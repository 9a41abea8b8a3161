import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augridge.schemes import (
    InvalidParameterError,
    additive_noise,
    closed_moments,
    heteroskedastic,
    heteroskedastic_moments_closed,
    masking,
    mixture,
    mixture_moments_closed,
    salt_and_pepper,
    salt_pepper_lambda_closed,
    sample_augmented,
    sample_augmented_batch,
)


def test_masking_full_keep_is_noop():
    rng = np.random.default_rng(0)
    x = np.array([1.0, -2.0, 3.0])
    y = np.array([4.0])
    xp, yp = sample_augmented(masking(1.0), (x, y), rng)
    assert np.array_equal(xp, x) and np.array_equal(yp, y)


def test_additive_zero_noise_is_noop():
    rng = np.random.default_rng(0)
    x = np.array([1.0, 2.0])
    xp, yp = sample_augmented(additive_noise(0.0), (x, np.array([0.5])), rng)
    assert np.array_equal(xp, x)


def test_salt_pepper_mean_is_qx():
    rng = np.random.default_rng(7)
    scheme = salt_and_pepper(0.5, 1.0)
    x = np.array([1.0, 2.0])
    N = 200_000
    draws = np.empty((2, N))
    Xa, _ = sample_augmented_batch(scheme, x[:, None], np.zeros((1, 1)), N, rng)
    draws = Xa
    mean = draws.mean(axis=1)
    se = draws.std(axis=1) / np.sqrt(N)
    assert np.all(np.abs(mean - np.array([0.5, 1.0])) <= 3 * se)


def test_salt_pepper_lambda_closed_trivials():
    x = np.array([1.0, 2.0])
    assert np.allclose(salt_pepper_lambda_closed(x, 1.0, 1.0), 0.0)
    assert np.allclose(salt_pepper_lambda_closed(x, 0.0, 1.0), np.eye(2))
    lam = salt_pepper_lambda_closed(x, 0.5, 1.0)
    assert np.allclose(lam, np.diag([0.75, 1.5]))


def test_salt_pepper_lambda_closed_bad_prob():
    with pytest.raises(InvalidParameterError):
        salt_pepper_lambda_closed(np.ones(2), 1.5, 1.0)


def test_salt_pepper_lambda_monte_carlo_oracle():
    rng = np.random.default_rng(11)
    x = np.array([1.0, 2.0])
    scheme = salt_and_pepper(0.5, 1.0)
    N = 100_000
    Xa, _ = sample_augmented_batch(scheme, x[:, None], np.zeros((1, 1)), N, rng)
    emp = np.cov(Xa)
    closed = salt_pepper_lambda_closed(x, 0.5, 1.0)
    # entrywise SE from 20 independent groups
    groups = Xa.reshape(2, 20, N // 20)
    covs = np.stack([np.cov(groups[:, g]) for g in range(20)])
    se = covs.std(axis=0, ddof=1) / np.sqrt(20)
    assert np.all(np.abs(emp - closed) <= 4 * se + 1e-12)


def test_heteroskedastic_closed_trivials():
    x = np.array([1.0, -1.0])
    y = np.array([2.0])
    mu_x, mu_y, lam, om = heteroskedastic_moments_closed(
        (x, y), np.zeros((2, 1)), None)
    assert np.allclose(lam, 0.0) and np.allclose(om, 0.0)
    assert np.array_equal(mu_x, x)
    mu_x, mu_y, lam, om = heteroskedastic_moments_closed(
        (x, y), 0.5 * np.eye(2), None)
    assert np.allclose(lam, 0.25 * np.eye(2)) and np.allclose(om, 0.0)


def test_heteroskedastic_closed_example():
    x = np.zeros(2)
    y = np.zeros(1)
    sx = np.array([[1.0], [2.0]])
    sy = np.array([[3.0]])
    _, _, lam, om = heteroskedastic_moments_closed((x, y), sx, sy)
    assert np.allclose(lam, [[1, 2], [2, 4]])
    assert np.allclose(om, [[3], [6]])


def test_heteroskedastic_monte_carlo_oracle():
    rng = np.random.default_rng(3)
    sx = np.array([[1.0], [2.0]])
    sy = np.array([[3.0]])
    scheme = heteroskedastic(sx, sy)
    z = (np.zeros(2), np.zeros(1))
    N = 100_000
    draws_x = np.empty((2, N))
    draws_y = np.empty(N)
    for t in range(N):
        xp, yp = sample_augmented(scheme, z, rng)
        draws_x[:, t] = xp
        draws_y[t] = yp[0]
    lam = np.cov(draws_x)
    om = np.array([np.cov(draws_x[i], draws_y)[0, 1] for i in range(2)])
    assert np.allclose(lam, [[1, 2], [2, 4]], atol=0.05)
    assert np.allclose(om, [3, 6], atol=0.08)


def test_mixture_single_component_identity():
    comp = (np.ones(2), np.ones(1), np.eye(2), np.zeros((2, 1)))
    out = mixture_moments_closed([comp], [1.0])
    for a, b in zip(out, comp):
        assert np.allclose(a, b)


def test_mixture_identical_components():
    comp = (np.array([1.0, 2.0]), np.array([3.0]), 2 * np.eye(2),
            np.ones((2, 1)))
    out = mixture_moments_closed([comp, comp], [0.3, 0.7])
    for a, b in zip(out, comp):
        assert np.allclose(a, b)


def test_mixture_additive_halves():
    # mixing zero-noise and unit-noise additive schemes at x = 0
    z = (np.zeros(3), np.zeros(1))
    m0 = closed_moments(additive_noise(0.0), z)
    m1 = closed_moments(additive_noise(1.0), z)
    _, _, lam, _ = mixture_moments_closed([m0, m1], [0.5, 0.5])
    assert np.allclose(lam, 0.5 * np.eye(3))


def test_mixture_bad_weights():
    with pytest.raises(InvalidParameterError):
        mixture([additive_noise(0.0), additive_noise(1.0)], [0.5, 0.6])


@pytest.mark.parametrize("build", [
    lambda: additive_noise(float("nan")),
    lambda: additive_noise(float("inf")),
    lambda: masking(float("nan")),
    lambda: salt_and_pepper(0.5, float("nan")),
    lambda: salt_and_pepper(0.5, np.eye(3)),
    lambda: salt_and_pepper(0.5, "0.5"),
    lambda: mixture([additive_noise(0.0)], [float("nan")]),
    lambda: mixture([additive_noise(0.0), additive_noise(1.0)],
                    [0.5, float("nan")]),
    lambda: heteroskedastic(np.full((2, 1), np.nan)),
    lambda: heteroskedastic(lambda z: np.eye(2)),
], ids=["sigma-nan", "sigma-inf", "keep-nan", "replacement-nan",
        "replacement-matrix", "replacement-str", "weight-nan",
        "weights-nan-pair", "factor-nan", "factor-callable"])
def test_constructors_reject_bad_parameters(build):
    # NaN fails no range comparison, so each parameter must be asked to be
    # a finite number (or a finite array for the heteroskedastic factors)
    with pytest.raises(InvalidParameterError):
        build()


@settings(max_examples=30, deadline=None)
@given(w=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
def test_mixture_weights_normalized(w):
    w = np.array(w) / np.sum(w)
    comps = [additive_noise(float(s)) for s in range(len(w))]
    scheme = mixture(comps, w.tolist())
    assert abs(sum(scheme.weights) - 1.0) <= 1e-12


def test_label_preservation_bit_exact():
    rng = np.random.default_rng(5)
    y = np.array([0.123456789, -9.87654321])
    x = rng.standard_normal(4)
    for scheme in (additive_noise(0.25), masking(0.85),
                   salt_and_pepper(0.85, 0.25)):
        for _ in range(20):
            _, yp = sample_augmented(scheme, (x, y), rng)
            assert np.array_equal(yp, y)


def test_mean_convergence_rate():
    scheme = salt_and_pepper(0.5, 1.0)
    x = np.array([1.0, 2.0])
    mu = 0.5 * x
    errs = []
    for N in (1_000, 10_000, 100_000):
        rng = np.random.default_rng(N)
        Xa, _ = sample_augmented_batch(scheme, x[:, None],
                                       np.zeros((1, 1)), N, rng)
        errs.append(np.linalg.norm(Xa.mean(axis=1) - mu))
    # error should fall roughly like 1/sqrt(N) over two decades
    assert errs[2] < errs[0]
    assert errs[2] <= errs[0] / 3.0


def test_batch_matches_single_draw_layout():
    scheme = masking(0.7)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 4))
    Y = rng.standard_normal((2, 4))
    Xa, Ya = sample_augmented_batch(scheme, X, Y, 5, rng)
    assert Xa.shape == (3, 20) and Ya.shape == (2, 20)
    for i in range(4):
        assert np.allclose(Ya[:, 5 * i:5 * (i + 1)], Y[:, [i]])


_STREAM_D, _STREAM_Q = 4, 2
_STREAM_CASES = {
    "additive": lambda: additive_noise(0.3),
    "masking": lambda: masking(0.6),
    "salt-and-pepper": lambda: salt_and_pepper(0.6, 0.7),
    "heteroskedastic": lambda: heteroskedastic(
        np.arange(12.0).reshape(4, 3) / 5.0),
    "heteroskedastic-sy": lambda: heteroskedastic(
        np.arange(12.0).reshape(4, 3) / 5.0, np.ones((2, 3))),
    "mixture": lambda: mixture([additive_noise(0.5), masking(0.7),
                                salt_and_pepper(0.5, 0.2)], [0.2, 0.5, 0.3]),
}


@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
def test_single_draw_is_one_column_batch_draw(case):
    # sample_augmented and a one-column, one-draw sample_augmented_batch
    # consume the same random stream and give the same values bit for bit
    scheme = _STREAM_CASES[case]()
    data = np.random.default_rng(2)
    x = data.standard_normal(_STREAM_D)
    y = data.standard_normal(_STREAM_Q)
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(200):
        xp, yp = sample_augmented(scheme, (x, y), r1)
        Xa, Ya = sample_augmented_batch(scheme, x[:, None], y[:, None], 1, r2)
        assert np.array_equal(xp, Xa[:, 0]) and np.array_equal(yp, Ya[:, 0])
    assert r1.random() == r2.random()


def _repeated_batch(scheme, Xr, Yr, rng):
    """The kernel as it was before it streamed: the columns repeated by
    np.repeat and float masks. The oracle of the stream-pinning test."""
    shape = Xr.shape
    if scheme.kind == "additive-noise":
        Xa = Xr + scheme.sigma_aug * rng.standard_normal(shape)
    elif scheme.kind == "masking":
        M = (rng.random(shape) <= scheme.keep_prob).astype(float)
        Xa = Xr * M
    elif scheme.kind == "salt-and-pepper":
        M = (rng.random(shape) <= scheme.keep_prob).astype(float)
        noise = rng.standard_normal(shape) * (1.0 - M)
        Xa = Xr * M + scheme.replacement * noise
    elif scheme.kind == "heteroskedastic":
        eta = rng.standard_normal((scheme.s_x.shape[1], shape[1]))
        Xa = Xr + scheme.s_x @ eta
        if scheme.s_y is not None:
            Yr += scheme.s_y @ eta
    else:  # mixture
        idx = np.searchsorted(np.cumsum(scheme.weights), rng.random(shape[1]),
                              side="right")
        idx = np.minimum(idx, len(scheme.components) - 1)
        Xa = np.empty_like(Xr)
        for j, comp in enumerate(scheme.components):
            cols = np.flatnonzero(idx == j)
            if cols.size == 0:
                continue
            Xsub = np.ascontiguousarray(Xr[:, cols])
            Ysub = np.ascontiguousarray(Yr[:, cols])
            Xa[:, cols] = _repeated_batch(comp, Xsub, Ysub, rng)
            Yr[:, cols] = Ysub
    return Xa


@pytest.mark.parametrize("n_draws", [1, 7])
@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
def test_streamed_batch_keeps_the_random_stream(case, n_draws):
    # same RNG state in, same values and sign bits out, same state after
    scheme = _STREAM_CASES[case]()
    data = np.random.default_rng(4)
    X = data.standard_normal((_STREAM_D, 9))
    Y = data.standard_normal((_STREAM_Q, 9))
    r1, r2 = np.random.default_rng(13), np.random.default_rng(13)
    Xa, Ya = sample_augmented_batch(scheme, X, Y, n_draws, r1)
    Yr = np.repeat(Y, n_draws, axis=1)
    Xr = _repeated_batch(scheme, np.repeat(X, n_draws, axis=1), Yr, r2)
    for new, old in ((Xa, Xr), (Ya, Yr)):
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))
    assert r1.random() == r2.random()


def test_schemes_compare_field_by_field():
    sx = np.arange(6.0).reshape(3, 2)
    assert heteroskedastic(sx) == heteroskedastic(sx.copy())
    assert heteroskedastic(sx) != heteroskedastic(sx + 1.0)
    assert heteroskedastic(sx) != heteroskedastic(sx, np.ones((1, 2)))
    assert (mixture([heteroskedastic(sx), masking(0.5)], [0.5, 0.5])
            == mixture([heteroskedastic(sx), masking(0.5)], [0.5, 0.5]))
    assert masking(0.5) == masking(0.5) != salt_and_pepper(0.5, 0.0)
    assert masking(0.5) != "masking"
