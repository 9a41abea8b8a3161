import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augridge import schemes
from augridge.schemes import (
    InvalidParameterError,
    additive_noise,
    closed_moments,
    heteroskedastic,
    masking,
    mixture,
    salt_and_pepper,
    sample_augmented_batch,
)


def _one_draw(scheme, x, y, rng):
    """One draw (x', y') of the datum (x, y): a one-column, one-draw
    batch."""
    Xa, Ya = sample_augmented_batch(scheme, x[:, None], y[:, None], 1, rng)
    return Xa[:, 0], Ya[:, 0]


def _datum(scheme, x, q=1):
    """(c, Lambda, Omega) of one datum: v = x * x, S = x x^T."""
    return closed_moments(scheme, x * x, lambda: np.outer(x, x), q)


def test_masking_full_keep_is_noop():
    rng = np.random.default_rng(0)
    x = np.array([1.0, -2.0, 3.0])
    y = np.array([4.0])
    xp, yp = _one_draw(masking(1.0), x, y, rng)
    assert np.array_equal(xp, x.astype(np.float32))
    assert np.array_equal(yp, y)


def test_additive_zero_noise_is_noop():
    rng = np.random.default_rng(0)
    x = np.array([1.0, 2.0])
    xp, yp = _one_draw(additive_noise(0.0), x, np.array([0.5]), rng)
    assert np.array_equal(xp, x.astype(np.float32))


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
    assert np.allclose(_datum(salt_and_pepper(1.0, 1.0), x)[1], 0.0)
    assert np.allclose(_datum(salt_and_pepper(0.0, 1.0), x)[1], np.eye(2))
    lam = _datum(salt_and_pepper(0.5, 1.0), x)[1]
    assert np.allclose(lam, np.diag([0.75, 1.5]))


def test_salt_pepper_lambda_monte_carlo_oracle():
    rng = np.random.default_rng(11)
    x = np.array([1.0, 2.0])
    scheme = salt_and_pepper(0.5, 1.0)
    N = 100_000
    Xa, _ = sample_augmented_batch(scheme, x[:, None], np.zeros((1, 1)), N, rng)
    emp = np.cov(Xa)
    closed = _datum(scheme, x)[1]
    # entrywise SE from 20 independent groups
    groups = Xa.reshape(2, 20, N // 20)
    covs = np.stack([np.cov(groups[:, g]) for g in range(20)])
    se = covs.std(axis=0, ddof=1) / np.sqrt(20)
    assert np.all(np.abs(emp - closed) <= 4 * se + 1e-12)


def test_heteroskedastic_closed_trivials():
    x = np.array([1.0, -1.0])
    c, lam, om = _datum(heteroskedastic(np.zeros((2, 1))), x)
    assert np.allclose(lam, 0.0) and np.allclose(om, 0.0)
    assert np.array_equal(c * x, x)
    c, lam, om = _datum(heteroskedastic(0.5 * np.eye(2)), x)
    assert np.allclose(lam, 0.25 * np.eye(2)) and np.allclose(om, 0.0)


def test_heteroskedastic_closed_example():
    sx = np.array([[1.0], [2.0]])
    sy = np.array([[3.0]])
    _, lam, om = _datum(heteroskedastic(sx, sy), np.zeros(2))
    assert np.allclose(lam, [[1, 2], [2, 4]])
    assert np.allclose(om, [[3], [6]])


def test_heteroskedastic_monte_carlo_oracle():
    rng = np.random.default_rng(3)
    sx = np.array([[1.0], [2.0]])
    sy = np.array([[3.0]])
    scheme = heteroskedastic(sx, sy)
    x, y = np.zeros(2), np.zeros(1)
    N = 100_000
    draws_x, Ya = sample_augmented_batch(scheme, x[:, None], y[:, None], N,
                                         rng)
    draws_y = Ya[0]
    lam = np.cov(draws_x)
    om = np.array([np.cov(draws_x[i], draws_y)[0, 1] for i in range(2)])
    assert np.allclose(lam, [[1, 2], [2, 4]], atol=0.05)
    assert np.allclose(om, [3, 6], atol=0.08)


def test_mixture_single_component_identity():
    comp = heteroskedastic(np.eye(2), np.ones((1, 2)))
    x = np.ones(2)
    out = _datum(mixture([comp], [1.0]), x)
    for a, b in zip(out, _datum(comp, x)):
        assert np.allclose(a, b)


def test_mixture_identical_components():
    comp = heteroskedastic(np.array([[1.0], [2.0]]), np.ones((1, 1)))
    x = np.array([1.0, 2.0])
    out = _datum(mixture([comp, comp], [0.3, 0.7]), x)
    for a, b in zip(out, _datum(comp, x)):
        assert np.allclose(a, b)


def test_mixture_additive_halves():
    # mixing zero-noise and unit-noise additive schemes at x = 0
    mix = mixture([additive_noise(0.0), additive_noise(1.0)], [0.5, 0.5])
    _, lam, _ = _datum(mix, np.zeros(3))
    assert np.allclose(lam, 0.5 * np.eye(3))


def test_mixture_mean_spread():
    # keep x or zero it with probability 1/2 each: mu_x = x / 2 and
    # Lambda = x x^T / 4, all of it from the spread of the component means
    x = np.array([1.0, -2.0])
    c, lam, om = _datum(mixture([masking(1.0), masking(0.0)], [0.5, 0.5]), x)
    assert c == 0.5 and np.allclose(om, 0.0)
    assert np.allclose(lam, 0.25 * np.outer(x, x))


def test_mixture_monte_carlo_oracle():
    # components with different mean maps and label noise: the closed
    # (c, Lambda, Omega) against 100 000 draws, within grouped SEs
    mix = mixture([masking(0.3), heteroskedastic(np.array([[0.5], [1.0]]),
                                                  np.array([[0.8]]))],
                  [0.6, 0.4])
    x, y = np.array([1.0, -2.0]), np.array([0.5])
    c, lam, om = _datum(mix, x)
    N, groups = 100_000, 20
    Xa, Ya = sample_augmented_batch(mix, x[:, None], y[:, None], N,
                                    np.random.default_rng(12))
    D = np.vstack([Xa, Ya])
    emp = np.cov(D)
    covs = np.stack([np.cov(g) for g in np.split(D, groups, axis=1)])
    se = covs.std(axis=0, ddof=1) / np.sqrt(groups)
    assert np.all(np.abs(emp[:2, :2] - lam) <= 4 * se[:2, :2])
    assert np.all(np.abs(emp[:2, 2:] - om) <= 4 * se[:2, 2:])
    mean_se = D.std(axis=1) / np.sqrt(N)
    assert np.all(np.abs(D.mean(axis=1) - np.r_[c * x, y]) <= 4 * mean_se)


def test_every_scheme_keeps_the_mean_label():
    # mu_y = E[tau_y] = y for every kind, which the moment set rests on:
    # the mean of 100 000 augmented labels of two outputs is y within 4
    # grouped SEs (exactly y where the label is kept), label noise alone
    # and in a mixture with a label-preserving kind
    het = heteroskedastic(np.array([[0.5, 0.0], [1.0, 0.3]]),
                          np.array([[0.8, -0.2], [0.0, 1.5]]))
    x, y = np.array([1.0, -2.0]), np.array([0.5, -1.0])
    N, groups = 100_000, 20
    rng = np.random.default_rng(13)
    for scheme in (additive_noise(0.7), masking(0.3),
                   salt_and_pepper(0.5, 1.0), heteroskedastic(het.s_x), het,
                   mixture([masking(0.3), het], [0.6, 0.4])):
        _, Ya = sample_augmented_batch(scheme, x[:, None], y[:, None], N, rng)
        means = np.stack([g.mean(axis=1)
                          for g in np.split(Ya, groups, axis=1)])
        se = means.std(axis=0, ddof=1) / np.sqrt(groups)
        gap = np.abs(Ya.mean(axis=1) - y)
        assert np.all(gap <= 4 * se), scheme.kind


def test_mixture_bad_weights():
    with pytest.raises(InvalidParameterError):
        mixture([additive_noise(0.0), additive_noise(1.0)], [0.5, 0.6])


@pytest.mark.parametrize("build", [
    lambda: additive_noise(float("nan")),
    lambda: additive_noise(float("inf")),
    lambda: masking(float("nan")),
    lambda: masking(1.5),
    lambda: salt_and_pepper(-0.1, 1.0),
    lambda: salt_and_pepper(0.5, float("nan")),
    lambda: salt_and_pepper(0.5, np.eye(3)),
    lambda: salt_and_pepper(0.5, "0.5"),
    lambda: mixture([additive_noise(0.0)], [float("nan")]),
    lambda: mixture([additive_noise(0.0), additive_noise(1.0)],
                    [0.5, float("nan")]),
    lambda: heteroskedastic(np.full((2, 1), np.nan)),
    lambda: heteroskedastic(lambda z: np.eye(2)),
], ids=["sigma-nan", "sigma-inf", "keep-nan", "keep-above-one",
        "keep-below-zero", "replacement-nan",
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
            _, yp = _one_draw(scheme, x, y, rng)
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
_SX = np.arange(12.0).reshape(4, 3) / 5.0
_STREAM_CASES = {
    "additive": lambda: additive_noise(0.3),
    "masking": lambda: masking(0.6),
    "salt-and-pepper": lambda: salt_and_pepper(0.6, 0.7),
    "heteroskedastic": lambda: heteroskedastic(_SX),
    "heteroskedastic-sy": lambda: heteroskedastic(_SX, np.ones((2, 3))),
    "mixture": lambda: mixture([additive_noise(0.5), masking(0.7),
                                salt_and_pepper(0.5, 0.2)], [0.2, 0.5, 0.3]),
    "mixture-heteroskedastic": lambda: mixture(
        [masking(0.7), heteroskedastic(_SX, np.ones((2, 3))),
         mixture([additive_noise(0.4), salt_and_pepper(0.3, 0.6)],
                 [0.5, 0.5])], [0.3, 0.4, 0.3]),
}


def _column_draws(scheme, x, y, gen):
    """m draws of the float32 datum x and of its float64 labels y (q x m),
    written plainly from the column's generator: masks from raw 32-bit
    integers against keep_prob * 2**32 (no bits at keep_prob 0 or 1),
    replacement normals put in with np.place, heteroskedastic draws as
    x + s_x eta and y + s_y eta, mixtures by inverse CDF on float32
    uniforms."""
    m, d, f32 = y.shape[1], x.size, np.float32
    if scheme.kind == "additive-noise":
        return x + scheme.sigma_aug * gen.standard_normal((m, d), dtype=f32), y
    if scheme.kind in ("masking", "salt-and-pepper"):
        keep = np.full((m, d), scheme.keep_prob == 1.0)
        if 0.0 < scheme.keep_prob < 1.0:
            bits = gen.bit_generator.random_raw(-(-m * d // 2))
            u = bits.view(np.uint32)[:m * d].reshape(m, d)
            keep = u < round(scheme.keep_prob * 2 ** 32)
        out = np.where(keep, x, f32(0.0))
        if scheme.kind == "salt-and-pepper":
            z = gen.standard_normal(int((~keep).sum()), dtype=f32)
            np.place(out, ~keep, scheme.replacement * z)
        return out, y
    if scheme.kind == "heteroskedastic":
        eta = gen.standard_normal((m, scheme.s_x.shape[1]), dtype=f32)
        out = eta @ scheme.s_x.astype(f32).T + x
        return out, y if scheme.s_y is None else y + scheme.s_y @ eta.T
    idx = np.searchsorted(np.cumsum(scheme.weights),
                          gen.random(m, dtype=f32), side="right")
    idx = np.minimum(idx, len(scheme.components) - 1)
    out, y = np.empty((m, d), f32), y.copy()
    for j, comp in enumerate(scheme.components):
        sel = np.flatnonzero(idx == j)
        if sel.size:
            out[sel], y[:, sel] = _column_draws(comp, x, y[:, sel], gen)
    return out, y


def _per_column_batch(scheme, X, Y, T, rng):
    """The kernel written plainly, one data column at a time from its own
    child generator: the oracle of the stream-pinning test."""
    X32 = X.astype(np.float32)
    d, n = X.shape
    Xa, Yr = np.empty((d, n * T), np.float32), np.repeat(Y, T, 1)
    for i, gen in enumerate(rng.spawn(n)):
        rows = slice(i * T, (i + 1) * T)
        out, Yr[:, rows] = _column_draws(scheme, X32[:, i], Yr[:, rows], gen)
        Xa[:, rows] = out.T
    return Xa, Yr


@pytest.mark.parametrize("n_draws", [1, 7])
@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
def test_streamed_batch_keeps_the_random_stream(case, n_draws):
    # same RNG state in, same values and sign bits out, same state after;
    # every kind draws x' in float32 and keeps its labels in float64
    scheme = _STREAM_CASES[case]()
    data = np.random.default_rng(4)
    X = data.standard_normal((_STREAM_D, 9))
    Y = data.standard_normal((_STREAM_Q, 9))
    r1, r2 = np.random.default_rng(13), np.random.default_rng(13)
    Xa, Ya = sample_augmented_batch(scheme, X, Y, n_draws, r1)
    Xr, Yr = _per_column_batch(scheme, X, Y, n_draws, r2)
    assert Xa.dtype == np.float32 and Ya.dtype == np.float64
    for new, old in ((Xa, Xr), (Ya, Yr)):
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))
    # the children are spawned, so the caller's bits do not advance, and
    # its next spawn gives the same children on both sides
    assert r1.bit_generator.state == r2.bit_generator.state
    assert r1.spawn(1)[0].random() == r2.spawn(1)[0].random()


def test_threads_write_disjoint_rows(monkeypatch):
    # more threads than cores, one column a task and a thread switch every
    # microsecond: each task writes only its own rows of the batch, so no
    # write is lost and the batch equals the one-thread batch
    scheme = _STREAM_CASES["mixture"]()
    data = np.random.default_rng(4)
    X = data.standard_normal((_STREAM_D, 64))
    Y = data.standard_normal((_STREAM_Q, 64))
    monkeypatch.setattr(schemes, "TASK_ENTRIES", 1)
    monkeypatch.setattr(schemes, "POOL_COLUMN_ENTRIES", 0)
    batches = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 8):
            monkeypatch.setattr(schemes, "usable_cpus", lambda t=threads: t)
            batches.append(sample_augmented_batch(
                scheme, X, Y, 9, np.random.default_rng(13)))
    finally:
        sys.setswitchinterval(interval)
    for one, many in zip(*batches):
        assert np.array_equal(one, many)


@pytest.mark.parametrize("case", ["heteroskedastic-sy",
                                  "mixture-heteroskedastic"])
def test_matrix_products_run_on_the_pool(monkeypatch, case):
    # numpy's BLAS runs one thread for the whole call, so a
    # heteroskedastic component's s_x eta, a matrix product, runs on the
    # sampler's thread pool like any other draw, with the calling
    # thread's bits
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(schemes, "TASK_ENTRIES", 1)
    monkeypatch.setattr(schemes, "POOL_COLUMN_ENTRIES", 0)
    X = np.random.default_rng(4).standard_normal((_STREAM_D, 64))
    batches = []
    monkeypatch.setattr(schemes, "ThreadPoolExecutor", CountingPool)
    for threads in (1, 8):
        monkeypatch.setattr(schemes, "usable_cpus", lambda t=threads: t)
        batches.append(sample_augmented_batch(
            _STREAM_CASES[case](), X, X[:_STREAM_Q], 9,
            np.random.default_rng(13)))
    assert started == [8]
    for one, many in zip(*batches):
        assert np.array_equal(one, many)


def test_masks_exact_at_the_ends_of_the_range():
    # keep_prob 0 and 1 draw no bits: a 32-bit threshold of 0 would keep
    # nothing, but 2**32 does not fit in 32 bits. So masking at 0 keeps
    # nothing, salt-and-pepper at 0 replaces every entry with each
    # column's own first normals, and masking at 1 keeps everything,
    # sign bits included
    X = np.random.default_rng(4).standard_normal((_STREAM_D, 9))
    Y = np.zeros((1, 9))
    shape, T = (_STREAM_D, 9 * 7), 7
    Xr = np.repeat(X.astype(np.float32), T, axis=1)
    Xa, _ = sample_augmented_batch(masking(0.0), X, Y, T,
                                   np.random.default_rng(5))
    assert np.array_equal(Xa, np.zeros(shape, np.float32))
    Xa, _ = sample_augmented_batch(salt_and_pepper(0.0, 0.7), X, Y, T,
                                   np.random.default_rng(5))
    noise = np.concatenate(
        [g.standard_normal((T, _STREAM_D), dtype=np.float32).T
         for g in np.random.default_rng(5).spawn(9)], axis=1)
    assert np.array_equal(Xa, noise * np.float32(0.7))
    for seed in (5, 6):
        Xa, _ = sample_augmented_batch(masking(1.0), X, Y, T,
                                       np.random.default_rng(seed))
        assert np.array_equal(Xa, Xr)
        assert np.array_equal(np.signbit(Xa), np.signbit(Xr))


def test_schemes_compare_field_by_field():
    sx = np.arange(6.0).reshape(3, 2)
    assert heteroskedastic(sx) == heteroskedastic(sx.copy())
    assert heteroskedastic(sx) != heteroskedastic(sx + 1.0)
    assert heteroskedastic(sx) != heteroskedastic(sx, np.ones((1, 2)))
    assert (mixture([heteroskedastic(sx), masking(0.5)], [0.5, 0.5])
            == mixture([heteroskedastic(sx), masking(0.5)], [0.5, 0.5]))
    assert masking(0.5) == masking(0.5) != salt_and_pepper(0.5, 0.0)
    assert masking(0.5) != "masking"


@pytest.mark.parametrize("scheme", [masking(0.7), salt_and_pepper(0.6, 0.5)],
                         ids=["masking", "salt-and-pepper"])
def test_closed_lambda_is_one_diagonal(scheme):
    # (1 - m)(m Diag v + s^2 I) built as one diagonal: each diagonal entry
    # sees the same operations in the same order, so the bits are those
    # of the expression with its p x p temporaries
    v = np.random.default_rng(5).uniform(0.0, 3.0, 40)
    m, s = scheme.keep_prob, scheme.replacement
    old = (1.0 - m) * (m * np.diag(v) + float(s) ** 2 * np.eye(40))
    assert np.array_equal(closed_moments(scheme, v, None, 1)[1], old)
