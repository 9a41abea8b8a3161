"""Acceptance suite: one test per headline claim of the package.

The heavy shared computation (criterion 1's moment estimation and R=200
sweep) runs once in a module-scoped fixture and is reused by the
bias-variance and hygiene criteria.
"""

import os
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from augridge import detequiv, harness, ridge
from augridge.datasets import SyntheticSpec, sample_synthetic
from augridge.features import identity_map
from augridge.harness import (
    ExperimentConfig,
    build_moment_set,
    mnist_pipeline,
    run_sweep,
    validate,
)
from augridge.moments import (
    batch_sample_moments,
    closed_population_moment_set,
)
from augridge.schemes import (
    additive_noise,
    closed_moments,
    heteroskedastic,
    masking,
    mixture,
    salt_and_pepper,
    sample_augmented_batch,
)

SQRT_HALF = 0.7071067811865476

CR1_CFG = {
    "data": {
        "kind": "synthetic",
        "d": 200,
        "n": 300,
        "spectrum": "power-law",
        "theta_star": "normalized-ones",
        "noise_sigma2": 0.5,
        "q_seed": 0,
    },
    "features": {
        "kind": "random-mlp",
        "hidden_sizes": [200],
        "output_dim": 150,
        "activation": "tanh",
        "seed": 11,
    },
    "scheme": {
        "kind": "salt-and-pepper",
        "keep_prob": 0.5,
        "replacement_scale": SQRT_HALF,
    },
    "lambda_grid": [0.05, 0.1, 0.3, 1.0],
    "alpha_grid": [0.0, 0.5, 1.0],
    "replicates": 200,
    "n_mc_aug": 200,
    "n_mc_data": 20000,
    "seed": 7,
    "workers": 1,
}


@pytest.fixture(scope="module")
def accuracy_run():
    """Moment set, R=200 sweep rows, and wall time for the main accuracy
    experiment; the moment set is shared with the bias-variance and
    hygiene criteria."""
    config = ExperimentConfig.from_dict(CR1_CFG)
    t0 = time.monotonic()
    moment_set = build_moment_set(config)
    rows = run_sweep(config, moment_set=moment_set)
    elapsed = time.monotonic() - t0
    return config, moment_set, rows, elapsed


@pytest.fixture(scope="module")
def bias_variance_run(accuracy_run):
    config, moment_set, _, _ = accuracy_run
    bv = ExperimentConfig.from_dict(dict(
        CR1_CFG,
        lambda_grid=[0.05],
        alpha_grid=[0.0, 0.25, 0.5, 0.75],
        n_grid=[100],
        replicates=50,
    ))
    rows = run_sweep(bv, moment_set=moment_set)
    return bv, rows


def _beta_closed(lam, p, n):
    b = lam + p / n - 1.0
    return (-b + np.sqrt(b * b + 4.0 * lam)) / 2.0


def _assert_in_band(rows, R):
    """Criterion 1's band: each cell's deterministic g, overlap and chi
    within max(5% of the replicate mean, 3 standard errors of R
    replicates) of that mean."""
    for r in rows:
        assert r.fp_converged
        for mean, std, det in (
            (r.g_mean, r.g_std, r.g_det),
            (r.overlap_mean, r.overlap_std, r.overlap_det),
            (r.chi_mean, r.chi_std, r.chi_det),
        ):
            tol = max(0.05 * abs(mean), 3.0 * std / np.sqrt(R))
            assert abs(det - mean) <= tol, (
                f"lambda={r.lam} alpha={r.alpha}: |{det} - {mean}| > {tol}"
            )


def test_criterion_01_deterministic_equivalent_accuracy(accuracy_run):
    config, _, rows, elapsed = accuracy_run
    assert len(rows) == 12
    _assert_in_band(rows, config.replicates)
    assert elapsed <= 600.0, f"accuracy run took {elapsed:.0f}s (> 10 min)"


# criterion 1's check where the feature map is far from linear: ReLU on
# isotropic data, whose hidden preactivations have variance about 1
# (criterion 1's power-law data gives its tanh units about 0.03)
NONLINEAR_CFG = dict(
    CR1_CFG,
    data=dict(CR1_CFG["data"], d=100, n=150, spectrum="isotropic"),
    features=dict(CR1_CFG["features"], hidden_sizes=[100], output_dim=75,
                  activation="relu"),
    lambda_grid=[0.05, 0.3, 1.0],
    alpha_grid=[0.0, 0.5, 1.0],
    n_mc_aug=50,
)


def test_deterministic_equivalent_accuracy_relu_isotropic():
    config = ExperimentConfig.from_dict(NONLINEAR_CFG)
    W1 = config.build_feature_map().weights[0]
    preact = (W1 * W1).sum(axis=1)  # Var(W1 x) with Cov(x) = I
    assert 0.7 <= preact.mean() <= 1.3
    rows = run_sweep(config)
    assert len(rows) == 9
    _assert_in_band(rows, config.replicates)


def test_criterion_02_closed_form_fixed_point():
    p = n = 60
    ms = closed_population_moment_set(np.eye(p), additive_noise(0.0),
                                      np.zeros(p), 0.0)
    st = detequiv.solve_fixed_point(ms, 0.0, 1.0, n)
    assert abs(float(st.B.sum()) - (-1.0 + np.sqrt(5.0)) / 2.0) <= 1e-8
    for lam in (0.1, 0.5, 1.0, 5.0):
        for (pp, nn) in ((60, 60), (90, 60), (45, 90)):
            msl = closed_population_moment_set(np.eye(pp), additive_noise(0.0),
                                               np.zeros(pp), 0.0)
            stl = detequiv.solve_fixed_point(msl, 0.0, lam, nn)
            assert abs(float(stl.B.sum()) - _beta_closed(lam, pp, nn)) <= 1e-8


def test_criterion_03_equivalence_of_equivalents():
    p, n = 40, 60
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(p) / np.sqrt(p)
    Sigma = np.diag(rng.uniform(0.5, 2.0, p))
    ms = closed_population_moment_set(Sigma, additive_noise(0.4), theta, 0.3)
    for lam in (0.05, 0.2, 1.0, 5.0):
        for alpha in (0.0, 0.5, 1.0):
            st = detequiv.solve_fixed_point(ms, alpha, lam, n)
            D = detequiv.compute_second_order(st, ms)
            rep = detequiv.equivalents(st, D, ms, 0.3)
            red = detequiv.wellspecified_reduction(st, D, ms, theta, 0.3)
            rel = abs(red["g_bar_simple_mean"] - rep.g_bar_mean) \
                / abs(rep.g_bar_mean)
            assert rel <= 1e-8, f"lambda={lam} alpha={alpha}: rel={rel}"


def test_criterion_04_derivative_identity():
    master = np.random.SeedSequence(42)
    for idx, ss in enumerate(master.spawn(20)):
        rng = np.random.default_rng(ss)
        d = int(rng.integers(5, 30))
        n = int(rng.integers(d, 3 * d))
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.05, 2.0))
        scheme = (additive_noise(float(rng.uniform(0.1, 0.6)))
                  if idx % 2 == 0
                  else salt_and_pepper(float(rng.uniform(0.4, 0.9)), 0.5))
        fm = identity_map(d)
        X = rng.standard_normal((d, n))
        Y = rng.standard_normal((1, n))
        psm = batch_sample_moments(scheme, fm, X, Y, 2, rng)
        design = ridge.assemble_design(X, Y, fm, psm)
        Sigma = np.diag(rng.uniform(0.5, 2.0, d))
        system = ridge.normal_equations(design, alpha)
        theta = ridge.fit(system, lam)[:, 0]
        fd = ridge.xi_derivative_fd(system, lam, Sigma)
        exact = -float(theta @ Sigma @ theta)
        assert abs(fd - exact) <= 1e-3 * abs(exact), f"instance {idx}"


@pytest.fixture(scope="module")
def validation_report():
    config = ExperimentConfig.from_dict({
        "data": {"kind": "synthetic", "d": 30, "n": 60,
                 "spectrum": "isotropic", "theta_star": "normalized-ones",
                 "noise_sigma2": 0.25, "q_seed": 0},
        "scheme": {"kind": "salt-and-pepper", "keep_prob": 0.5,
                   "replacement_scale": SQRT_HALF},
        "lambda_grid": [0.5],
        "alpha_grid": [0.5],
        "replicates": 400,
        "n_mc_aug": 2,
        "seed": 3,
    })
    return validate(config, factor=4)


def test_criterion_05_concentration_rates_first_order(validation_report):
    rep = validation_report
    assert rep["base"]["fp_converged"] and rep["scaled"]["fp_converged"]
    for key in ("resolvent_fluct_ratio", "theta_fluct_ratio",
                "chi_fluct_ratio"):
        assert 1.4 <= rep[key] <= 2.9, f"{key} = {rep[key]}"


def test_criterion_06_risk_concentration_rate(validation_report):
    assert 1.4 <= validation_report["std_g_ratio"] <= 2.9


def _grouped_se(draws_x, draws_y=None, groups=20):
    """Entrywise SE of a covariance estimate from independent groups."""
    d, N = draws_x.shape
    per = N // groups
    covs = []
    for g in range(groups):
        sl = slice(g * per, (g + 1) * per)
        if draws_y is None:
            covs.append(np.cov(draws_x[:, sl]))
        else:
            block = np.vstack([draws_x[:, sl], draws_y[:, sl]])
            covs.append(np.cov(block))
    covs = np.stack(covs)
    return covs.std(axis=0, ddof=1) / np.sqrt(groups)


def test_criterion_07_moment_closed_forms():
    N = 100_000
    # salt-and-pepper
    rng = np.random.default_rng(1)
    x = np.array([1.0, -2.0, 0.5])
    sp = salt_and_pepper(0.5, SQRT_HALF)
    Xa, _ = sample_augmented_batch(sp, x[:, None], np.zeros((1, 1)), N, rng)
    c, lam_c, _ = closed_moments(sp, x * x, lambda: np.outer(x, x), 1)
    mu = c * x
    emp = np.cov(Xa)
    se = _grouped_se(Xa)
    assert np.all(np.abs(emp - lam_c) <= 4 * se + 1e-12)
    mu_se = Xa.std(axis=1) / np.sqrt(N)
    assert np.all(np.abs(Xa.mean(axis=1) - mu) <= 4 * mu_se)

    # heteroskedastic noise with correlated label noise
    sx = np.array([[1.0, 0.0], [0.5, 1.0]])
    sy = np.array([[0.8, -0.3]])
    het = heteroskedastic(sx, sy)
    z = (np.array([0.2, -0.1]), np.array([1.0]))
    _, lam_c, om_c = closed_moments(het, z[0] ** 2,
                                    lambda: np.outer(z[0], z[0]), 1)
    dx = np.empty((2, N))
    dy = np.empty((1, N))
    rng = np.random.default_rng(2)
    for t in range(N):
        xp, yp = sample_augmented_batch(het, z[0][:, None], z[1][:, None], 1,
                                        rng)
        dx[:, t] = xp[:, 0]
        dy[0, t] = yp[0, 0]
    full_se = _grouped_se(dx, dy)
    full = np.cov(np.vstack([dx, dy]))
    assert np.all(np.abs(full[:2, :2] - lam_c) <= 4 * full_se[:2, :2] + 1e-12)
    assert np.all(np.abs(full[:2, 2:] - om_c) <= 4 * full_se[:2, 2:] + 1e-12)

    # mixture of two additive schemes: closed mixture formula
    comps = [additive_noise(0.2), additive_noise(0.8)]
    mix = mixture(comps, [0.3, 0.7])
    z = (np.array([1.0, 2.0]), np.array([0.0]))
    _, lam_mix, _ = closed_moments(mix, z[0] ** 2,
                                   lambda: np.outer(z[0], z[0]), 1)
    rng = np.random.default_rng(3)
    Xa, _ = sample_augmented_batch(mix, z[0][:, None], z[1][:, None], N, rng)
    emp = np.cov(Xa)
    se = _grouped_se(Xa)
    assert np.all(np.abs(emp - lam_mix) <= 4 * se + 1e-12)


def test_criterion_08_coordinatewise_multivariate_equivalence():
    q, d, n = 25, 30, 50
    rng = np.random.default_rng(4)
    X = rng.standard_normal((d, n))
    Y = rng.standard_normal((q, n))
    fm = identity_map(d)
    scheme = salt_and_pepper(0.7, 0.4)
    psm = batch_sample_moments(scheme, fm, X, Y, 8, rng)
    design = ridge.assemble_design(X, Y, fm, psm)
    joint = ridge.fit(ridge.normal_equations(design, 0.5), 0.3)
    assert joint.shape == (d, q)
    for j in range(q):
        dj = ridge.AugmentedDesign(
            C=design.C, Cprime=design.Cprime, H=design.H[:, [j]],
            Hprime=design.Hprime[:, [j]], LambdaEmp=design.LambdaEmp,
            OmegaEmp=design.OmegaEmp[:, [j]], n=design.n,
        )
        single = ridge.fit(ridge.normal_equations(dj, 0.5), 0.3)[:, 0]
        assert np.max(np.abs(joint[:, j] - single)) <= 1e-10


def test_criterion_09_variance_reduction_trend(bias_variance_run):
    config, rows = bias_variance_run
    rows = sorted(rows, key=lambda r: r.alpha)
    assert [r.alpha for r in rows] == [0.0, 0.25, 0.5, 0.75]
    R = config.replicates
    for a, b in zip(rows, rows[1:]):
        # deterministic variance must not increase with the augmentation
        # weight, up to the statistical resolution of the empirical check
        slack = 2.0 * max(a.g_std, b.g_std) / np.sqrt(R)
        assert b.var_det <= a.var_det + 1e-12
        assert abs(a.var_det - a.var_emp) <= max(2.0 * a.g_std / np.sqrt(R),
                                                 0.05 * a.var_emp) + slack


def test_criterion_10_fixed_point_hygiene(accuracy_run, bias_variance_run):
    config, moment_set, rows, _ = accuracy_run
    bv_config, bv_rows = bias_variance_run
    cells = [(r.lam, r.alpha, r.n) for r in rows]
    cells += [(r.lam, r.alpha, r.n) for r in bv_rows]
    for (lam, alpha, n) in cells:
        st = detequiv.solve_fixed_point(moment_set, alpha, lam, n)
        assert st.converged and st.iterations <= 500
        assert st.residual <= 1e-10
        lo, _ = np.linalg.eigvalsh(st.W @ st.W - st.B)
        assert lo >= -1e-10, f"B exceeds W^2 at lambda={lam} alpha={alpha}"
        D = detequiv.compute_second_order(st, moment_set)
        assert float(D.sum()) >= 0.0
    for r in rows + bv_rows:
        assert r.fp_converged and r.fp_iterations <= 500
        assert r.fp_residual <= 1e-10
        assert r.delta >= 0.0


def _in_band(mean, std, det, R):
    """The criterion-1 band: |det - mean| within 5% or 3 standard errors;
    returns the distance as a fraction of the band."""
    return abs(det - mean) / max(0.05 * abs(mean), 3.0 * std / np.sqrt(R))


def test_criterion_12_label_changing_augmentation():
    # tau_x = x + s_x eta, tau_y = y + s_y eta: the augmentation changes
    # the labels, so OmegaBar = s_x s_y^T != 0 enters both the fits and the
    # prediction; exact population moments, identity maps, R = 400
    d, n, R = 40, 80, 400
    config = ExperimentConfig.from_dict({
        "data": {"kind": "synthetic", "d": d, "n": n,
                 "spectrum": "power-law", "theta_star": "normalized-ones",
                 "noise_sigma2": 0.5, "q_seed": 0},
        "lambda_grid": [0.01, 0.1, 1.0], "alpha_grid": [0.0, 0.5, 1.0],
        "replicates": R, "seed": 12,
    })
    s_x = np.random.default_rng(4).standard_normal((d, 3)) / np.sqrt(d)
    het = heteroskedastic(s_x, 3.0 * np.array([[0.5, -0.2, 0.3]]))
    spec = config.build_synthetic_spec()
    theta, sigma2 = spec.theta_star, spec.noise_sigma2
    ms = closed_population_moment_set(spec.covariance(), het, theta, sigma2)
    assert np.abs(ms.OmegaBar).max() > 0.1
    rows = harness._sweep(config, harness._FreshDraws(spec), identity_map(d),
                          het, ms, None)
    assert len(rows) == 9
    no_omega = replace(ms, OmegaBar=np.zeros_like(ms.OmegaBar))
    worst, worst_no_omega = 0.0, 0.0
    for r in rows:
        det0 = harness._det_columns(no_omega, r.n, r.lam, r.alpha, sigma2)
        for mean, std, det, wrong in (
            (r.g_mean, r.g_std, r.g_det, det0[0]),
            (r.overlap_mean, r.overlap_std, r.overlap_det, det0[1]),
            (r.chi_mean, r.chi_std, r.chi_det, det0[2]),
        ):
            worst = max(worst, _in_band(mean, std, det, R))
            worst_no_omega = max(worst_no_omega, _in_band(mean, std, wrong, R))
    assert worst <= 1.0, f"worst |det - mean| / tol = {worst:.3f}"
    # negative control: the prediction without OmegaBar leaves the band
    assert worst_no_omega > 1.0


def _find_mnist_files():
    roots = []
    env = os.environ.get("AUGRIDGE_MNIST_DIR")
    if env:
        roots.append(Path(env))
    here = Path(__file__).resolve().parent.parent
    roots += [here / "data", Path("data")]
    train_names = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")
    test_names = ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte")
    for root in roots:
        for tn in train_names:
            for en in test_names:
                train, test = root / tn, root / en
                if train.is_file() and test.is_file():
                    return str(train), str(test)
    return None


def test_criterion_11_mnist_inpainting_pipeline():
    found = _find_mnist_files()
    if found is None:
        warnings.warn(
            "MNIST IDX files not found (set AUGRIDGE_MNIST_DIR or place "
            "train-images-idx3-ubyte and t10k-images-idx3-ubyte under "
            "./data); skipping the inpainting pipeline criterion"
        )
        pytest.skip("MNIST IDX files not available")
    train_path, test_path = found
    scheme_cfgs = [
        {"kind": "additive-noise", "sigma_aug": 0.25},
        {"kind": "masking", "keep_prob": 0.85},
        {"kind": "salt-and-pepper", "keep_prob": 0.85,
         "replacement_scale": 0.25},
    ]
    for scheme_cfg in scheme_cfgs:
        cfg = ExperimentConfig.from_dict({
            "data": {"kind": "mnist", "train_images": train_path,
                     "test_images": test_path},
            "scheme": scheme_cfg,
            "lambda_grid": [1e-3],
            "alpha_grid": [0.0, 0.5],
            "n_grid": [250, 375],  # aspect ratios 759/n >= 2
            "replicates": 3,
            "n_mc_aug": 50,
            "seed": 13,
        })
        rows = mnist_pipeline(cfg)
        for r in rows:
            assert np.isfinite(r.g_mean) and np.isfinite(r.g_det)
            assert r.aspect_ratio >= 2.0
            assert abs(r.g_det - r.g_mean) <= 0.10 * abs(r.g_mean), (
                f"{scheme_cfg['kind']} n={r.n} alpha={r.alpha}: "
                f"det {r.g_det} vs emp {r.g_mean}"
            )
