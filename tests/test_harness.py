import functools
import importlib.util
import json
import re
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from augridge import detequiv, harness, moments, schemes
from augridge.cli import main as cli_main
from augridge.errors import NumericalFailureError
from augridge.harness import (
    RESULT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    build_moment_set,
    mnist_pipeline,
    run_sweep,
    validate,
    write_csv,
)
from augridge.moments import closed_population_moment_set
from augridge.schemes import (
    additive_noise,
    heteroskedastic,
    masking,
    mixture,
    salt_and_pepper,
)

ROOT = Path(__file__).resolve().parent.parent


def _tiny_cfg(**over):
    cfg = {
        "data": {
            "kind": "synthetic",
            "d": 8,
            "n": 16,
            "spectrum": "isotropic",
            "theta_star": "normalized-ones",
            "noise_sigma2": 0.1,
            "q_seed": 0,
        },
        "scheme": {"kind": "additive-noise", "sigma_aug": 0.3},
        "lambda_grid": [0.5],
        "alpha_grid": [0.0, 0.5],
        "replicates": 3,
        "n_mc_aug": 4,
        "seed": 5,
        "workers": 1,
    }
    cfg.update(over)
    return cfg


# --- config parsing ----------------------------------------------------

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(_tiny_cfg(bogus=1))


def test_unknown_nested_key_rejected():
    cfg = _tiny_cfg()
    cfg["data"]["typo"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(cfg)
    cfg = _tiny_cfg()
    cfg["scheme"]["oops"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(cfg)


def test_missing_data_key_rejected():
    with pytest.raises(ConfigError, match="data"):
        ExperimentConfig.from_dict({"lambda_grid": [0.1]})


def test_bad_grids_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_tiny_cfg(lambda_grid=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_tiny_cfg(lambda_grid=[0.0]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_tiny_cfg(alpha_grid=[1.5]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_tiny_cfg(replicates=0))


def test_bad_scheme_kind_rejected():
    with pytest.raises(ConfigError, match="scheme"):
        ExperimentConfig.from_dict(_tiny_cfg(scheme={"kind": "zoom"}))


def test_bad_json_file_rejected(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(p)


def test_mixture_scheme_config():
    cfg = _tiny_cfg(scheme={
        "kind": "mixture",
        "components": [
            {"kind": "additive-noise", "sigma_aug": 0.1},
            {"kind": "masking", "keep_prob": 0.8},
        ],
        "weights": [0.5, 0.5],
    })
    scheme = ExperimentConfig.from_dict(cfg).build_scheme()
    assert scheme.kind == "mixture"
    cfg["scheme"]["components"][0]["junk"] = 1
    with pytest.raises(ConfigError, match="components"):
        ExperimentConfig.from_dict(cfg)


# --- sweeps ------------------------------------------------------------

def test_sweep_rows_cover_grid():
    config = ExperimentConfig.from_dict(_tiny_cfg())
    rows = run_sweep(config)
    assert len(rows) == 2
    assert {r.alpha for r in rows} == {0.0, 0.5}
    for r in rows:
        assert r.p == 8 and r.n == 16 and r.fp_converged
        assert np.isfinite(r.g_mean) and np.isfinite(r.g_det)


def test_sweep_deterministic_and_worker_invariant(tmp_path):
    c1 = ExperimentConfig.from_dict(_tiny_cfg())
    c2 = ExperimentConfig.from_dict(_tiny_cfg())
    c2.workers = 2
    r1 = run_sweep(c1)
    r2 = run_sweep(c2)
    for a, b in zip(r1, r2):
        assert a.to_list() == b.to_list()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(r1, p1)
    write_csv(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


_SX = np.linspace(-1.0, 1.0, 24).reshape(8, 3) / 3.0
_KERNEL_SCHEMES = {
    "additive": lambda: additive_noise(0.3),
    "masking": lambda: masking(0.6),
    "salt-and-pepper": lambda: salt_and_pepper(0.5, 0.7),
    "heteroskedastic": lambda: heteroskedastic(_SX),
    "heteroskedastic-sy": lambda: heteroskedastic(_SX, 0.2 * np.ones((1, 3))),
    "mixture-heteroskedastic": lambda: mixture(
        [masking(0.7), heteroskedastic(_SX, 0.2 * np.ones((1, 3))),
         salt_and_pepper(0.5, 0.2)], [0.3, 0.4, 0.3]),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_SCHEMES))
def test_sweep_rows_do_not_depend_on_kernel_threads(monkeypatch, case):
    # every data column draws its augmentations from its own child
    # generator, so neither the width of the sampler's thread pool nor
    # the size of its tasks moves a bit of any row, at the default BLAS
    # threads; the pool lives only for the call. A task of 80 or 280
    # entries holds 1-7 columns of the replicates (d 8, 5 draws) and of
    # the moment set (10 draws), and with no floor on a column's entries
    # two threads share each batch
    scheme = _KERNEL_SCHEMES[case]()
    monkeypatch.setattr(harness, "_build_scheme", lambda cfg: scheme)
    monkeypatch.setattr(schemes, "POOL_COLUMN_ENTRIES", 0)
    config = ExperimentConfig.from_dict(_tiny_cfg(
        features={"kind": "random-mlp", "hidden_sizes": [6],
                  "output_dim": 5},
        n_mc_aug=5, n_mc_data=600))
    runs = []
    for threads, entries in ((1, schemes.TASK_ENTRIES), (2, 80), (2, 280),
                             (1, 80)):
        monkeypatch.setattr(schemes, "usable_cpus", lambda t=threads: t)
        monkeypatch.setattr(schemes, "TASK_ENTRIES", entries)
        alive = threading.active_count()
        runs.append([r.to_list() for r in run_sweep(config)])
        assert threading.active_count() == alive
    assert all(rows == runs[0] for rows in runs[1:])


def test_sweep_rows_without_the_blas_pin(monkeypatch):
    # where numpy's BLAS thread count cannot be set, the kernel runs in
    # the calling thread, with the rows of the pool. Blocks of 64
    # augmented columns split each replicate (16 columns, 4 draws) and
    # each moment-set chunk into several tasks
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(moments, "block_columns", lambda smallest: 64)
    monkeypatch.setattr(schemes, "usable_cpus", lambda: 2)
    monkeypatch.setattr(schemes, "ThreadPoolExecutor", CountingPool)
    config = ExperimentConfig.from_dict(_tiny_cfg(
        features={"kind": "random-mlp", "hidden_sizes": [6],
                  "output_dim": 5},
        n_mc_data=600))
    pooled = [r.to_list() for r in run_sweep(config)]
    assert started and set(started) == {2}
    monkeypatch.setattr(schemes, "_blas_calls", lambda: None)
    monkeypatch.setattr(schemes, "ThreadPoolExecutor", no_pool)
    assert [r.to_list() for r in run_sweep(config)] == pooled


def test_sweep_seed_changes_results():
    r1 = run_sweep(ExperimentConfig.from_dict(_tiny_cfg(seed=5)))
    r2 = run_sweep(ExperimentConfig.from_dict(_tiny_cfg(seed=6)))
    assert r1[0].g_mean != r2[0].g_mean


def test_csv_format(tmp_path):
    config = ExperimentConfig.from_dict(_tiny_cfg())
    rows = run_sweep(config)
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    first = lines[1].split(",")
    assert len(first) == len(RESULT_COLUMNS)
    # floats carry 17 significant digits; round-trips exactly
    g_mean = first[RESULT_COLUMNS.index("g_mean")]
    assert float(g_mean) == rows[0].g_mean
    assert first[-1] in ("true", "false")


def test_single_replicate_has_zero_std():
    config = ExperimentConfig.from_dict(_tiny_cfg(replicates=1))
    rows = run_sweep(config)
    assert rows[0].g_std == 0.0 and rows[0].chi_std == 0.0


def test_bias_variance_split_sums():
    config = ExperimentConfig.from_dict(_tiny_cfg(replicates=12))
    rows = run_sweep(config)
    for r in rows:
        assert r.bias2_emp + r.var_emp == pytest.approx(r.g_mean, rel=1e-12)
        assert r.bias2_det + r.var_det == pytest.approx(r.g_det, rel=1e-12)


def test_empirical_variance_is_unbiased():
    # g is quadratic, so g_mean - g(theta_bar) is the fits' spread with
    # ddof 0, (R - 1)/R of their variance: uncorrected, var_emp - sigma2
    # would be 10% low at R = 10. Over 100 sweeps of a closed-form cell,
    # that gap is at least 5 standard errors of the mean, and the mean
    # corrected var_emp - sigma2 lies within 3 of var_det - sigma2
    sigma2, sweeps = 0.5, 100
    cfg = {"data": {"kind": "synthetic", "d": 40, "n": 80,
                    "spectrum": "power-law", "noise_sigma2": sigma2},
           "scheme": {"kind": "masking", "keep_prob": 0.7},
           "lambda_grid": [0.05], "alpha_grid": [0.5], "replicates": 10}
    ms = build_moment_set(ExperimentConfig.from_dict(cfg))
    rows = [run_sweep(ExperimentConfig.from_dict(dict(cfg, seed=s)),
                      moment_set=ms)[0] for s in range(sweeps)]
    var = np.array([r.var_emp for r in rows]) - sigma2
    target = rows[0].var_det - sigma2
    se = var.std(ddof=1) / np.sqrt(sweeps)
    assert 0.1 * target >= 5 * se
    assert abs(var.mean() - target) <= 3 * se


def test_moment_set_closed_path_for_identity_features():
    config = ExperimentConfig.from_dict(_tiny_cfg())
    ms = build_moment_set(config)
    assert ms.provenance == "closed-form"
    spec = config.build_synthetic_spec()
    assert np.allclose(ms.Sigma, spec.covariance())


_MLP_MAP = {"kind": "random-mlp", "hidden_sizes": [6], "output_dim": 5}
_MIXTURE = {"kind": "mixture", "weights": [0.4, 0.6], "components": [
    {"kind": "additive-noise", "sigma_aug": 0.3},
    {"kind": "masking", "keep_prob": 0.7}]}


@pytest.mark.parametrize("over,provenance", [
    ({}, "closed-form"),
    ({"scheme": {"kind": "masking", "keep_prob": 0.7}}, "closed-form"),
    ({"scheme": {"kind": "salt-and-pepper", "keep_prob": 0.5,
                 "replacement_scale": 0.7}}, "closed-form"),
    ({"scheme": _MIXTURE}, "closed-form"),
    ({"features": _MLP_MAP}, "monte-carlo"),
    ({"truth_features": _MLP_MAP}, "monte-carlo"),
], ids=["additive-noise", "masking", "salt-and-pepper", "mixture",
        "mlp-features", "mlp-truth"])
def test_moment_set_path_choice(over, provenance):
    # closed forms exactly where both maps are the identity, for every
    # scheme; Monte-Carlo over all n_mc_data columns else
    config = ExperimentConfig.from_dict(_tiny_cfg(n_mc_data=64, **over))
    ms = build_moment_set(config)
    assert ms.provenance == provenance
    assert ms.n_mc_used == (0 if provenance == "closed-form" else 64)


def test_moment_set_ignores_n_mc_aug():
    # the Monte-Carlo moment set draws DRAWS augmentations a column
    # whatever n_mc_aug, which sets the replicates' draws only
    sets = [build_moment_set(ExperimentConfig.from_dict(_tiny_cfg(
        n_mc_data=64, n_mc_aug=T, features=_MLP_MAP))) for T in (4, 200)]
    for name in ("Sigma", "SigmaPrime", "SigmaDoublePrime", "G1", "G3",
                 "EY2", "LambdaBar", "OmegaBar"):
        assert np.array_equal(getattr(sets[0], name),
                              getattr(sets[1], name)), name


def test_validate_report_shape():
    config = ExperimentConfig.from_dict(_tiny_cfg(
        data={"kind": "synthetic", "d": 10, "n": 20,
              "spectrum": "isotropic", "noise_sigma2": 0.25, "q_seed": 0},
        scheme={"kind": "additive-noise", "sigma_aug": 0.3},
        lambda_grid=[0.5], alpha_grid=[0.5], replicates=20, n_mc_aug=8,
    ))
    report = validate(config, factor=2)
    for key in ("base", "scaled", "resolvent_fluct_ratio",
                "theta_fluct_ratio", "chi_fluct_ratio", "std_g_ratio",
                "fd_identity_rel_err"):
        assert key in report
    assert report["base"]["fp_converged"]
    assert report["scaled"]["n"] == 40
    assert report["fd_identity_rel_err"] <= 1e-3
    assert json.dumps(report)  # must be JSON-serializable


# --- CLI ---------------------------------------------------------------

def _write_cfg(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_cli_bias_variance_requires_replicates(tmp_path, capsys):
    # the command's replicates check runs before the sweep; run_sweep
    # itself takes any replicate count
    out = tmp_path / "out"
    path = _write_cfg(tmp_path, _tiny_cfg(replicates=3, out_dir=str(out)))
    assert cli_main(["bias-variance", "--config", path]) == 2
    assert "replicates >= 10" in capsys.readouterr().err
    assert not out.exists()
    assert run_sweep(ExperimentConfig.from_json(path))


def test_cli_bad_config_exit_2(tmp_path):
    path = _write_cfg(tmp_path, _tiny_cfg(bogus=1))
    assert cli_main(["sweep-lambda", "--config", path]) == 2


def test_cli_missing_config_exit_2(tmp_path):
    assert cli_main(["sweep-lambda", "--config",
                     str(tmp_path / "nope.json")]) == 2


def test_cli_missing_mnist_file_exit_3(tmp_path):
    cfg = {
        "data": {"kind": "mnist",
                 "train_images": str(tmp_path / "missing-idx"),
                 "test_images": str(tmp_path / "missing-idx")},
        "lambda_grid": [0.1], "alpha_grid": [0.0],
        "n_grid": [10], "replicates": 1, "seed": 0,
    }
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["mnist", "--config", path]) == 3


def test_cli_sweep_success_writes_csv(tmp_path):
    path = _write_cfg(tmp_path, _tiny_cfg(out_dir=str(tmp_path / "out")))
    assert cli_main(["sweep-lambda", "--config", path]) == 0
    out = tmp_path / "out" / "sweep_lambda.csv"
    assert out.exists()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 3


def test_cli_overrides(tmp_path):
    path = _write_cfg(tmp_path, _tiny_cfg())
    out = tmp_path / "cli_out"
    assert cli_main(["sweep-alpha", "--config", path,
                     "--out", str(out), "--seed", "9",
                     "--workers", "1"]) == 0
    assert (out / "sweep_alpha.csv").exists()
    assert cli_main(["sweep-alpha", "--config", path,
                     "--seed", "-1"]) == 2
    assert cli_main(["sweep-alpha", "--config", path,
                     "--workers", "0"]) == 2


def test_cli_validate_writes_json(tmp_path):
    cfg = _tiny_cfg(
        data={"kind": "synthetic", "d": 6, "n": 12,
              "spectrum": "isotropic", "noise_sigma2": 0.1, "q_seed": 0},
        replicates=10, n_mc_aug=4, out_dir=str(tmp_path / "v"),
    )
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["validate", "--config", path]) == 0
    report = json.loads((tmp_path / "v" / "validate.json").read_text())
    assert "resolvent_fluct_ratio" in report


@pytest.mark.parametrize("key,value", [
    ("spectrum", [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3]),
    ("theta_star", [0.5, -0.5, 0.25, 0.0, 0.1, 0.2, 0.3, 0.4]),
])
def test_cli_validate_scales_listed_data(tmp_path, key, value):
    # the scaled instance repeats each listed entry, not the d-entry list
    cfg = _tiny_cfg(out_dir=str(tmp_path / "v"))
    cfg["data"][key] = value
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["sweep-lambda", "--config", path]) == 0
    assert cli_main(["validate", "--config", path]) == 0
    report = json.loads((tmp_path / "v" / "validate.json").read_text())
    assert report["scaled"]["p"] == 32


_MLP = {"kind": "random-mlp", "hidden_sizes": [4], "output_dim": 5}


def test_cli_validate_runs_mixture_scheme(tmp_path):
    # a mixture has exact population moments, so validate runs it
    scheme = {"kind": "mixture", "weights": [0.5, 0.5], "components": [
        {"kind": "masking", "keep_prob": 0.8},
        {"kind": "additive-noise", "sigma_aug": 0.2}]}
    path = _write_cfg(tmp_path, _tiny_cfg(scheme=scheme,
                                          out_dir=str(tmp_path / "v")))
    assert cli_main(["validate", "--config", path]) == 0
    report = json.loads((tmp_path / "v" / "validate.json").read_text())
    assert report["base"]["fp_converged"] and report["scaled"]["fp_converged"]


@pytest.mark.parametrize("key,value,named", [
    pytest.param("features", _MLP, "config.features", id="mlp-features"),
    pytest.param("truth_features", _MLP, "config.truth_features",
                 id="mlp-truth"),
])
def test_cli_validate_unsupported_config_exit_2(tmp_path, capsys, key, value,
                                                named):
    # validate runs closed-form moments of identity maps only; other maps
    # are refused, not run as identity or ended in a traceback
    path = _write_cfg(tmp_path, _tiny_cfg(**{key: value},
                                          out_dir=str(tmp_path / "v")))
    assert cli_main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("key,value,over", [
    pytest.param("theta_star", [1e308] + [0.0] * 7, {}, id="theta-closed"),
    pytest.param("spectrum", [1.7e308] + [1.0] * 7,
                 {"features": _MLP, "n_mc_data": 64}, id="spectrum-mlp"),
])
def test_cli_overflowed_moment_set_exit_4(tmp_path, capsys, key, value, over):
    # entries near 1e308 overflow inside the moment set; the run stops
    # there with a numerical failure naming the block
    cfg = _tiny_cfg(out_dir=str(tmp_path / "out"), **over)
    cfg["data"][key] = value
    path = _write_cfg(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_main(["sweep-lambda", "--config", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: moment set block")
    assert "non-finite" in err and "Traceback" not in err


def test_sweep_rejects_non_finite_row(tmp_path):
    # Sigma's entries sit just under the moment-set bound (1.34e154) while
    # the data are O(1): chi = theta_hat^T Sigma theta_hat is finite, but
    # its spread over the replicates overflows np.std; the sweep names the
    # cell and the column and writes no CSV
    config = ExperimentConfig.from_dict(
        _tiny_cfg(replicates=8, out_dir=str(tmp_path / "out")))
    d = config.data["d"]
    Sigma = 1.3e154 * (0.5 * np.eye(d) + 0.5 * np.ones((d, d)))
    ms = closed_population_moment_set(Sigma, additive_noise(0.3),
                                      np.ones(d) / d, 0.1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFailureError,
            match=r"_std is inf at lambda=0\.5, alpha=0, n=16"):
        run_sweep(config, csv_name="sweep.csv", moment_set=ms)
    assert not (tmp_path / "out").exists()


def test_cli_memory_error_exit_3(tmp_path, monkeypatch, capsys):
    def no_memory(config):
        raise MemoryError
    monkeypatch.setattr(harness, "build_moment_set", no_memory)
    path = _write_cfg(tmp_path, _tiny_cfg(out_dir=str(tmp_path / "out")))
    assert cli_main(["sweep-lambda", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: MemoryError")
    assert "Traceback" not in err


def test_worker_pool_capped(monkeypatch):
    # the pool is never asked for more processes than units or CPUs; the
    # fake runs the units in this process and starts none
    sizes = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness, "_worker_payload", None)
    monkeypatch.setattr(schemes, "usable_cpus", lambda: 4)
    # a pool worker runs one sampler thread; restored after the test
    monkeypatch.setattr(schemes, "SAMPLER_THREADS", None)
    for replicates, pool in ((3, 3), (6, 4)):
        serial = run_sweep(ExperimentConfig.from_dict(
            _tiny_cfg(replicates=replicates)))
        pooled = run_sweep(ExperimentConfig.from_dict(
            _tiny_cfg(replicates=replicates, workers=100_000)))
        assert sizes[-1] == pool
        assert [r.to_list() for r in pooled] == [r.to_list() for r in serial]
    assert len(sizes) == 2
    assert schemes.SAMPLER_THREADS == 1


def _spans_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps these attributes in a traced run; each must
    # exist on the package
    import augridge
    spans = _spans_module()
    for mod, attr, name in spans._targets(augridge):
        assert callable(getattr(mod, attr)), f"{mod.__name__}.{attr}"
        assert name in spans.SELF_TIME_METRIC


# the layer spans each kind of round reaches
_ROUND_SPANS = ("harness", "features.apply", "moments.batch", "detequiv.fp",
                "detequiv.second_order", "detequiv.equivalents",
                "ridge.assemble", "ridge.fit")
_REACHED = {
    "random-mlp": ("datasets.sample", "schemes.augment", "moments.estimate"),
    "closed-form": ("datasets.sample", "moments.closed"),
    "mnist": ("datasets.idx", "moments.estimate", "ridge.risk"),
}


@pytest.mark.parametrize("round_kind", _REACHED)
def test_benchmark_spans_fire(tmp_path, round_kind):
    # a traced round attributes time to every layer it reaches: a call
    # moved off a wrapped module attribute would zero that layer's metric
    import augridge
    if round_kind == "mnist":
        config = _mnist_fixture(tmp_path, n_grid=[20], replicates=1,
                                alpha_grid=[0.5])
    else:
        over = dict(replicates=1, alpha_grid=[0.5], n_mc_data=40)
        if round_kind == "random-mlp":
            over.update(features={"kind": "random-mlp", "hidden_sizes": [5],
                                  "output_dim": 4},
                        scheme={"kind": "masking", "keep_prob": 0.8})
        config = ExperimentConfig.from_dict(_tiny_cfg(**over))
    tracer = _spans_module().Tracer()
    with tracer.span("round"), tracer.installed(augridge):
        # looked up on the module, as the benchmark's rounds do
        if round_kind == "mnist":
            harness.mnist_pipeline(config)
        else:
            harness.run_sweep(config)
    fired = {name for name, *_ in tracer.spans}
    missing = set(_ROUND_SPANS + _REACHED[round_kind]) - fired
    assert not missing, f"spans that never fired: {sorted(missing)}"


# --- MNIST pipeline on synthetic fixtures ------------------------------

def _idx_file(path, images):
    images = np.asarray(images, dtype=np.uint8)
    n, r, c = images.shape
    path.write_bytes(struct.pack(">IIII", 0x00000803, n, r, c)
                     + images.tobytes())


def test_mnist_pipeline_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    train = rng.integers(0, 256, size=(80, 28, 28), dtype=np.uint8)
    test = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
    train_path = tmp_path / "train-images-idx3-ubyte"
    test_path = tmp_path / "t10k-images-idx3-ubyte"
    _idx_file(train_path, train)
    _idx_file(test_path, test)
    cfg = ExperimentConfig.from_dict({
        "data": {"kind": "mnist",
                 "train_images": str(train_path),
                 "test_images": str(test_path)},
        "scheme": {"kind": "masking", "keep_prob": 0.9},
        "lambda_grid": [1.0],
        "alpha_grid": [0.0, 0.5],
        "n_grid": [40],
        "replicates": 2,
        "n_mc_aug": 4,
        "seed": 3,
    })
    cfg.out_dir = str(tmp_path)
    rows = mnist_pipeline(cfg, csv_name="mnist.csv")
    assert (tmp_path / "mnist.csv").exists()
    assert len(rows) == 2
    for r in rows:
        assert r.d == 759 and r.p == 759 and r.n == 40
        assert np.isfinite(r.g_mean) and r.g_mean >= 0.0
        assert r.fp_converged


@pytest.mark.parametrize("command", ["sweep-lambda", "mnist"])
def test_cli_unconverged_fixed_point_exit_4(tmp_path, monkeypatch, capsys,
                                            command):
    # one Newton iterate cannot converge: the cell must fail the command,
    # not leave a NaN row behind
    monkeypatch.setattr(detequiv, "solve_fixed_point", functools.partial(
        detequiv.solve_fixed_point, max_iter=1))
    out = tmp_path / "out"
    if command == "mnist":
        rng = np.random.default_rng(1)
        for name, count in (("train", 60), ("t10k", 20)):
            _idx_file(tmp_path / f"{name}-images-idx3-ubyte",
                      rng.integers(0, 256, size=(count, 28, 28),
                                   dtype=np.uint8))
        cfg = {
            "data": {"kind": "mnist",
                     "train_images": str(tmp_path / "train-images-idx3-ubyte"),
                     "test_images": str(tmp_path / "t10k-images-idx3-ubyte")},
            "scheme": {"kind": "masking", "keep_prob": 0.9},
            "lambda_grid": [1.0], "alpha_grid": [0.5], "n_grid": [30],
            "replicates": 1, "n_mc_aug": 2, "seed": 3, "out_dir": str(out),
        }
    else:
        cfg = _tiny_cfg(out_dir=str(out))
    assert cli_main([command, "--config", _write_cfg(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    assert "not converged at lambda=" in err and "residual" in err
    assert not out.exists()


def test_cli_zero_dimension_exit_3(tmp_path):
    cfg = _tiny_cfg()
    cfg["data"]["d"] = 0
    path = _write_cfg(tmp_path, cfg)
    assert cli_main(["sweep-lambda", "--config", path]) == 3


def test_cli_fixed_points_fail_before_monte_carlo(tmp_path, monkeypatch):
    # an unconverged cell exits 4 without drawing a single replicate
    monkeypatch.setattr(detequiv, "solve_fixed_point", functools.partial(
        detequiv.solve_fixed_point, max_iter=1))

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte-Carlo ran before the fixed points")

    monkeypatch.setattr(harness, "batch_sample_moments", no_monte_carlo)
    path = _write_cfg(tmp_path, _tiny_cfg(out_dir=str(tmp_path / "out")))
    assert cli_main(["sweep-lambda", "--config", path]) == 4


def _mnist_fixture(tmp_path, **over):
    """The IDX files and config of test_mnist_pipeline_end_to_end."""
    rng = np.random.default_rng(0)
    train = rng.integers(0, 256, size=(80, 28, 28), dtype=np.uint8)
    test = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
    _idx_file(tmp_path / "train-images-idx3-ubyte", train)
    _idx_file(tmp_path / "t10k-images-idx3-ubyte", test)
    cfg = {
        "data": {"kind": "mnist",
                 "train_images": str(tmp_path / "train-images-idx3-ubyte"),
                 "test_images": str(tmp_path / "t10k-images-idx3-ubyte")},
        "scheme": {"kind": "masking", "keep_prob": 0.9},
        "lambda_grid": [1.0],
        "alpha_grid": [0.0, 0.5],
        "n_grid": [40],
        "replicates": 2,
        "n_mc_aug": 4,
        "seed": 3,
    }
    cfg.update(over)
    return ExperimentConfig.from_dict(cfg)


def test_mnist_pipeline_worker_invariant(tmp_path):
    # identity features draw nothing; random-MLP features draw
    # augmentations, and each replicate's seed serves one work unit per
    # n: the sampler spawns children from the replicate's generator, so
    # every unit must start from its own copy of the seed, or the second
    # n's draws depend on which units share a process
    drawn = {"features": {"kind": "random-mlp", "hidden_sizes": [8],
                          "output_dim": 6, "seed": 1},
             "n_grid": [20, 30]}
    for over, cells in (({}, 2), (drawn, 4)):
        r1 = mnist_pipeline(_mnist_fixture(tmp_path, **over))
        r2 = mnist_pipeline(_mnist_fixture(tmp_path, workers=2, **over))
        assert len(r1) == len(r2) == cells
        for a, b in zip(r1, r2):
            assert a.to_list() == b.to_list()


def test_mnist_subsample_larger_than_training_set(tmp_path, monkeypatch):
    # checked before the moment set is estimated from the training set
    def no_estimate(*args, **kwargs):
        raise AssertionError("moment set estimated before the n check")

    monkeypatch.setattr(harness, "estimate_moment_set", no_estimate)
    with pytest.raises(ConfigError, match="exceeds training set"):
        mnist_pipeline(_mnist_fixture(tmp_path, n_grid=[40, 81]))


def test_readme_library_sketch_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "predicted risk:" in capsys.readouterr().out
