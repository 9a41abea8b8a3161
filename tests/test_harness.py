import functools
import json
import struct

import numpy as np
import pytest

from augridge import detequiv
from augridge.cli import main as cli_main
from augridge.harness import (
    RESULT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    bias_variance_sweep,
    build_moment_set,
    mnist_pipeline,
    run_sweep,
    validate,
    write_csv,
)


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


def test_bias_variance_requires_replicates():
    config = ExperimentConfig.from_dict(_tiny_cfg(replicates=3))
    with pytest.raises(ConfigError, match="replicates"):
        bias_variance_sweep(config)


def test_bias_variance_split_sums():
    config = ExperimentConfig.from_dict(_tiny_cfg(replicates=12))
    rows = bias_variance_sweep(config)
    for r in rows:
        assert r.bias2_emp + r.var_emp == pytest.approx(r.g_mean, rel=1e-12)
        assert r.bias2_det + r.var_det == pytest.approx(r.g_det, rel=1e-12)


def test_moment_set_closed_path_for_identity_features():
    config = ExperimentConfig.from_dict(_tiny_cfg())
    ms = build_moment_set(config)
    assert ms.provenance == "closed-form"
    spec = config.build_synthetic_spec()
    assert np.allclose(ms.Sigma, spec.covariance())


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
