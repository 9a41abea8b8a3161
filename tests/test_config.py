"""The config table and the error hierarchy, end to end through the CLI:
every malformed config exits with its family's code, never a traceback."""

import copy
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from augridge import harness, schemes
from augridge.cli import main as cli_main
from augridge.harness import CONFIG_TABLE, ExperimentConfig
from augridge.features import block_columns
from augridge.moments import (CHUNK, DRAWS, batch_sample_moments,
                              kernel_columns)
from test_acceptance import CR1_CFG

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "data": {"kind": "synthetic", "d": 8, "n": 16, "spectrum": "isotropic",
             "theta_star": "normalized-ones", "noise_sigma2": 0.1,
             "q_seed": 0},
    "scheme": {"kind": "additive-noise", "sigma_aug": 0.3},
    "lambda_grid": [0.5],
    "alpha_grid": [0.0, 0.5],
    "replicates": 3,
    "n_mc_aug": 4,
    "seed": 5,
    "workers": 1,
}
TINY_MLP = dict(
    TINY,
    data={"kind": "synthetic", "d": 6, "n": 12},
    features={"kind": "random-mlp", "hidden_sizes": [5], "output_dim": 4},
    scheme={"kind": "salt-and-pepper", "keep_prob": 0.5,
            "replacement_scale": 0.7},
    n_mc_data=64,
)
MLP = {"kind": "random-mlp", "hidden_sizes": [6], "output_dim": 5}
DELETE = object()


def _set(cfg, path, value):
    """cfg with the key at the dotted path set to value (or deleted)."""
    cfg = copy.deepcopy(cfg)
    *head, last = path.split(".")
    node = cfg
    for key in head:
        node = node[key]
    if value is DELETE:
        node.pop(last, None)
    else:
        node[last] = value
    return cfg


def _run(tmp_path, cfg, *args, command="sweep-lambda"):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cli_main([command, "--config", str(path), *args])


# Each case ended in a traceback (the first 19 below and the seven under
# "more tracebacks") or was run as if valid (the 5 after the first 19 and
# the last four) before the config table.
MALFORMED = [
    ("replicates", "3", 2),
    ("seed", -1, 2),
    ("lambda_grid", ["a"], 2),
    ("n_grid", [0], 3),
    ("data.n", DELETE, 2),
    ("data.spectrum", "foo", 2),
    ("features", dict(MLP, activation="sigmoid"), 2),
    ("scheme", {"kind": "masking", "keep_prob": "x"}, 2),
    ("alpha_grid", ["a"], 2),
    ("lambda_grid", 0.5, 2),
    ("replicates", 2.5, 2),
    ("seed", "x", 2),
    ("data.d", "x", 2),
    ("data.noise_sigma2", "x", 2),
    ("data.theta_star", 3, 2),
    ("scheme.sigma_aug", "x", 2),
    ("features", dict(MLP, output_dim="x"), 2),
    ("features", dict(MLP, hidden_sizes=5), 2),
    ("data.q_seed", -1, 2),
    # accepted silently
    ("data.d", 6.5, 2),
    ("n_mc_aug", "x", 2),
    ("data.noise_sigma2", -1, 2),
    ("workers", 0, 2),
    ("test_size", 10000, 2),
    # more tracebacks
    ("workers", "2", 2),
    ("features", None, 2),
    ("scheme.kind", {}, 2),
    ("lambda_grid", [float("inf")], 2),
    ("scheme.sigma_aug", 1e200, 2),
    ("out_dir", "a\0b", 2),
    ("n_grid", [-3], 3),
    # a repeated grid entry: duplicate rows, or for n one wasted draw
    ("lambda_grid", [0.1, 0.1], 2),
    ("lambda_grid", [1, 1.0], 2),
    ("alpha_grid", [0.5, 0.0, 0.5], 2),
    ("n_grid", [16, 16], 2),
]


# sizes whose run cannot fit in physical memory (a traceback at the first
# allocation before the pre-flight check), set on the random-MLP config:
# refused by the estimate, naming the key
TOO_BIG = [
    ("n_mc_aug", 10 ** 17, 3),
    ("n_mc_aug", 10 ** 19, 3),
    ("data.n", 10 ** 19, 3),
    ("data.d", 10 ** 19, 3),
    ("n_grid", [10 ** 19], 3),
    ("features.output_dim", 10 ** 19, 3),
    ("replicates", 10 ** 15, 3),
]


def _unreachable(*args, **kwargs):
    raise AssertionError("a malformed config reached the Monte-Carlo engine")


@pytest.mark.parametrize("path,value,code", MALFORMED + TOO_BIG,
                         ids=[f"{p}=<deleted>" if v is DELETE else f"{p}={v!r}"
                              for p, v, _ in MALFORMED + TOO_BIG])
def test_malformed_config_exit_code(tmp_path, monkeypatch, capsys, path,
                                    value, code):
    for name in ("build_moment_set", "estimate_moment_set", "_run_units"):
        monkeypatch.setattr(harness, name, _unreachable)
    too_big = (path, value, code) in TOO_BIG
    cfg = _set(dict(TINY_MLP if too_big else TINY,
                    out_dir=str(tmp_path / "out")), path, value)
    assert _run(tmp_path, cfg) == code
    err = capsys.readouterr().err
    label = {2: "config error", 3: "data error"}[code]
    assert err.startswith(f"{label}: config")
    if too_big:
        assert err.startswith(f"{label}: config.{path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_preflight_batch_term(monkeypatch):
    # the Monte-Carlo batch term is the larger of a replicate batch,
    # n * n_mc_aug columns in each worker, and a moment-set block of
    # CHUNK * DRAWS columns, which runs before the pool starts. A batch
    # holds its float64 MuX and repeated labels, a float32 copy of X and
    # of the weights and the float64 sums of its Gram products; each
    # sampler thread (a pool worker runs one) holds one block of
    # kernel_columns data columns: the two float32 buffers of its draws
    # and layer outputs, the even layers' (x, phi) and the odd layers'
    # (the hidden layer), one column's draw temporaries and its float32
    # Gram products. With the CPU count pinned at 2, at CR1_CFG's size
    # the term bounds the traced peak of one replicate batch from above,
    # within 5%, wherever the test runs
    monkeypatch.setattr(schemes, "usable_cpus", lambda: 2)
    d, h, p, n, n_mc_aug = 200, 200, 150, 300, 200
    per = kernel_columns(n, n_mc_aug, h * p)
    assert per * n_mc_aug <= block_columns(h * p) and per == 20
    block = (4 * (max(d, p) + h) * per * n_mc_aug + 4 * p * (p + 1)
             + schemes.THREAD_BYTES_PER_ENTRY * n_mc_aug * d)
    shared = (8 * p * n + 8 * n * n_mc_aug + 4 * d * n
              + 4 * (d * h + h * p) + 8 * p * (p + 1))
    config = ExperimentConfig.from_dict(CR1_CFG)
    term = harness._peak_terms(config)[0][0]
    assert term == shared + 2 * block
    assert harness._peak_terms(ExperimentConfig.from_dict(
        dict(CR1_CFG, workers=2)))[0][0] == 2 * (shared + block)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((d, n))
    scheme, fmap = config.build_scheme(), config.build_feature_map()
    tracemalloc.start()
    try:
        batch_sample_moments(scheme, fmap, X, X[:1], n_mc_aug, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= term <= 1.05 * peak
    # TINY_MLP: a moment-set block of CHUNK columns and DRAWS draws is one
    # kernel block on one thread
    d, h, p = 6, 5, 4
    assert harness._peak_terms(ExperimentConfig.from_dict(TINY_MLP))[0] == (
        8 * p * CHUNK + 8 * CHUNK * DRAWS + 4 * d * CHUNK
        + 4 * (d * h + h * p) + 8 * p * (p + 1)
        + 4 * (d + h) * CHUNK * DRAWS + 4 * p * (p + 1)
        + schemes.THREAD_BYTES_PER_ENTRY * DRAWS * d,
        {"data.d": 4 * (d + h)})


_SCALAR = (st.none() | st.booleans() | st.integers(-3, 4) | st.floats()
           # no "/": a fuzzed out_dir stays one directory under the cwd
           | st.text(st.characters(blacklist_characters="/"), max_size=6))
_JSON = st.recursive(
    _SCALAR,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)
_PATHS = {
    0: sorted(CONFIG_TABLE) + [
        "test_size", "data.kind", "data.d", "data.n", "data.spectrum",
        "data.theta_star", "data.noise_sigma2", "data.q_seed", "scheme.kind",
        "scheme.sigma_aug"],
    1: sorted(CONFIG_TABLE) + [
        "data.d", "features.kind", "features.hidden_sizes",
        "features.output_dim", "features.activation", "features.seed",
        "scheme.keep_prob", "scheme.replacement_scale"],
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), base=st.sampled_from([0, 1]),
       command=st.sampled_from(["sweep-lambda", "validate"]))
def test_fuzzed_config_never_tracebacks(tmp_path, monkeypatch, capsys, data,
                                        base, command):
    monkeypatch.chdir(tmp_path)
    path = data.draw(st.sampled_from(_PATHS[base]))
    value = data.draw(_JSON | st.just(DELETE))
    cfg = _set(dict((TINY, TINY_MLP)[base], out_dir="out"), path, value)
    assert _run(tmp_path, cfg, command=command) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("flag,key,value", [
    ("--seed", "seed", -1),
    ("--workers", "workers", 0),
    ("--out", "out_dir", ""),
])
def test_cli_overrides_meet_the_config_table(tmp_path, capsys, flag, key,
                                             value):
    assert _run(tmp_path, TINY, flag, str(value)) == 2
    from_flag = capsys.readouterr().err
    assert _run(tmp_path, dict(TINY, **{key: value})) == 2
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith(f"config error: config.{key}: expected")


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.json")),
                         ids=lambda p: p.name)
def test_stock_config_builds(path):
    config = ExperimentConfig.from_json(path)
    config.build_scheme()
    config.build_feature_map()
    if config.data["kind"] == "synthetic":
        config.build_synthetic_spec()
    assert config.sample_sizes()


def test_defaults_come_from_the_table():
    config = ExperimentConfig.from_dict({"data": {"kind": "synthetic",
                                                  "d": 3, "n": 5}})
    for key, (_, default) in CONFIG_TABLE.items():
        if key not in ("data", "features", "truth_features", "scheme"):
            assert getattr(config, key) == default
    assert config.data == {"kind": "synthetic", "d": 3, "n": 5,
                           "spectrum": "power-law",
                           "theta_star": "normalized-ones",
                           "noise_sigma2": 0.0, "q_seed": 0}
    assert config.features == config.truth_features == {"kind": "identity"}
    assert config.scheme == {"kind": "additive-noise", "sigma_aug": 0.0}


def _reference_rows(table):
    for key, (check, default) in table.items():
        shown = ("required" if default is harness._REQUIRED
                 else f"`{json.dumps(default)}`")
        yield f"| `{key}` | {check.what} | {shown} |"


def test_readme_config_reference_matches_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = readme.split("## Config reference")[1]
    tables = [CONFIG_TABLE]
    for key in ("data", "features", "scheme"):
        tables += CONFIG_TABLE[key][0].kinds.values()
    missing = [row for table in tables for row in _reference_rows(table)
               if row not in readme]
    assert not missing
    documented = re.findall(r"^\| `(\w+)` \|", readme, re.M)
    assert sorted(set(documented)) == sorted(
        {key for table in tables for key in table})
