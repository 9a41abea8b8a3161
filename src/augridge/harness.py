"""Experiment orchestration: config parsing, parameter sweeps, replicate
management, validation oracles, the MNIST inpainting pipeline, and CSV
emission.

A sweep runs R independent replicates per grid cell. Replicate seeds are
spawned from the master seed, and results are reduced in replicate-index
order, so a fixed config produces bit-identical CSVs regardless of worker
count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import detequiv, ridge, schemes
from .datasets import (
    Dataset,
    FormatError,
    SyntheticSpec,
    haar_orthogonal,
    inpainting_task,
    mnist_load,
    sample_synthetic,
    synthetic_sampler,
)
from .features import FeatureMap, identity_map, random_mlp_map
from .moments import (
    MomentSet,
    batch_sample_moments,
    closed_population_moment_set,
    estimate_moment_set,
)


class ConfigError(ValueError):
    pass


RESULT_COLUMNS = [
    "lambda", "alpha", "n", "p", "d", "aspect_ratio",
    "g_mean", "g_std", "overlap_mean", "overlap_std",
    "chi_mean", "chi_std", "bias2_emp", "var_emp",
    "g_det", "overlap_det", "chi_det", "bias2_det", "var_det",
    "beta", "delta",
    "fp_iterations", "fp_residual", "fp_converged",
]


@dataclass
class ResultRow:
    lam: float
    alpha: float
    n: int
    p: int
    d: int
    aspect_ratio: float
    g_mean: float
    g_std: float
    overlap_mean: float
    overlap_std: float
    chi_mean: float
    chi_std: float
    bias2_emp: float
    var_emp: float
    g_det: float
    overlap_det: float
    chi_det: float
    bias2_det: float
    var_det: float
    beta: float
    delta: float
    fp_iterations: int
    fp_residual: float
    fp_converged: bool

    def to_list(self):
        return [
            self.lam, self.alpha, self.n, self.p, self.d, self.aspect_ratio,
            self.g_mean, self.g_std, self.overlap_mean, self.overlap_std,
            self.chi_mean, self.chi_std, self.bias2_emp, self.var_emp,
            self.g_det, self.overlap_det, self.chi_det, self.bias2_det,
            self.var_det, self.beta, self.delta,
            self.fp_iterations, self.fp_residual, self.fp_converged,
        ]


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        for row in rows:
            w.writerow([_fmt(v) for v in row.to_list()])


# --- configuration -----------------------------------------------------

_TOP_KEYS = {
    "data", "features", "truth_features", "scheme",
    "lambda_grid", "alpha_grid", "n_grid",
    "replicates", "n_mc_aug", "n_mc_data", "test_size",
    "seed", "out_dir", "workers",
}
_DATA_KEYS_SYNTH = {"kind", "d", "n", "spectrum", "theta_star",
                    "noise_sigma2", "q_seed"}
_DATA_KEYS_MNIST = {"kind", "train_images", "test_images", "noise_sigma2"}
_FEATURE_KEYS = {"kind", "hidden_sizes", "output_dim", "activation", "seed"}
_SCHEME_KEYS = {"kind", "sigma_aug", "keep_prob", "replacement_scale",
                "components", "weights"}


def _check_keys(d, allowed, ctx):
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    data: dict
    features: dict = field(default_factory=lambda: {"kind": "identity"})
    truth_features: dict | None = None
    scheme: dict = field(default_factory=lambda: {"kind": "additive-noise",
                                                  "sigma_aug": 0.0})
    lambda_grid: tuple = (0.1,)
    alpha_grid: tuple = (0.0,)
    n_grid: tuple = ()
    replicates: int = 50
    n_mc_aug: int = 200
    n_mc_data: int = 20000
    test_size: int = 10000
    seed: int = 0
    out_dir: str = "."
    workers: int = 1

    @classmethod
    def from_dict(cls, d):
        _check_keys(d, _TOP_KEYS, "config")
        if "data" not in d:
            raise ConfigError("config: missing required key 'data'")
        data = d["data"]
        kind = data.get("kind") if isinstance(data, dict) else None
        if kind == "synthetic":
            _check_keys(data, _DATA_KEYS_SYNTH, "config.data")
        elif kind == "mnist":
            _check_keys(data, _DATA_KEYS_MNIST, "config.data")
        else:
            raise ConfigError("config.data.kind must be 'synthetic' or 'mnist'")
        for key in ("features", "truth_features"):
            if d.get(key) is not None:
                _check_keys(d[key], _FEATURE_KEYS, f"config.{key}")
        if "scheme" in d:
            _check_scheme_cfg(d["scheme"], "config.scheme")
        kw = dict(d)
        for g in ("lambda_grid", "alpha_grid", "n_grid"):
            if g in kw:
                kw[g] = tuple(kw[g])
        cfg = cls(**kw)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)

    def validate(self):
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not self.lambda_grid or not self.alpha_grid:
            raise ConfigError("lambda_grid and alpha_grid must be nonempty")
        if any(l <= 0 for l in self.lambda_grid):
            raise ConfigError("lambda values must be > 0")
        if any(not 0.0 <= a <= 1.0 for a in self.alpha_grid):
            raise ConfigError("alpha values must be in [0, 1]")

    # -- builders --

    def build_scheme(self):
        return _build_scheme(self.scheme)

    def data_dim(self):
        if self.data["kind"] == "synthetic":
            return int(self.data["d"])
        return 759

    def build_feature_map(self):
        return _build_feature_map(self.features, self.data_dim())

    def build_truth_map(self):
        if self.data["kind"] == "mnist":
            return None
        cfg = self.truth_features or {"kind": "identity"}
        return _build_feature_map(cfg, self.data_dim())

    def build_synthetic_spec(self):
        data = self.data
        if data["kind"] != "synthetic":
            raise ConfigError("synthetic data required for this command")
        truth = self.build_truth_map()
        theta = _resolve_theta_star(data.get("theta_star", "normalized-ones"),
                                    truth.output_dim)
        return SyntheticSpec(
            d=int(data["d"]),
            n=int(data["n"]),
            theta_star=theta,
            truth_map=truth,
            noise_sigma2=float(data.get("noise_sigma2", 0.0)),
            spectrum=data.get("spectrum", "power-law"),
            q_seed=int(data.get("q_seed", 0)),
        )

    def sample_sizes(self):
        if self.n_grid:
            return tuple(int(n) for n in self.n_grid)
        if self.data["kind"] == "synthetic":
            return (int(self.data["n"]),)
        raise ConfigError("n_grid required for mnist sweeps")


_SCHEME_KINDS = {"additive-noise", "masking", "salt-and-pepper", "mixture"}


def _check_scheme_cfg(d, ctx):
    _check_keys(d, _SCHEME_KEYS, ctx)
    if d.get("kind") not in _SCHEME_KINDS:
        raise ConfigError(
            f"{ctx}: unknown scheme kind {d.get('kind')!r} "
            f"(choose from {sorted(_SCHEME_KINDS)})"
        )
    if d.get("kind") == "mixture":
        for i, comp in enumerate(d.get("components", ())):
            _check_scheme_cfg(comp, f"{ctx}.components[{i}]")


def _build_scheme(cfg):
    kind = cfg.get("kind")
    try:
        if kind == "additive-noise":
            return schemes.additive_noise(cfg["sigma_aug"])
        if kind == "masking":
            return schemes.masking(cfg["keep_prob"])
        if kind == "salt-and-pepper":
            return schemes.salt_and_pepper(cfg["keep_prob"],
                                           cfg["replacement_scale"])
        if kind == "mixture":
            comps = [_build_scheme(c) for c in cfg["components"]]
            return schemes.mixture(comps, cfg["weights"])
    except (KeyError, schemes.InvalidParameterError) as exc:
        raise ConfigError(f"bad scheme config: {exc}") from exc
    raise ConfigError(f"unknown scheme kind {kind!r}")


def _build_feature_map(cfg, d):
    kind = cfg.get("kind")
    if kind == "identity":
        return identity_map(d)
    if kind == "random-mlp":
        try:
            return random_mlp_map(
                d,
                cfg.get("hidden_sizes", ()),
                cfg["output_dim"],
                activation=cfg.get("activation", "tanh"),
                seed=cfg.get("seed", 0),
            )
        except KeyError as exc:
            raise ConfigError(f"random-mlp config missing {exc}") from exc
    raise ConfigError(f"unknown feature kind {kind!r}")


def _resolve_theta_star(spec, p_star):
    if spec is None:
        return np.zeros(p_star)
    if isinstance(spec, str):
        if spec == "normalized-ones":
            return np.ones(p_star) / math.sqrt(p_star)
        raise ConfigError(f"unknown theta_star spec {spec!r}")
    theta = np.asarray(spec, dtype=float)
    if theta.shape[0] != p_star:
        raise ConfigError("theta_star length does not match truth features")
    return theta


# --- moment sets -------------------------------------------------------

def build_moment_set(config, rng=None):
    """Population MomentSet for a synthetic config: exact closed forms
    when the features are the identity and the scheme admits them,
    Monte-Carlo estimation otherwise."""
    spec = config.build_synthetic_spec()
    fmap = config.build_feature_map()
    scheme = config.build_scheme()
    if (
        fmap.kind == "identity"
        and (config.truth_features or {"kind": "identity"})["kind"] == "identity"
        and scheme.label_preserving
        and schemes._constant_params(scheme)
        and scheme.kind in ("additive-noise", "masking", "salt-and-pepper")
    ):
        return closed_population_moment_set(
            spec.covariance(), scheme, spec.theta_star, spec.noise_sigma2
        )
    rng = rng or np.random.default_rng(
        np.random.SeedSequence([config.seed, 0xA0])
    )
    return estimate_moment_set(
        fmap,
        config.build_truth_map(),
        scheme,
        synthetic_sampler(spec),
        config.n_mc_data,
        config.n_mc_aug,
        rng,
        theta_star=spec.theta_star,
        noise_sigma2=spec.noise_sigma2,
    )


# --- replicate work ----------------------------------------------------

def _mc_moments_needed(fmap, scheme):
    return not (fmap.kind == "identity" and scheme.has_closed_moments)


def _run_replicate(payload, seed_seq):
    """One replicate: draw data once per n, assemble one design per n,
    fit every (lambda, alpha) cell. Returns per-cell statistics."""
    (spec, fmap, scheme, lambda_grid, alpha_grid, n_list,
     n_mc_aug, moment_set, theta_star, sigma2) = payload
    rng = np.random.default_rng(seed_seq)
    debias = n_mc_aug if _mc_moments_needed(fmap, scheme) else None
    out = {}
    for n in n_list:
        ds = sample_synthetic(spec, rng, n=n)
        psm = batch_sample_moments(scheme, fmap, ds.X, ds.Y, n_mc_aug, rng)
        design = ridge.assemble_design(ds.X, ds.Y, fmap, psm,
                                       debias_n_mc=debias)
        for lam in lambda_grid:
            for alpha in alpha_grid:
                f = ridge.fit(design, alpha, lam)
                g = ridge.population_generalization(f, moment_set,
                                                    theta_star, sigma2)
                ov = ridge.overlap_stat(f, moment_set, theta_star, sigma2)
                chi = ridge.chi_stat(f, moment_set)
                out[(n, lam, alpha)] = (g, ov, chi, f.theta_hat)
    return out


def _replicate_results(config, payload, n_replicates=None):
    """Run replicates serially or in a process pool; reduction is ordered
    by replicate index either way."""
    R = n_replicates if n_replicates is not None else config.replicates
    seeds = np.random.SeedSequence(config.seed).spawn(R)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_replicate, [payload] * R, seeds,
                                    chunksize=max(1, R // (4 * config.workers))))
    else:
        results = [_run_replicate(payload, s) for s in seeds]
    return results


def _empirical_bias2(theta_mean, moment_set, theta_star, sigma2):
    chi = np.einsum("ij,ik,kj->j", theta_mean, moment_set.Sigma, theta_mean)
    tSSt, tSs = ridge._star_terms(theta_mean, moment_set, theta_star, sigma2)
    return float(np.mean(chi + tSSt - 2.0 * tSs))


def run_sweep(config, bias_variance=False, csv_name=None, moment_set=None):
    """Full (lambda, alpha, n) grid sweep with Monte-Carlo ground truth
    and deterministic equivalents; one ResultRow per cell.

    moment_set overrides the internally built population moments; pass it
    to share one estimation across several sweeps of the same data law.
    """
    if bias_variance and config.replicates < 10:
        raise ConfigError(
            "bias-variance estimation needs replicates >= 10 "
            f"(got {config.replicates})"
        )
    spec = config.build_synthetic_spec()
    fmap = config.build_feature_map()
    scheme = config.build_scheme()
    if moment_set is None:
        moment_set = build_moment_set(config)
    theta_star = spec.theta_star
    sigma2 = spec.noise_sigma2
    n_list = config.sample_sizes()
    payload = (spec, fmap, scheme, config.lambda_grid, config.alpha_grid,
               n_list, config.n_mc_aug, moment_set, theta_star, sigma2)
    results = _replicate_results(config, payload)
    rows = []
    p = fmap.output_dim
    for n in n_list:
        states = {}
        for lam in config.lambda_grid:
            for alpha in config.alpha_grid:
                state = detequiv.solve_fixed_point(moment_set, alpha, lam, n)
                # raises NotConvergedError on an unconverged cell
                D = detequiv.compute_second_order(state, moment_set)
                rep = detequiv.equivalents(state, D, moment_set,
                                           theta_star, sigma2)
                states[(lam, alpha)] = (state, rep)
        for lam in config.lambda_grid:
            for alpha in config.alpha_grid:
                key = (n, lam, alpha)
                gs = np.array([r[key][0] for r in results])
                ovs = np.array([r[key][1] for r in results])
                chis = np.array([r[key][2] for r in results])
                theta_mean = sum(r[key][3] for r in results) / len(results)
                bias2 = _empirical_bias2(theta_mean, moment_set,
                                         theta_star, sigma2)
                state, rep = states[(lam, alpha)]
                rows.append(ResultRow(
                    lam=lam, alpha=alpha, n=n, p=p, d=spec.d,
                    aspect_ratio=p / n,
                    g_mean=float(gs.mean()),
                    g_std=float(gs.std(ddof=1)) if len(gs) > 1 else 0.0,
                    overlap_mean=float(ovs.mean()),
                    overlap_std=float(ovs.std(ddof=1)) if len(ovs) > 1 else 0.0,
                    chi_mean=float(chis.mean()),
                    chi_std=float(chis.std(ddof=1)) if len(chis) > 1 else 0.0,
                    bias2_emp=bias2,
                    var_emp=float(gs.mean()) - bias2,
                    g_det=rep.g_bar_mean,
                    overlap_det=rep.overlap_bar_mean,
                    chi_det=rep.chi_bar_mean,
                    bias2_det=rep.bias2_bar_mean,
                    var_det=rep.var_bar_mean,
                    beta=float(state.B.sum()),
                    delta=rep.delta,
                    fp_iterations=state.iterations,
                    fp_residual=state.residual,
                    fp_converged=state.converged,
                ))
    if csv_name:
        os.makedirs(config.out_dir, exist_ok=True)
        write_csv(rows, os.path.join(config.out_dir, csv_name))
    return rows


def bias_variance_sweep(config, csv_name=None):
    return run_sweep(config, bias_variance=True, csv_name=csv_name)


# --- validation oracles ------------------------------------------------

def validate(config, factor=4):
    """Monte-Carlo oracle checks of the deterministic equivalents.

    Runs R replicates at the base size (p, n) and at (factor*p, factor*n)
    with p/n fixed. For the three first-order items (resolvent trace
    functional, linear functional of theta_hat, quadratic form chi) the
    report carries the mean absolute per-replicate deviation from the
    deterministic equivalent; these fluctuations carry the n^{-1/2}
    concentration rate, so their base/scaled ratios should sit near
    sqrt(factor). The deviation of the replicate averages is reported too,
    but it mixes a fast-decaying bias with a Monte-Carlo noise floor of
    order std/sqrt(R), so its ratio is not a stable rate probe. std(G)
    and the finite-difference derivative identity error round out the
    report.
    """
    data = config.data
    if data["kind"] != "synthetic":
        raise ConfigError("validate requires synthetic data")
    base_d = int(data["d"])
    base_n = int(data["n"])
    if factor * base_d > 600:
        raise ConfigError("validate instances must stay small (p <= 600/factor)")
    lam = config.lambda_grid[0]
    alpha = config.alpha_grid[0]
    scheme = config.build_scheme()
    sigma2 = float(data.get("noise_sigma2", 0.0))
    report = {"lambda": lam, "alpha": alpha, "replicates": config.replicates}
    per_size = []
    for scale_idx, scale in enumerate((1, factor)):
        d = base_d * scale
        n = base_n * scale
        spec = SyntheticSpec(
            d=d, n=n,
            theta_star=_resolve_theta_star(
                data.get("theta_star", "normalized-ones"), d),
            truth_map=identity_map(d),
            noise_sigma2=sigma2,
            spectrum=data.get("spectrum", "power-law"),
            q_seed=int(data.get("q_seed", 0)),
        )
        fmap = identity_map(d)
        ms = closed_population_moment_set(spec.covariance(), scheme,
                                          spec.theta_star, sigma2)
        state = detequiv.solve_fixed_point(ms, alpha, lam, n)
        D = detequiv.compute_second_order(state, ms)
        rep = detequiv.equivalents(state, D, ms, spec.theta_star, sigma2)
        probe_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0xB0 + scale_idx])
        )
        # rank-one probe with unit operator norm; full-rank probes mix in
        # a dimension-growing closure bias that masks the n^{-1/2} rate
        u = probe_rng.standard_normal(d)
        u /= np.linalg.norm(u)
        A = np.outer(u, u)
        a = probe_rng.standard_normal(d)
        a /= np.linalg.norm(a)
        tr_det = float(np.sum(A * state.R_bar))
        th_det = float(a @ rep.theta_bar[:, 0])
        seeds = np.random.SeedSequence([config.seed, 0xC0 + scale_idx]).spawn(
            config.replicates
        )
        res_dev, th_dev, chi_dev = [], [], []
        gs = []
        fd_errs = []
        for r, s in enumerate(seeds):
            rng = np.random.default_rng(s)
            ds = sample_synthetic(spec, rng, n=n)
            psm = batch_sample_moments(scheme, fmap, ds.X, ds.Y,
                                       config.n_mc_aug, rng)
            design = ridge.assemble_design(ds.X, ds.Y, fmap, psm)
            Ri = ridge.resolvent_shifted(design, alpha, lam, 0.0)
            res_dev.append(float(np.sum(A * Ri)) - tr_det)
            f = ridge.fit(design, alpha, lam)
            th_dev.append(float(a @ f.theta_hat[:, 0]) - th_det)
            chi_dev.append(ridge.chi_stat(f, ms) - rep.chi_bar_mean)
            gs.append(ridge.population_generalization(f, ms, spec.theta_star,
                                                      sigma2))
            if r < 5:
                fd = ridge.xi_derivative_fd(design, alpha, lam, ms.Sigma)
                exact = -ridge.chi_stat(f, ms) * ms.q
                fd_errs.append(abs(fd - exact) / max(abs(exact), 1e-300))
        per_size.append({
            "n": n, "p": d,
            "resolvent_fluct": float(np.mean(np.abs(res_dev))),
            "theta_fluct": float(np.mean(np.abs(th_dev))),
            "chi_fluct": float(np.mean(np.abs(chi_dev))),
            "resolvent_mean_err": abs(float(np.mean(res_dev))),
            "theta_mean_err": abs(float(np.mean(th_dev))),
            "chi_mean_err": abs(float(np.mean(chi_dev))),
            "g_mean_err": abs(float(np.mean(gs)) - rep.g_bar_mean),
            "std_g": float(np.std(gs, ddof=1)),
            "fd_identity_rel_err": float(max(fd_errs)),
            "fp_converged": state.converged,
        })
    report["base"] = per_size[0]
    report["scaled"] = per_size[1]
    for key in ("resolvent_fluct", "theta_fluct", "chi_fluct", "std_g"):
        denom = per_size[1][key]
        report[f"{key}_ratio"] = (per_size[0][key] / denom
                                  if denom > 0 else float("inf"))
    report["fd_identity_rel_err"] = max(
        per_size[0]["fd_identity_rel_err"], per_size[1]["fd_identity_rel_err"]
    )
    return report


# --- MNIST pipeline ----------------------------------------------------

def mnist_pipeline(config, csv_name=None):
    """End-to-end inpainting experiment: moment estimation on the full
    training set, aspect-ratio sweep by subsampling, coordinatewise
    multivariate ridge, output-averaged risks."""
    data = config.data
    if data["kind"] != "mnist":
        raise ConfigError("mnist pipeline requires data.kind = 'mnist'")
    train = inpainting_task(mnist_load(data["train_images"]))
    test = inpainting_task(mnist_load(data["test_images"]))
    sigma2 = float(data.get("noise_sigma2", 0.0))
    fmap = config.build_feature_map()
    scheme = config.build_scheme()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0]))
    moment_set = estimate_moment_set(
        fmap, None, scheme, (train.X, train.Y),
        train.X.shape[1], config.n_mc_aug, rng,
    )
    p = fmap.output_dim
    rows = []
    n_total = train.X.shape[1]
    seeds = np.random.SeedSequence(config.seed).spawn(config.replicates)
    for n in config.sample_sizes():
        if n > n_total:
            raise ConfigError(f"subsample size {n} exceeds training set")
        per_cell = {(lam, alpha): [] for lam in config.lambda_grid
                    for alpha in config.alpha_grid}
        theta_sums = {k: 0.0 for k in per_cell}
        for s in seeds:
            r_rng = np.random.default_rng(s)
            cols = r_rng.choice(n_total, size=n, replace=False)
            X = train.X[:, cols]
            Y = train.Y[:, cols]
            psm = batch_sample_moments(scheme, fmap, X, Y,
                                       config.n_mc_aug, r_rng)
            debias = (config.n_mc_aug
                      if _mc_moments_needed(fmap, scheme) else None)
            design = ridge.assemble_design(X, Y, fmap, psm,
                                           debias_n_mc=debias)
            for (lam, alpha) in per_cell:
                f = ridge.fit(design, alpha, lam)
                g = ridge.empirical_generalization(f, test.X, test.Y, fmap)
                ov = ridge.overlap_stat(f, moment_set, None, sigma2)
                chi = ridge.chi_stat(f, moment_set)
                per_cell[(lam, alpha)].append((g, ov, chi))
                theta_sums[(lam, alpha)] = (theta_sums[(lam, alpha)]
                                            + f.theta_hat)
        for (lam, alpha), vals in per_cell.items():
            gs = np.array([v[0] for v in vals])
            ovs = np.array([v[1] for v in vals])
            chis = np.array([v[2] for v in vals])
            theta_mean = theta_sums[(lam, alpha)] / len(vals)
            bias2 = _empirical_bias2(theta_mean, moment_set, None, sigma2)
            state = detequiv.solve_fixed_point(moment_set, alpha, lam, n)
            # raises NotConvergedError on an unconverged cell
            D = detequiv.compute_second_order(state, moment_set)
            rep = detequiv.equivalents(state, D, moment_set, None, sigma2)
            rows.append(ResultRow(
                lam=lam, alpha=alpha, n=n, p=p, d=759,
                aspect_ratio=p / n,
                g_mean=float(gs.mean()),
                g_std=float(gs.std(ddof=1)) if len(gs) > 1 else 0.0,
                overlap_mean=float(ovs.mean()),
                overlap_std=float(ovs.std(ddof=1)) if len(ovs) > 1 else 0.0,
                chi_mean=float(chis.mean()),
                chi_std=float(chis.std(ddof=1)) if len(chis) > 1 else 0.0,
                bias2_emp=bias2,
                var_emp=float(gs.mean()) - bias2,
                g_det=rep.g_bar_mean,
                overlap_det=rep.overlap_bar_mean,
                chi_det=rep.chi_bar_mean,
                bias2_det=rep.bias2_bar_mean,
                var_det=rep.var_bar_mean,
                beta=float(state.B.sum()),
                delta=rep.delta,
                fp_iterations=state.iterations,
                fp_residual=state.residual,
                fp_converged=state.converged,
            ))
    if csv_name:
        os.makedirs(config.out_dir, exist_ok=True)
        write_csv(rows, os.path.join(config.out_dir, csv_name))
    return rows
