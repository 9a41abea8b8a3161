"""Experiment orchestration: config parsing, parameter sweeps, replicate
management, validation oracles, the MNIST inpainting pipeline, and CSV
emission.

A sweep runs R independent replicates per grid cell. Replicate seeds are
spawned from the master seed, and results are reduced in replicate-index
order, so a fixed config produces bit-identical CSVs regardless of worker
count (at a fixed BLAS thread count).
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import detequiv, features, ridge, schemes
from .datasets import (
    IMAGE_SIDE,
    PATCH_SIDE,
    InpaintingTask,
    SyntheticSpec,
    inpainting_task,
    mnist_load,
    sample_synthetic,
)
from .errors import (ConfigError, DataError, InvalidDimensionError,
                     NumericalFailureError)
from .features import block_columns, identity_map, random_mlp_map
from .moments import (
    CHUNK,
    DRAWS,
    batch_sample_moments,
    closed_population_moment_set,
    estimate_moment_set,
)


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
        return [getattr(self, f.name) for f in fields(self)]


RESULT_COLUMNS = ["lambda" if f.name == "lam" else f.name
                  for f in fields(ResultRow)]


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
#
# The config table: per section, key -> (check, default); a section with a
# kind has one key table per kind. A check takes a value and its path in
# the config and returns the value the builders use, or raises ConfigError
# (InvalidDimensionError for a size below 1, as the feature maps do); its
# `what` says what it accepts. Defaults pass the same checks.

_REQUIRED = object()  # the default of a key that must be given


def _expected(where, what, v):
    return ConfigError(f"{where}: expected {what}, got {v!r}")


def _check(what, ok, convert=None):
    def check(v, where):
        if not ok(v):
            raise _expected(where, what, v)
        return v if convert is None else convert(v)
    check.what = what
    return check


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(low):
    return _check(f"an integer >= {low}", lambda v: _is_int(v) and v >= low)


def _real(what, ok):
    return _check(f"a finite number{what}", lambda v: (
        (isinstance(v, float) or _is_int(v) and abs(v) < 2 ** 1023)
        and math.isfinite(v) and ok(v)), float)


def _size(v, where):
    if _is_int(v) and v < 1:
        raise InvalidDimensionError(f"{where}: must be >= 1, got {v}")
    return _integer(1)(v, where)


_size.what = "an integer >= 1"


def _choice(*names, items=None, empty_ok=False, distinct=False):
    """A check for one of the JSON values `names` or, with `items`, a
    list whose entries pass `items` (returned as a tuple); with
    `distinct`, no two checked entries are equal."""
    what = [json.dumps(s) for s in names]
    if items is not None:
        what.append(f"a {'' if empty_ok else 'nonempty '}list"
                    f"{' of distinct entries' if distinct else ''}, each "
                    f"entry {items.what}")

    def check(v, where):
        if v in names:
            return v
        if not (items and isinstance(v, (list, tuple)) and (v or empty_ok)):
            raise _expected(where, check.what, v)
        out = tuple(items(x, f"{where}[{i}]") for i, x in enumerate(v))
        if distinct and len(set(out)) < len(out):
            raise _expected(where, check.what, v)
        return out
    check.what = " or ".join(what)
    return check


def _fill(d, table, where):
    """The object d checked against a key table, every default filled in."""
    if not isinstance(d, dict):
        raise _expected(where, "an object", d)
    unknown = set(d) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    for key, (_, default) in table.items():
        if key not in d and default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return {key: check(d.get(key, default), f"{where}.{key}")
            for key, (check, default) in table.items()}


def _kinded(kinds):
    """A section whose keys depend on its kind: kind -> key table."""
    def check(v, where):
        kind = v.get("kind") if isinstance(v, dict) else None
        if not (isinstance(kind, str) and kind in kinds):
            raise _expected(where, check.what, v)
        rest = {k: x for k, x in v.items() if k != "kind"}
        return {"kind": kind, **_fill(rest, kinds[kind], where)}
    check.what = "an object of kind " + " or ".join(map(json.dumps, kinds))
    check.kinds = kinds
    return check


_PATH = _check("a nonempty path",
               lambda v: isinstance(v, str) and v and "\0" not in v)
_ANY = _real("", lambda x: True)
_POSITIVE = _real(" > 0", lambda x: x > 0)
_NONNEGATIVE = _real(" >= 0", lambda x: x >= 0)
_UNIT = _real(" in [0, 1]", lambda x: 0 <= x <= 1)
_SCALE = _real(" >= 0 with a finite square",
               lambda x: x >= 0 and math.isfinite(x * x))
_FEATURES = _kinded({
    "identity": {},
    "random-mlp": {
        "hidden_sizes": (_choice(items=_size, empty_ok=True), ()),
        "output_dim": (_size, _REQUIRED),
        "activation": (_choice("tanh", "relu"), "tanh"),
        "seed": (_integer(0), 0),
    },
})
_SCHEME = _kinded({
    "additive-noise": {"sigma_aug": (_SCALE, _REQUIRED)},
    "masking": {"keep_prob": (_UNIT, _REQUIRED)},
    "salt-and-pepper": {"keep_prob": (_UNIT, _REQUIRED),
                        "replacement_scale": (_SCALE, _REQUIRED)},
    "mixture": {"weights": (_choice(items=_NONNEGATIVE), _REQUIRED)},
})
# a mixture's components are schemes themselves
_SCHEME.kinds["mixture"]["components"] = (_choice(items=_SCHEME), _REQUIRED)

CONFIG_TABLE = {
    "data": (_kinded({
        "synthetic": {
            "d": (_size, _REQUIRED),
            "n": (_size, _REQUIRED),
            "spectrum": (_choice("power-law", "isotropic", items=_POSITIVE),
                         "power-law"),
            "theta_star": (_choice("normalized-ones", None, items=_ANY),
                           "normalized-ones"),
            "noise_sigma2": (_NONNEGATIVE, 0.0),
            "q_seed": (_integer(0), 0),
        },
        "mnist": {
            "train_images": (_PATH, _REQUIRED),
            "test_images": (_PATH, _REQUIRED),
            "noise_sigma2": (_NONNEGATIVE, 0.0),
        },
    }), _REQUIRED),
    "features": (_FEATURES, {"kind": "identity"}),
    "truth_features": (_FEATURES, {"kind": "identity"}),
    "scheme": (_SCHEME, {"kind": "additive-noise", "sigma_aug": 0.0}),
    "lambda_grid": (_choice(items=_POSITIVE, distinct=True), (0.1,)),
    "alpha_grid": (_choice(items=_UNIT, distinct=True), (0.0,)),
    "n_grid": (_choice(items=_size, empty_ok=True, distinct=True), ()),
    "replicates": (_integer(1), 50),
    "n_mc_aug": (_integer(2), 200),
    "n_mc_data": (_integer(2), 20000),
    "seed": (_integer(0), 0),
    "out_dir": (_PATH, "."),
    "workers": (_integer(1), 1),
}


class ExperimentConfig:
    """A config that passed CONFIG_TABLE: one attribute per top-level key,
    each section a dict with every default filled in."""

    def __init__(self, **checked):
        self.__dict__.update(checked)

    @classmethod
    def from_dict(cls, d):
        return cls(**_fill(d, CONFIG_TABLE, "config"))

    @classmethod
    def from_json(cls, path, **overrides):
        """The config in the JSON file at path, its top-level keys replaced
        by `overrides` before the checks."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict({**doc, **overrides} if isinstance(doc, dict)
                             else doc)

    # -- builders --

    def build_scheme(self):
        return _build_scheme(self.scheme)

    def data_dim(self):
        if self.data["kind"] == "synthetic":
            return self.data["d"]
        return IMAGE_SIDE * IMAGE_SIDE - PATCH_SIDE * PATCH_SIDE

    def build_feature_map(self):
        return _build_feature_map(self.features, self.data_dim())

    def build_synthetic_spec(self):
        data = self.data
        if data["kind"] != "synthetic":
            raise ConfigError("synthetic data required for this command")
        truth = _build_feature_map(self.truth_features, self.data_dim())
        return SyntheticSpec(
            d=data["d"],
            n=data["n"],
            theta_star=_resolve_theta_star(data["theta_star"],
                                           truth.output_dim),
            truth_map=truth,
            noise_sigma2=data["noise_sigma2"],
            spectrum=data["spectrum"],
            q_seed=data["q_seed"],
        )

    def sample_sizes(self):
        if self.n_grid:
            return self.n_grid
        if self.data["kind"] == "synthetic":
            return (self.data["n"],)
        raise ConfigError("n_grid required for mnist sweeps")


def _build_scheme(cfg):
    kind = cfg["kind"]
    if kind == "additive-noise":
        return schemes.additive_noise(cfg["sigma_aug"])
    if kind == "masking":
        return schemes.masking(cfg["keep_prob"])
    if kind == "salt-and-pepper":
        return schemes.salt_and_pepper(cfg["keep_prob"],
                                       cfg["replacement_scale"])
    return schemes.mixture([_build_scheme(c) for c in cfg["components"]],
                           cfg["weights"])


def _build_feature_map(cfg, d):
    if cfg["kind"] == "identity":
        return identity_map(d)
    return random_mlp_map(d, cfg["hidden_sizes"], cfg["output_dim"],
                          activation=cfg["activation"], seed=cfg["seed"])


def _resolve_theta_star(spec, p_star):
    if spec is None:
        return np.zeros(p_star)
    if spec == "normalized-ones":
        return np.ones(p_star) / math.sqrt(p_star)
    theta = np.asarray(spec, dtype=float)
    if theta.shape[0] != p_star:
        raise ConfigError("theta_star length does not match truth features")
    return theta


# --- pre-flight size check ---------------------------------------------

def _layers(config, section):
    """(size, config key) of each layer of a feature map, input first."""
    fmap = getattr(config, section)
    layers = [(config.data_dim(), "data.d")]
    if fmap["kind"] == "random-mlp":
        layers += [(h, f"{section}.hidden_sizes")
                   for h in fmap["hidden_sizes"]]
        layers.append((fmap["output_dim"], f"{section}.output_dim"))
    return layers


def _peak_terms(config):
    """The large allocations of a run of config, each as (bytes, sizes):
    sizes maps the config keys the term grows with to their sizes. Python
    integers, so no estimate overflows."""
    d = config.data_dim()
    layers = _layers(config, "features")
    p, p_key = layers[-1]
    n = max(config.n_grid or (config.data.get("n", 1),))
    n_key = "n_grid" if config.n_grid else "data.n"
    # identity features draw nothing: their moments are closed forms
    drawn = config.features["kind"] == "random-mlp"
    T = config.n_mc_aug if drawn else 1
    workers = min(config.workers, schemes.usable_cpus())
    q = 1 if config.data["kind"] == "synthetic" else PATCH_SIDE * PATCH_SIDE
    # a batch of augmented columns holds, per column, a float32 x', its
    # float32 phi(x') and its float64 repeated labels, and the MLP's
    # hidden activations of one block of columns; each sampler thread
    # holds the temporaries of one column of draws
    col = 4 * d + 4 * p + 8 * q
    col_key = "data.d" if d >= p else p_key
    hidden = sum(h for h, _ in layers[1:-1])  # 0 for the identity
    block = 2 * block_columns(min((a * b for (a, _), (b, _)
                                   in zip(layers, layers[1:])), default=1))

    def batch(cols, draws, threads):
        return (col * cols * draws + 4 * hidden * min(cols * draws, block)
                + drawn * threads * schemes.THREAD_BYTES_PER_ENTRY * draws * d)

    # the replicate batches, one in each worker, which runs one sampler
    # thread, or a moment-set block, which runs alone before the pool
    # starts
    threads = 1 if workers > 1 else schemes.sampler_width(n, T, d)
    peak = workers * batch(n, T, threads)
    sizes = {col_key: col, n_key: n, "n_mc_aug": T, "workers": workers}
    block_peak = batch(CHUNK, DRAWS, schemes.sampler_width(CHUNK, DRAWS, d))
    if peak < block_peak:
        peak, sizes = block_peak, {col_key: col}
    cells = (len(config.n_grid or (n,)) * len(config.lambda_grid)
             * len(config.alpha_grid))
    terms = [
        (peak, sizes),
        (8 * d * d, {"data.d": d}),
        (6 * 8 * p * p, {p_key: p}),  # the moment set's p x p blocks
        (8 * config.replicates * cells * p * q,  # the kept theta_hat
         {"replicates": config.replicates, p_key: p}),
    ]
    for section in ("features", "truth_features"):
        layers = _layers(config, section)
        terms += [(8 * a * b, {ka: a, kb: b})
                  for (a, ka), (b, kb) in zip(layers, layers[1:])]
    return terms


def _preflight(config):
    """Raise DataError, naming the key that drives the largest term, when a
    run of config would need more bytes than the machine's physical
    memory. It runs before any allocation, fork or moment set."""
    terms = _peak_terms(config)
    total = sum(b for b, _ in terms)
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if total > phys:
        sizes = max(terms, key=lambda t: t[0])[1]
        raise DataError(
            f"config.{max(sizes, key=sizes.get)}: a run needs about "
            f"{total / 2 ** 30:.3g} GiB, more than the "
            f"{phys / 2 ** 30:.3g} GiB of physical memory")


# --- moment sets -------------------------------------------------------

def build_moment_set(config):
    """Population MomentSet for a synthetic config: the exact closed form
    when the feature and truth maps are both the identity (every scheme
    has one), Monte-Carlo estimation otherwise."""
    spec = config.build_synthetic_spec()
    fmap = config.build_feature_map()
    scheme = config.build_scheme()
    if fmap.kind == "identity" and config.truth_features["kind"] == "identity":
        return closed_population_moment_set(
            spec.covariance(), scheme, spec.theta_star, spec.noise_sigma2
        )
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xA0]))
    return estimate_moment_set(
        fmap, spec.truth_map, scheme,
        lambda a, b: sample_synthetic(spec, rng, n=b - a),
        config.n_mc_data, rng,
        theta_star=spec.theta_star, noise_sigma2=spec.noise_sigma2,
    )


# --- replicate engine --------------------------------------------------

@dataclass(frozen=True)
class _FreshDraws:
    """Synthetic data: every replicate draws fresh data from the law, once
    per n, and the risk is the population risk under the moment set."""

    spec: SyntheticSpec

    def units(self, seeds, n_list):
        return [(s, n_list) for s in seeds]

    def draw(self, rng, n):
        return sample_synthetic(self.spec, rng, n=n)

    def risk(self, theta, chi, overlap, moment_set):
        return float(np.mean(ridge.population_risk(chi, overlap,
                                                   moment_set)))


@dataclass(frozen=True)
class _Subsamples:
    """A fixed training set: every replicate restarts from its seed for
    each n and subsamples n columns without replacement; the risk is the
    error on the held-out set, whose features are computed once."""

    train: InpaintingTask
    test_features: np.ndarray
    test_Y: np.ndarray

    def units(self, seeds, n_list):
        return [(s, (n,)) for n in dict.fromkeys(n_list) for s in seeds]

    def draw(self, rng, n):
        cols = rng.choice(self.train.X.shape[1], size=n, replace=False)
        return self.train.X[:, cols], self.train.Y[:, cols]

    def risk(self, theta, chi, overlap, moment_set):
        return ridge.empirical_generalization(theta, self.test_features,
                                              self.test_Y)


def _replicate(source, fmap, scheme, n_mc_aug, alpha_grid, seed_seq, n_list):
    """One replicate from its seed: per n, draw data from the source, take
    its per-sample moments and assemble the sample's moment set (debiased
    by the draw count the moments carry); yields (n, alpha, system) for
    each alpha, the normal_equations system at B = W^2 every lambda
    shares."""
    # a copy of the seed: the sampler spawns its children from the
    # generator's seed sequence, which counts them, and _Subsamples hands
    # one seed to a unit per n
    rng = np.random.default_rng(np.random.SeedSequence(
        seed_seq.entropy, spawn_key=seed_seq.spawn_key))
    for n in n_list:
        X, Y = source.draw(rng, n)
        psm = batch_sample_moments(scheme, fmap, X, Y, n_mc_aug, rng)
        design = ridge.assemble_design(X, Y, fmap, psm)
        for alpha in alpha_grid:
            yield n, alpha, ridge.normal_equations(
                design, np.diag([1.0 - alpha, alpha]), alpha)


_worker_payload = None  # set once in each pool worker by _init_worker


def _run_unit(unit, payload=None):
    """One work unit (seed, n_list): fit every lambda from each system of
    its _replicate. Returns (risk, overlap, chi, theta_hat) by cell
    (n, lambda, alpha), the overlap G1^T theta_hat and chi
    theta_hat^T Sigma theta_hat under the moment set, and the risk the
    source's (the population risk of chi and overlap for fresh draws).
    Without a payload, the one the pool worker was started with."""
    (source, fmap, scheme, lambda_grid, alpha_grid, n_mc_aug,
     moment_set) = payload or _worker_payload
    out = {}
    for n, alpha, system in _replicate(source, fmap, scheme, n_mc_aug,
                                       alpha_grid, *unit):
        for lam in lambda_grid:
            theta = ridge.fit(system, lam)
            chi, overlap = ridge.quadratic_terms(theta, moment_set)
            out[(n, lam, alpha)] = (
                source.risk(theta, chi, overlap, moment_set),
                float(np.mean(overlap)), float(np.mean(chi)), theta)
    return out


def _init_worker(payload):
    global _worker_payload
    _worker_payload = payload
    schemes.SAMPLER_THREADS = 1


def _run_units(payload, units, workers):
    """The units' results in unit order, serially or in a process pool that
    receives the payload once per worker, not once per chunk. The pool
    starts all its processes at once, so it has no more than there are
    units or usable CPUs."""
    workers = min(workers, len(units), schemes.usable_cpus())
    if workers <= 1:
        return [_run_unit(u, payload) for u in units]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(payload,)) as pool:
        return list(pool.map(_run_unit, units,
                             chunksize=max(1, len(units) // (4 * workers))))


def _det_columns(moment_set, n, lam, alpha, sigma2):
    """A row's deterministic columns. Only these scalars outlive the call,
    not the cell's p x p blocks."""
    state = detequiv.solve_fixed_point(moment_set, alpha, lam, n)
    # raises NotConvergedError on an unconverged cell
    D = detequiv.compute_second_order(state, moment_set)
    rep = detequiv.equivalents(state, D, moment_set, sigma2)
    return (rep.g_bar_mean, rep.overlap_bar_mean, rep.chi_bar_mean,
            rep.bias2_bar_mean, rep.var_bar_mean, float(state.B.sum()),
            rep.delta, state.iterations, state.residual, state.converged)


def _std(a):
    return float(a.std(ddof=1)) if len(a) > 1 else 0.0


def _check_row(row):
    """Raise NumericalFailureError, naming the cell and the column, when a
    value of row is not finite."""
    for col, v in zip(RESULT_COLUMNS, row.to_list()):
        if not math.isfinite(v):
            raise NumericalFailureError(
                f"{col} is {v} at lambda={row.lam:g}, alpha={row.alpha:g}, "
                f"n={row.n}")


def _sweep(config, source, fmap, scheme, moment_set, csv_name):
    """The replicate engine: one ResultRow per (n, lambda, alpha) cell.

    Every fixed point is solved before any Monte-Carlo, so an unconverged
    cell fails at once, and only the row's scalars are kept of a solve.
    Replicate seeds are spawned from the master seed, the source splits
    them into work units (seed, n_list), and results are reduced in unit
    order, so the rows do not depend on the worker count. The label noise
    config.data["noise_sigma2"] enters only the bias^2 of the mean fit
    and of the equivalents. A row with a non-finite value raises
    NumericalFailureError before any CSV is written.
    """
    sigma2 = config.data["noise_sigma2"]
    n_list = config.sample_sizes()
    cells = [(n, lam, alpha) for n in n_list for lam in config.lambda_grid
             for alpha in config.alpha_grid]
    det = {cell: _det_columns(moment_set, *cell, sigma2) for cell in cells}
    seeds = np.random.SeedSequence(config.seed).spawn(config.replicates)
    payload = (source, fmap, scheme, config.lambda_grid, config.alpha_grid,
               config.n_mc_aug, moment_set)
    results = _run_units(payload, source.units(seeds, n_list), config.workers)
    p = fmap.output_dim
    rows = []
    for cell in cells:
        vals = [r[cell] for r in results if cell in r]
        gs, ovs, chis = (np.array([v[k] for v in vals]) for k in range(3))
        th = sum(v[3] for v in vals) / len(vals)  # the replicates' mean
        chi, overlap = ridge.quadratic_terms(th, moment_set)
        bias2 = float(np.mean(ridge.population_risk(chi, overlap,
                                                    moment_set))) - sigma2
        n, lam, alpha = cell
        row = ResultRow(
            lam, alpha, n, p, config.data_dim(), p / n,
            float(gs.mean()), _std(gs), float(ovs.mean()), _std(ovs),
            float(chis.mean()), _std(chis), bias2, float(gs.mean()) - bias2,
            *det[cell],
        )
        _check_row(row)
        rows.append(row)
    if csv_name:
        os.makedirs(config.out_dir, exist_ok=True)
        write_csv(rows, os.path.join(config.out_dir, csv_name))
    return rows


def run_sweep(config, csv_name=None, moment_set=None):
    """Full (lambda, alpha, n) grid sweep with Monte-Carlo ground truth
    and deterministic equivalents; one ResultRow per cell.

    moment_set overrides the internally built population moments; pass it
    to share one estimation across several sweeps of the same data law.
    """
    _preflight(config)
    spec = config.build_synthetic_spec()
    fmap = config.build_feature_map()
    scheme = config.build_scheme()
    if moment_set is None:
        moment_set = build_moment_set(config)
    return _sweep(config, _FreshDraws(spec), fmap, scheme, moment_set,
                  csv_name)


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
    report. It runs identity features and truth only, at the first
    lambda and alpha, and takes each replicate's system from _replicate,
    serially whatever config.workers is.
    """
    for key in ("features", "truth_features"):
        kind = getattr(config, key)["kind"]
        if kind != "identity":
            raise ConfigError(f"config.{key}: validate runs identity "
                              f"features only, got {kind!r}")
    _preflight(config)
    base = config.build_synthetic_spec()
    if factor * base.d > 600:
        raise ConfigError("validate instances must stay small (p <= 600/factor)")
    lam = config.lambda_grid[0]
    alpha = config.alpha_grid[0]
    scheme = config.build_scheme()
    sigma2 = base.noise_sigma2
    report = {"lambda": lam, "alpha": alpha, "replicates": config.replicates}
    per_size = []
    for scale_idx, scale in enumerate((1, factor)):
        d = base.d * scale
        n = base.n * scale
        # listed eigenvalues and theta_star entries repeat `scale` times,
        # keeping the spectral distribution and ||theta_star||
        spectrum, theta = base.spectrum, config.data["theta_star"]
        if isinstance(spectrum, tuple):
            spectrum = np.repeat(spectrum, scale)
        if isinstance(theta, tuple):
            theta = tuple(np.repeat(theta, scale) / math.sqrt(scale))
        spec = replace(base, d=d, n=n, spectrum=spectrum,
                       theta_star=_resolve_theta_star(theta, d),
                       truth_map=identity_map(d))
        fmap = identity_map(d)
        ms = closed_population_moment_set(spec.covariance(), scheme,
                                          spec.theta_star, sigma2)
        state = detequiv.solve_fixed_point(ms, alpha, lam, n)
        D = detequiv.compute_second_order(state, ms)
        rep = detequiv.equivalents(state, D, ms, sigma2)
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
        res_dev, th_dev, chi_dev, gs, fd_errs = [], [], [], [], []
        for r, s in enumerate(seeds):
            (_, _, system), = _replicate(_FreshDraws(spec), fmap, scheme,
                                         config.n_mc_aug, (alpha,), s, (n,))
            Ri = ridge.resolvent_shifted(system, lam)
            res_dev.append(float(np.sum(A * Ri)) - tr_det)
            theta = ridge.fit(system, lam)
            th_dev.append(float(a @ theta[:, 0]) - th_det)
            chi_j, overlap_j = ridge.quadratic_terms(theta, ms)
            chi = float(np.mean(chi_j))
            chi_dev.append(chi - rep.chi_bar_mean)
            gs.append(float(np.mean(ridge.population_risk(chi_j, overlap_j,
                                                          ms))))
            if r < 5:
                fd = ridge.xi_derivative_fd(system, lam, ms.Sigma)
                exact = -chi * ms.q
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
    report["base"], report["scaled"] = per_size
    for key in ("resolvent_fluct", "theta_fluct", "chi_fluct", "std_g"):
        denom = per_size[1][key]
        report[f"{key}_ratio"] = (per_size[0][key] / denom
                                  if denom > 0 else float("inf"))
    report["fd_identity_rel_err"] = max(s["fd_identity_rel_err"]
                                        for s in per_size)
    return report


# --- MNIST pipeline ----------------------------------------------------

def mnist_pipeline(config, csv_name=None):
    """End-to-end inpainting experiment: moment estimation on the full
    training set, aspect-ratio sweep by subsampling, coordinatewise
    multivariate ridge, output-averaged risks."""
    data = config.data
    if data["kind"] != "mnist":
        raise ConfigError("mnist pipeline requires data.kind = 'mnist'")
    _preflight(config)
    train = inpainting_task(mnist_load(data["train_images"]))
    test = inpainting_task(mnist_load(data["test_images"]))
    for n in config.sample_sizes():
        if n > train.X.shape[1]:
            raise ConfigError(f"subsample size {n} exceeds training set")
    fmap = config.build_feature_map()
    scheme = config.build_scheme()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0]))
    moment_set = estimate_moment_set(
        fmap, None, scheme, lambda a, b: (train.X[:, a:b], train.Y[:, a:b]),
        train.X.shape[1], rng,
    )
    source = _Subsamples(train, features.apply_features(fmap, test.X),
                         test.Y)
    del test  # only its features and labels are read
    return _sweep(config, source, fmap, scheme, moment_set, csv_name)
