"""The three benchmark workloads: their inputs, their calls into augridge,
and the checks of every grid cell against references computed apart from
the program.

A workload is a config (and, for ``inpaint_idx``, a pair of IDX image
files) made from the benchmark seed before anything is timed. One round of
a workload is the call the matching ``augridge`` CLI command makes,
writing the same CSV. One operation is one (lambda, alpha, n) cell.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

SQRT_HALF = 0.7071067811865476

# criterion-1 experiment of tests/test_acceptance.py (CR1_CFG), scaled down
# in n_mc_data and replicates only. Its Monte-Carlo keeps CR1_CFG's seed 7
# whatever the benchmark seed: the criterion-1 band is 3 standard errors
# wide, and at a few replicates some seeds fall outside it on correct code.
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
    "replicates": 5,
    "n_mc_aug": 200,
    "n_mc_data": 1024,
    "seed": 7,
    "workers": 1,
}

# identity features, isotropic covariance, additive noise: every moment is
# closed-form, and augmented ridge is plain ridge at lambda + alpha sigma_aug^2
GRID_P = 200
GRID_SIGMA_AUG = 0.5
GRID_NOISE = 0.25
GRID_CFG = {
    "data": {
        "kind": "synthetic",
        "d": GRID_P,
        "n": GRID_P,
        "spectrum": "isotropic",
        "theta_star": "normalized-ones",
        "noise_sigma2": GRID_NOISE,
        "q_seed": 0,
    },
    "scheme": {"kind": "additive-noise", "sigma_aug": GRID_SIGMA_AUG},
    "lambda_grid": [1e-5, 1e-2, 1.0, 100.0],
    "alpha_grid": [0.0, 0.5, 1.0],
    # p/n = 4, 2, 1, 1/2, 1/4
    "n_grid": [50, 100, 200, 400, 800],
    "replicates": 96,
    "n_mc_aug": 2,
    "workers": 1,
}

IDX_TRAIN = 10000
IDX_TEST = 2000
IDX_CFG = {
    "scheme": {"kind": "masking", "keep_prob": 0.85},
    "lambda_grid": [1e-3],
    # alpha = 0 is left out: fault (b) puts its g_det 3-9% below the
    # held-out risk, so criterion 11 (10%) fails there on some seeds
    "alpha_grid": [0.5, 1.0],
    "n_grid": [250, 375],
    "replicates": 10,
    "n_mc_aug": 50,
    "workers": 1,
}

# the command of the augridge CLI each workload stands for, and its CSV
CSV_NAME = {
    "cr1_mc": "sweep_lambda.csv",
    "detequiv_grid": "sweep_aspect.csv",
    "inpaint_idx": "mnist.csv",
}
NAMES = tuple(CSV_NAME)


# --- inputs ------------------------------------------------------------

def blob_images(count, rng):
    """count 28x28 uint8 images, each a sum of 2-4 Gaussian blobs with
    random centres, widths and heights on a black background."""
    yy, xx = np.mgrid[0:28, 0:28].astype(float)
    k = rng.integers(2, 5, size=count)
    out = np.empty((count, 28, 28), dtype=np.uint8)
    for i in range(count):
        img = np.zeros((28, 28))
        for _ in range(k[i]):
            cy, cx = rng.uniform(6.0, 22.0, size=2)
            width = rng.uniform(1.5, 4.5)
            height = rng.uniform(0.4, 1.0)
            img += height * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2)
                                   / (2.0 * width * width))
        out[i] = np.rint(255.0 * np.clip(img, 0.0, 1.0))
    return out


def write_idx(path, images):
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def idx_images(seed):
    """The generated (train, test) images of a seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D]))
    return blob_images(IDX_TRAIN, rng), blob_images(IDX_TEST, rng)


def prepare(name, seed, out_dir):
    """Write the workload's inputs under out_dir; returns the config path.
    The config's out_dir is where each round writes its CSV."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "cr1_mc":
        cfg = dict(CR1_CFG)
    elif name == "detequiv_grid":
        cfg = dict(GRID_CFG, seed=seed)
    elif name == "inpaint_idx":
        train, test = idx_images(seed)
        write_idx(out_dir / "train-images-idx3-ubyte", train)
        write_idx(out_dir / "t10k-images-idx3-ubyte", test)
        cfg = dict(IDX_CFG, seed=seed)
        cfg["data"] = {
            "kind": "mnist",
            "train_images": str(out_dir / "train-images-idx3-ubyte"),
            "test_images": str(out_dir / "t10k-images-idx3-ubyte"),
            "noise_sigma2": 0.0,
        }
    else:
        raise ValueError(f"unknown workload {name!r}")
    cfg["out_dir"] = str(out_dir / "csv")
    path = out_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


# --- one round -----------------------------------------------------------

def run_round(name, config, harness):
    """The workload's calls into the program, as the CLI makes them; the
    harness module is passed in so a traced round goes through the same
    attribute lookups. Returns the result rows."""
    if name == "inpaint_idx":
        return harness.mnist_pipeline(config, csv_name=CSV_NAME[name])
    return harness.run_sweep(config, csv_name=CSV_NAME[name])


# --- references and checks ---------------------------------------------

def ridge_closed_form(lam_eff, gamma, theta_norm2, sigma2):
    """Asymptotic (beta, g) of plain ridge on isotropic data at penalty
    lam_eff and aspect ratio gamma = p/n."""
    b = lam_eff + gamma - 1.0
    beta = (-b + math.sqrt(b * b + 4.0 * lam_eff)) / 2.0
    kappa = lam_eff / beta
    g = ((theta_norm2 * kappa ** 2 / (1.0 + kappa) ** 2 + sigma2)
         / (1.0 - gamma / (1.0 + kappa) ** 2))
    return beta, g


def criterion1_tol(mean, std, replicates):
    return max(0.05 * abs(mean), 3.0 * std / math.sqrt(replicates))


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class CellChecks:
    """Tally of one round's checks: attempted and failed cells, and the
    problems that make the round incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


def check_round(name, config, rows):
    """Check one round's rows and the CSV it wrote."""
    chk = CellChecks()
    path = Path(config.out_dir) / CSV_NAME[name]
    table = read_csv(path)
    expected = (len(config.lambda_grid) * len(config.alpha_grid)
                * len(config.sample_sizes()))
    if len(rows) != expected or len(table) != expected:
        chk.problems.append(f"{len(rows)} rows, {len(table)} CSV rows, "
                            f"expected {expected}")
        return chk
    for row, rec in zip(rows, table):
        if float(rec["g_det"]) != row.g_det and not (
                math.isnan(row.g_det) and rec["g_det"] == "nan"):
            chk.problems.append(
                f"CSV g_det {rec['g_det']} != row {row.g_det}")
    R = config.replicates
    for row, rec in zip(rows, table):
        chk.attempted += 1
        cell = f"lambda={row.lam:g} alpha={row.alpha:g} n={row.n}"
        if name == "cr1_mc":
            if not row.fp_converged:
                chk.problems.append(f"{cell}: fixed point not converged")
            for what, mean, std, det in (
                ("g", row.g_mean, row.g_std, row.g_det),
                ("overlap", row.overlap_mean, row.overlap_std,
                 row.overlap_det),
                ("chi", row.chi_mean, row.chi_std, row.chi_det),
            ):
                if not abs(det - mean) <= criterion1_tol(mean, std, R):
                    chk.problems.append(
                        f"{cell}: {what}_det {det:.6g} vs "
                        f"Monte-Carlo {mean:.6g} +- {std:.3g}")
        elif name == "detequiv_grid":
            lam_eff = row.lam + row.alpha * GRID_SIGMA_AUG ** 2
            beta_cf, g_cf = ridge_closed_form(lam_eff, row.p / row.n, 1.0,
                                              GRID_NOISE)
            beta_csv = float(rec["beta"])
            g_det = float(rec["g_det"])
            if not (row.fp_converged
                    and abs(beta_csv - beta_cf) <= 1e-8
                    and abs(g_det - g_cf) <= 1e-6 * g_cf):
                chk.failed += 1
            corner = row.p == row.n and row.lam <= 1e-5
            if not corner and not abs(row.g_mean - g_cf) <= criterion1_tol(
                    row.g_mean, row.g_std, R):
                chk.problems.append(
                    f"{cell}: Monte-Carlo g {row.g_mean:.6g} +- "
                    f"{row.g_std:.3g} vs closed form {g_cf:.6g}")
        else:
            if not (math.isfinite(row.g_det) and math.isfinite(row.g_mean)
                    and abs(row.g_det - row.g_mean)
                    <= 0.10 * abs(row.g_mean)):
                chk.problems.append(
                    f"{cell}: g_det {row.g_det:.6g} vs held-out "
                    f"{row.g_mean:.6g} (criterion 11)")
    return chk


def check_idx_round_trip(config, seed, datasets):
    """inpainting_task(...).reassemble() gives back the generated
    pixels / 255 bit-exactly, for both files."""
    problems = []
    train, test = idx_images(seed)
    for key, images in (("train_images", train), ("test_images", test)):
        task = datasets.inpainting_task(
            datasets.mnist_load(config.data[key]))
        if not np.array_equal(task.reassemble(), images / 255.0):
            problems.append(f"{key}: reassembled images differ")
    return problems
