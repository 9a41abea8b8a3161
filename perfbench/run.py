"""augridge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <cr1_mc|detequiv_grid|inpaint_idx>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The inputs (config, IDX files) are
made from the seed under .perfbench_out/ before anything is timed. With
--trace 0 it prints the end-to-end metrics: wall_s (median wall time of a
round), setup_s (median of several fresh-interpreter set-ups) and
peak_rss_mb (peak RSS of the workload process). With --trace 1 it prints
the per-layer metrics of a traced run instead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170.0


def child_env():
    """The workload processes' environment: augridge from source, one
    BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env, timeout):
    proc = subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args[0]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(config_path, env):
    """Median over fresh interpreters of the time from process start to
    the end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = float(run_child([HERE / "probe.py", config_path], env, 60))
        times.append(done - t0)
    return statistics.median(times)


def layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    return "GFLOP" if key.endswith("gflop") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "augridge" / "__init__.py").is_file():
        sys.stderr.write(f"no augridge source under {ROOT / 'src'}\n")
        return 2
    seed = args.seed % 2 ** 63
    out = ROOT / ".perfbench_out" / f"{args.workload}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    config_path = workloads.prepare(args.workload, seed, out)
    env = child_env()
    setup = None if args.trace else setup_seconds(config_path, env)
    line = run_child(
        [HERE / "worker.py", args.workload, config_path, seed, args.seconds,
         args.trace, out / "trace.json"],
        env, DEADLINE_S - (time.monotonic() - start))
    res = json.loads(line)
    for msg in res["problems"]:
        sys.stderr.write(f"check failed: {msg}\n")
    if args.trace:
        metrics = {key: {"value": value, "unit": layer_unit(key)}
                   for key, value in res["layers"].items()}
    else:
        print(f"# {len(res['walls'])} rounds, wall_s each: "
              + " ".join(f"{w:.4f}" for w in res["walls"]))
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]),
                       "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
