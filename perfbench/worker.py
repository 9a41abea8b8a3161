"""The workload process: runs whole rounds of one workload for a time
budget and prints one JSON line with its timings, checks and peak memory.

    python3 perfbench/worker.py <workload> <config.json> <seed> <seconds>
        <trace 0|1> <trace-out.json>

run.py starts it with augridge's source on PYTHONPATH and one BLAS
thread. Untraced, every round is timed. Traced, untraced and traced rounds
alternate, and the per-layer numbers come from the traced round with the
median wall time.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import augridge
from augridge import datasets, harness

import spans
import workloads


def timed_round(name, config, tracer=None):
    """Wall time and rows of one round. A traced round's wall time is its
    root span, so the self times of its spans add up to it."""
    if tracer is None:
        t0 = time.perf_counter()
        rows = workloads.run_round(name, config, harness)
        return time.perf_counter() - t0, rows
    with tracer.span("round"), tracer.installed(augridge):
        rows = workloads.run_round(name, config, harness)
    _, start, end, _ = tracer.spans[0]
    return end - start, rows


def main(argv):
    name, config_path, seed, seconds, trace, trace_out = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    config = harness.ExperimentConfig.from_json(config_path)
    start = time.perf_counter()
    walls, traced = [], []
    attempted = failed = 0
    problems = []
    csv_text = None
    while True:
        modes = (None, spans.Tracer()) if trace else (None,)
        for tracer in modes:
            wall, rows = timed_round(name, config, tracer)
            chk = workloads.check_round(name, config, rows)
            attempted += chk.attempted
            failed += chk.failed
            problems += chk.problems
            text = Path(config.out_dir, workloads.CSV_NAME[name]).read_text()
            if csv_text is not None and text != csv_text:
                problems.append("CSV differs between rounds of one seed")
            csv_text = text
            if tracer is None:
                walls.append(wall)
            else:
                traced.append((wall, tracer))
        elapsed = time.perf_counter() - start
        last = walls[-1] + (traced[-1][0] if trace else 0.0)
        if elapsed + last > seconds:
            break
    if name == "inpaint_idx":
        problems += workloads.check_idx_round_trip(config, seed, datasets)
    out = {
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if trace:
        traced.sort(key=lambda wt: wt[0])
        wall, tracer = traced[(len(traced) - 1) // 2]
        layers = tracer.self_times()
        layers.update(tracer.counts)
        untraced = statistics.median(walls)
        layers["trace.wall_s"] = wall
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_s"] = wall - untraced
        out["layers"] = layers
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "wall_s": wall,
                       "spans": tracer.dump()}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
