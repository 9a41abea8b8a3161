"""Spans and counters at the layer boundaries of augridge, recorded from
outside the program.

``Tracer.installed()`` replaces each layer's public functions, under the
module attribute each caller looks up, by a wrapper that records a span
(name, start, end, parent) in memory and updates the layer counters. On
exit the original functions are back. Every ``*_s`` metric is the self
time of its spans: the span's duration minus the time its child spans
cover. The self times of all spans, the root span of the round included,
add up to the round's wall time.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
import warnings

import numpy as np

# span name -> per-layer metric holding its self time
SELF_TIME_METRIC = {
    "round": "trace.unattributed_s",
    "datasets.sample": "datasets.sample_s",
    "datasets.idx": "datasets.idx_s",
    "features.apply": "features.apply_s",
    "schemes.augment": "schemes.augment_s",
    "moments.batch": "moments.batch_self_s",
    "moments.estimate": "moments.estimate_self_s",
    "moments.closed": "moments.closed_s",
    "detequiv.fp": "detequiv.fp_s",
    "detequiv.second_order": "detequiv.second_order_s",
    "detequiv.equivalents": "detequiv.equivalents_s",
    "ridge.assemble": "ridge.assemble_s",
    "ridge.fit": "ridge.fit_s",
    "ridge.risk": "ridge.risk_s",
    "harness": "harness.self_s",
}

COUNTERS = (
    "schemes.augment_cols",
    "features.gflop",
    "moments.batch_peak_mb",
    "moments.psd_clips",
    "detequiv.fp_iterations",
    "detequiv.fp_unconverged",
    "ridge.fits",
    "datasets.sample_calls",
    "harness.replicates",
)


def _targets(aug):
    """(module, attribute, span name) for every wrapped function: each
    function under every name a caller in the package looks it up by."""
    ds, ft, mo, ri, de, ha = (aug.datasets, aug.features, aug.moments,
                              aug.ridge, aug.detequiv, aug.harness)
    return [
        (ha, "run_sweep", "harness"),
        (ha, "mnist_pipeline", "harness"),
        (ha, "build_moment_set", "harness"),
        (ha, "sample_synthetic", "datasets.sample"),
        (ds, "sample_synthetic", "datasets.sample"),
        (ha, "mnist_load", "datasets.idx"),
        (ha, "inpainting_task", "datasets.idx"),
        (ft, "apply_features", "features.apply"),
        (ds, "apply_features", "features.apply"),
        (mo, "apply_features", "features.apply"),
        (ri, "apply_features", "features.apply"),
        (mo, "sample_augmented_batch", "schemes.augment"),
        (ha, "batch_sample_moments", "moments.batch"),
        (mo, "batch_sample_moments", "moments.batch"),
        (ha, "estimate_moment_set", "moments.estimate"),
        (ha, "closed_population_moment_set", "moments.closed"),
        (de, "solve_fixed_point", "detequiv.fp"),
        (de, "compute_second_order", "detequiv.second_order"),
        (de, "equivalents", "detequiv.equivalents"),
        (ri, "assemble_design", "ridge.assemble"),
        (ri, "fit", "ridge.fit"),
        (ri, "population_generalization", "ridge.risk"),
        (ri, "overlap_stat", "ridge.risk"),
        (ri, "chi_stat", "ridge.risk"),
        (ri, "empirical_generalization", "ridge.risk"),
    ]


class Tracer:
    """In-memory spans and counters of one traced round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- spans --

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- counters --

    def _count(self, name, args, result):
        c = self.counts
        if name == "schemes.augment":
            X, n_draws = args[1], args[3]
            c["schemes.augment_cols"] += np.shape(X)[1] * int(n_draws)
        elif name == "features.apply":
            fmap, M = args[0], args[1]
            cols = 1 if np.ndim(M) == 1 else np.shape(M)[1]
            for W in fmap.weights:
                c["features.gflop"] += 2.0 * W.size * cols / 1e9
        elif name == "detequiv.fp":
            c["detequiv.fp_iterations"] += result.iterations
            c["detequiv.fp_unconverged"] += not result.converged
        elif name == "ridge.fit":
            c["ridge.fits"] += 1
        elif name == "ridge.assemble":
            c["harness.replicates"] += 1
        elif name == "datasets.sample":
            c["datasets.sample_calls"] += 1

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            self._open(name)
            peak = name == "moments.batch"
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    c = self.counts
                    c["moments.batch_peak_mb"] = max(
                        c["moments.batch_peak_mb"], mb)
                self._close()
            self._count(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, aug):
        """Wrap the layer functions of the imported augridge package for
        the duration of the block, and count psd_clip warnings."""
        saved = []
        try:
            for mod, attr, name in _targets(aug):
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
        self.counts["moments.psd_clips"] += sum(
            str(w.message).startswith("clipping eigenvalue") for w in caught)

    # -- results --

    def self_times(self):
        """Self time of each span, summed per per-layer metric."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[SELF_TIME_METRIC[name]] += (end - start) - covered
        return out

    def dump(self):
        """Spans as JSON-ready records, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans]
