"""The benchmark's tracer against the package: every function it wraps
must exist under the name it looks up, and leave unwrapped."""

import importlib
from pathlib import Path

import augridge

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    targets = spans._targets(augridge)
    # a deleted or renamed target fails here, as `--trace 1` would
    originals = [getattr(mod, attr) for mod, attr, _ in targets]
    with spans.Tracer().installed(augridge):
        for (mod, attr, _), fn in zip(targets, originals):
            assert getattr(mod, attr).__wrapped__ is fn, attr
    for (mod, attr, _), fn in zip(targets, originals):
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr}"
