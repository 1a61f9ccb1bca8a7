"""Every name the benchmark's tracer instruments still exists.

``bench/tracing.py`` wraps package functions by module and attribute name and
counts calls to ``Plan.load_after`` through the class ``__dict__``, so a
refactor that renames or removes one of them breaks ``bench/run.py --trace 1``
without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

SPAN_TARGETS = [
    (layer, module, attr)
    for layer, targets in tracing.SPANS.items()
    for module, attr in targets
]


@pytest.mark.parametrize(
    "layer, module, attr", SPAN_TARGETS, ids=[f"{m}.{a}" for _, m, a in SPAN_TARGETS]
)
def test_span_target_resolves(layer, module, attr, monkeypatch):
    # the bench's own modules (``workloads``) import their neighbours by name
    monkeypatch.syspath_prepend(str(BENCH))
    assert callable(getattr(importlib.import_module(module), attr)), layer


@pytest.mark.parametrize("layer", sorted(tracing.COUNTED_METHODS))
def test_counted_method_resolves(layer):
    module, cls_name, attr = tracing.COUNTED_METHODS[layer]
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(cls.__dict__[attr]), layer
