"""The benchmark's tracing hooks (perfbench/spans.py) still find every layer.

``Tracer.install`` patches the fracfp bindings listed in ``LAYERS`` and
raises when one has gone, so a refactor that renames or stops importing a
traced function fails here rather than in a ``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fracfp.grid import build_grid
from fracfp.operators import OperatorConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def restore_layers(spans, monkeypatch):
    """Snapshot every traced binding, so the patches are undone after the test."""
    for _, home, func, callers in spans.LAYERS:
        for name in (home, *callers):
            mod = importlib.import_module(name)
            monkeypatch.setattr(mod, func, getattr(mod, func))


def test_install_wraps_every_layer(spans, restore_layers):
    originals = {
        (caller, func): getattr(importlib.import_module(home), func)
        for _, home, func, callers in spans.LAYERS
        for caller in callers
    }
    spans.Tracer().install()
    for (caller, func), original in originals.items():
        wrapped = getattr(importlib.import_module(caller), func)
        assert wrapped is not original
        assert wrapped.__wrapped__ is original


def test_install_raises_when_a_binding_is_gone(spans, restore_layers, monkeypatch):
    monkeypatch.delattr(importlib.import_module("fracfp.steady"), "evolve")
    with pytest.raises(RuntimeError, match="fracfp.steady.evolve"):
        spans.Tracer().install()


def test_traced_steady_route_counts_chunks(spans, restore_layers):
    tracer = spans.Tracer()
    tracer.install()
    cli = importlib.import_module("fracfp.cli")
    grid = build_grid(1, 10.0, 64)
    cli.steady_by_evolution(grid, OperatorConfig(alpha=1.0, gamma=2.0), tol=1e-3)
    metrics = spans.layer_metrics(tracer.spans, {})
    evolves = [s for s in tracer.spans if s["name"] == "evolution.evolve"]
    assert evolves and metrics["steady.evolution_chunks"] == len(evolves)
    assert metrics["evolution.steps"] == sum(s["steps"] for s in evolves)
    assert metrics["evolution.evolve_calls"] == len(evolves)
