"""The benchmark tracer's targets exist in the package.

bench/tracing.py wraps carlembed functions by module and attribute
name, and a target it cannot find is silently left untraced, so its
per-layer metrics read 0.  This test fails instead when a traced
function is renamed or removed.
"""

import importlib.util
from pathlib import Path

import carlembed.cli  # noqa: F401  (the tracer patches only loaded modules)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    tracer = tracing.Tracer()
    plan = tracer._plan()
    assert tracer.missing == []
    # every target is held by at least one module, so wrapping it traces calls
    planned = {original for _, _, original, _ in plan}
    assert len(planned) == len(tracing.TARGETS)
