"""The benchmark's tracer must find every name it wraps, and put each back.

`bench/run.py --trace 1` swaps the package functions listed in
`bench/tracing.py` for timing wrappers; a renamed function would break
that mode without failing anything else.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_boundary():
    tracing = _tracing_module()
    boundaries = [(importlib.import_module(mod), name)
                  for mod, name, _ in tracing.BOUNDARIES]
    missing = [f"{m.__name__}.{n}" for m, n in boundaries if not hasattr(m, n)]
    assert missing == []
    before = [getattr(m, n) for m, n in boundaries]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(m, n) for m, n in boundaries]
    finally:
        tracer.restore()
    assert all(w.__wrapped__ is b for w, b in zip(wrapped, before))
    assert all(getattr(m, n) is b for (m, n), b in zip(boundaries, before))
