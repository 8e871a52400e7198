"""The benchmark's tracer (perfbench/tracing.py) wraps program names
from outside the package. Installing it here makes a rename or removal
of any wrapped name fail the test suite, not only the benchmark."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
