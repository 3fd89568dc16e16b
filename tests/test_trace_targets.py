"""The benchmark's tracer finds every function it times.

``perfbench/tracing.py`` patches the package's functions by module and name,
and a target it cannot find only reads 0 in the benchmark.  Installing the
tracer here turns a rename or a deletion of a traced function into a failing
test instead.
"""
import importlib.util
from pathlib import Path

import salience.cli  # noqa: F401  (imports every module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install("salience")
        assert tracer.missing == []
    finally:
        tracer.uninstall()
