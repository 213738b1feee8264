"""The benchmark's traced run rebinds library names; keep them rebindable."""

import importlib.util
from pathlib import Path

import hyperopic
import hyperopic.audits  # noqa: F401  (the tracer wraps audit names too)

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = (hyperopic.solver.solve, hyperopic.audits.run_claim)

    tracer = module.Tracer(hyperopic)
    tracer.install()
    try:
        assert hyperopic.solver.solve is not originals[0]
    finally:
        tracer.uninstall()
    assert (hyperopic.solver.solve, hyperopic.audits.run_claim) == originals
