"""The benchmark's tracer patches library names from outside; a rename in
the library must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "npnbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("npnbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attr, label, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner, attr, label)
