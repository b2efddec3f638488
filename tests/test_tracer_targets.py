"""The benchmark's tracer patches library names from outside; a rename in
the library must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from cases import CASE7_F, CASE7_G

TRACER = Path(__file__).resolve().parents[1] / "npnbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("npnbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for owner, attr, label, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner, attr, label)


def test_case7_span_counts_per_layer():
    # a change that moves work between layers or drops a patched call
    # changes these counts
    tracer = load_tracer()
    log = tracer.SpanLog()
    with tracer.instrumented(log) as traced_match:
        assert traced_match(CASE7_F, CASE7_G).equivalent
    calls = {name: s["calls"] for name, s in log.summarize().items()}
    assert calls == {
        tracer.ROOT: 1,
        "symmetry.build": 2,
        "signature.update": 3,
        "matcher.mapping_sets": 3,
        "matcher.bookkeeping": 7,
        "matcher.verify": 1,
        "boolfn.transform": 1,
    }
