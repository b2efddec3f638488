"""The benchmark's tracer patches library names from outside; a rename in
the library must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from cases import CASE5_F, CASE5_G, CASE7_F, CASE7_G

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
    # changes these counts. Only a branch point snapshots: CASE7's first
    # candidate verifies, so it takes one snapshot and no restore; a phase
    # collision prunes CASE5's first candidate, so a restore follows it
    tracer = load_tracer()
    for f, g, updates, bookkeeping in ((CASE7_F, CASE7_G, 3, 1), (CASE5_F, CASE5_G, 5, 2)):
        log = tracer.SpanLog()
        with tracer.instrumented(log) as traced_match:
            assert traced_match(f, g).equivalent
        calls = {name: s["calls"] for name, s in log.summarize().items()}
        assert calls == {
            tracer.ROOT: 1,
            "symmetry.build": 2,
            "signature.update": updates,
            "matcher.mapping_sets": updates,
            "matcher.bookkeeping": bookkeeping,
            "matcher.verify": 1,
            "boolfn.transform": 1,
        }
