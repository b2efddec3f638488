"""Self-tests of the benchmark at small sizes.

    python3 -m pytest npnbench/test_npnbench.py -q

They check that the generators repeat for a seed, that certified ground
truth agrees with brute force, that the output names every metric of
BENCHMARK.json with its unit, and that search counts repeat exactly.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

from npnmatch import TruthTable, apply_np_transform, exhaustive_match  # noqa: E402

import groundtruth as gt  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {"bent": (4, 6), "rotation": (6,), "block": (6,), "vacuous": (5,)}


def small_pairs(seed: int) -> list:
    rng = random.Random(seed)
    clock = wl.CertifyClock()
    pairs = []
    for kind in ("type1", "type2"):
        for k in range(4):
            pairs.append(wl.random_equivalent(rng, 5, kind, k))
            pairs.append(wl.random_nonequivalent(rng, 5, kind, k, clock))
    for family, sizes in SMALL.items():
        for n in sizes:
            pairs += wl.structured_pairs(rng, family, n, 2, clock)
    return pairs


def bits_of(pairs):
    return [(p.f.n, p.f.bits, p.g.bits, p.equivalent, p.family) for p in pairs]


def test_generators_repeat_for_a_seed():
    assert bits_of(small_pairs(3)) == bits_of(small_pairs(3))
    assert bits_of(small_pairs(3)) != bits_of(small_pairs(4))
    a = wl.build_partition_n4(random.Random("p:1"))
    b = wl.build_partition_n4(random.Random("p:1"))
    assert a.rounds == b.rounds


def test_certified_truth_agrees_with_brute_force():
    pairs = small_pairs(5)
    assert {p.equivalent for p in pairs} == {True, False}
    for p in pairs:
        assert (exhaustive_match(p.f, p.g) is not None) == p.equivalent, (p.family, p.f, p.g)


def test_invariants_separate_only_inequivalent_functions():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 5)
        f = rng.getrandbits(1 << n)
        g = apply_np_transform(TruthTable(n, f), gt.random_transform(rng, n, bool(rng.getrandbits(1))))
        assert not gt.certified_nonequivalent(f, g.bits, n, gt.structured_key)


def test_reference_transform_matches_library():
    rng = random.Random(7)
    for n in range(1, 7):
        f = TruthTable(n, rng.getrandbits(1 << n))
        t = gt.random_transform(rng, n, bool(rng.getrandbits(1)))
        assert gt.reference_transform(f.bits, n, t) == apply_np_transform(f, t).bits


def test_filter_preserving_partners_keep_their_counts():
    rng = random.Random(8)
    for family in ("rotation", "block", "vacuous"):
        for _ in range(10):
            cand = gt.family_candidate(rng, family, 12)
            if cand is not None:
                assert gt.passes_first_order(*cand, 12), family


def test_scaled_timer_leaves_out_the_kernel():
    gauge = speed.Gauge()
    with speed.ScaledTimer(gauge, 0.0) as timer:
        for _ in range(3):
            busy = time.perf_counter() + 0.02
            while time.perf_counter() < busy:
                pass
            timer.tick()
    assert len(gauge.samples) == 1 + 1 + 3 + 1
    assert 0.06 <= timer.raw < 0.08
    assert timer.scaled > 0


def run_bench(workload: str, trace: int, seed: int = 1) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_with_its_unit(spec, trace, section):
    metrics = run_bench("partition_n4", trace)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec[section]}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_search_counts_repeat_exactly(spec):
    counted = [m["name"] for m in spec["per_layer"]
               if not m["name"].endswith("_ms") and not m["name"].startswith("trace.")]
    first = run_bench("structured_mid", 1)["metrics"]
    second = run_bench("structured_mid", 1)["metrics"]
    assert counted
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
