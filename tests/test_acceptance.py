"""Acceptance gate: seven primary criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import random
import time

from npnmatch.boolfn import (
    TruthTable,
    apply_np_transform,
    count_minterms,
    equal,
)
from npnmatch.matcher import match_npn
from npnmatch.oracle import (
    enumerate_npn_classes,
    exhaustive_match,
    random_equivalent_pair,
    random_function,
)
from npnmatch.symmetry import (
    build_symmetry_classes,
    canonical_keys,
    complement_pairs,
    first_order_pairs,
)

from cases import (
    CASE4_F,
    CASE4_G,
    CASE5_F,
    CASE5_G,
    CASE7_F,
    CASE7_G,
    TRIO_A,
    TRIO_B,
    TRIO_C,
    dump_first_order,
    enumerate_complete_transformations,
    vector_side,
)
from test_boolfn import random_table
from test_matcher import RecordingObserver


def report(ok: bool, label: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_oracle_agreement():
    start = time.perf_counter()
    rng = random.Random(1)
    checked = disagreements = 0
    for n in (2, 3, 4):
        for i in range(500):
            if i % 2 == 0:
                f, g, _ = random_equivalent_pair(n, "type1_random", rng.randrange(1 << 60))
            else:
                f, g = random_table(rng, n), random_table(rng, n)
            if match_npn(f, g).equivalent != (exhaustive_match(f, g) is not None):
                disagreements += 1
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        disagreements == 0 and elapsed < 60,
        "criterion 1: matcher agrees with brute force on "
        f"{checked} pairs for n in 2..4",
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_witness_validity():
    rng = random.Random(2)
    bad = 0
    for i in range(1000):
        n = 7 + i % 10
        kind = "type1_random" if i % 2 == 0 else "type2_balanced"
        f, g, _ = random_equivalent_pair(n, kind, rng.randrange(1 << 60))
        result = match_npn(f, g)
        if not result.equivalent or not equal(apply_np_transform(f, result.witness), g):
            bad += 1
    report(
        bad == 0,
        "criterion 2: 1000 constructed pairs (n=7..16) all matched "
        "with bit-exact witnesses",
        f"{bad} failures",
    )


def test_criterion_3_golden_examples():
    ok = True

    # three-variable trio: printed first-order vectors
    ok &= dump_first_order(first_order_pairs(TRIO_A.bits, TRIO_A.n)) == "{(2,2),(1,3),(2,2)}"
    ok &= dump_first_order(first_order_pairs(TRIO_B.bits, TRIO_B.n)) == "{(3,1),(2,2),(2,2)}"
    ok &= dump_first_order(first_order_pairs(TRIO_C.bits, TRIO_C.n)) == "{(3,1),(1,3),(3,1)}"

    def initial_dump(f):
        return vector_side(f, build_symmetry_classes(f)).dump()

    # four-variable pair: initial and post-update vectors
    ok &= initial_dump(CASE4_F) == (
        "{(4, 4, 2, 0, 1),(4, 4, 2, 0, 1),(4, 4, -1, -1, 1),(5, 3, -1, -1, 0)}"
    )
    ok &= initial_dump(CASE4_G) == (
        "{(3, 5, -1, -1, 0),(4, 4, 2, 1, 1),(4, 4, -1, -1, 1),(4, 4, 2, 1, 1)}"
    )
    obs4 = RecordingObserver()
    match_npn(CASE4_F, CASE4_G, observer=obs4)
    ok &= obs4.of_kind("vec")[1][2:] == (
        "{(3, 2, 2, 0, 1),(2, 3, 2, 0, 1),(2, 3, -1, -1, 1),(0, 0, -1, -1, 0)}",
        "{(0, 0, -1, -1, 0),(3, 2, 2, 1, 1),(3, 2, -1, -1, 1),(2, 3, 2, 1, 1)}",
    )

    # five-variable pair: step vectors, cubes, and the phase-collision prune
    obs5 = RecordingObserver()
    match_npn(CASE5_F, CASE5_G, observer=obs5)
    vecs5 = obs5.of_kind("vec")
    ok &= vecs5[0][2] == (
        "{(11, 5, -1, -1, 0),(8, 8, -1, -1, 3),(10, 6, -1, -1, 1),"
        "(9, 7, -1, -1, 2),(9, 7, -1, -1, 2)}"
    )
    ok &= vecs5[1][2] == (
        "{(0, 0, -1, -1, 0),(5, 6, -1, -1, 3),(0, 0, -1, -1, 1),"
        "(6, 5, -1, -1, 2),(6, 5, -1, -1, 2)}"
    )
    ok &= obs5.of_kind("cubes")[:3] == [
        ("cubes", "x0", "~x0"),
        ("cubes", "x0x2", "~x0x2"),
        ("cubes", "x0x2~x1", "~x0x2x1"),
    ]
    ok &= ("collision", "4->4-1") in obs5.events
    branches5 = obs5.of_kind("branch")
    ok &= branches5[0] == ("branch", 3, ("3->3-0",))
    ok &= branches5[1] == ("branch", 3, ("3->4-0",))

    # seven-variable pair: per-recursion vectors, cube sequence, final T
    obs7 = RecordingObserver()
    result7 = match_npn(CASE7_F, CASE7_G, observer=obs7)
    vecs7 = obs7.of_kind("vec")
    ok &= vecs7[0][2:] == (
        "{(30, 16, 2, 0, 1),(30, 16, 2, 1, 1),(31, 15, -1, -1, 0),"
        "(16, 30, 2, 1, 1),(30, 16, 2, 0, 1),(24, 22, -1, -1, 2),"
        "(22, 24, -1, -1, 2)}",
        "{(16, 30, 2, 0, 1),(22, 24, -1, -1, 2),(16, 30, 2, 0, 1),"
        "(30, 16, 2, 3, 1),(30, 16, 2, 3, 1),(15, 31, -1, -1, 0),"
        "(24, 22, -1, -1, 2)}",
    )
    ok &= vecs7[1][2:] == (
        "{(19, 12, 2, 0, 1),(19, 12, 2, 1, 1),(0, 0, -1, -1, 0),"
        "(12, 19, 2, 1, 1),(19, 12, 2, 0, 1),(20, 11, -1, -1, 2),"
        "(11, 20, -1, -1, 2)}",
        "{(12, 19, 2, 0, 1),(11, 20, -1, -1, 2),(12, 19, 2, 0, 1),"
        "(19, 12, 2, 3, 1),(19, 12, 2, 3, 1),(0, 0, -1, -1, 0),"
        "(20, 11, -1, -1, 2)}",
    )
    ok &= vecs7[2][2:] == (
        "{(0, 0, 2, 0, 1),(11, 8, 2, 1, 1),(0, 0, -1, -1, 0),"
        "(8, 11, 2, 1, 1),(0, 0, 2, 0, 1),(10, 9, -1, -1, 3),"
        "(7, 12, -1, -1, 2)}",
        "{(0, 0, 2, 0, 1),(7, 12, -1, -1, 2),(0, 0, 2, 0, 1),"
        "(11, 8, 2, 3, 1),(11, 8, 2, 3, 1),(0, 0, -1, -1, 0),"
        "(10, 9, -1, -1, 3)}",
    )
    ok &= obs7.of_kind("cubes") == [
        ("cubes", "x2", "~x5"),
        ("cubes", "x2x0", "~x5~x0"),
        ("cubes", "x2x0x4", "~x5~x0~x2"),
    ]
    ok &= result7.witness_text() == (
        "T = {2->5-1, 0->0-1, 4->2-1, 1->3-0, 3->4-1, 5->6-0, 6->1-0}; output=pos"
    )
    complete = enumerate_complete_transformations(CASE7_F, CASE7_G)
    ok &= len(complete) == 2 and all(v for _, _, v in complete)
    report(bool(ok), "criterion 3: worked examples reproduced byte-for-byte")


def _invariant_key(f: TruthTable):
    """A bucket key that NPN transforms keep: the minterm count up to
    complement, and the lesser of f's and ~f's sorted canonical pairs."""
    n, count = f.n, count_minterms(f)
    pairs = first_order_pairs(f.bits, n)
    return (min(count, (1 << n) - count),
            min(tuple(sorted(canonical_keys(p))) for p in (pairs, complement_pairs(pairs, n))))


def _match_partition(n: int) -> list[int]:
    """Greedy NPN partition of every n-variable function via match_npn."""
    labels = [-1] * (1 << (1 << n))
    buckets: dict = {}
    for v in range(len(labels)):
        f = TruthTable(n, v)
        key = _invariant_key(f)
        for rep_bits in buckets.setdefault(key, []):
            if match_npn(TruthTable(n, rep_bits), f).equivalent:
                labels[v] = rep_bits
                break
        else:
            buckets[key].append(v)
            labels[v] = v
    return labels


def test_criterion_4_npn_class_counts():
    start = time.perf_counter()
    ok = True
    counts = {}
    for n, expected in ((2, 4), (3, 14), (4, 222)):
        labels = _match_partition(n)
        counts[n] = len(set(labels))
        ok &= counts[n] == expected
        # identical partition: oracle label <-> matcher label is a bijection
        oracle = enumerate_npn_classes(n)
        fwd, back = {}, {}
        for v, mine in enumerate(labels):
            theirs = oracle.canonical[v]
            ok &= fwd.setdefault(theirs, mine) == mine
            ok &= back.setdefault(mine, theirs) == theirs
    elapsed = time.perf_counter() - start
    report(
        ok and elapsed < 600,
        "criterion 4: match_npn partitions n=2/3/4 into 4/14/222 classes, "
        "identical to the oracle",
        f"counts={counts}, {elapsed:.1f}s",
    )


def _perturbed_nonequivalent(rng, n, seed):
    """Zeroth-order-compatible non-equivalent pair: transform a random
    function, then swap a few 1/0 truth-table positions (count-preserving)."""
    while True:
        f, g, _ = random_equivalent_pair(n, "type1_random", seed)
        bits = g.bits
        for _ in range(4):
            a = rng.randrange(1 << n)
            while not (bits >> a) & 1:
                a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            while (bits >> b) & 1:
                b = rng.randrange(1 << n)
            bits ^= (1 << a) | (1 << b)
        g = TruthTable(n, bits)
        if not match_npn(f, g).equivalent:
            return f, g
        seed += 1 << 40


def test_criterion_5_fast_non_equivalent_path():
    n, pairs = 20, 100
    rng = random.Random(5)

    equiv = [random_equivalent_pair(n, "type1_random", s)[:2] for s in range(pairs)]
    nonequiv = [_perturbed_nonequivalent(rng, n, 10_000 + s) for s in range(pairs)]

    def avg_time(batch):
        start = time.perf_counter()
        for f, g in batch:
            match_npn(f, g)
        return (time.perf_counter() - start) / len(batch)

    avg_time(equiv[:2])  # warm caches
    t_equiv = avg_time(equiv)
    t_nonequiv = avg_time(nonequiv)

    # pairs rejected by the zeroth-order filter never enter the search
    filtered_ok = True
    for s in range(50):
        f = random_function(8, "type1_random", s)
        g = random_function(8, "type1_random", 1000 + s)
        if count_minterms(f) not in (count_minterms(g), 256 - count_minterms(g)):
            r = match_npn(f, g)
            filtered_ok &= not r.equivalent and r.stats.nodes_visited == 0

    report(
        t_nonequiv <= t_equiv and filtered_ok,
        "criterion 5: non-equivalent matching at n=20 is no slower than "
        "equivalent matching; zeroth-order rejects skip the search",
        f"nonequiv {t_nonequiv * 1000:.2f} ms vs equiv {t_equiv * 1000:.2f} ms",
    )


def test_criterion_6_performance_envelope():
    def avg_equiv_time(n, pairs):
        batch = [
            random_equivalent_pair(n, "type1_random", 77_000 + n * 100 + s)[:2]
            for s in range(pairs)
        ]
        match_npn(*batch[0])  # warm-up excluded
        start = time.perf_counter()
        for f, g in batch:
            assert match_npn(f, g).equivalent
        return (time.perf_counter() - start) / pairs

    t7 = avg_equiv_time(7, 30)
    t16 = avg_equiv_time(16, 30)
    t20 = avg_equiv_time(20, 10)
    ratio = t16 / t7
    report(
        t16 < 0.100 and t20 < 2.0 and ratio < 200,
        "criterion 6: desk-scale envelope held",
        f"n=16 {t16 * 1000:.2f} ms, n=20 {t20 * 1000:.2f} ms, "
        f"n16/n7 ratio {ratio:.1f}",
    )


def test_criterion_7_determinism():
    rng = random.Random(7)
    ok = True
    for trial in range(40):
        n = rng.randint(2, 12)
        seed = rng.randrange(1 << 60)
        if trial % 2 == 0:
            f, g, _ = random_equivalent_pair(n, "type2_balanced", seed)
        else:
            f = random_function(n, "type1_random", seed)
            g = random_function(n, "type1_random", seed + 1)
        first = match_npn(f, g)
        second = match_npn(f, g)
        ok &= first.verdict == second.verdict
        ok &= first.witness == second.witness
        ok &= first.stats.nodes_visited == second.stats.nodes_visited
        ok &= first.stats.verify_calls == second.stats.verify_calls
    report(ok, "criterion 7: identical inputs give identical witnesses and "
               "node counts across repeated runs")
