"""Golden corpus: pinned verdicts, witnesses and search counts.

A seeded corpus of about 300 pairs, n = 0..14, covers random (type1) and
balanced (type2) functions and symmetric constructions (parity, symmetric
threshold-like functions, rotation-symmetric and block-symmetric), each as
an equivalent pair (a hidden NP transform) and as a pair of equal or
complementary weight that may or may not be equivalent. For every pair
the fixture tests/golden_matches.json holds match_npn's verdict, witness
(perm, input polarity, output polarity), nodes_visited and verify_calls.
A change to the search that is meant to keep its outputs must keep this
file byte-identical.

Regenerate the fixture (only when the search is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

from npnmatch import NPTransformation, TruthTable, apply_np_transform, match_npn

FIXTURE = Path(__file__).resolve().parent / "golden_matches.json"
SEED = 20261018


def _transform(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    pol = tuple(rng.getrandbits(1) for _ in range(n))
    return NPTransformation(tuple(perm), pol, bool(rng.getrandbits(1)))


def _with_weight(rng, n, bits, weight):
    """bits with single minterms set or cleared at random until it has
    `weight` minterms."""
    size = 1 << n
    while bits.bit_count() != weight:
        m = rng.randrange(size)
        if bits.bit_count() < weight:
            bits |= 1 << m
        else:
            bits &= ~(1 << m)
    return bits


def _type1(rng, n):
    return rng.getrandbits(1 << n)


def _type2(rng, n):
    return _with_weight(rng, n, 0, (1 << n) // 2)


def _parity(rng, n):
    """XOR of a random nonempty subset of the inputs, possibly complemented."""
    if n == 0:
        return rng.getrandbits(1)
    chosen = [i for i in range(n) if rng.random() < 0.7] or [rng.randrange(n)]
    mask = sum(1 << i for i in chosen)
    bits = sum(1 << m for m in range(1 << n) if (m & mask).bit_count() & 1)
    return bits ^ ((1 << (1 << n)) - 1) * rng.getrandbits(1)


def _symmetric(rng, n):
    """A totally symmetric function: majority half the time, else a random
    value per input weight."""
    if rng.random() < 0.5:
        values = [int(2 * w > n) for w in range(n + 1)]
    else:
        values = [rng.getrandbits(1) for _ in range(n + 1)]
    return sum(1 << m for m in range(1 << n) if values[m.bit_count()])


def _rotation(rng, n):
    """Invariant under cyclic rotation of the inputs: one random value per
    rotation orbit of minterms."""
    full = (1 << n) - 1
    value: dict[int, int] = {}
    bits = 0
    for m in range(1 << n):
        rep = min(((m << r) | (m >> (n - r))) & full for r in range(max(n, 1)))
        if rep not in value:
            value[rep] = rng.getrandbits(1)
        bits |= value[rep] << m
    return bits


def _block(rng, n):
    """Random blocks of inputs, each read through its weight (with random
    literal polarities), combined by a random table over the weights."""
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    while order:
        size = min(len(order), rng.randint(1, 4))
        blocks.append(order[:size])
        order = order[size:]
    flip = sum(1 << i for i in range(n) if rng.getrandbits(1))
    top: dict[tuple, int] = {}
    bits = 0
    for m in range(1 << n):
        x = m ^ flip
        key = tuple(sum((x >> i) & 1 for i in b) for b in blocks)
        if key not in top:
            top[key] = rng.getrandbits(1)
        bits |= top[key] << m
    return bits


FAMILIES = (
    # (name, generator, sizes, equivalent pairs per size, other pairs per size)
    ("type1", _type1, range(0, 15), 4, 3),
    ("type2", _type2, range(0, 15), 2, 2),
    ("parity", _parity, range(1, 15), 2, 2),
    ("symmetric", _symmetric, range(1, 15, 2), 2, 2),
    ("rotation", _rotation, range(3, 15, 2), 2, 2),
    ("block", _block, range(4, 15, 2), 2, 2),
)


def corpus():
    """(id, f, g) for every pair of the corpus, in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for name, make, sizes, n_eq, n_other in FAMILIES:
        for n in sizes:
            for k in range(n_eq):
                f = TruthTable(n, make(rng, n))
                out.append((f"{name}-n{n}-eq{k}", f, apply_np_transform(f, _transform(rng, n))))
            for k in range(n_other):
                f, g = make(rng, n), make(rng, n)
                # match f's weight, or its complement's on odd k, so the
                # pair passes the zeroth-order filter and enters the search
                target = f.bit_count() if k % 2 == 0 else (1 << n) - f.bit_count()
                g = _with_weight(rng, n, g, target)
                out.append((f"{name}-n{n}-other{k}", TruthTable(n, f), TruthTable(n, g)))
    return out


def _digest(f, g):
    width = max(1, (1 << f.n) // 4)
    text = f"{f.n}:{f.bits:0{width}x}:{g.bits:0{width}x}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(pair_id, f, g):
    r = match_npn(f, g)
    w = r.witness
    if w is not None:
        assert apply_np_transform(f, w) == g, f"{pair_id}: witness does not reproduce g"
    elif "-eq" in pair_id:
        raise AssertionError(f"{pair_id}: hidden-transform pair reported non-equivalent")
    return {
        "id": pair_id,
        "inputs": _digest(f, g),
        "verdict": r.verdict.value,
        "perm": list(w.perm) if w else None,
        "pol": list(w.input_pol) if w else None,
        "output": int(w.output_negated) if w else None,
        "nodes": r.stats.nodes_visited,
        "verify_calls": r.stats.verify_calls,
    }


def render(records):
    """One record per line, so a diff shows which pairs moved."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def test_golden_corpus_matches_fixture():
    t0 = time.perf_counter()
    got = [record(*p) for p in corpus()]
    elapsed = time.perf_counter() - t0
    want = json.loads(FIXTURE.read_text())
    assert [r["id"] for r in got] == [r["id"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["id"]
    assert elapsed < 5.0, f"golden corpus took {elapsed:.2f} s"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(render([record(*p) for p in corpus()]))
    print(f"wrote {FIXTURE}")
