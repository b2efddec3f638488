"""Golden corpus: pinned verdicts, witnesses and search counts.

A seeded corpus of about 300 pairs, n = 0..14, covers random (type1) and
balanced (type2) functions and symmetric constructions (parity, symmetric
threshold-like functions, rotation-symmetric and block-symmetric), each as
an equivalent pair (a hidden NP transform) and as a pair of equal or
complementary weight that may or may not be equivalent. A second corpus,
n = 15..18 from its own seed, adds type1, type2 and block-symmetric pairs
built without a loop over all 2^n minterms, so the kernels that only run
above 14 inputs are pinned too. A third seed adds Maiorana-McFarland bent
pairs at n = 6..12. For every pair
the fixture tests/golden_matches.json holds match_npn's verdict, witness
(perm, input polarity, output polarity), nodes_visited and verify_calls,
and for every pair with n <= 10 tests/golden_traces.json holds the sha256
of its TraceObserver text. A change to the search that is meant to keep its
outputs must keep both files byte-identical. search_corpus() extends the
corpus with structured pairs under hidden NP transforms; both are built on
the first call and shared by every test that reads them.

Regenerate the fixtures (only when the search is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
import tracemalloc
from functools import cache
from pathlib import Path

import pytest

from npnmatch import NPTransformation, TruthTable, apply_np_transform, match_npn, negate
from npnmatch.boolfn import full_mask, low_mask, var_mask
from npnmatch.workbench import TraceObserver

FIXTURE = Path(__file__).resolve().parent / "golden_matches.json"
TRACE_FIXTURE = Path(__file__).resolve().parent / "golden_traces.json"
SEED = 20261018
WIDE_SEED = 20261019
BENT_SEED = 20261020
# pairs up to this size also have their trace text pinned
TRACE_MAX_N = 10


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
    rotation orbit of minterms, drawn at the orbit's least member (the
    first one reached in ascending order) and written to all its members."""
    full = (1 << n) - 1
    seen = bytearray(1 << n)
    bits = 0
    for m in range(1 << n):
        if not seen[m]:
            value = rng.getrandbits(1)
            for x in {((m << r) | (m >> (n - r))) & full for r in range(max(n, 1))}:
                seen[x] = 1
                bits |= value << x
    return bits


def _block(rng, n):
    """Random blocks of inputs, each read through its weight (with random
    literal polarities), combined by a random table over the weights."""
    order = list(range(n))
    rng.shuffle(order)
    blocks = []  # each block as a bit mask over the inputs
    while order:
        size = min(len(order), rng.randint(1, 4))
        blocks.append(sum(1 << i for i in order[:size]))
        order = order[size:]
    flip = sum(1 << i for i in range(n) if rng.getrandbits(1))
    top: dict[tuple, int] = {}
    bits = 0
    for m in range(1 << n):
        x = m ^ flip
        key = tuple((x & b).bit_count() for b in blocks)
        if key not in top:
            top[key] = rng.getrandbits(1)
        bits |= top[key] << m
    return bits


def _shuffled(rng, n, bits):
    """A uniformly random table with the same weight as bits."""
    cells = list(format(bits, f"0{1 << n}b"))
    rng.shuffle(cells)
    return int("".join(cells), 2)


def _balanced(rng, n):
    return _shuffled(rng, n, full_mask(n) >> (1 << (n - 1)))


def _wide_block(rng, n):
    """_block built from per-block weight masks instead of a loop over
    minterms: blocks of 3 to 6 inputs, read through their weight under
    random literal polarities, combined by a random table over the weights."""
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    while order:
        size = min(len(order), rng.randint(3, 6))
        blocks.append(order[:size])
        order = order[size:]
    full = full_mask(n)
    weights = []  # weights[b][w]: minterms whose block b has weight w
    for block in blocks:
        masks = [full]
        for v in block:
            one = var_mask(n, v) if rng.getrandbits(1) else full ^ var_mask(n, v)
            zero = full ^ one
            masks = [
                (masks[w] & zero if w < len(masks) else 0)
                | (masks[w - 1] & one if w else 0)
                for w in range(len(masks) + 1)
            ]
        weights.append(masks)

    def combine(b, region):
        if b == len(weights):
            return region if rng.getrandbits(1) else 0
        out = 0
        for mask in weights[b]:
            out |= combine(b + 1, region & mask)
        return out

    return combine(0, full)


def _other_reweighted(rng, n, make, complement):
    """Two draws of the family, the second reweighted one minterm at a time
    to the first's weight (or its complement's)."""
    f, g = make(rng, n), make(rng, n)
    target = (1 << n) - f.bit_count() if complement else f.bit_count()
    return f, _with_weight(rng, n, g, target)


def _other_shuffled(rng, n, make, complement):
    """A draw of the family and a random table of the same weight as it
    (or as its complement)."""
    f = make(rng, n)
    return f, _shuffled(rng, n, f ^ full_mask(n) if complement else f)


def _other_near_miss(rng, n, make, complement):
    """A draw of the family and a transformed copy with one true and one
    false minterm exchanged: same weight, nearly the same signatures."""
    f = make(rng, n)
    g = apply_np_transform(TruthTable(n, f), _transform(rng, n)).bits
    if complement:
        g ^= full_mask(n)
    ones = [m for m in rng.sample(range(1 << n), 64) if g >> m & 1]
    zeros = [m for m in rng.sample(range(1 << n), 64) if not g >> m & 1]
    return f, g ^ (1 << ones[0]) ^ (1 << zeros[0])


FAMILIES = (
    # (name, generator, sizes, equivalent pairs per size, other pairs per size,
    #  maker of the other pairs)
    ("type1", _type1, range(0, 15), 4, 3, _other_reweighted),
    ("type2", _type2, range(0, 15), 2, 2, _other_reweighted),
    ("parity", _parity, range(1, 15), 2, 2, _other_reweighted),
    ("symmetric", _symmetric, range(1, 15, 2), 2, 2, _other_reweighted),
    ("rotation", _rotation, range(3, 15, 2), 2, 2, _other_reweighted),
    ("block", _block, range(4, 15, 2), 2, 2, _other_reweighted),
)

# Balanced tables are shuffled and block functions built from masks: at
# n = 18, _with_weight from an empty table and _block's minterm loop take
# seconds per function. A shuffle still costs about 0.04 s at n = 16 and
# doubles with each input, so type2 stops at n = 16.
WIDE_FAMILIES = (
    ("type1", _type1, range(15, 19), 2, 2, _other_reweighted),
    ("type2", _balanced, range(15, 17), 2, 1, _other_shuffled),
    ("block", _wide_block, range(15, 19), 2, 1, _other_near_miss),
)


def _family_pairs(rng, families):
    out = []
    for name, make, sizes, n_eq, n_other, other in families:
        for n in sizes:
            for k in range(n_eq):
                f = TruthTable(n, make(rng, n))
                out.append((f"{name}-n{n}-eq{k}", f, apply_np_transform(f, _transform(rng, n))))
            for k in range(n_other):
                # match f's weight, or its complement's on odd k, so the
                # pair passes the zeroth-order filter and enters the search
                f, g = other(rng, n, make, k % 2 == 1)
                out.append((f"{name}-n{n}-other{k}", TruthTable(n, f), TruthTable(n, g)))
    return out


def maiorana_mcfarland(rng, n, inner=False):
    """Bent function x . pi(y) xor h(y) of n = 2k inputs, x the low k and y
    the high k, with pi a random permutation of the k-bit words and h a
    random function of y; or, when inner, the inner product x . y, where
    x_i and y_i are symmetric for every i. Built one 2^k-bit row per y: the
    row of x . pi(y) is the parity of the x inputs that pi(y) selects."""
    k = n // 2
    pi = list(range(1 << k))
    if not inner:
        rng.shuffle(pi)
    bits = 0
    for y in range(1 << k):
        row = 0
        for i in range(k):
            if pi[y] >> i & 1:
                row ^= var_mask(k, i)
        if not inner and rng.getrandbits(1):
            row ^= full_mask(k)
        bits |= row << (y << k)
    return TruthTable(n, bits)


def _second_order(f):
    """Sorted canonical 2x2 cofactor tables over every input pair. An NP
    transform without output negation permutes the pairs and flips or
    transposes each table, so functions related by one agree."""
    n, bits = f.n, f.bits
    tables = []
    for i in range(n):
        for j in range(i + 1, n):
            c = [
                [(bits & side_i & side_j).bit_count() for side_j in (low_mask(n, j), var_mask(n, j))]
                for side_i in (low_mask(n, i), var_mask(n, i))
            ]
            variants = []
            for a in (0, 1):
                for b in (0, 1):
                    t = (c[a][b], c[a][1 - b], c[1 - a][b], c[1 - a][1 - b])
                    variants += [t, (t[0], t[2], t[1], t[3])]
            tables.append(min(variants))
    return sorted(tables)


def _bent_pairs(rng):
    """Maiorana-McFarland bent pairs: every input has the same cofactor
    counts up to phase, the case first-order signatures cannot split. The
    eq pairs hide an NP transform, the first of each size in the inner
    product x . y, which has n/2 symmetry classes; each neq pair is two draws of equal
    weight whose second-order tables differ, so neither maps to the other
    (a bent weight is never its complement's, so output negation cannot
    help either)."""
    out = []
    for n in (6, 8, 10, 12):
        for k in range(3):
            f = maiorana_mcfarland(rng, n, inner=k == 0)
            out.append((f"bent-n{n}-eq{k}", f, apply_np_transform(f, _transform(rng, n))))
        for k in range(2):
            f = maiorana_mcfarland(rng, n)
            key = _second_order(f)
            while True:
                g = maiorana_mcfarland(rng, n)
                if g.bits.bit_count() != f.bits.bit_count():
                    g = negate(g)
                if _second_order(g) != key:
                    break
            out.append((f"bent-n{n}-neq{k}", f, g))
    return out


def _vacuous(rng, n):
    """A random table that ignores one to three of its n inputs."""
    bits = rng.getrandbits(1 << n)
    for v in rng.sample(range(n), rng.randint(1, 3)):
        low = bits & low_mask(n, v)
        bits = low | low << (1 << v)
    return bits


def _hidden_pairs(rng):
    """Bent, rotation, block and vacuous members at n = 6..12, each against
    a copy under a hidden NP transform."""
    out = []
    families = (
        ("bent", lambda n: maiorana_mcfarland(rng, n).bits),
        ("rotation", lambda n: _rotation(rng, n)),
        ("block", lambda n: _block(rng, n)),
        ("vacuous", lambda n: _vacuous(rng, n)),
    )
    for n in range(6, 13):
        for name, make in families:
            if name == "bent" and n % 2:
                continue
            for k in range(8):
                f = TruthTable(n, make(n))
                g = apply_np_transform(f, _transform(rng, n))
                out.append((f"hidden-{name}-n{n}-eq{k}", f, g))
    return out


@cache
def corpus():
    """(id, f, g) for every pair of the golden corpus, in a fixed order;
    built on the first call and shared by every later one."""
    return tuple(
        _family_pairs(random.Random(SEED), FAMILIES)
        + _family_pairs(random.Random(WIDE_SEED), WIDE_FAMILIES)
        + _bent_pairs(random.Random(BENT_SEED))
    )


@cache
def search_corpus():
    """The golden corpus, then the structured pairs of _hidden_pairs; the
    invariant walk (test_matcher.py) starts from it."""
    return corpus() + tuple(_hidden_pairs(random.Random(73)))


def _digest(f, g):
    width = max(1, (1 << f.n) // 4)
    text = f"{f.n}:{f.bits:0{width}x}:{g.bits:0{width}x}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(pair_id, f, g):
    r = match_npn(f, g)
    w = r.witness
    if w is not None:
        assert apply_np_transform(f, w) == g, f"{pair_id}: witness does not reproduce g"
        if "-neq" in pair_id:
            raise AssertionError(f"{pair_id}: certified non-equivalent pair matched")
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


def trace_record(pair_id, f, g):
    out = io.StringIO()
    match_npn(f, g, observer=TraceObserver(out))
    return {"id": pair_id, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def traced_corpus():
    return [p for p in corpus() if p[1].n <= TRACE_MAX_N]


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


def test_trace_text_matches_fixture():
    want = json.loads(TRACE_FIXTURE.read_text())
    got = [trace_record(*p) for p in traced_corpus()]
    assert [r["id"] for r in got] == [r["id"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["id"]


def test_bent_identity_pi_search_size():
    """x . y xor h(y) at n = 10 (pi the identity) under one fixed NP
    transform: the costliest bent pair seen, pinned at its node count."""
    h = "10111111110000011110101000010010"  # h(y) for y = 0..31
    bits = 0
    for m in range(1 << 10):
        x, y = m & 31, m >> 5
        bits |= ((x & y).bit_count() & 1 ^ int(h[y])) << m
    f = TruthTable(10, bits)
    t = NPTransformation((9, 3, 8, 4, 2, 6, 1, 5, 7, 0), (0, 1, 1, 1, 1, 0, 1, 1, 0, 1), True)
    g = apply_np_transform(f, t)
    # the sibling vector stores live only as long as their branch point,
    # so the search holds O(depth x branching) vectors, not one per node
    tracemalloc.start()
    try:
        r = match_npn(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.equivalent and apply_np_transform(f, r.witness) == g
    assert (r.stats.nodes_visited, r.stats.verify_calls) == (10950, 4005)
    assert r.stats.vectors_reused == 4012
    assert peak < 1 << 20, peak


# (nodes_visited, verify_calls) of the bent pairs below: per n, a random-pi
# member, the inner product x . y and a second random-pi member
BENT_WIDE_PINS = {16: [(28, 2), (9, 1), (14, 1)], 20: [(33, 1), (11, 1), (42, 1)]}


@pytest.mark.parametrize("n", sorted(BENT_WIDE_PINS))
def test_bent_search_size_above_the_fold(n):
    """Seeded bent members above 14 inputs, each against a copy under a
    hidden NP transform. No outcome digest holds a structured function of
    more than 14 inputs. Every input of a bent function shares one
    canonical pair, so the symmetry build tests each pair it compares on a
    slice first, and every node below the root counts its cube's
    cofactor: a change to either kernel must keep these counts."""
    rng = random.Random(BENT_SEED + n)
    got = []
    for inner in (False, True, False):
        f = maiorana_mcfarland(rng, n, inner)
        g = apply_np_transform(f, _transform(rng, n))
        r = match_npn(f, g)
        assert r.equivalent and apply_np_transform(f, r.witness) == g
        got.append((r.stats.nodes_visited, r.stats.verify_calls))
    assert got == BENT_WIDE_PINS[n]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(render([record(*p) for p in corpus()]))
    TRACE_FIXTURE.write_text(render([trace_record(*p) for p in traced_corpus()]))
    print(f"wrote {FIXTURE} and {TRACE_FIXTURE}")
