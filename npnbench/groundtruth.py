"""Seeded inputs for the benchmark, with ground truth that never asks the matcher.

Equivalent pairs are built by applying a hidden NP transformation, so their
verdict is known by construction. Non-equivalent pairs are certified by an
NPN invariant computed here, from the truth tables alone: for every output
polarity the zeroth-order counts allow, the invariants of f and g must
differ. A candidate pair the invariant cannot separate is discarded.

Truth tables are plain integers: bit m is f(m) and input x_i is bit i of m,
the library's convention.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from npnmatch import NPTransformation, TruthTable, apply_np_transform


# ---------------------------------------------------------------- invariants


@lru_cache(maxsize=None)
def var_masks(n: int) -> tuple[int, ...]:
    """masks[i] selects the minterms with x_i = 1 (built independently of
    the library's own masks)."""
    out = []
    for i in range(n):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        while period < (1 << n):
            block |= block << period
            period <<= 1
        out.append(block)
    return tuple(out)


def full(n: int) -> int:
    return (1 << (1 << n)) - 1


def _canon_pair(p: int, q: int) -> tuple[int, int]:
    return (p, q) if p >= q else (q, p)


def first_order_key(bits: int, n: int) -> tuple:
    """Sorted canonical (|f_xi|, |f_~xi|) pairs: invariant under input
    permutation and input negation."""
    total = bits.bit_count()
    out = []
    for m in var_masks(n):
        pos = (bits & m).bit_count()
        out.append(_canon_pair(pos, total - pos))
    return tuple(sorted(out))


# The eight symmetries of a 2x2 count table (c00, c01, c10, c11) indexed by
# (x_i, x_j): negating x_i swaps rows, negating x_j swaps columns, and
# exchanging the two variables transposes.
_SQUARE = [
    (0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0),
    (0, 2, 1, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 1, 2, 0),
]


def second_order_key(bits: int, n: int) -> tuple:
    """First-order key plus the sorted canonical second-order cofactor
    tables, one per variable pair."""
    masks = var_masks(n)
    total = bits.bit_count()
    ones = [(bits & m).bit_count() for m in masks]
    tables = []
    for i, j in itertools.combinations(range(n), 2):
        c11 = (bits & masks[i] & masks[j]).bit_count()
        c10 = ones[i] - c11
        c01 = ones[j] - c11
        c = (total - c11 - c10 - c01, c01, c10, c11)
        tables.append(min(tuple(c[k] for k in s) for s in _SQUARE))
    return first_order_key(bits, n), tuple(sorted(tables))


def structured_key(bits: int, n: int) -> tuple:
    """Second-order key plus, per input, its canonical first-order pair and
    its influence (the minterms where flipping that input changes f).
    Influence sees the block structure of a composition that cofactor
    counts of two inputs miss, for example through parity blocks."""
    masks = var_masks(n)
    fm = full(n)
    total = bits.bit_count()
    per_input = []
    for i, m in enumerate(masks):
        shift = 1 << i
        flipped = ((bits & m) >> shift) | ((bits & (fm ^ m)) << shift)
        pos = (bits & m).bit_count()
        per_input.append((_canon_pair(pos, total - pos), (bits ^ flipped).bit_count()))
    return second_order_key(bits, n), tuple(sorted(per_input))


def output_arms(f: int, g: int, n: int) -> list[int]:
    """The targets g or ~g that the zeroth-order counts leave possible."""
    cf, cg = f.bit_count(), g.bit_count()
    arms = []
    if cf == cg:
        arms.append(g)
    if cf == (1 << n) - cg:
        arms.append(g ^ full(n))
    return arms


def passes_first_order(f: int, g: int, n: int) -> bool:
    key = first_order_key(f, n)
    return any(first_order_key(h, n) == key for h in output_arms(f, g, n))


def certified_nonequivalent(f: int, g: int, n: int, key=first_order_key) -> bool:
    """True when no output polarity allowed by the counts gives equal keys."""
    kf = key(f, n)
    return all(key(h, n) != kf for h in output_arms(f, g, n))


# ------------------------------------------------------------ transforms


def random_transform(rng: random.Random, n: int, output_negated: bool) -> NPTransformation:
    perm = list(range(n))
    rng.shuffle(perm)
    pol = tuple(rng.getrandbits(1) for _ in range(n))
    return NPTransformation(tuple(perm), pol, output_negated)


def reference_transform(bits: int, n: int, t: NPTransformation) -> int:
    """Minterm-by-minterm NP transformation, the slow reference for the
    library's kernel: h(m) = f(a) with a_i = m[perm[i]] xor (1 - pol[i])."""
    out = 0
    for m in range(1 << n):
        a = 0
        for i in range(n):
            a |= (((m >> t.perm[i]) & 1) ^ (1 - t.input_pol[i])) << i
        out |= (((bits >> a) & 1) ^ int(t.output_negated)) << m
    return out


# ------------------------------------------------------------ functions


def balanced_table(rng: random.Random, n: int) -> int:
    """type2: a random function with exactly 2^(n-1) minterms."""
    return with_count(rng, n, rng.getrandbits(1 << n), 1 << (n - 1))


def with_count(rng: random.Random, n: int, bits: int, count: int) -> int:
    """Flip random minterms of bits until it has exactly count minterms."""
    size = 1 << n
    buf = bytearray(bits.to_bytes(max(size // 8, 1), "little"))
    have = bits.bit_count()
    while have != count:
        m = rng.randrange(size)
        bit = (buf[m >> 3] >> (m & 7)) & 1
        if bit == (have > count):
            buf[m >> 3] ^= 1 << (m & 7)
            have += -1 if bit else 1
    return int.from_bytes(buf, "little")


def compose(top: int, k: int, tables: list[int], n: int) -> int:
    """top(t_0..t_{k-1}) with t_b replaced by the n-variable table tables[b]."""
    fm = full(n)
    out = 0
    for t in range(1 << k):
        if (top >> t) & 1:
            term = fm
            for b in range(k):
                term &= tables[b] if (t >> b) & 1 else fm ^ tables[b]
            out |= term
    return out


def rectangle_flip(rng: random.Random, top: int, k: int) -> int | None:
    """Complement top on one 2-face whose diagonals disagree, or None when
    no face qualifies.

    On the face x_a x_b over fixed other inputs, the corners 00 and 11 share
    one value and 01 and 10 the other. Flipping all four keeps the number of
    minterms and every first-order count, so the result passes the zeroth-
    and first-order filters against top.
    """
    faces = []
    for a, b in itertools.combinations(range(k), 2):
        for base in range(1 << k):
            if base & (1 << a | 1 << b):
                continue
            corners = (base, base | 1 << b, base | 1 << a, base | 1 << a | 1 << b)
            v = [(top >> c) & 1 for c in corners]
            if v[0] == v[3] != v[1] == v[2]:
                faces.append(corners)
    if not faces:
        return None
    for c in rng.choice(faces):
        top ^= 1 << c
    return top


# ----------------------------------------------------- structured families


@lru_cache(maxsize=None)
def _linear_rows(m: int) -> tuple[int, ...]:
    """rows[a] is the 2^m-bit table of x -> popcount(x & a) mod 2."""
    return tuple(
        sum(((x & a).bit_count() & 1) << x for x in range(1 << m)) for a in range(1 << m)
    )


def bent(rng: random.Random, n: int) -> int:
    """Maiorana-McFarland bent function x . pi(y) xor h(y), with x the low
    n/2 inputs and y the high ones. Every input has the same cofactor count
    up to phase, so first-order signatures cannot tell inputs apart."""
    m = n // 2
    rows = _linear_rows(m)
    perm = list(range(1 << m))
    rng.shuffle(perm)
    block = (1 << (1 << m)) - 1
    bits = 0
    for y in range(1 << m):
        row = rows[perm[y]] ^ (block if rng.getrandbits(1) else 0)
        bits |= row << (y << m)
    return bits


@lru_cache(maxsize=None)
def rotation_orbits(n: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of the minterms under cyclic rotation of the n inputs."""
    seen = [False] * (1 << n)
    orbits = []
    top = (1 << n) - 1
    for m in range(1 << n):
        if seen[m]:
            continue
        orbit, r = [], m
        while not seen[r]:
            seen[r] = True
            orbit.append(r)
            r = ((r << 1) | (r >> (n - 1))) & top
        orbits.append(tuple(orbit))
    return tuple(orbits)


def rotation_symmetric(rng: random.Random, n: int) -> tuple[int, list[bool]]:
    """A random union of rotation orbits; all inputs share every first-order
    count and the pairs differ only in their cyclic distance."""
    chosen = [bool(rng.getrandbits(1)) for _ in rotation_orbits(n)]
    return _rs_bits(n, chosen), chosen


def _rs_bits(n: int, chosen: list[bool]) -> int:
    return sum(1 << m for orbit, c in zip(rotation_orbits(n), chosen) if c for m in orbit)


def rotation_symmetric_partner(rng: random.Random, n: int, chosen: list[bool]) -> int | None:
    """Swap two chosen orbits for unchosen ones of the same size and weight:
    still rotation-symmetric, with the same zeroth- and first-order counts.
    None when no two orbits share a shape."""
    orbits = rotation_orbits(n)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for o, orbit in enumerate(orbits):
        by_shape.setdefault((len(orbit), orbit[0].bit_count()), []).append(o)
    out = list(chosen)
    for _ in range(2):
        swappable = [
            idx for idx in by_shape.values()
            if any(out[o] for o in idx) and not all(out[o] for o in idx)
        ]
        if not swappable:
            return None
        idx = rng.choice(swappable)
        drop = rng.choice([o for o in idx if out[o]])
        add = rng.choice([o for o in idx if not out[o]])
        out[drop], out[add] = False, True
    return _rs_bits(n, out)


@lru_cache(maxsize=None)
def _balanced_weight_sets(s: int) -> tuple[tuple[int, ...], ...]:
    """Weight sets W with sum of C(s, w) over W = 2^(s-1): the balanced
    symmetric functions of s inputs."""
    return tuple(
        ws
        for r in range(1, s + 1)
        for ws in itertools.combinations(range(s + 1), r)
        if sum(comb(s, w) for w in ws) == 1 << (s - 1)
    )


def _symmetric_table(n: int, lits: list[tuple[int, bool]], weights) -> int:
    """1 where the number of true literals is in weights."""
    masks = var_masks(n)
    fm = full(n)
    exactly = [fm] + [0] * len(lits)
    for v, positive in lits:
        lit = masks[v] if positive else fm ^ masks[v]
        for w in range(len(lits), 0, -1):
            exactly[w] = (exactly[w] & ~lit) | (exactly[w - 1] & lit)
        exactly[0] &= fm ^ lit
    out = 0
    for w in weights:
        out |= exactly[w]
    return out


# Block sizes per input count. One repeated size gives two interchangeable
# symmetry classes, which the search must tell apart; more repeats make
# searches of thousands of nodes, fewer make the family trivial.
BLOCK_LAYOUTS = {6: (2, 2, 2), 12: (2, 3, 3, 4), 13: (2, 3, 4, 4), 14: (2, 3, 4, 5)}


@dataclass(frozen=True)
class BlockSpec:
    """Balanced symmetric functions of disjoint input blocks (some literals
    negated) under a random top-level table."""

    n: int
    block_tables: tuple[int, ...]
    top: int

    def bits(self) -> int:
        return compose(self.top, len(self.block_tables), list(self.block_tables), self.n)


def block_symmetric(rng: random.Random, n: int) -> BlockSpec:
    order = list(range(n))
    rng.shuffle(order)
    tables, at = [], 0
    for s in BLOCK_LAYOUTS[n]:
        lits = [(v, bool(rng.getrandbits(1))) for v in order[at:at + s]]
        tables.append(_symmetric_table(n, lits, rng.choice(_balanced_weight_sets(s))))
        at += s
    return BlockSpec(n, tuple(tables), rng.getrandbits(1 << len(tables)))


def block_symmetric_partner(rng: random.Random, spec: BlockSpec) -> int | None:
    """Same blocks, top table flipped on one face. Every block is balanced,
    so the flip keeps every zeroth- and first-order count."""
    top = rectangle_flip(rng, spec.top, len(spec.block_tables))
    return None if top is None else BlockSpec(spec.n, spec.block_tables, top).bits()


@dataclass(frozen=True)
class VacuousSpec:
    """A random function of `support`; every other input is vacuous."""

    n: int
    support: tuple[int, ...]
    core: int

    def bits(self) -> int:
        masks = var_masks(self.n)
        return compose(self.core, len(self.support), [masks[v] for v in self.support], self.n)


def vacuous(rng: random.Random, n: int) -> VacuousSpec:
    # Eight live inputs: with fewer, ties between their cofactor counts
    # make searches of hundreds of nodes.
    k = min(8, n - 2)
    support = tuple(sorted(rng.sample(range(n), k)))
    return VacuousSpec(n, support, rng.getrandbits(1 << k))


def vacuous_partner(rng: random.Random, spec: VacuousSpec) -> int | None:
    core = rectangle_flip(rng, spec.core, len(spec.support))
    return None if core is None else VacuousSpec(spec.n, spec.support, core).bits()


# ----------------------------------------------------------------- pairs


@dataclass(frozen=True)
class Pair:
    f: TruthTable
    g: TruthTable
    equivalent: bool
    family: str


def equivalent_pair(rng, n, bits, family, output_negated) -> Pair:
    f = TruthTable(n, bits)
    return Pair(f, apply_np_transform(f, random_transform(rng, n, output_negated)), True, family)


def family_member(rng: random.Random, family: str, n: int) -> int:
    if family == "bent":
        return bent(rng, n)
    if family == "rotation":
        return rotation_symmetric(rng, n)[0]
    if family == "block":
        return block_symmetric(rng, n).bits()
    if family == "vacuous":
        return vacuous(rng, n).bits()
    raise ValueError(f"unknown family {family!r}")


def family_candidate(rng: random.Random, family: str, n: int):
    """(f, g) bit vectors from one family built to pass the zeroth- and
    first-order filters (bent pairs are only likely to), or None when the
    partner construction found nothing to change. Not yet certified."""
    if family == "bent":
        return bent(rng, n), bent(rng, n)
    if family == "rotation":
        f, chosen = rotation_symmetric(rng, n)
        g = rotation_symmetric_partner(rng, n, chosen)
        return None if g is None else (f, g)
    if family == "block":
        spec = block_symmetric(rng, n)
        g = block_symmetric_partner(rng, spec)
    elif family == "vacuous":
        spec = vacuous(rng, n)
        g = vacuous_partner(rng, spec)
    else:
        raise ValueError(f"unknown family {family!r}")
    return None if g is None else (spec.bits(), g)


def structured_nonequivalent(f: int, g: int, n: int) -> bool:
    """Certify a structured pair: same zeroth- and first-order signatures,
    told apart by the structured key."""
    return passes_first_order(f, g, n) and certified_nonequivalent(f, g, n, structured_key)
