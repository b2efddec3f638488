"""Ground-truth machinery: brute-force matching, NPN class enumeration,
and seeded random-instance generators.

Everything here is deliberately independent of the search engine so the two
can check each other.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional

from .boolfn import (
    MAX_VARS,
    NPTransformation,
    TruthTable,
    apply_np_transform,
    count_minterms,
    full_mask,
    low_mask,
    var_mask,
)

EXHAUSTIVE_MAX_VARS = 8
ENUMERATE_MAX_VARS = 4

KIND_TYPE1 = "type1_random"
KIND_TYPE2 = "type2_balanced"
KIND_ALIASES = {
    "type1": KIND_TYPE1,
    "type2": KIND_TYPE2,
    KIND_TYPE1: KIND_TYPE1,
    KIND_TYPE2: KIND_TYPE2,
}


def _orbit(f: TruthTable) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Per permutation, lexicographic: (perm, images), images[pol_bits] being
    f's image under perm and polarities pol_bits (bit i: input i). From p - 1
    to p the inputs up to p's lowest set bit flip; input i negates perm[i]."""
    n = f.n
    for perm in itertools.permutations(range(n)):
        bits = apply_np_transform(f, NPTransformation(perm, (0,) * n)).bits
        flips = [(var_mask(n, k), low_mask(n, k), 1 << k) for k in perm]
        images = []
        for pol_bits in range(1 << n):
            for hi, lo, shift in flips[: (pol_bits & -pol_bits).bit_length()]:
                bits = (bits & hi) >> shift | (bits & lo) << shift
            images.append(bits)
        yield perm, images


def exhaustive_match(f: TruthTable, g: TruthTable) -> Optional[NPTransformation]:
    """First transform carrying f onto g, if any, in _orbit's order, positive output first."""
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    if f.n > EXHAUSTIVE_MAX_VARS:
        raise ValueError(f"n={f.n} exceeds brute-force budget (n <= {EXHAUSTIVE_MAX_VARS})")
    n, cf = f.n, count_minterms(f)
    # an input transform keeps the minterm count and an output negation
    # complements it, so the counts rule out one output polarity or both
    outputs = ((False, g.bits), (True, g.bits ^ full_mask(n)))
    targets = [(h, neg) for neg, h in outputs if h.bit_count() == cf]
    if not targets:
        return None
    for perm, images in _orbit(f):
        hits = [(images.index(h), neg) for h, neg in targets if h in images]
        if hits:
            pol_bits, neg = min(hits)
            pol = tuple((pol_bits >> i) & 1 for i in range(n))
            return NPTransformation(perm, pol, neg)
    return None


@dataclass(frozen=True)
class NPNClasses:
    """NPN partition of all n-variable functions.

    canonical[v] is the smallest truth-table integer in v's orbit;
    representatives holds each such minimum once, ascending.
    """

    n: int
    representatives: tuple[TruthTable, ...]
    canonical: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


def enumerate_npn_classes(n: int) -> NPNClasses:
    if not 0 <= n <= ENUMERATE_MAX_VARS:
        raise ValueError(f"n={n} out of range [0, {ENUMERATE_MAX_VARS}]")
    total, full = 1 << (1 << n), full_mask(n)
    canonical = [-1] * total
    reps = []
    for v in range(total):
        if canonical[v] != -1:
            continue
        f = TruthTable(n, v)
        for _, images in _orbit(f):
            for bits in images:
                canonical[bits] = canonical[bits ^ full] = v
        reps.append(f)
    return NPNClasses(n, tuple(reps), tuple(canonical))


def _check_draw(n: int, kind: str) -> None:
    if kind not in KIND_ALIASES:
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"n={n} out of range [0, {MAX_VARS}]")


def _random_table(rng: random.Random, n: int, kind: str) -> TruthTable:
    kind = KIND_ALIASES[kind]
    size = 1 << n
    if kind == KIND_TYPE1:
        return TruthTable(n, rng.getrandbits(size))
    # rng.sample(range(size), size // 2)'s pool walk, on an array, not a list
    # of ints; a byte per 8 minterms: OR-ing into a growing int is quadratic
    pool, buf = array("I", range(size)), bytearray((size + 7) // 8)
    for i in range(size // 2):
        j = rng.randrange(size - i)
        m, pool[j] = pool[j], pool[size - i - 1]
        buf[m >> 3] |= 1 << (m & 7)
    return TruthTable(n, int.from_bytes(buf, "little"))


def _random_np_transform(rng: random.Random, n: int) -> NPTransformation:
    perm = list(range(n))
    rng.shuffle(perm)
    pol = tuple(rng.getrandbits(1) for _ in range(n))
    return NPTransformation(tuple(perm), pol, bool(rng.getrandbits(1)))


def random_function(n: int, kind: str, seed: int) -> TruthTable:
    """type1_random: each minterm present with probability 1/2.
    type2_balanced: exactly 2^(n-1) minterms, uniformly chosen."""
    _check_draw(n, kind)
    return _random_table(random.Random(seed), n, kind)


def random_equivalent_pair(
    n: int, kind: str, seed: int
) -> tuple[TruthTable, TruthTable, NPTransformation]:
    """(f, g, t_hidden) with g = f transformed by a random t_hidden."""
    _check_draw(n, kind)
    rng = random.Random(seed)
    f = _random_table(rng, n, kind)
    t_hidden = _random_np_transform(rng, n)
    return f, apply_np_transform(f, t_hidden), t_hidden
