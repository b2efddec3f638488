"""Immutable Boolean-function kernel over dense truth tables.

A function of n variables (0 <= n <= 22) is a 2^n-bit integer: bit m is
f(m), where input x_i is bit i of the minterm index m (x_0 is the least
significant bit). All operations are pure; values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

MAX_VARS = 22


@lru_cache(maxsize=None)
def full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def var_mask(n: int, i: int) -> int:
    """Bit mask over 2^n positions selecting minterms with bit i set."""
    width = 1 << (i + 1)
    block = ((1 << (1 << i)) - 1) << (1 << i)
    while width < (1 << n):
        block |= block << width
        width <<= 1
    return block


@lru_cache(maxsize=None)
def var_masks(n: int) -> tuple[int, ...]:
    """var_mask(n, i) for every variable, from one cache lookup."""
    return tuple(var_mask(n, i) for i in range(n))


# _BYTES[b][v]: the set bits of value v in byte b of a mask, as input indices
_BYTES = [[tuple(8 * b + i for i in range(8) if v >> i & 1) for v in range(256)] for b in range(3)]


def set_bits(mask: int) -> tuple[int, ...]:
    """The indices of mask's set bits in ascending order, 0 <= mask < 2^24,
    from three table lookups (an lru_cache by mask held about 1 MB)."""
    lo, mid, hi = _BYTES
    return lo[mask & 255] + mid[mask >> 8 & 255] + hi[mask >> 16]


@lru_cache(maxsize=None)
def low_mask(n: int, i: int) -> int:
    """Complement of var_mask(n, i): minterms with bit i clear."""
    return full_mask(n) ^ var_mask(n, i)


@dataclass(frozen=True)
class NPTransformation:
    """Input permutation + per-input polarity + output polarity.

    perm[i] = sigma(i): variable x_i of the transformed function reads
    x_{sigma(i)}. input_pol[i] = alpha_i, with alpha_i = 1 meaning the
    positive literal (x^1 = x, x^0 = complement). output_negated
    complements the result.
    """

    perm: tuple[int, ...]
    input_pol: tuple[int, ...]
    output_negated: bool = False

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a permutation")
        if len(self.input_pol) != n or not set(self.input_pol) <= {0, 1}:
            raise ValueError(f"input_pol must be {n} entries of 0 or 1, got {self.input_pol}")


@dataclass(frozen=True)
class TruthTable:
    """A complete single-output Boolean function over n variables."""

    n: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count {self.n} out of range [0, {MAX_VARS}]")
        if not 0 <= self.bits <= full_mask(self.n):
            raise ValueError("bit vector does not fit 2^n bits")

    @staticmethod
    def constant(n: int, value: bool) -> "TruthTable":
        return TruthTable(n, full_mask(n) if value else 0)

    @staticmethod
    def from_minterms(n: int, minterms: Iterable[int]) -> "TruthTable":
        bits = 0
        for m in minterms:
            bits |= 1 << m
        return TruthTable(n, bits)

    @staticmethod
    def from_cover(n: int, cover: Sequence[Sequence[tuple[int, bool]]]) -> "TruthTable":
        """Disjunction of cubes, each cube a sequence of (var, positive)
        over distinct variables."""
        bits = 0
        for cube in cover:
            row, seen = full_mask(n), 0
            for v, positive in cube:
                if not 0 <= v < n:
                    raise ValueError(f"variable x{v} out of range for n={n}")
                if seen >> v & 1:
                    raise ValueError(f"duplicate variable x{v} in cube")
                seen |= 1 << v
                row &= var_mask(n, v) if positive else low_mask(n, v)
            bits |= row
        return TruthTable(n, bits)

    def minterms(self) -> list[int]:
        return [m for m in range(1 << self.n) if (self.bits >> m) & 1]


def count_minterms(f: TruthTable) -> int:
    return f.bits.bit_count()


def negate(f: TruthTable) -> TruthTable:
    return TruthTable(f.n, f.bits ^ full_mask(f.n))


def equal(f: TruthTable, g: TruthTable) -> bool:
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    return f.bits == g.bits


def apply_np_transform(f: TruthTable, t: NPTransformation) -> TruthTable:
    """h with h(X) = f(TX), complemented when the output polarity is negative.

    Variable x_i of f is substituted by x_{perm[i]} when input_pol[i] = 1 and
    by its complement when input_pol[i] = 0.

    Every exchange involves the top input x_{n-1}, and the table is walked as
    its two halves (x_{n-1} = 0 and x_{n-1} = 1), so each exchange is a delta
    swap between two half-width ints (Knuth, TAOCP 4A 7.1.3) and negating
    x_{n-1} swaps the halves. The upper half is kept shifted up by the last
    exchange's distance, so the next exchange realigns it with one shift by
    the difference of the two distances and needs no other shift. Nothing
    spans the full table until the halves are joined at the end.
    """
    n = f.n
    if len(t.perm) != n:
        raise ValueError(f"permutation length {len(t.perm)} != n={n}")
    bits = f.bits
    # h(m) = b(a), a_k = m[perm[k]] xor neg[k], from b = f and neg[k] = 1 - pol[k].
    # p holds perm[top]. Exchanging x_top and x_j, negating both when x_top is
    # negated, clears the flag moving into j and leaves the parity on x_top.
    # lo and hi are the table's halves at x_top = 0 and 1 with that parity
    # already applied, so every exchange is a plain one between them and a
    # change of parity swaps them. x_top's cycle is walked first (j = p settles
    # slot j); each other cycle or negated fixed point is then joined to it by
    # exchanging its x_k, and walked. hi holds the upper half shifted up by o,
    # the distance of the last exchange (0 before the first exchange and after
    # a swap of the halves, which realigns it).
    perm, neg = list(t.perm), [1 - p for p in t.input_pol]
    if n:
        top = n - 1
        up, masks = 1 << top, var_masks(n)
        lo, hi, o = bits & full_mask(top), bits >> up, 0
        if neg[top]:
            lo, hi = hi, lo
        p = perm[top]
        for k in range(top, -1, -1):
            j = p if k == top else k if perm[k] != k or neg[k] else top
            while j != top:
                # x fits in lo: var_mask(n, j) is clear at 2^top .. 2^top +
                # 2^j - 1, where hi, now shifted by d, overhangs. x is
                # allocated as wide as hi, so it is released before the next
                # exchange allocates its own
                d = 1 << j
                hi = hi << d - o if d >= o else hi >> o - d
                x = (hi ^ lo) & masks[j]
                lo ^= x
                hi ^= x
                del x
                o = d
                if neg[j]:
                    lo, hi, o, neg[j] = hi >> o, lo, 0, 0
                p, perm[j] = perm[j], p
                j = p
        bits = hi << up - o | lo
    if t.output_negated:
        bits ^= full_mask(n)
    return TruthTable(n, bits)


def compose(first: NPTransformation, second: NPTransformation) -> NPTransformation:
    """Transformation t with apply(f, t) = apply(apply(f, first), second)."""
    n = len(first.perm)
    if len(second.perm) != n:
        raise ValueError(f"arity mismatch: {n} vs {len(second.perm)}")
    perm = tuple(second.perm[first.perm[i]] for i in range(n))
    pol = tuple(
        1 ^ first.input_pol[i] ^ second.input_pol[first.perm[i]] for i in range(n)
    )
    return NPTransformation(perm, pol, first.output_negated ^ second.output_negated)
