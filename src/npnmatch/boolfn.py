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


def _negate_var(bits: int, n: int, i: int) -> int:
    shift = 1 << i
    return ((bits & var_mask(n, i)) >> shift) | ((bits & low_mask(n, i)) << shift)


def _delta_swap(bits: int, d: int, mask: int) -> int:
    """Exchange the bits under mask with those d places up (Knuth, TAOCP 4A 7.1.3)."""
    t = ((bits >> d) ^ bits) & mask
    return bits ^ t ^ (t << d)


def _swap_vars(bits: int, n: int, i: int, j: int) -> int:
    """Exchange x_i and x_j: minterms with x_j = 1, x_i = 0 trade with x_j = 0, x_i = 1."""
    if i == j:
        return bits
    if i < j:
        i, j = j, i
    return _delta_swap(bits, (1 << i) - (1 << j), var_mask(n, j) & low_mask(n, i))


def _antiswap_vars(bits: int, n: int, i: int, j: int) -> int:
    """Exchange x_i and x_j, negating both: x_i = x_j = 0 trades with x_i = x_j = 1."""
    return _delta_swap(bits, (1 << i) + (1 << j), low_mask(n, i) & low_mask(n, j))


def apply_np_transform(f: TruthTable, t: NPTransformation) -> TruthTable:
    """h with h(X) = f(TX), complemented when the output polarity is negative.

    Variable x_i of f is substituted by x_{perm[i]} when input_pol[i] = 1 and
    by its complement when input_pol[i] = 0.
    """
    n = f.n
    if len(t.perm) != n:
        raise ValueError(f"permutation length {len(t.perm)} != n={n}")
    bits = f.bits
    # h(m) = b(a), a_k = m[perm[k]] xor neg[k], from b = f and neg[k] = 1 - pol[k].
    # A cycle is walked from its smallest slot i, and each swap settles slot j.
    # An anti-swap toggles both flags: it clears the flag moving into j, and
    # slot i keeps the cycle's negation parity, negated once when i settles.
    perm, neg = list(t.perm), [1 - p for p in t.input_pol]
    for i in range(n):
        while perm[i] != i:
            j = perm[i]
            bits = (_antiswap_vars if neg[i] else _swap_vars)(bits, n, i, j)
            neg[i], neg[j] = neg[i] ^ neg[j], 0
            perm[i], perm[j] = perm[j], j
        if neg[i]:
            bits = _negate_var(bits, n, i)
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
