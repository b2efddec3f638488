"""Nonskew variable-symmetry detection and symmetry classes.

Two variables are symmetric when swapping them (possibly with one side
complemented) leaves the function invariant. Classes are built once on the
unrestricted function and frozen for the lifetime of a matching run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .boolfn import (
    NPTransformation,
    TruthTable,
    apply_np_transform,
    equal,
    full_mask,
    low_mask,
    var_mask,
)


class SymmetryKind(enum.Enum):
    NOT_SYMMETRIC = 0
    IDENTICAL = 1
    OPPOSITE = 2


@dataclass(frozen=True)
class SymmetryClass:
    """A maximal set of mutually swappable variables.

    relative_pol[m] is 0 when member m swaps with the first member in
    identical phase and 1 when it swaps with the first member complemented.
    """

    members: tuple[int, ...]
    relative_pol: tuple[int, ...]
    # True when every member pair satisfies both swap conditions. The function
    # is then invariant under jointly negating any two members, so mapping
    # polarities matter only through their parity.
    double: bool = False

    @property
    def first(self) -> int:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def symmetry_flags(f: TruthTable, i: int, j: int) -> tuple[bool, bool]:
    """(identical, opposite) results of the two nonskew swap conditions."""
    n = f.n
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"bad variable pair ({i}, {j}) for n={n}")
    mi, li = var_mask(n, i), low_mask(n, i)
    mj, lj = var_mask(n, j), low_mask(n, j)
    si, sj = 1 << i, 1 << j
    # swap x_i <-> x_j: f restricted to (x_i=1, x_j=0) equals (x_i=0, x_j=1)
    identical = (f.bits & mi & lj) >> si == (f.bits & mj & li) >> sj
    # swap x_i <-> complement of x_j: (x_i=1, x_j=1) equals (x_i=0, x_j=0)
    opposite = (f.bits & mi & mj) >> (si + sj) == f.bits & li & lj
    return identical, opposite


def are_symmetric(f: TruthTable, i: int, j: int) -> SymmetryKind:
    """Symmetry kind of a pair; IDENTICAL is reported when both swap
    conditions hold (degenerate variables)."""
    identical, opposite = symmetry_flags(f, i, j)
    if identical:
        return SymmetryKind.IDENTICAL
    if opposite:
        return SymmetryKind.OPPOSITE
    return SymmetryKind.NOT_SYMMETRIC


def swap_transform(n: int, i: int, j: int, opposite: bool) -> NPTransformation:
    """The NP transformation exchanging x_i and x_j (complemented if opposite)."""
    perm = list(range(n))
    perm[i], perm[j] = j, i
    pol = [1] * n
    if opposite:
        pol[i] = pol[j] = 0
    return NPTransformation(tuple(perm), tuple(pol))


# Variables below this one are counted by masked popcounts over the folded
# planes (2^14 bits each). Measured per function on a 2-vCPU Xeon, Python
# 3.11: at n = 20, stops of 11 to 14 take 0.72-0.83 ms (15 and 16 more)
# against 3.5 ms for one full-width popcount per variable; at n = 14 a fold
# is slower than none (0.062 ms with a stop of 12 against 0.051 ms), so
# every table with n <= 14 keeps the plain loop.
_FOLD_STOP = 14


def first_order_pairs(f: TruthTable) -> list[tuple[int, int]]:
    """(|f_{x_i}|, |f_{~x_i}|) for every variable of the unrestricted f.

    A popcount costs several times an AND of the same width, so the top
    variables are counted by a bit-sliced fold (Knuth, TAOCP 4A 7.1.3):
    planes[b] holds bit b of a per-position minterm count, and each level
    counts x_v from the upper half of every plane, then adds the upper half
    onto the lower one, halving the width.
    """
    n = f.n
    pos = [0] * n
    planes = [f.bits]
    for v in range(n - 1, _FOLD_STOP - 1, -1):
        shift, low = 1 << v, full_mask(v)
        folded, carry = [], 0
        for b, p in enumerate(planes):
            hi = p >> shift
            pos[v] += hi.bit_count() << b
            lo = p & low
            t = lo ^ hi
            folded.append(t ^ carry)
            carry = (lo & hi) ^ (t & carry)
        if carry:
            folded.append(carry)
        planes = folded
    width = min(n, _FOLD_STOP)
    total = 0
    for b, p in enumerate(planes):
        total += p.bit_count() << b
        for i in range(width):
            pos[i] += (p & var_mask(width, i)).bit_count() << b
    return [(p, total - p) for p in pos]


def complement_pairs(pairs: Sequence[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """first_order_pairs of the complement of f, from those of f: each
    cofactor of ~f over x_i has 2^(n-1) minterms minus f's."""
    half = (1 << n) >> 1
    return [(half - p, half - q) for p, q in pairs]


def build_symmetry_classes(
    f: TruthTable, sig: list[tuple[int, int]] | None = None
) -> list[SymmetryClass]:
    """Partition variables into symmetry classes.

    Pairs are only tested within buckets of equal canonical first-order value
    (the swap conditions force equal counts up to mirroring). Transitivity is
    assumed when merging; a swap-test afterwards evicts pathological members.
    """
    n = f.n
    if sig is None:
        sig = first_order_pairs(f)

    parent = list(range(n))
    parity = [0] * n  # polarity relative to the union-find root

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        p = 0
        for u in reversed(path):
            p ^= parity[u]
            parent[u] = v
            parity[u] = p
        return v

    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        p, q = sig[i]
        buckets.setdefault((max(p, q), min(p, q)), []).append(i)

    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if find(i) == find(j):
                    continue
                kind = are_symmetric(f, i, j)
                if kind is SymmetryKind.NOT_SYMMETRIC:
                    continue
                rel = 0 if kind is SymmetryKind.IDENTICAL else 1
                ri, rj = find(i), find(j)
                parent[rj] = ri
                parity[rj] = parity[i] ^ parity[j] ^ rel

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    classes = []
    for members in groups.values():
        if len(members) < 2:
            continue
        members.sort()
        first = members[0]
        base = parity[first]
        pols = [parity[m] ^ base for m in members]
        kept_m, kept_p = [first], [0]
        for m, p in zip(members[1:], pols[1:]):
            t = swap_transform(n, first, m, bool(p))
            if equal(apply_np_transform(f, t), f):
                kept_m.append(m)
                kept_p.append(p)
        if len(kept_m) >= 2:
            double = all(
                all(symmetry_flags(f, kept_m[0], m)) for m in kept_m[1:]
            )
            classes.append(SymmetryClass(tuple(kept_m), tuple(kept_p), double))
    classes.sort(key=lambda c: c.first)
    return classes
