"""Nonskew variable-symmetry detection and symmetry classes.

Two variables are symmetric when swapping them (possibly with one side
complemented) leaves the function invariant. Classes are built once on the
unrestricted function and frozen for the lifetime of a matching run.

Nonskew symmetry is transitive. Write s for the swap of x_i and x_k with
sign a (each maps to the other, complemented when a = -1) and t for the swap
of x_k and x_m with sign b. If f is invariant under both, it is invariant
under s t s, which maps x_i to x_m and x_m to x_i, both with sign a b: the
swap of x_i and x_m. Symmetry is therefore an equivalence relation, and a
variable belongs to a class exactly when it swaps with the class's first
member, so one test against that member decides membership.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .boolfn import (
    NPTransformation,
    TruthTable,
    apply_np_transform,  # patched by the benchmark's tracer (npnbench/tracer.py)
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


def first_order_pairs(f: TruthTable, skip: int = 0) -> list[tuple[int, int]]:
    """(|f_{x_i}|, |f_{~x_i}|) for every variable of f; the variables in the
    bit mask skip read (0, 0) and are not counted.

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
            if not skip >> v & 1:
                pos[v] += hi.bit_count() << b
            lo = p & low
            t = lo ^ hi
            folded.append(t ^ carry)
            carry = (lo & hi) ^ (t & carry)
        if carry:
            folded.append(carry)
        planes = folded
    width = min(n, _FOLD_STOP)
    live = [i for i in range(width) if not skip >> i & 1]
    total = 0
    for b, p in enumerate(planes):
        total += p.bit_count() << b
        for i in live:
            pos[i] += (p & var_mask(width, i)).bit_count() << b
    return [(0, 0) if skip >> i & 1 else (p, total - p) for i, p in enumerate(pos)]


def complement_pairs(pairs: Sequence[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """first_order_pairs of the complement of f, from those of f: each
    cofactor of ~f over x_i has 2^(n-1) minterms minus f's."""
    half = (1 << n) >> 1
    return [(half - p, half - q) for p, q in pairs]


def build_symmetry_classes(
    f: TruthTable, sig: list[tuple[int, int]] | None = None
) -> list[SymmetryClass]:
    """Partition variables into symmetry classes.

    Swapping two variables preserves their canonical first-order pair, so
    only variables in the same bucket of canonical pairs are tested. Each
    variable is tested against the first member of each class already
    opened in its bucket and joins the first one it swaps with, at relative
    polarity 0 when the identical swap holds and 1 otherwise; by
    transitivity (module docstring) it swaps with no other class.
    """
    n = f.n
    if sig is None:
        sig = first_order_pairs(f)
    # per class: members, relative polarities, and whether each member
    # after the first satisfies both swaps
    classes: list[tuple[list[int], list[int], list[bool]]] = []
    buckets: dict[tuple[int, int], list] = {}
    for i in range(n):
        p, q = sig[i]
        opened = buckets.setdefault((max(p, q), min(p, q)), [])
        for members, pols, doubles in opened:
            identical, opposite = symmetry_flags(f, members[0], i)
            if identical or opposite:
                members.append(i)
                pols.append(0 if identical else 1)
                doubles.append(identical and opposite)
                break
        else:
            opened.append(([i], [0], []))
            classes.append(opened[-1])
    return [SymmetryClass(tuple(m), tuple(p), all(d)) for m, p, d in classes if len(m) > 1]
