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

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .boolfn import (
    MAX_VARS,
    TruthTable,
    apply_np_transform,  # patched by the benchmark's tracer (npnbench/tracer.py)
    full_mask,
    low_mask,
    var_mask,
    var_masks,
)


@dataclass(frozen=True)
class SymmetryClass:
    """A maximal set of mutually swappable variables.

    relative_pol[t] belongs to members[t]: 0 when that member swaps with the
    first member in identical phase and 1 when it swaps with the first
    member complemented.
    """

    members: tuple[int, ...]
    relative_pol: tuple[int, ...]
    # True when every member pair satisfies both swap conditions. The function
    # is then invariant under jointly negating any two members, so mapping
    # polarities matter only through their parity. One pair decides it: if
    # both swaps of a and b hold, f is invariant under negating a and b
    # together; conjugating that by the swap of b and any other member c
    # gives the same for a and c, which turns either swap of a and c into
    # the other.
    double: bool = False

    @property
    def first(self) -> int:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def _swap_invariant(bits: int, i: int, j: int, low_i: int, mask_j: int, opposite: bool) -> bool:
    """f is invariant under the swap of x_i and x_j (i > j), with both
    complemented when opposite: a delta swap (Knuth, TAOCP 4A 7.1.3) of
    distance 2^i - 2^j, or 2^i + 2^j when opposite, finds no differing bit
    to exchange under the mask low_i & mask_j. low_i is low_mask(n, i);
    mask_j is low_mask(n, j) when opposite and var_mask(n, j) otherwise.

    Above _FOLD_ABOVE inputs build_symmetry_classes calls this on the
    whole table only for a condition that held on a slice of it first
    (_sliced_swap_invariant), so most full-width tests of a tied pair
    never run.
    The pair's mask low_i & mask_j is rebuilt on every call, not cached per
    (n, i, j, opposite): at n = 20 each is a 128 KB int, and a cache of them
    took random_n20 peak RSS from 133.8 to 150.1 MB and slowed its time
    metrics by 15-17% (2-vCPU Xeon, Python 3.11)."""
    delta = (1 << i) + (1 << j) if opposite else (1 << i) - (1 << j)
    return not ((bits >> delta) ^ bits) & low_i & mask_j


# Tables above _FOLD_ABOVE inputs fold down to _FOLD_STOP inputs; the
# variables below the stop are counted by masked popcounts over the folded
# planes. The fold trades popcounts for ANDs, shifts and XORs: at n = 20 a
# popcount of the 2^20-bit table took 54-56 us (27-29 us for a half), an
# AND of that width 5-6 us (3-4 us for a half) and a shift by half the
# width 11-22 us (timeit, min of 7-9; the ranges span runs). All figures
# here: 2-vCPU Xeon, Python 3.11. Median us per function over 21
# interleaved rounds (with no fold: 20 us at n = 12, 29 us at n = 14):
#   n          12   14   15   16   18   20    22
#   stop 10    29   34   37   51  110  302  1628
#   stop 11              36   56  113  304  1610
#   stop 12              42   57  118  315  1606
#   stop 14              47   83  144  351  1686
# Above _FOLD_ABOVE inputs two more kernels leave the full table: a swap
# condition is first tested on a slice of 2^_FOLD_STOP to 2^(_FOLD_STOP+2)
# bits (_sliced_swap_invariant), and a table restricted to a cube is
# counted as its compacted cofactor (_cofactor_pairs). At n = 20 (timeit,
# two runs; BENCH_a4194eb.json) a swap test that the slice refutes took
# 2-12 us for a pair below x_13 and 19-79 us for a pair with x_19,
# against 27-133 us for the full-width test; a below-root count over a
# cube of 1-4 variables took 114-242 us against 207-419 us for the masked
# full-width fold, except over x_19 alone, which read the same either way.
# Up to _FOLD_ABOVE inputs neither runs.
_FOLD_ABOVE = 14
_FOLD_STOP = 10


def first_order_pairs(
    bits: int,
    n: int,
    skip: int = 0,
    split: list[int] | None = None,
    cube: tuple[int, int] = (0, 0),
) -> list[tuple[int, int]]:
    """(|f_{x_i}|, |f_{~x_i}|) for every variable of the table bits over n
    inputs, a whole function or one restricted to a cube; the variables in
    the bit mask skip read (0, 0) and are not counted.

    A popcount costs several times an AND of the same width, so the top
    variables are counted by a bit-sliced fold (Knuth, TAOCP 4A 7.1.3):
    planes[b] holds bit b of a per-position minterm count, and each level
    counts x_v from the upper half of every plane, then adds the upper half
    onto the lower one, halving the width. A table of at most _FOLD_ABOVE
    inputs is not folded: each variable takes one masked popcount.

    The fold's first step splits bits on x_{n-1}. A caller that holds that
    split already passes it as split, the list [lo, hi, |hi|] of the halves
    at x_{n-1} = 0 and 1 and the upper one's count: above _FOLD_ABOVE
    inputs the fold starts from it, not from bits, and empties it, so that
    each half is freed once it is folded. Each plane, too, is dropped once
    split, so the fold never holds two full levels.

    A table restricted to a cube is zero outside it. A caller that passes
    the cube as cube, the bit masks (variables, values), has it counted
    as its cofactor over the other inputs, 2^k times narrower for a cube
    of k variables, above _FOLD_ABOVE inputs (_cofactor_pairs); the pairs
    are those of the restricted table either way.
    """
    if n <= _FOLD_ABOVE:
        total = bits.bit_count()
        return [
            (0, 0) if skip >> i & 1 else (p := (bits & mask).bit_count(), total - p)
            for i, mask in enumerate(var_masks(n))
        ]
    if cube[0]:
        return _cofactor_pairs(bits, n, skip, cube)
    top = n - 1
    if split is None:
        hi = bits >> (1 << top)
        lo, p = bits & full_mask(top), 0 if skip >> top & 1 else hi.bit_count()
    else:
        (lo, hi, p), split[:] = split, ()
    pos = [0] * n
    pos[top] = p
    carry = lo & hi
    planes = [lo ^ hi, carry] if carry else [lo ^ hi]
    del lo, hi
    for v in range(top - 1, _FOLD_STOP - 1, -1):
        shift, low = 1 << v, full_mask(v)
        folded, carry = [], 0
        for b in range(len(planes)):
            hi, lo, planes[b] = planes[b] >> shift, planes[b] & low, None
            if not skip >> v & 1:
                pos[v] += hi.bit_count() << b
            t, c = lo ^ hi, lo & hi
            del lo, hi
            folded.append(t ^ carry)
            carry = c ^ (t & carry)
        if carry:
            folded.append(carry)
        planes = folded
    live = [(i, mask) for i, mask in enumerate(var_masks(_FOLD_STOP)) if not skip >> i & 1]
    total = 0
    for b, p in enumerate(planes):
        total += p.bit_count() << b
        for i, mask in live:
            pos[i] += (p & mask).bit_count() << b
    return [(0, 0) if skip >> i & 1 else (p, total - p) for i, p in enumerate(pos)]


def _cofactor_pairs(bits: int, n: int, skip: int, cube: tuple[int, int]) -> list[tuple[int, int]]:
    """first_order_pairs of bits over n inputs, zero outside the cube
    (variables, values), from its cofactor over the inputs outside the
    cube: the paper's Shannon expansion, one cube variable at a time.

    While the table's top input x_t is in the cube, the cofactor keeps
    the half at x_t's value: the upper one shifted down, or the table as
    it is, whose upper half is zero. Otherwise a cube variable x_u gives
    its slot to x_t: the halves lo and hi at x_t = 0 and 1 are each zero
    wherever x_u differs from its value c, so lo >> 2^u | hi (c = 1) or
    lo | hi << 2^u (c = 0) is the cofactor, x_t read at slot u: one AND,
    two shifts and one OR, each as wide as a half. A cube variable never
    moves, so it is still at its own slot when its turn comes. The
    cofactor is counted like any table, and its counts move back to the
    inputs they belong to. A cube variable outside skip reads (|f|, 0) at
    value 1 and (0, |f|) at value 0."""
    cube_vars, cube_vals = cube
    at = list(range(n))  # at[s]: the input of the table at slot s
    rest = cube_vars
    while rest:
        t = len(at) - 1
        half = 1 << t
        if rest >> at[t] & 1:
            u = at[t]
            if cube_vals >> u & 1:
                bits >>= half
        else:
            u = rest.bit_length() - 1
            d = 1 << u
            # each half is built and shifted before the other is taken, so
            # at most three half-width ints are alive next to bits
            if cube_vals >> u & 1:
                bits = (bits & full_mask(t)) >> d | bits >> half
            else:
                bits = (bits >> half) << d | bits & full_mask(t)
            at[u] = at[t]
        rest ^= 1 << u
        at.pop()
    width, counted = len(at), cube_vars & ~skip
    skipped = sum(1 << s for s, v in enumerate(at) if skip >> v & 1)
    total = bits.bit_count() if counted else 0
    split = None
    if width > _FOLD_ABOVE:
        # the fold starts from the cofactor's split and frees it; the
        # cofactor itself is dropped first
        t = width - 1
        hi = bits >> (1 << t)
        split = [bits & full_mask(t), hi, 0 if skipped >> t & 1 else hi.bit_count()]
        bits = hi = None
    pairs = [(0, 0)] * n
    for v, pair in zip(at, first_order_pairs(bits, width, skipped, split)):
        pairs[v] = pair
    for v in range(n):
        if counted >> v & 1:
            pairs[v] = (total, 0) if cube_vals >> v & 1 else (0, total)
    return pairs


def complement_pairs(pairs: Sequence[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """first_order_pairs of the complement of f, from those of f: each
    cofactor of ~f over x_i has 2^(n-1) minterms minus f's."""
    half = (1 << n) >> 1
    return [(half - p, half - q) for p, q in pairs]


def canonical_keys(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Per first-order pair (p, q), the canonical pair (max, min) that input
    negation keeps, packed as max << MAX_VARS | min: a count never exceeds
    2^(MAX_VARS - 1), so the keys order like the (max, min) tuples."""
    return [p << MAX_VARS | q if p >= q else q << MAX_VARS | p for p, q in pairs]


def _sliced_swap_invariant(
    n: int, bits: int, i: int, j: int, low_i: int, mask_j: int, opposite: bool
) -> bool:
    """_swap_invariant of x_i and x_j (i > j) on the table bits over
    n > _FOLD_STOP + 2 inputs, tested first on a slice of it. A swap that
    leaves f invariant leaves every cofactor over the other inputs
    invariant, so the slice can refute the swap but never accept it: only
    the full-width test does.

    The slice is the cofactor that sets every input from _FOLD_STOP up to
    1 except x_i and x_j: the inputs below _FOLD_STOP and those of x_j,
    then x_i, that lie above them. Each of its 1, 2 or 4 chunks of
    2^_FOLD_STOP bits is cut from the table with one shift, which copies
    only what lies above the chunk: the higher x_i, the more."""
    free = [v for v in (j, i) if v >= _FOLD_STOP]
    first = (1 << n) - (1 << _FOLD_STOP)  # every input from _FOLD_STOP up set
    chunk, cut = full_mask(_FOLD_STOP), 0
    for c in range(1 << len(free)):
        at = first - sum(1 << v for k, v in enumerate(free) if not c >> k & 1)
        cut |= (bits >> at & chunk) << (c << _FOLD_STOP)
    width = _FOLD_STOP + len(free)
    si = width - 1 if free else i
    sj = _FOLD_STOP if j >= _FOLD_STOP else j
    mask = (low_mask if opposite else var_mask)(width, sj)
    sliced = _swap_invariant(cut, si, sj, low_mask(width, si), mask, opposite)
    return sliced and _swap_invariant(bits, i, j, low_i, mask_j, opposite)


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

    A swap condition is tested only where the counts allow it: the
    identical swap of x_a and x_i maps f_{x_a} onto f_{x_i}, the opposite
    one onto f_{~x_i}, so each needs |f_{x_a}| to equal that count. Above
    _FOLD_ABOVE inputs a condition that the counts allow is tested on a
    slice of the table first (_sliced_swap_invariant), and only one that
    holds there is tested on the whole table.
    """
    n = f.n
    if sig is None:
        sig = first_order_pairs(f.bits, n)
    keys = canonical_keys(sig)
    # per class: members, relative polarities, and the double flag, which
    # the second member decides for all (see SymmetryClass)
    classes: list[list] = []
    buckets: dict[int, list] = {}
    # each variable's masks, looked up once per build from the caches
    bits, var = f.bits, var_masks(n)
    low = [low_mask(n, v) for v in range(n)]
    swap = _swap_invariant if n <= _FOLD_ABOVE else partial(_sliced_swap_invariant, n)
    for i, (p, q) in enumerate(sig):
        opened = buckets.setdefault(keys[i], [])
        for cls in opened:
            members, pols, _ = cls
            a = members[0]
            identical = sig[a][0] == p and swap(bits, i, a, low[i], var[a], False)
            opposite = sig[a][0] == q and swap(bits, i, a, low[i], low[a], True)
            if identical or opposite:
                if len(members) == 1:
                    cls[2] = identical and opposite
                members.append(i)
                pols.append(0 if identical else 1)
                break
        else:
            opened.append([[i], [0], False])
            classes.append(opened[-1])
    return [SymmetryClass(tuple(m), tuple(p), d) for m, p, d in classes if len(m) > 1]
