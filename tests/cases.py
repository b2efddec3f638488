"""Hand-worked function pairs used as golden data across the test suite,
and the reference helpers that only tests call.

Covers are lists of cubes; a cube is a list of (variable, positive) literals.
"""

import itertools
from unittest.mock import patch

from npnmatch import matcher, signature
from npnmatch.boolfn import NPTransformation, TruthTable, low_mask, var_mask
from npnmatch.symmetry import (
    SymmetryClass,
    _swap_invariant,
    canonical_keys,
    first_order_pairs,
)

T, F = True, False


def tt(n, cover):
    return TruthTable.from_cover(n, cover)


# --- 3-variable pair related by inverting x0/x2 and swapping them ---------
CASE3_F = tt(3, [[(0, F), (1, F), (2, T)], [(0, T), (1, F), (2, F)]])
CASE3_G = tt(3, [[(0, F), (1, T), (2, T)], [(0, T), (1, T), (2, F)]])

# --- 3-variable trio: A and B share a signature vector, C does not --------
TRIO_A = tt(3, [[(0, T), (1, F)], [(1, F), (2, T)], [(0, F), (1, T), (2, F)]])
TRIO_B = tt(3, [[(0, T), (2, T)], [(0, T), (1, T)], [(0, F), (1, F), (2, F)]])
TRIO_C = tt(3, [[(0, T), (1, F)], [(0, T), (2, T)], [(1, F), (2, T)]])

# --- 4-variable pair with one symmetric class each -------------------------
CASE4_F = tt(4, [
    [(0, F), (1, F), (3, T)],
    [(0, F), (1, T), (3, F)],
    [(0, T), (1, F), (2, F), (3, T)],
    [(0, T), (1, F), (2, T), (3, F)],
    [(0, T), (1, T), (3, T)],
])
CASE4_G = tt(4, [
    [(0, F), (1, F), (3, F)],
    [(0, F), (1, T), (2, F), (3, T)],
    [(0, F), (1, T), (2, T)],
    [(0, T), (1, F), (3, T)],
    [(0, T), (1, T), (2, F), (3, F)],
])

# --- 5-variable pair exercising group refinement and phase collision -------
# The three-minterm patch below the cover pins the exact signature counts
# the golden traces rely on (initial, under x0, under x0x2, under x0x2~x1).
_CASE5_F_COVER = tt(5, [
    [(0, F), (1, F), (2, T), (4, T)],
    [(1, T), (2, T), (4, F)],
    [(0, T), (1, F), (3, T)],
    [(0, T), (1, T), (3, F), (4, T)],
    [(0, T), (1, F), (2, T), (4, F)],
    [(0, T), (1, F), (2, F), (3, F), (4, T)],
    [(0, F), (1, T), (2, F), (3, T), (4, T)],
])
CASE5_F = TruthTable(
    5, (_CASE5_F_COVER.bits & ~(1 << 15)) | (1 << 11) | (1 << 31)
)
CASE5_G = tt(5, [
    [(0, F), (1, T), (4, T)],
    [(1, F), (2, T), (3, F), (4, F)],
    [(0, F), (1, F), (2, T), (3, T)],
    [(0, T), (1, T), (2, T), (3, T)],
    [(0, T), (1, F), (2, T), (3, F)],
    [(0, F), (1, F), (2, F), (3, F), (4, T)],
    [(0, F), (2, F), (3, T), (4, F)],
    [(0, F), (1, T), (2, T), (3, F)],
    [(0, T), (1, F), (2, F), (3, T), (4, T)],
])

# --- 7-variable pair driving the full search walkthrough -------------------
CASE7_F = tt(7, [
    [(0, F), (2, T), (5, T), (6, F)],
    [(0, F), (1, T), (2, T), (3, F), (6, T)],
    [(1, T), (2, F), (3, F), (6, T)],
    [(0, T), (4, T), (5, F)],
    [(0, T), (2, T), (5, T), (6, F)],
    [(0, T), (1, T), (2, T), (3, F), (4, F), (6, T)],
    [(0, T), (1, T), (2, T), (3, F), (4, T), (5, T), (6, T)],
])
CASE7_G = tt(7, [
    [(0, F), (1, F), (2, F), (5, F)],
    [(0, F), (1, F), (5, F), (6, T)],
    [(0, F), (1, F), (2, F), (5, T), (6, F)],
    [(0, F), (1, T), (3, T), (4, T)],
    [(0, F), (1, T), (2, F), (5, T), (6, F)],
    [(0, F), (1, T), (2, F), (5, F), (6, F)],
    [(0, T), (1, T), (3, T), (4, T)],
    [(0, T), (1, F), (5, F), (6, T)],
])


# --- reference helpers -----------------------------------------------------
def all_transformations(n):
    """Every NPN transformation, in the reference enumeration order:
    permutations lexicographic, input polarities as ascending n-bit integers
    (bit i = polarity of input i), positive output before negative."""
    for perm in itertools.permutations(range(n)):
        for pol_bits in range(1 << n):
            pol = tuple((pol_bits >> i) & 1 for i in range(n))
            yield NPTransformation(perm, pol, False)
            yield NPTransformation(perm, pol, True)


def symmetry_flags(f, i, j):
    """(identical, opposite) results of the two nonskew swap conditions."""
    n = f.n
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"bad variable pair ({i}, {j}) for n={n}")
    i, j = max(i, j), min(i, j)
    low_i = low_mask(n, i)
    return (
        _swap_invariant(f.bits, i, j, low_i, var_mask(n, j), False),
        _swap_invariant(f.bits, i, j, low_i, low_mask(n, j), True),
    )


def full_width_classes(f):
    """build_symmetry_classes with every swap condition tested on the whole
    table (symmetry_flags), never on a slice: each variable in ascending
    order joins the first class, among those opened by variables of its
    canonical first-order key, whose first member it swaps with, at
    relative polarity 0 when the identical swap holds; the second member
    decides the double flag."""
    keys = canonical_keys(first_order_pairs(f.bits, f.n))
    classes = []  # [members, relative polarities, double]
    for i in range(f.n):
        for cls in classes:
            members, pols, _ = cls
            if keys[members[0]] != keys[i]:
                continue
            identical, opposite = symmetry_flags(f, i, members[0])
            if identical or opposite:
                if len(members) == 1:
                    cls[2] = identical and opposite
                members.append(i)
                pols.append(0 if identical else 1)
                break
        else:
            classes.append([[i], [0], False])
    return [SymmetryClass(tuple(m), tuple(p), d) for m, p, d in classes if len(m) > 1]


def vector_side(f, sym, bits=None, identified=0, prev=None):
    """f's side after signature.update, with its twin as g: both sides
    hold f's classes sym, the restricted table bits (f's own when None),
    the identified mask and the previous vector prev (a first vector when
    None, built from the pairs of bits)."""
    restricted = f.bits if bits is None else bits
    pairs = first_order_pairs(restricted, f.n, identified)
    state = matcher.MatchState(*(matcher.Side(f, sym, pairs) for _ in range(2)))
    for side in (state.f, state.g):
        side.restricted, side.identified, side.v = restricted, identified, prev
    signature.update(state, {})
    return state.f


def dump_first_order(pairs):
    return "{" + ",".join(f"({p},{q})" for p, q in pairs) + "}"


def enumerate_complete_transformations(f, g):
    """Every complete branch of match_npn's search, in search order, as
    (map_list, output_negated, verified). verify is wrapped to record each
    branch with its real verdict and then refuse it, so the search drains
    every output arm that the zeroth-order counts allow."""
    complete, arms, verify = [], [], matcher.verify

    class Arms(matcher.Observer):
        def on_arm(self, output_negated):
            arms.append(output_negated)

    def refuse(table, target, map_list):
        complete.append((map_list, arms[-1], verify(table, target, map_list)))
        return False

    with patch.object(matcher, "verify", refuse):
        matcher.match_npn(f, g, observer=Arms())
    return complete
