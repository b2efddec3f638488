"""Structural signature vectors.

Per variable: the first-order value (cofactor minterm counts) of a function
already restricted to the current cube, frozen symmetry marks, and a group
serial number. Groups partition variables that have ever shown distinct
first-order values; refinement never merges groups, so stale-signature
mappings are ruled out.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .symmetry import SymmetryClass, canonical_keys, first_order_pairs


class SymmetryMarks(NamedTuple):
    size: list[int]  # per variable its class size, -1 outside every class
    first: list[int]  # per variable its class's first member, -1 outside
    members: int  # bit mask of the class members


def symmetry_marks(sym: Sequence[SymmetryClass], n: int) -> SymmetryMarks:
    """Marks of the classes sym over n variables, fixed for a match."""
    size, first = [-1] * n, [-1] * n
    for cls in sym:
        for m in cls.members:
            size[m], first[m] = cls.size, cls.first
    return SymmetryMarks(size, first, sum(1 << m for cls in sym for m in cls.members))


class SSVector:
    """Per-variable sequences: cofactor counts pos and neg, group serial and
    canonical key (symmetry.canonical_keys), plus the match's symmetry
    marks, the keys in ascending order (sorted_keys, see update) and the
    compatibility profile, the sorted (group, key, class size) of the
    variables that are not identified.

    Two vectors are compatible, a necessary condition for a mapping under
    the current cubes, when their profiles are equal: per group, the
    multisets of (canonical first-order pair, class size) over unidentified
    variables agree, and the canonical pair admits the opposite-phase
    mapping. Identified variables are skipped: every committed mapping
    pairs variables of equal group, and an identified variable keeps its
    group, so their per-group counts always agree."""

    __slots__ = ("pos", "neg", "group", "key", "marks", "sorted_keys", "profile")

    def __init__(self, pos, neg, group, key, marks, sorted_keys, profile):
        self.pos, self.neg, self.group, self.key, self.marks = pos, neg, group, key, marks
        self.sorted_keys, self.profile = sorted_keys, profile

    def dump(self) -> str:
        """Debug rendering: one (pos, neg, symSize, symFirst, group) per
        variable, symSize and symFirst -1 outside every class."""
        m = self.marks
        return "{" + ",".join(map(str, zip(self.pos, self.neg, m.size, m.first, self.group))) + "}"


def compute_ss_vector(
    bits: int,
    n: int,
    sym: Sequence[SymmetryClass],
    identified: int = 0,
    prev: Optional[SSVector] = None,
) -> SSVector:
    """Fill first-order values, frozen symmetry marks, and group marks.

    bits is a table over n inputs, counted as given: to read the vector of a
    function f under a cube, pass f.bits ANDed with var_mask(n, i) for each
    positive literal x_i and low_mask(n, i) for each negative one.
    identified is a bit mask over the variables.

    Without a previous vector, group serials are assigned by canonical
    first-order pair (max, min) in descending order. With one, each previous
    group is refined: the sub-group with the largest canonical pair keeps the
    old serial, the rest take fresh serials past the current maximum.
    Identified variables read (0, 0) and keep their frozen group.
    """
    pairs = first_order_pairs(bits, n, identified)
    key = canonical_keys(pairs)
    return _vector(pairs, key, sorted(key), identified, prev, symmetry_marks(sym, n))


def _vector(pairs, key, sorted_keys, identified, prev, marks) -> SSVector:
    """The vector of first-order pairs already counted with identified
    variables at (0, 0), and of their keys; see compute_ss_vector."""
    # a first vector refines one group that holds every variable
    old, skip = (prev.group, identified) if prev is not None else ([0] * len(key), 0)
    group = _refine(old, key, skip)
    pos, neg = zip(*pairs) if pairs else ((), ())
    live = zip(group, key, marks.size)
    profile = sorted([t for i, t in enumerate(live) if not identified >> i & 1])
    return SSVector(pos, neg, group, key, marks, sorted_keys, profile)


def _refine(old: list[int], key: list[int], skip: int) -> list[int]:
    """old with each group split by the keys of its members outside skip
    (see compute_ss_vector); old itself when no group splits. Either way
    each group's members outside skip then share one key."""
    live = {(g, -key[i]) for i, g in enumerate(old) if not skip >> i & 1}
    if len(live) == len({g for g, _ in live}):
        return old
    # groups in ascending serial order, each group's keys in descending order
    fresh = max(old) + 1
    serial, last = {}, None
    for g, k in sorted(live):
        if g == last:
            serial[g, k], fresh = fresh, fresh + 1
        else:
            serial[g, k] = last = g
    return [g if skip >> i & 1 else serial[g, -key[i]] for i, g in enumerate(old)]


def update(state, siblings: dict) -> bool:
    """Recompute the SS vector of each side's restricted table (a bare int
    over the side's table.n inputs, see the matcher's Side), record
    first-determined phases, and report cross-function compatibility. When
    it reports the sides compatible, each group's unidentified variables
    share one canonical key on each side, the same on both, and either all
    of them, on both sides, have a phase record or none has: a record is
    made where a key's two counts first differ, so for all of a group at
    once, and groups never merge. The matcher's build_mapping_sets relies
    on both.

    ``state`` carries two sides f and g (see the matcher's Side). At the
    root, where a side has no vector, the first vector is built from the
    side's root first-order pairs; a target with none is an arm that
    matcher.match_npn has refuted, reported incompatible at once.

    g's sorted canonical keys are compared with f's before g's vector is
    built; when they differ, g is left with no vector (v None) and no new
    phases, and the node is reported incompatible. The profile check would
    prune it too: each side holds as many identified variables, all at
    (0, 0), so equal profiles give equal sorted keys.

    siblings is the store that the node above shares among its children (a
    fresh one at the root). Below the root, a side's new vector and phase
    masks depend only on its restricted table (the table and its cube), its
    identified mask, its previous vector and the masks it enters with; all
    children of a node map the same subject of f, so they share f's side.
    The siblings below a branch point enter with the parent's vector and
    its post-update masks, so the result is stored under (side index,
    identified, cube) and a sibling with the same key takes it without
    recounting, a refuted g (v None) included. The cube belongs in the key:
    the candidates i -> j - 0 and i -> j - 1 identify the same variables of
    g but may split g on opposite literals of x_j.
    """
    if state.g.root_pairs is None:
        return False
    for index, side in enumerate((state.f, state.g)):
        slot = index, side.identified, side.cube_vars, side.cube_vals
        stored = siblings.get(slot)
        if stored is not None:
            side.v, side.phase_known, side.phase_neg = stored
            state.stats.vectors_reused += 1
            continue
        prev = side.v
        if prev is None:
            pairs = side.root_pairs
        else:
            pairs = first_order_pairs(side.restricted, side.table.n, side.identified)
        key = canonical_keys(pairs)
        sorted_keys = sorted(key)
        if index and sorted_keys != state.f.v.sorted_keys:
            side.v = None
            siblings[slot] = None, side.phase_known, side.phase_neg
            break
        v = side.v = _vector(pairs, key, sorted_keys, side.identified, prev, side.marks)
        known, neg = side.phase_known, side.phase_neg
        # identified variables read (0, 0), so p != q leaves them alone
        for i, (p, q) in enumerate(pairs):
            if p != q and not known >> i & 1:
                known |= 1 << i
                neg |= (p < q) << i
        side.phase_known, side.phase_neg = known, neg
        siblings[slot] = v, known, neg
    return state.g.v is not None and state.f.v.profile == state.g.v.profile
