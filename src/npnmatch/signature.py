"""Structural signature vectors.

Per variable: the first-order value (cofactor minterm counts) of a function
already restricted to the current cube and a group serial number; per
vector, the phase record, the phases fixed so far. The symmetry marks are
the side's fixed class layout (the matcher's Side), which the vector reads
and does not copy. Groups partition variables that have ever shown distinct
first-order values; refinement never merges groups, so stale-signature
mappings are ruled out.
"""

from __future__ import annotations

from .symmetry import canonical_keys, first_order_pairs


class SSVector:
    """One side's signature at one node, built only by update: per variable
    the cofactor counts pos and neg and the group serial; the variables'
    canonical keys (symmetry.canonical_keys) in ascending order
    (sorted_keys); the compatibility profile, the sorted (group, key, class
    size) of the variables that are not identified; and the phase record
    as two bit masks: phase_known marks the variables whose phase is
    determined, phase_neg those of them whose phase is negative. Each
    record starts from the previous vector's, none at the root.

    Two vectors are compatible, a necessary condition for a mapping under
    the current cubes, when their profiles are equal: per group, the
    multisets of (canonical first-order pair, class size) over unidentified
    variables agree, and the canonical pair admits the opposite-phase
    mapping. Identified variables are skipped: every committed mapping
    pairs variables of equal group, and an identified variable keeps its
    group, so their per-group counts always agree."""

    __slots__ = ("pos", "neg", "group", "sorted_keys", "profile", "phase_known", "phase_neg")

    def __init__(self, pos, neg, group, sorted_keys, profile, phase_known, phase_neg):
        self.pos, self.neg, self.group = pos, neg, group
        self.sorted_keys, self.profile = sorted_keys, profile
        self.phase_known, self.phase_neg = phase_known, phase_neg


def _refine(old: list[int], key: list[int], skip: int) -> list[int]:
    """old with each group split by the keys of its members outside skip;
    old itself when no group splits. Either way each group's members
    outside skip then share one key.

    A first vector refines one group that holds every variable, so its
    serials go by canonical first-order pair (max, min) in descending
    order. Below the root, the sub-group with the largest canonical pair
    keeps the old serial and the rest take fresh serials past the current
    maximum; identified variables (skip) keep their group.
    """
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
    """Build the SS vector of each side's restricted table (a bare int over
    the side's table.n inputs, see the matcher's Side), its phase record
    included, and report cross-function compatibility. This is the only
    place a vector is built. The record extends the previous vector's:
    a variable's phase is fixed, negative when |x| < |~x|, where its two
    counts first differ. When update reports the sides compatible, each
    group's unidentified variables share one canonical key on each side,
    the same on both, and either all of them, on both sides, have a phase
    record or none has: a record is made for all of a group at once, and
    groups never merge. The matcher's build_mapping_sets relies on both.

    ``state`` carries two sides f and g (see the matcher's Side). At the
    root, where a side has no vector, the first vector is built from the
    side's root first-order pairs; a target with none is an arm that
    matcher.match_npn has refuted, reported incompatible at once.

    g's sorted canonical keys are compared with f's before g's vector is
    built; when they differ, g is left with no vector (v None), and the
    node is reported incompatible. The profile check would prune it too:
    each side holds as many identified variables, all at (0, 0), so equal
    profiles give equal sorted keys.

    siblings is the store that the node above shares among its children (a
    fresh one at the root). Below the root, a side's new vector depends
    only on its restricted table (the table and its cube), its identified
    mask and its previous vector; all children of a node map the same
    subject of f, so they share f's side. The siblings below a branch point
    enter with the parent's vector, so the new vector is stored under (side
    index, identified, cube) and a sibling with the same key takes it
    without recounting, a refuted g (None) included. The cube belongs in
    the key: the candidates i -> j - 0 and i -> j - 1 identify the same
    variables of g but may split g on opposite literals of x_j.
    """
    if state.g.root_pairs is None:
        return False
    for index, side in enumerate((state.f, state.g)):
        slot = index, side.identified, side.cube_vars, side.cube_vals
        if slot in siblings:
            side.v = siblings[slot]
            state.stats.vectors_reused += 1
            continue
        prev, identified = side.v, side.identified
        if prev is None:
            # a first vector refines one group that holds every variable
            pairs, old, known, sign = side.root_pairs, [0] * side.table.n, 0, 0
        else:
            # the side's cube lets a wide table be counted as its cofactor
            cube = side.cube_vars, side.cube_vals
            pairs = first_order_pairs(side.restricted, side.table.n, identified, cube=cube)
            old, known, sign = prev.group, prev.phase_known, prev.phase_neg
        key = canonical_keys(pairs)
        sorted_keys = sorted(key)
        if index and sorted_keys != state.f.v.sorted_keys:
            side.v = siblings[slot] = None
            break
        group = _refine(old, key, identified)
        pos, neg = zip(*pairs) if pairs else ((), ())
        live = zip(group, key, side.size)
        profile = sorted([t for i, t in enumerate(live) if not identified >> i & 1])
        # identified variables read (0, 0), so p != q leaves them alone
        for i, (p, q) in enumerate(pairs):
            if p != q and not known >> i & 1:
                known |= 1 << i
                sign |= (p < q) << i
        side.v = siblings[slot] = SSVector(pos, neg, group, sorted_keys, profile, known, sign)
    return state.g.v is not None and state.f.v.profile == state.g.v.profile
