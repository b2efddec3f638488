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

from .boolfn import MAX_VARS, set_bits
from .symmetry import first_order_pairs


class SSVector:
    """One side's signature at one node, built only by update: per variable
    the first-order pairs (read as the counts pos and neg) and the group
    serial; over the variables not identified, their sorted canonical keys
    (symmetry.canonical_keys), the compatibility profile (their sorted
    (group, key, class size)) and the masks of those whose counts differ
    (unequal) and of those with |x| < |~x| (lesser); and the phase record,
    phase_known marking the variables whose phase is determined and
    phase_neg those of them whose phase is negative.

    Two vectors are compatible, a necessary condition for a mapping under
    the current cubes, when their profiles are equal: per group, the
    multisets of (canonical first-order pair, class size) over unidentified
    variables agree, and the canonical pair admits the opposite-phase
    mapping. Identified variables are skipped: every committed mapping
    pairs variables of equal group, and an identified variable keeps its
    group, so their per-group counts always agree."""

    __slots__ = ("pairs", "group", "sorted_keys", "profile", "phase_known", "phase_neg",
                 "unequal", "lesser")
    pos = property(lambda v: tuple(p for p, _ in v.pairs))
    neg = property(lambda v: tuple(q for _, q in v.pairs))

    def __init__(self, pairs, group, sorted_keys, profile, phase_known, phase_neg, unequal, lesser):
        self.pairs, self.group, self.sorted_keys, self.profile = pairs, group, sorted_keys, profile
        self.phase_known, self.phase_neg = phase_known, phase_neg
        self.unequal, self.lesser = unequal, lesser


def update(state, siblings: dict) -> bool:
    """Build the SS vector of each side's restricted table (a bare int over
    the side's table.n inputs, see the matcher's Side), its phase record
    included, and report cross-function compatibility. This is the only
    place a vector is built, in one pass over the unidentified variables.
    The record extends the previous vector's: a variable's phase is fixed,
    negative when |x| < |~x|, where its two counts first differ. A group
    splits by its unidentified members' keys: the largest keeps the serial,
    the rest take fresh serials in ascending old serial, then descending
    key. When update reports the sides compatible, each group's
    unidentified variables share one canonical key on each side, the same
    on both, and either all of them, on both sides, have a phase record or
    none has: a record is made for all of a group at once, and groups
    never merge. The matcher's build_mapping_sets relies on both.

    ``state`` carries two sides f and g (see the matcher's Side). At the
    root, where a side has no vector, the first vector is built from the
    side's root first-order pairs; a target with none is an arm that
    matcher.match_npn has refuted, reported incompatible at once.

    g's sorted canonical keys are compared with f's before g's vector is
    built; when they differ, g is left with no vector (v None), and the
    node is reported incompatible. The profile check would prune it too:
    equal profiles give equal sorted keys.

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
        prev, identified, n = side.v, side.identified, side.table.n
        if prev is None:
            pairs, old, known, sign = side.root_pairs, [0] * n, 0, 0
        else:
            # the side's cube lets a wide table be counted as its cofactor
            cube = side.cube_vars, side.cube_vals
            pairs = first_order_pairs(side.restricted, n, identified, cube=cube)
            old, known, sign = prev.group, prev.phase_known, prev.phase_neg
        live = set_bits((1 << n) - 1 & ~identified)
        keys, unequal, lesser = [], 0, 0
        for i in live:
            p, q = pairs[i]
            if p != q:
                unequal |= 1 << i
                if p < q:
                    p, q = q, p
                    lesser |= 1 << i
            keys.append(p << MAX_VARS | q)  # as symmetry.canonical_keys packs it
        sorted_keys = sorted(keys)
        if index and sorted_keys != state.f.v.sorted_keys:
            side.v = siblings[slot] = None
            break
        group, groups = old, [old[i] for i in live]
        if len(set(zip(groups, keys))) > len(set(groups)):
            # a group splits: old serials ascending, each one's keys descending
            serial, last, fresh = {}, None, max(old) + 1
            for g, k in sorted({(g, -k) for g, k in zip(groups, keys)}):
                if g == last:
                    serial[g, k], fresh = fresh, fresh + 1
                else:
                    serial[g, k] = last = g
            group = old[:]
            for t, i in enumerate(live):
                group[i] = groups[t] = serial[groups[t], -keys[t]]
        profile = sorted(zip(groups, keys, [side.size[i] for i in live]))
        side.v = siblings[slot] = SSVector(
            pairs, group, sorted_keys, profile, known | unequal, sign | lesser & ~known, unequal,
            lesser,
        )
    return state.g.v is not None and state.f.v.profile == state.g.v.profile
