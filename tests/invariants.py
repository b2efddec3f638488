"""The search's per-node invariants, asserted by one observer.

InvariantObserver checks at every node of every search it observes what
the search relies on: each group's free variables carry one canonical key,
symmetry classes stay whole, each class member reads its first member's
phase record (up to its relative polarity), a group's free variables all
have a phase record or none has, f and g identify as many
variables per group, every candidate starts from its branch node's state,
each vector counts its side's table under its cube, and the mapping sets
and phase collisions are those of the per-pair rule. Refuted nodes are
recounted minterm by minterm (check_key_refuted). It counts the nodes each
check reaches, so a walk can assert that no check is vacuous.
"""

from collections import Counter

from npnmatch.boolfn import low_mask, var_mask
from npnmatch.matcher import Observer, VarMapping, build_mapping_sets, candidates
from npnmatch.symmetry import canonical_keys, first_order_pairs

# the minterm-by-minterm recount of check_key_refuted runs up to this size
RECOUNT_MAX_N = 10


def canonical_pairs(side):
    """Per variable, the canonical first-order pair (max, min) of the side's
    table under its cube, counted minterm by minterm over the cube's
    minterms: the cube's values with each submask s of the free inputs."""
    n, bits = side.table.n, side.table.bits
    free = ((1 << n) - 1) & ~side.cube_vars
    pos, total, s = [0] * n, 0, free
    while True:
        m = side.cube_vals | s
        if bits >> m & 1:
            total += 1
            for i in range(n):
                pos[i] += m >> i & 1
        if not s:
            break
        s = (s - 1) & free
    return [(max(p, total - p), min(p, total - p)) for p in pos]


def check_key_refuted(depth, state):
    """None at a node where both sides have vectors. Otherwise assert that
    the node was pruned on first-order keys, recounted minterm by minterm:

    - "top" or "keys": the root of a refuted arm. Neither side has classes
      or a vector, the target has no root pairs, and the sorted canonical
      pairs of f and the target differ; "top" when the target's pair of its
      top input x_{n-1} is already missing from f's, "keys" when only the
      full pairs differ.
    - "below": a node below the root where f has a vector and g none, and
      the sorted canonical pairs of the unidentified variables of f and g,
      each under its cube, differ. Every such prune is sound."""
    if state.f.v is not None and state.g.v is not None:
        return None
    pairs_f, pairs_g = canonical_pairs(state.f), canonical_pairs(state.g)
    if depth:
        assert state.f.v is not None, (depth, state.map_list)
        live_f, live_g = (
            sorted(p for i, p in enumerate(pairs) if not side.identified >> i & 1)
            for side, pairs in ((state.f, pairs_f), (state.g, pairs_g))
        )
        assert live_f != live_g, (depth, state.map_list)
        return "below"
    assert state.f.v is None and not state.map_list and state.g.root_pairs is None
    assert not state.f.classes and not state.g.classes
    assert sorted(pairs_f) != sorted(pairs_g), pairs_f
    return "keys" if pairs_g[-1] in pairs_f else "top"


def _reference_mapping_sets(state):
    """(sets, collisions) by the per-pair rule that build_mapping_sets
    replaced: every same-group pair is tested against both first-order
    cases and then the phase records, plain variables and class members
    alike."""
    f, g = state.f, state.g
    collisions = []

    def pair_pols(i, j):
        if f.v.group[i] != g.v.group[j]:
            return ()
        p, q, a, b = f.v.pos[i], f.v.neg[i], g.v.pos[j], g.v.neg[j]
        pols = (0,) if p == a and q == b else ()
        if p == b and q == a:
            pols += (1,)
        if not pols or not f.v.phase_known >> i & g.v.phase_known >> j & 1:
            return pols
        need = (f.v.phase_neg >> i ^ g.v.phase_neg >> j) & 1
        if need in pols:
            return (need,)
        collisions.extend(VarMapping(i, j, k) for k in pols)
        return ()

    n, sets = f.table.n, []
    free_f = [i for i in range(n) if not f.identified >> i & 1 and f.size[i] < 0]
    free_g = [j for j in range(n) if not g.identified >> j & 1 and g.size[j] < 0]
    for i in free_f:
        sets.append((i, [((i, j, k),) for j in free_g for k in pair_pols(i, j)]))
    for cls_f in f.classes.values():
        if f.identified >> cls_f.first & 1:
            continue
        cands = []
        for cls_g in g.classes.values():
            if g.identified >> cls_g.first & 1 or cls_g.size != cls_f.size:
                continue
            member_pols = []
            for a, b in zip(cls_f.members, cls_g.members):
                pols = pair_pols(a, b)
                if not pols:
                    break
                member_pols.append(pols)
            if len(member_pols) < cls_f.size:
                continue
            if cls_f.double and cls_g.double:
                base = [p[0] for p in member_pols]
                patterns = [base]
                free = next((t for t, p in enumerate(member_pols) if len(p) == 2), None)
                if free is not None:
                    patterns.append([k ^ (t == free) for t, k in enumerate(base)])
            else:
                rel = [a ^ b for a, b in zip(cls_f.relative_pol, cls_g.relative_pol)]
                base_pols = {0, 1}
                for r, pols in zip(rel, member_pols):
                    base_pols &= {p ^ r for p in pols}
                patterns = [[base ^ r for r in rel] for base in sorted(base_pols)]
            cands += [tuple(zip(cls_f.members, cls_g.members, ks)) for ks in patterns]
        sets.append((cls_f.first, cands))
    return sorted(sets), collisions


class _Collisions(Observer):
    def __init__(self):
        self.seen = []

    def on_collision(self, mapping):
        self.seen.append(mapping)


def _keys(table):
    return sorted(canonical_keys(first_order_pairs(table.bits, table.n)))


def _fingerprint(state):
    f, g = state.f, state.g
    return (
        list(state.map_list), state.splits, f.restricted, g.restricted, f.dump(), g.dump(),
        f.identified, g.identified, f.v.phase_known, f.v.phase_neg, g.v.phase_known,
        g.v.phase_neg,
    )


class InvariantObserver(Observer):
    """Asserts every invariant at every node it sees; `counts` holds how
    many nodes (or groups, classes, branches) each check reached:

    - nodes: nodes with compatible vectors. At each: the one-key invariant
      (keyed_groups); per group, all free variables of f and g share one
      phase_known bit (recorded_groups and unrecorded_groups count the
      groups with the bit set and clear); and build_mapping_sets, each
      subject expanded by candidates, and its collisions against
      _reference_mapping_sets (class_sets; collisions counts the search's
      own on_collision calls, each the next one the rule expects);
    - branches (deep_branches: with a non-empty map list): each candidate
      starts from the state its branch node had at its vectors;
    - whole_classes and free_class_checks, at every node: a class is wholly
      identified or wholly free, and a free class's members share one group
      and one key where their side has a vector;
    - phased_classes and double_classes, at nodes with compatible vectors:
      a free class's members share its first member's phase_known bit and,
      where it is set, their phase_neg is the first member's XOR their
      relative_pol (phased_classes counts the classes with the bit set); a
      free double class's members read pos == neg and have no phase record;
    - identified_nodes: nodes where both sides have vectors and some
      variable is identified; per group, f and g identify as many;
    - recounted: nodes where f has a vector; each side's restricted table
      is its table under its cube, and its vector counts that table;
    - top, keys, below: refuted nodes at n <= RECOUNT_MAX_N, recounted by
      check_key_refuted. At any n, a root whose target's keys differ from
      f's prunes before either side has a vector;
    - arms: the output arms searched.
    """

    def __init__(self):
        self.counts = Counter()
        self.pending = []  # collisions the per-pair rule expects next
        self.state = None
        self.recorded = {}  # depth -> fingerprint at that node's vectors
        # id(chosen) -> (chosen, fingerprint); holding chosen keeps its id
        # from being reused
        self.expected = {}

    def on_arm(self, output_negated):
        assert not self.pending
        self.expected.clear()
        self.counts["arms"] += 1

    def on_vectors(self, depth, state):
        assert state.splits == depth
        assert not self.pending, (depth, state.map_list)
        self.counts["nodes"] += 1
        self._whole_classes(depth, state)
        self._class_phases(depth, state)
        self._identified_counts(depth, state)
        self._recount(depth, state)
        self._one_key(depth, state)
        self._group_records(depth, state)
        self._mapping_sets(depth, state)
        self.state = state
        self.recorded[depth] = _fingerprint(state)

    def on_incompatible(self, depth, state):
        assert not self.pending, (depth, state.map_list)
        self._whole_classes(depth, state)
        f, g = state.f, state.g
        if depth == 0 and _keys(f.table) != _keys(g.table):
            assert f.v is None and g.v is None, state.map_list
        if (f.v is None or g.v is None) and f.table.n <= RECOUNT_MAX_N:
            self.counts[check_key_refuted(depth, state)] += 1
        if f.v is not None and g.v is not None:
            self._identified_counts(depth, state)
        if f.v is not None:
            self._recount(depth, state)

    def on_collision(self, mapping):
        assert self.pending and self.pending.pop(0) == mapping, mapping
        self.counts["collisions"] += 1

    def on_branch(self, chosen, candidate):
        if id(chosen) not in self.expected:
            # a node's first branch follows its own vectors directly
            self.expected[id(chosen)] = chosen, self.recorded[self.state.splits]
        assert _fingerprint(self.state) == self.expected[id(chosen)][1], candidate
        self.counts["branches"] += 1
        self.counts["deep_branches"] += bool(self.state.map_list)

    def on_complete(self, map_list, verified):
        assert not self.pending, map_list

    def _whole_classes(self, depth, state):
        for side in (state.f, state.g):
            for cls in side.classes.values():
                hits = sum(side.identified >> m & 1 for m in cls.members)
                assert hits in (0, cls.size), (depth, cls, state.map_list)
                self.counts["whole_classes"] += hits == cls.size
                if not hits and side.v is not None:
                    key = canonical_keys(zip(side.v.pos, side.v.neg))
                    marks = {(side.v.group[m], key[m]) for m in cls.members}
                    assert len(marks) == 1, (depth, cls, state.map_list)
                    self.counts["free_class_checks"] += 1

    def _class_phases(self, depth, state):
        # build_mapping_sets decides a class pair by its first members
        for side in (state.f, state.g):
            v = side.v
            known, neg = v.phase_known, v.phase_neg
            for cls in side.classes.values():
                a = cls.first
                if side.identified >> a & 1:
                    continue
                for m, r in zip(cls.members, cls.relative_pol):
                    assert known >> m & 1 == known >> a & 1, (depth, cls, state.map_list)
                    if known >> a & 1:
                        assert neg >> m & 1 == (neg >> a ^ r) & 1, (depth, cls, state.map_list)
                    if cls.double:
                        assert v.pos[m] == v.neg[m], (depth, cls, state.map_list)
                        assert not known >> m & 1, (depth, cls, state.map_list)
                self.counts["phased_classes"] += known >> a & 1
                self.counts["double_classes"] += cls.double

    def _identified_counts(self, depth, state):
        # the profile skips identified variables because their
        # per-group counts cannot differ between f and g
        cf, cg = (
            Counter(side.v.group[i] for i in range(side.table.n) if side.identified >> i & 1)
            for side in (state.f, state.g)
        )
        assert cf == cg, (depth, state.map_list)
        self.counts["identified_nodes"] += bool(cf)

    def _recount(self, depth, state):
        # update may hand a node a sibling's vector, or a sibling's refuted
        # marker for g; either must count this node's own tables
        for side in (state.f, state.g):
            n, bits = side.table.n, side.table.bits
            for i in range(n):
                if side.cube_vars >> i & 1:
                    bits &= var_mask(n, i) if side.cube_vals >> i & 1 else low_mask(n, i)
            assert side.restricted == bits, (depth, state.map_list)
            if side.v is None:
                continue
            for i in range(n):
                if not side.identified >> i & 1:
                    pq = (bits & var_mask(n, i)).bit_count(), (bits & low_mask(n, i)).bit_count()
                    assert (side.v.pos[i], side.v.neg[i]) == pq, (depth, state.map_list, i)
        self.counts["recounted"] += 1

    def _one_key(self, depth, state):
        keys = []
        for side in (state.f, state.g):
            per_group, key = {}, canonical_keys(zip(side.v.pos, side.v.neg))
            for i in range(side.table.n):
                if not side.identified >> i & 1:
                    per_group.setdefault(side.v.group[i], set()).add(key[i])
            assert all(len(k) == 1 for k in per_group.values()), (depth, state.map_list)
            keys.append(per_group)
        assert keys[0] == keys[1], (depth, state.map_list)
        self.counts["keyed_groups"] += len(keys[0])

    def _group_records(self, depth, state):
        # build_mapping_sets reads a subject's phase record for all its peers
        known = {}
        for side in (state.f, state.g):
            for i in range(side.table.n):
                if not side.identified >> i & 1:
                    known.setdefault(side.v.group[i], set()).add(side.v.phase_known >> i & 1)
        assert all(len(k) == 1 for k in known.values()), (depth, state.map_list)
        recorded = sum(k == {1} for k in known.values())
        self.counts["recorded_groups"] += recorded
        self.counts["unrecorded_groups"] += len(known) - recorded

    def _mapping_sets(self, depth, state):
        expected, self.pending = _reference_mapping_sets(state)
        seen = _Collisions()
        sets = build_mapping_sets(state, seen)
        got = [(i, list(candidates(state, i, peers))) for i, peers in sets]
        assert got == expected, (depth, state.map_list)
        assert seen.seen == self.pending, (depth, state.map_list)
        self.counts["class_sets"] += sum(i in state.f.classes for i, _ in sets)
