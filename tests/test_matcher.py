import random
from collections import Counter

import pytest

from npnmatch import matcher
from npnmatch.boolfn import (
    NPTransformation,
    TruthTable,
    apply_np_transform,
    count_minterms,
    equal,
    low_mask,
    negate,
    var_mask,
)
from npnmatch.matcher import (
    BudgetExceededError,
    MatchState,
    Observer,
    Side,
    VarMapping,
    Verdict,
    build_mapping_sets,
    commit_mapping,
    enumerate_complete_transformations,
    extend_cubes,
    match_npn,
    transformation_from_map_list,
    verify,
)
from npnmatch.oracle import exhaustive_match, random_equivalent_pair
from npnmatch.signature import update
from npnmatch.symmetry import (
    _FOLD_ABOVE,
    build_symmetry_classes,
    canonical_keys,
    first_order_pairs,
)

from cases import (
    CASE3_F,
    CASE3_G,
    CASE4_F,
    CASE4_G,
    CASE5_F,
    CASE5_G,
    CASE7_F,
    CASE7_G,
    TRIO_A,
    TRIO_B,
    TRIO_C,
)
from test_boolfn import random_table, random_transform
from test_golden import (
    FAMILIES,
    SEED,
    _block,
    _family_pairs,
    _other_reweighted,
    _parity,
    _rotation,
    _symmetric,
    _transform,
    _type1,
    _type2,
    _with_weight,
    corpus,
    maiorana_mcfarland,
)


class RecordingObserver(Observer):
    """Collects every search event as a plain tuple for golden comparisons."""

    def __init__(self):
        self.events = []

    def on_arm(self, output_negated):
        self.events.append(("arm", output_negated))

    def on_vectors(self, depth, state):
        self.events.append(("vec", depth, state.f.v.dump(), state.g.v.dump()))

    def on_incompatible(self, depth, state):
        self.events.append(("incompatible", depth))

    def on_collision(self, m):
        self.events.append(("collision", str(m)))

    def on_commit(self, m):
        self.events.append(("commit", str(m)))

    def on_cubes(self, state):
        cube_f, cube_g = state.cubes()
        self.events.append(("cubes", str(cube_f), str(cube_g)))

    def on_branch(self, chosen, candidate):
        self.events.append(("branch", chosen.subject, tuple(str(m) for m in candidate)))

    def on_complete(self, map_list, verified):
        self.events.append(("complete", tuple(str(m) for m in map_list), verified))

    def of_kind(self, kind):
        return [e for e in self.events if e[0] == kind]


def fresh_state(f, g, ignore_symmetry=False):
    sym_f = [] if ignore_symmetry else build_symmetry_classes(f)
    sym_g = [] if ignore_symmetry else build_symmetry_classes(g)
    return MatchState(
        Side(f, sym_f, first_order_pairs(f.bits, f.n)), Side(g, sym_g, first_order_pairs(g.bits, g.n))
    )


def candidates_of(sets, subject):
    (s,) = [s for s in sets if s.subject == subject]
    return [tuple(map(tuple, cand)) for cand in s.candidates]


class TestBuildMappingSets:
    def test_trio_sets_without_symmetry(self):
        # symmetry ignored: every variable contributes a plain variable set
        state = fresh_state(TRIO_A, TRIO_B, ignore_symmetry=True)
        assert update(state, {})
        sets = build_mapping_sets(state)
        assert candidates_of(sets, 0) == [
            ((0, 1, 0),),
            ((0, 1, 1),),
            ((0, 2, 0),),
            ((0, 2, 1),),
        ]
        assert candidates_of(sets, 1) == [((1, 0, 1),)]
        assert len(candidates_of(sets, 2)) == 4

    def test_case4_initial_sets(self):
        state = fresh_state(CASE4_F, CASE4_G)
        assert update(state, {})
        sets = build_mapping_sets(state)
        assert candidates_of(sets, 3) == [((3, 0, 1),)]
        # undetermined phases: the class maps with both uniform polarities
        assert candidates_of(sets, 0) == [
            ((0, 1, 0), (1, 3, 0)),
            ((0, 1, 1), (1, 3, 1)),
        ]
        assert candidates_of(sets, 2) == [((2, 2, 0),), ((2, 2, 1),)]

    def test_identity_candidates_present(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_table(rng, rng.randint(1, 5))
            state = fresh_state(f, f)
            if not update(state, {}):
                continue
            for s in build_mapping_sets(state):
                assert any(
                    all(frm == to and pol == 0 for frm, to, pol in cand)
                    for cand in s.candidates
                )


class TestWholeClasses:
    """build_mapping_sets tests only the first member of a symmetry class:
    class members enter no plain mapping set and every class candidate maps
    all of them, so at every node a class is wholly identified or wholly
    free. A cube over other variables keeps the restricted table symmetric
    in a free class, so wherever a side has a vector the members of each of
    its free classes share one group and one key, and the group test of a
    class pair reads the first members only."""

    class WholeClasses(Observer):
        nodes = whole_nodes = free_checks = 0

        def on_vectors(self, depth, state):
            self.nodes += 1
            for classes, identified in (
                (state.f.sym, state.f.identified),
                (state.g.sym, state.g.identified),
            ):
                for cls in classes:
                    hits = sum(identified >> m & 1 for m in cls.members)
                    assert hits in (0, cls.size), (depth, cls, state.map_list)
                    self.whole_nodes += hits == cls.size
            for side in (state.f, state.g):
                for cls in side.sym if side.v is not None else ():
                    if not side.identified >> cls.first & 1:
                        marks = {(side.v.group[m], side.v.key[m]) for m in cls.members}
                        assert len(marks) == 1, (depth, cls, state.map_list)
                        self.free_checks += 1

        on_incompatible = on_vectors

    def test_maiorana_mcfarland_is_bent(self):
        # every Walsh coefficient has magnitude 2^(n/2)
        rng = random.Random(61)
        for n, inner in [(n, i) for n in (2, 4, 6, 8) for i in (True, False)]:
            f = maiorana_mcfarland(rng, n, inner)
            w = [1 - 2 * (f.bits >> m & 1) for m in range(1 << n)]
            step = 1
            while step < len(w):
                for a in range(0, len(w), 2 * step):
                    for b in range(a, a + step):
                        w[b], w[b + step] = w[b] + w[b + step], w[b] - w[b + step]
                step *= 2
            assert {abs(c) for c in w} == {1 << (n // 2)}, n

    def test_symmetric_block_and_parity_families(self):
        families = (
            ("symmetric", _symmetric, range(1, 9), 16, 16, _other_reweighted),
            ("block", _block, range(4, 9), 16, 16, _other_reweighted),
            ("parity", _parity, range(1, 9), 16, 16, _other_reweighted),
        )
        observer = self.WholeClasses()
        for _, f, g in _family_pairs(random.Random(53), families):
            match_npn(f, g, observer=observer)
        assert observer.whole_nodes > 100, observer.nodes
        assert observer.free_checks > 100, observer.nodes

    def test_bent_pairs_under_hidden_transform(self):
        rng = random.Random(59)
        observer = self.WholeClasses()
        for n in (6, 8, 10):
            for k in range(5):
                f = maiorana_mcfarland(rng, n, inner=k == 0)
                g = apply_np_transform(f, _transform(rng, n))
                result = match_npn(f, g, observer=observer)
                assert result.equivalent, n
                assert equal(apply_np_transform(f, result.witness), g)
        assert observer.whole_nodes > 0, observer.nodes
        assert observer.free_checks > 0, observer.nodes


def _vacuous(rng, n):
    """A random table that ignores one to three of its n inputs."""
    bits = rng.getrandbits(1 << n)
    for v in rng.sample(range(n), rng.randint(1, 3)):
        low = bits & low_mask(n, v)
        bits = low | low << (1 << v)
    return bits


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
        if not pols or not f.phase_known >> i & g.phase_known >> j & 1:
            return pols
        need = (f.phase_neg >> i ^ g.phase_neg >> j) & 1
        if need in pols:
            return (need,)
        collisions.extend(VarMapping(i, j, k) for k in pols)
        return ()

    n, sets = f.table.n, []
    free_f = [i for i in range(n) if not (f.identified | f.marks.members) >> i & 1]
    free_g = [j for j in range(n) if not (g.identified | g.marks.members) >> j & 1]
    for i in free_f:
        sets.append((i, [((i, j, k),) for j in free_g for k in pair_pols(i, j)]))
    for cls_f in f.sym:
        if f.identified >> cls_f.first & 1:
            continue
        cands = []
        for cls_g in g.sym:
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


class TestOneKeyPerGroup:
    """After a compatible update, the free variables of each group carry one
    canonical key on each side, the same on both; build_mapping_sets builds
    the plain candidates from that alone and must give what the per-pair
    rule gives, collisions included."""

    @staticmethod
    def searches():
        """The golden corpus, then bent, rotation, block and vacuous members
        at n = 6..12 against copies under hidden NP transforms."""
        pairs = [(f, g) for _, f, g in corpus()]
        rng = random.Random(73)
        families = (
            lambda n: maiorana_mcfarland(rng, n).bits,
            lambda n: _rotation(rng, n),
            lambda n: _block(rng, n),
            lambda n: _vacuous(rng, n),
        )
        for n in range(6, 13):
            for make in families:
                if make is families[0] and n % 2:
                    continue
                for _ in range(8):
                    f = TruthTable(n, make(n))
                    pairs.append((f, apply_np_transform(f, _transform(rng, n))))
        return pairs

    class OneKey(Observer):
        nodes = keyed_groups = 0

        def on_vectors(self, depth, state):
            self.nodes += 1
            keys = []
            for side in (state.f, state.g):
                per_group = {}
                for i in range(side.table.n):
                    if not side.identified >> i & 1:
                        per_group.setdefault(side.v.group[i], set()).add(side.v.key[i])
                assert all(len(k) == 1 for k in per_group.values()), (depth, state.map_list)
                keys.append(per_group)
            assert keys[0] == keys[1], (depth, state.map_list)
            self.keyed_groups += len(keys[0])

    def test_one_canonical_key_per_group(self):
        observer = self.OneKey()
        for f, g in self.searches():
            match_npn(f, g, observer=observer)
        assert observer.nodes > 1000 and observer.keyed_groups > 3000, observer.nodes

    class Reference(Observer):
        """Compares build_mapping_sets with the per-pair rule at every node,
        and the search's own on_collision calls with the rule's collisions."""

        def __init__(self):
            self.pending = []
            self.nodes = self.collisions = self.class_sets = 0

        def on_vectors(self, depth, state):
            assert not self.pending, (depth, state.map_list)
            expected, self.pending = _reference_mapping_sets(state)
            seen = RecordingObserver()
            sets = build_mapping_sets(state, seen)
            got = [(s.subject, list(s.candidates)) for s in sets]
            assert got == expected, (depth, state.map_list)
            assert seen.of_kind("collision") == [("collision", str(m)) for m in self.pending]
            self.nodes += 1
            self.class_sets += sum(s.subject in {c.first for c in state.f.sym} for s in sets)

        def on_collision(self, m):
            assert self.pending and self.pending.pop(0) == m
            self.collisions += 1

        def on_incompatible(self, depth, state):
            assert not self.pending

        on_complete = on_incompatible

    def test_sets_and_collisions_match_the_per_pair_rule(self):
        observer = self.Reference()
        for f, g in self.searches():
            match_npn(f, g, observer=observer)
            assert not observer.pending
        assert observer.nodes > 1000, observer.nodes
        assert observer.collisions > 300 and observer.class_sets > 400, (
            observer.collisions, observer.class_sets
        )


class TestCase4Walkthrough:
    def test_full_trace(self):
        obs = RecordingObserver()
        result = match_npn(CASE4_F, CASE4_G, observer=obs)
        assert result.equivalent
        assert obs.of_kind("vec")[0] == (
            "vec",
            0,
            "{(4, 4, 2, 0, 1),(4, 4, 2, 0, 1),(4, 4, -1, -1, 1),(5, 3, -1, -1, 0)}",
            "{(3, 5, -1, -1, 0),(4, 4, 2, 1, 1),(4, 4, -1, -1, 1),(4, 4, 2, 1, 1)}",
        )
        assert obs.of_kind("vec")[1] == (
            "vec",
            1,
            "{(3, 2, 2, 0, 1),(2, 3, 2, 0, 1),(2, 3, -1, -1, 1),(0, 0, -1, -1, 0)}",
            "{(0, 0, -1, -1, 0),(3, 2, 2, 1, 1),(3, 2, -1, -1, 1),(2, 3, 2, 1, 1)}",
        )
        commits = [e[1] for e in obs.of_kind("commit")]
        assert commits[:4] == ["3->0-1", "0->1-0", "1->3-0", "2->2-1"]
        assert obs.of_kind("cubes")[0] == ("cubes", "x3", "~x0")

    def test_witness_text(self):
        result = match_npn(CASE4_F, CASE4_G)
        assert result.witness_text() == (
            "T = {3->0-1, 0->1-0, 1->3-0, 2->2-1}; output=pos"
        )


class TestCase5Walkthrough:
    """The five-variable pair: singleton cascades, then a phase collision."""

    def trace(self):
        obs = RecordingObserver()
        result = match_npn(CASE5_F, CASE5_G, observer=obs)
        return result, obs

    def test_recursion_vectors_and_cubes(self):
        _, obs = self.trace()
        vecs = obs.of_kind("vec")
        assert vecs[1] == (
            "vec",
            1,
            "{(0, 0, -1, -1, 0),(5, 6, -1, -1, 3),(0, 0, -1, -1, 1),"
            "(6, 5, -1, -1, 2),(6, 5, -1, -1, 2)}",
            "{(0, 0, -1, -1, 0),(6, 5, -1, -1, 3),(0, 0, -1, -1, 1),"
            "(6, 5, -1, -1, 2),(6, 5, -1, -1, 2)}",
        )
        assert vecs[2][2] == vecs[2][3] == (
            "{(0, 0, -1, -1, 0),(0, 0, -1, -1, 3),(0, 0, -1, -1, 1),"
            "(3, 3, -1, -1, 2),(3, 3, -1, -1, 2)}"
        )
        cubes = obs.of_kind("cubes")
        assert cubes[0] == ("cubes", "x0", "~x0")
        assert cubes[1] == ("cubes", "x0x2", "~x0x2")
        assert cubes[2] == ("cubes", "x0x2~x1", "~x0x2x1")

    def test_collision_prunes_first_branch(self):
        _, obs = self.trace()
        branches = obs.of_kind("branch")
        assert branches[0] == ("branch", 3, ("3->3-0",))
        assert branches[1] == ("branch", 3, ("3->4-0",))
        # the pruned branch's dead end: a lone mapping contradicting records
        assert ("collision", "4->4-1") in obs.events
        idx = obs.events.index(("collision", "4->4-1"))
        assert obs.events.index(branches[1]) > idx

    def test_collision_branch_vectors(self):
        _, obs = self.trace()
        vecs = obs.of_kind("vec")
        assert vecs[3][2].endswith("(1, 2, -1, -1, 2)}")
        assert vecs[3][3].endswith("(2, 1, -1, -1, 2)}")

    def test_final_witness(self):
        result, _ = self.trace()
        assert result.equivalent
        assert result.witness_text() == (
            "T = {0->0-1, 2->2-0, 1->1-1, 3->4-0, 4->3-0}; output=pos"
        )
        assert equal(apply_np_transform(CASE5_F, result.witness), CASE5_G)


class TestCase7Walkthrough:
    def trace(self):
        obs = RecordingObserver()
        result = match_npn(CASE7_F, CASE7_G, observer=obs)
        return result, obs

    def test_recursion_vectors(self):
        _, obs = self.trace()
        vecs = obs.of_kind("vec")
        assert vecs[1] == (
            "vec",
            1,
            "{(19, 12, 2, 0, 1),(19, 12, 2, 1, 1),(0, 0, -1, -1, 0),"
            "(12, 19, 2, 1, 1),(19, 12, 2, 0, 1),(20, 11, -1, -1, 2),"
            "(11, 20, -1, -1, 2)}",
            "{(12, 19, 2, 0, 1),(11, 20, -1, -1, 2),(12, 19, 2, 0, 1),"
            "(19, 12, 2, 3, 1),(19, 12, 2, 3, 1),(0, 0, -1, -1, 0),"
            "(20, 11, -1, -1, 2)}",
        )
        assert vecs[2] == (
            "vec",
            2,
            "{(0, 0, 2, 0, 1),(11, 8, 2, 1, 1),(0, 0, -1, -1, 0),"
            "(8, 11, 2, 1, 1),(0, 0, 2, 0, 1),(10, 9, -1, -1, 3),"
            "(7, 12, -1, -1, 2)}",
            "{(0, 0, 2, 0, 1),(7, 12, -1, -1, 2),(0, 0, 2, 0, 1),"
            "(11, 8, 2, 3, 1),(11, 8, 2, 3, 1),(0, 0, -1, -1, 0),"
            "(10, 9, -1, -1, 3)}",
        )

    def test_recursion2_mapping_sets(self):
        state = fresh_state(CASE7_F, CASE7_G)
        update(state, {})
        commit_mapping(state, VarMapping(2, 5, 1))
        extend_cubes(state)
        update(state, {})
        sets = build_mapping_sets(state)
        assert [s.subject for s in sets] == [0, 1, 5, 6]
        assert all(len(s.candidates) == 2 for s in sets)
        assert candidates_of(sets, 0) == [
            ((0, 0, 1), (4, 2, 1)),
            ((0, 3, 0), (4, 4, 0)),
        ]
        assert candidates_of(sets, 5) == [((5, 1, 1),), ((5, 6, 0),)]
        assert candidates_of(sets, 6) == [((6, 1, 0),), ((6, 6, 1),)]

    def test_ties_branch_on_the_lowest_subject(self, monkeypatch):
        # after the first split, subjects 0, 1, 5 and 6 each have two
        # candidates, and the search branches on the lowest of them
        sizes = []

        def recorded(state, observer):
            sets = build_mapping_sets(state, observer)
            sizes.append((state.splits, {s.subject: len(s.candidates) for s in sets}))
            return sets

        monkeypatch.setattr(matcher, "build_mapping_sets", recorded)
        _, obs = self.trace()
        assert sizes[1] == (1, {0: 2, 1: 2, 5: 2, 6: 2})
        first = obs.events.index(obs.of_kind("branch")[0])
        assert obs.events[first - 1][:2] == ("vec", 1)
        assert obs.events[first][1] == 0

    def test_cube_sequence(self):
        _, obs = self.trace()
        assert obs.of_kind("cubes") == [
            ("cubes", "x2", "~x5"),
            ("cubes", "x2x0", "~x5~x0"),
            ("cubes", "x2x0x4", "~x5~x0~x2"),
        ]

    def test_commit_sequence_and_witness(self):
        result, obs = self.trace()
        assert [e[1] for e in obs.of_kind("commit")] == [
            "2->5-1",
            "0->0-1",
            "4->2-1",
            "1->3-0",
            "3->4-1",
            "5->6-0",
            "6->1-0",
        ]
        assert result.witness_text() == (
            "T = {2->5-1, 0->0-1, 4->2-1, 1->3-0, 3->4-1, 5->6-0, 6->1-0}; output=pos"
        )
        assert equal(apply_np_transform(CASE7_F, result.witness), CASE7_G)

    def test_exactly_two_complete_transformations(self):
        complete = enumerate_complete_transformations(CASE7_F, CASE7_G)
        assert len(complete) == 2
        assert all(ok for _, _, ok in complete)
        texts = [", ".join(str(m) for m in ml) for ml, _, _ in complete]
        assert texts[0] == "2->5-1, 0->0-1, 4->2-1, 1->3-0, 3->4-1, 5->6-0, 6->1-0"


def test_first_verified_enumerated_branch_is_the_witness():
    # the enumeration drains the search that match_npn stops at its first
    # verified branch, arm by arm
    families = (
        ("type1", _type1, range(1, 7), 6, 6, _other_reweighted),
        ("type2", _type2, range(2, 7), 6, 6, _other_reweighted),
    )
    verdicts, arms = set(), set()
    for name, f, g in _family_pairs(random.Random(71), families):
        result = match_npn(f, g)
        complete = enumerate_complete_transformations(f, g)
        first = next(((ml, neg) for ml, neg, ok in complete if ok), None)
        if result.equivalent:
            assert first == (result.witness_mappings, result.witness.output_negated), name
            arms.add(first[1])
        else:
            assert first is None, name
        verdicts.add(result.equivalent)
    assert verdicts == arms == {False, True}


class TestVerify:
    def test_case7_map_list(self):
        ml = [
            VarMapping(2, 5, 1),
            VarMapping(0, 0, 1),
            VarMapping(4, 2, 1),
            VarMapping(1, 3, 0),
            VarMapping(3, 4, 1),
            VarMapping(5, 6, 0),
            VarMapping(6, 1, 0),
        ]
        assert verify(CASE7_F, CASE7_G, ml)

    def test_flipped_polarity_fails(self):
        ml = [
            VarMapping(2, 5, 0),  # flipped
            VarMapping(0, 0, 1),
            VarMapping(4, 2, 1),
            VarMapping(1, 3, 0),
            VarMapping(3, 4, 1),
            VarMapping(5, 6, 0),
            VarMapping(6, 1, 0),
        ]
        assert not verify(CASE7_F, CASE7_G, ml)

    def test_identity_map_list(self):
        rng = random.Random(3)
        f = random_table(rng, 4)
        ml = [VarMapping(i, i, 0) for i in range(4)]
        assert verify(f, f, ml)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            verify(CASE7_F, CASE7_G, [VarMapping(2, 5, 1)])

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 14, 20, 22])
    def test_agrees_with_the_exact_check(self, n):
        # the probes only refute: on right and wrong complete lists, and
        # against g and against g with one minterm flipped, verify returns
        # exactly the full-width comparison
        rng = random.Random(n)
        for _ in range(1 if n >= 20 else 4):
            f = random_table(rng, n)
            t = random_transform(rng, n, allow_output=False)
            g = apply_np_transform(f, t)
            right = [VarMapping(i, t.perm[i], 1 - t.input_pol[i]) for i in range(n)]
            lists = [right]
            if n >= 1:
                flipped = list(right)
                k = rng.randrange(n)
                flipped[k] = flipped[k]._replace(pol=1 - flipped[k].pol)
                lists.append(flipped)
            if n >= 2:
                swapped = list(right)
                a, b = rng.sample(range(n), 2)
                swapped[a], swapped[b] = (
                    swapped[a]._replace(to=swapped[b].to), swapped[b]._replace(to=swapped[a].to))
                lists.append(swapped)
            near = TruthTable(n, g.bits ^ 1 << rng.randrange(1 << n))
            for target in (g, near):
                for ml in lists:
                    exact = apply_np_transform(f, transformation_from_map_list(ml, n)) == target
                    assert verify(f, target, ml) is exact
            assert verify(f, g, right)
            if n:
                with pytest.raises(ValueError):
                    verify(f, g, right[1:])

    def test_rejected_corpus_branches_fail_the_exact_check(self):
        # verify accepts only through the exact comparison, so only its
        # rejections can disagree with it
        rejected = 0
        for _, f, g in corpus():
            for ml, output_negated, ok in enumerate_complete_transformations(f, g):
                if not ok:
                    target = negate(g) if output_negated else g
                    assert apply_np_transform(f, transformation_from_map_list(ml, f.n)) != target
                    rejected += 1
        assert rejected >= 150, rejected  # seen: 196

    def test_probes_spare_the_wrong_arm_its_transform(self, monkeypatch):
        # f is balanced, so both output arms pass the root keys, and the
        # hidden transform negates the output: the positive arm reaches one
        # complete branch, which the probes refute before the full-width
        # transform. Without the probes it costs a second transform
        f, g, t = random_equivalent_pair(16, "type2", 11)
        assert t.output_negated
        transforms = []

        def counted(h, u):
            transforms.append(u)
            return apply_np_transform(h, u)

        monkeypatch.setattr(matcher, "apply_np_transform", counted)
        r = match_npn(f, g)
        assert r.witness == t
        assert (r.stats.nodes_visited, r.stats.verify_calls) == (4, 2)
        # the one transform is the accepted witness's, output not negated
        assert transforms == [NPTransformation(t.perm, t.input_pol)]


class TestMatchNPN:
    def test_case3_pair(self):
        result = match_npn(CASE3_F, CASE3_G)
        assert result.equivalent
        assert not result.witness.output_negated
        assert equal(apply_np_transform(CASE3_F, result.witness), CASE3_G)

    def test_trio_non_equivalent(self):
        result = match_npn(TRIO_A, TRIO_C)
        assert result.verdict is Verdict.NON_EQUIVALENT
        assert result.witness_text() == "no transformation"

    def test_negated_arm(self):
        rng = random.Random(13)
        f = random_table(rng, 5)
        while 2 * count_minterms(f) == 32:
            f = random_table(rng, 5)
        result = match_npn(f, negate(f))
        assert result.equivalent
        assert result.witness.output_negated

    def test_zeroth_order_filter_skips_search(self):
        f = TruthTable.from_minterms(4, [0, 1, 2])
        g = TruthTable.from_minterms(4, [0, 1, 2, 3, 5])
        result = match_npn(f, g)
        assert not result.equivalent
        assert result.stats.nodes_visited == 0

    def test_balanced_tries_both_arms(self):
        f = TruthTable(2, 0b0110)  # xor: balanced
        result = match_npn(f, negate(f))
        assert result.equivalent

    def test_self_match_random(self):
        rng = random.Random(19)
        for n in (1, 2, 3, 5, 8, 10):
            f = random_table(rng, n)
            result = match_npn(f, f)
            assert result.equivalent
            assert equal(apply_np_transform(f, result.witness), f)

    def test_constructed_equivalents(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 6)
            f = random_table(rng, n)
            t = random_transform(rng, n)
            g = apply_np_transform(f, t)
            result = match_npn(f, g)
            assert result.equivalent
            assert equal(apply_np_transform(f, result.witness), g)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            match_npn(TruthTable.constant(2, True), TruthTable.constant(3, True))

    @pytest.mark.parametrize("n", [0, 1])
    def test_every_pair_at_n0_and_n1(self, n):
        # the negated arm derives its root pairs from 2^(n-1), which must
        # not be evaluated at n = 0
        tables = [TruthTable(n, v) for v in range(1 << (1 << n))]
        for f in tables:
            for g in tables:
                result = match_npn(f, g)
                assert result.equivalent == (exhaustive_match(f, g) is not None), (f, g)
                if result.equivalent:
                    assert apply_np_transform(f, result.witness) == g, (f, g)

    def test_doubly_symmetric_class_mixed_polarity(self):
        # x0 and x2 satisfy both swap conditions here, and the only witnesses
        # negate exactly one of them: uniform class polarities cannot match
        f = TruthTable(3, 183)
        g = TruthTable(3, 33)
        result = match_npn(f, g)
        assert result.equivalent
        assert equal(apply_np_transform(f, result.witness), g)

    def test_parity_function_with_odd_negations(self):
        n = 6
        xor = TruthTable.from_minterms(n, [m for m in range(64) if m.bit_count() & 1])
        t = NPTransformation(tuple(range(n)), (0, 1, 1, 1, 1, 1))
        g = apply_np_transform(xor, t)
        result = match_npn(xor, g)
        assert result.equivalent
        assert equal(apply_np_transform(xor, result.witness), g)

    def test_determinism(self):
        first = match_npn(CASE7_F, CASE7_G)
        second = match_npn(CASE7_F, CASE7_G)
        assert first.witness == second.witness
        assert first.stats.nodes_visited == second.stats.nodes_visited
        assert first.stats.verify_calls == second.stats.verify_calls

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            match_npn(CASE7_F, CASE7_G, node_cap=1)
        # a generous cap changes nothing
        assert match_npn(CASE7_F, CASE7_G, node_cap=10_000).equivalent


class TestWholeFunctionTables:
    """A TruthTable holds a whole function; a side's table restricted to a
    cube is a bare int. So a match builds a TruthTable only where it needs
    a whole function: the full-width transform of verify, and negate for
    the negated arm's target."""

    def test_tables_built_only_by_transforms_and_negate(self, monkeypatch):
        # type2-n5-eq1 of the golden corpus is balanced: its positive arm
        # fails and its negated arm splits down to the witness
        (golden,) = [
            (f, g)
            for pair_id, f, g in _family_pairs(random.Random(SEED), FAMILIES)
            if pair_id == "type2-n5-eq1"
        ]
        pairs = [(CASE3_F, CASE3_G), (CASE4_F, CASE4_G), (CASE5_F, CASE5_G), (CASE7_F, CASE7_G)]
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        built = counting("tables", TruthTable.__post_init__)
        monkeypatch.setattr(TruthTable, "__post_init__", built)
        monkeypatch.setattr(Side, "narrow", counting("narrow", Side.narrow))
        for name in ("apply_np_transform", "negate"):
            monkeypatch.setattr(matcher, name, counting(name, getattr(matcher, name)))
        for f, g in pairs + [golden]:
            calls.clear()
            result = match_npn(f, g)
            assert calls["narrow"] > 0, f
            assert calls["tables"] == calls["apply_np_transform"] + calls["negate"], (f, calls)
        assert result.witness.output_negated and calls["negate"] == 1, calls


class TestBacktrackingIntegrity:
    class BranchStarts(Observer):
        """Records each node's state when its vectors are built, under
        state.splits (the node's depth), and asserts at every branch that the
        live state is the one its branching node recorded: each candidate
        starts from the same state, however its siblings ended."""

        def __init__(self):
            self.recorded: dict[int, tuple] = {}
            # id(chosen) -> (chosen, fingerprint); holding chosen keeps its
            # id from being reused
            self.expected: dict[int, tuple] = {}
            self.branches = self.deep_branches = 0

        @staticmethod
        def fingerprint(state):
            f, g = state.f, state.g
            return (
                list(state.map_list),
                state.splits,
                f.restricted,
                g.restricted,
                f.v.dump(),
                g.v.dump(),
                f.identified,
                g.identified,
                f.phase_known,
                f.phase_neg,
                g.phase_known,
                g.phase_neg,
            )

        def on_vectors(self, depth, state):
            assert state.splits == depth
            self.state = state
            self.recorded[depth] = self.fingerprint(state)

        def on_branch(self, chosen, candidate):
            if id(chosen) not in self.expected:
                # a node's first branch follows its own vectors directly
                self.expected[id(chosen)] = chosen, self.recorded[self.state.splits]
            assert self.fingerprint(self.state) == self.expected[id(chosen)][1]
            self.branches += 1
            self.deep_branches += bool(self.state.map_list)

    def test_each_candidate_starts_from_its_branch_state(self):
        # a wrong truncation of map_list shows only at a branch whose map
        # list is not empty, so both counts have a floor
        starts = self.BranchStarts()
        for _, f, g in corpus():
            if f.n <= 8:
                match_npn(f, g, observer=starts)
        assert starts.branches >= 150
        assert starts.deep_branches >= 70

    def test_null_observer_builds_no_cubes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cube built with no observer asking")

        monkeypatch.setattr(MatchState, "cubes", refuse)
        result = match_npn(CASE7_F, CASE7_G)
        assert result.equivalent
        assert equal(apply_np_transform(CASE7_F, result.witness), CASE7_G)


class TestMetamorphicAboveOracle:
    """Above the oracle's n <= 8 limit, relations between calls stand in for
    ground truth: match(f, g), match(g, f), match(f, ~g) and match(T(f), g),
    T a random NP transform, agree on the verdict, and each equivalent
    witness maps its first argument onto its second bit for bit."""

    class BelowRootKeyPrunes(Observer):
        below = 0

        def on_incompatible(self, depth, state):
            self.below += bool(depth) and state.g.v is None

    def test_bent_rotation_block_and_vacuous_at_n10_to_14(self):
        rng = random.Random(79)
        families = (
            (lambda rng, n: maiorana_mcfarland(rng, n).bits, range(10, 15, 2)),
            (_rotation, range(10, 15)),
            (_block, range(10, 15)),
            (_vacuous, range(10, 15)),
        )
        observer, verdicts = self.BelowRootKeyPrunes(), Counter()
        for make, sizes in families:
            for n in sizes:
                for k in range(6):
                    if k < 3:
                        f = TruthTable(n, make(rng, n))
                        g = apply_np_transform(f, _transform(rng, n))
                    else:
                        a, b = _other_reweighted(rng, n, make, k % 2 == 1)
                        f, g = TruthTable(n, a), TruthTable(n, b)
                    tf = apply_np_transform(f, _transform(rng, n))
                    calls = (f, g), (g, f), (f, negate(g)), (tf, g)
                    results = [match_npn(a, b, observer=observer) for a, b in calls]
                    verdict = results[0].verdict
                    assert all(r.verdict is verdict for r in results), (n, k)
                    assert k >= 3 or verdict is Verdict.EQUIVALENT, (n, k)
                    for (a, b), r in zip(calls, results):
                        if r.equivalent:
                            assert equal(apply_np_transform(a, r.witness), b), (n, k)
                    verdicts[verdict] += 1
        assert min(verdicts.values()) >= 40, verdicts
        # the key prune below the root is reached, not just the root checks
        assert observer.below > 300, observer.below


def test_transformation_from_map_list_conventions():
    ml = [VarMapping(0, 1, 1), VarMapping(1, 0, 0)]
    t = transformation_from_map_list(ml, 2)
    assert t.perm == (1, 0)
    assert t.input_pol == (0, 1)
    assert t == NPTransformation((1, 0), (0, 1), False)


class TestKeyRefutedArms:
    """An arm whose sorted canonical first-order pairs differ from f's is
    refuted at its root whatever the symmetry classes, so it builds none; a
    function's classes are built at most once per match. g is counted
    (first_order_pairs) only when some arm's target has the canonical pair
    of its top input x_{n-1} among f's canonical pairs: otherwise every
    arm's keys differ from f's, whatever the rest of g holds."""

    class RefutedRoots(RecordingObserver):
        """Asserts that a root whose target's keys differ from f's, whether
        the top input refutes it or only the full keys do, prunes before it
        builds a vector on either side."""

        def on_incompatible(self, depth, state):
            super().on_incompatible(depth, state)
            keys = TestKeyRefutedArms.keys
            if depth == 0 and keys(state.f.table) != keys(state.g.table):
                assert state.f.v is None and state.g.v is None, self.events

    @staticmethod
    def run(monkeypatch, f, g):
        """(result, arms run, build_symmetry_classes calls, first_order_pairs
        calls) of match_npn."""
        calls = {"build_symmetry_classes": 0, "first_order_pairs": 0}
        for name in calls:
            real = getattr(matcher, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(matcher, name, counted)
        events = TestKeyRefutedArms.RefutedRoots()
        result = match_npn(f, g, observer=events)
        return result, len(events.of_kind("arm")), *calls.values()

    @staticmethod
    def keys(f):
        return sorted(canonical_keys(first_order_pairs(f.bits, f.n)))

    def expected(self, f, g):
        """(arms, builds, folds) of match_npn(f, g): the arms the weights
        allow, f's and g's classes built when some arm's keys agree, and
        f counted, then g too when some arm's target passes the top-input
        check (every arm passes at n = 0)."""
        n, key_f = f.n, self.keys(f)
        targets = [t for t in (g, negate(g)) if count_minterms(t) == count_minterms(f)]

        def top_passes(t):
            p = (t.bits & var_mask(n, n - 1)).bit_count() if n else 0
            return n == 0 or canonical_keys([(p, count_minterms(t) - p)])[0] in key_f

        builds = 2 * any(self.keys(t) == key_f for t in targets)
        folds = 1 + any(map(top_passes, targets)) if targets else 0
        return len(targets), builds, folds

    @pytest.mark.parametrize("kind", ["equal_weight", "complementary_weight", "type2"])
    def test_refuted_pairs_build_no_classes(self, monkeypatch, kind):
        rng = random.Random(61)
        refuted = Counter()
        for n in range(4, 11):
            for _ in range(8):
                while True:
                    bits = _type2(rng, n) if kind == "type2" else _type1(rng, n)
                    weight = bits.bit_count()
                    if kind == "type2" or 2 * weight != 1 << n:
                        break
                f = TruthTable(n, bits)
                g = TruthTable(n, _with_weight(rng, n, rng.getrandbits(1 << n), weight))
                if kind == "complementary_weight":
                    g = negate(g)
                # keep the pairs that no arm's target (g or ~g) agrees with
                if self.keys(f) in (self.keys(g), self.keys(negate(g))):
                    continue
                result, arms, builds, folds = self.run(monkeypatch, f, g)
                assert not result.equivalent
                assert arms == (2 if kind == "type2" else 1)
                assert (arms, builds, folds) == self.expected(f, g)
                assert builds == 0
                assert result.stats.nodes_visited == arms
                # folds: 1 when g's top input refutes every arm, 2 when the
                # full keys are needed
                refuted[folds] += 1
        assert refuted[1] >= 10 and refuted[2] >= 5, refuted

    def test_agreeing_keys_build_each_function_once(self, monkeypatch):
        result, arms, builds, folds = self.run(monkeypatch, CASE7_F, CASE7_G)
        assert result.equivalent and (arms, builds, folds) == (1, 2, 2)
        # a balanced pair whose witness negates the output runs both arms,
        # whose keys agree: the second arm reuses the first arm's classes
        rng = random.Random(67)
        f = TruthTable(8, _type2(rng, 8))
        t = _transform(rng, 8)
        t = NPTransformation(t.perm, t.input_pol, True)
        result, arms, builds, folds = self.run(monkeypatch, f, apply_np_transform(f, t))
        assert result.equivalent and (arms, builds, folds) == (2, 2, 2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_every_pair_at_n0_and_n1(self, monkeypatch, n):
        # n = 0 has no top input and skips the check; at n = 1 the top input
        # is x_0, the only input, whose pair is the whole key
        tables = [TruthTable(n, v) for v in range(1 << (1 << n))]
        for f in tables:
            for g in tables:
                result, arms, builds, folds = self.run(monkeypatch, f, g)
                allowed, *counts = self.expected(f, g)
                assert (builds, folds) == tuple(counts), (f, g)
                # an equivalent first arm ends the match
                assert arms == allowed or result.equivalent and arms == 1, (f, g)

    def test_folded_tables(self, monkeypatch):
        # above _FOLD_ABOVE inputs first_order_pairs folds; the top input is
        # counted apart from it. Per n: a rotated copy of f's table (same
        # weight), its complement, a balanced pair (both arms), a near miss
        # (two minterms of f exchanged within one half of x_{n-1}, so the
        # top input agrees and the full keys do not) and an equivalent pair
        assert _FOLD_ABOVE < 16
        rng = random.Random(71)
        seen = Counter()
        for n in range(16, 21):
            size = 1 << n

            def rotated(t):
                r = rng.randrange(1, size)
                return TruthTable(n, (t.bits << r | t.bits >> (size - r)) & ((1 << size) - 1))

            f = TruthTable(n, rng.getrandbits(size))
            while 2 * count_minterms(f) == size:
                f = TruthTable(n, rng.getrandbits(size))
            balanced = TruthTable(n, _with_weight(rng, n, rng.getrandbits(size), size // 2))
            one = next(m for m in range(size // 2) if f.bits >> m & 1)
            zero = next(m for m in range(size // 2) if not f.bits >> m & 1)
            pairs = [
                (f, rotated(f)),
                (f, negate(rotated(f))),
                (balanced, rotated(balanced)),
                (f, TruthTable(n, f.bits ^ (1 << one) ^ (1 << zero))),
                (f, apply_np_transform(f, _transform(rng, n))),
            ]
            for k, (a, b) in enumerate(pairs):
                result, arms, builds, folds = self.run(monkeypatch, a, b)
                assert (arms, builds, folds) == self.expected(a, b), (n, k)
                assert result.equivalent == (k == 4), (n, k)
                seen[builds, folds] += 1
        assert seen[0, 1] >= 10 and seen[0, 2] >= 5 and seen[2, 2] == 5, seen

