import copy
import random

import pytest

from npnmatch.boolfn import (
    NPTransformation,
    TruthTable,
    apply_np_transform,
    count_minterms,
    equal,
    negate,
)
from npnmatch.matcher import (
    BudgetExceededError,
    MappingSet,
    MatchState,
    Observer,
    Side,
    VarMapping,
    Verdict,
    build_mapping_sets,
    commit_mapping,
    detect,
    enumerate_complete_transformations,
    extend_cubes,
    match_npn,
    select_min_set,
    transformation_from_map_list,
    verify,
)
from npnmatch.oracle import exhaustive_match
from npnmatch.signature import update
from npnmatch.symmetry import build_symmetry_classes, first_order_pairs

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
    _block,
    _family_pairs,
    _other_reweighted,
    _parity,
    _symmetric,
    _transform,
    _type1,
    _type2,
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
    return MatchState(Side(f, sym_f, first_order_pairs(f)), Side(g, sym_g, first_order_pairs(g)))


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

    def test_trio_min_set(self):
        state = fresh_state(TRIO_A, TRIO_B, ignore_symmetry=True)
        update(state, {})
        chosen = select_min_set(build_mapping_sets(state))
        assert chosen.subject == 1
        assert chosen.cardinality == 1

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

    def test_select_min_prefers_lowest_subject(self):
        sets = [
            MappingSet(2, ((VarMapping(2, 0, 0),), (VarMapping(2, 1, 0),))),
            MappingSet(1, ((VarMapping(1, 0, 0),), (VarMapping(1, 1, 0),))),
        ]
        assert select_min_set(sets).subject == 1


class TestWholeClasses:
    """build_mapping_sets tests only the first member of a symmetry class:
    class members enter no plain mapping set and every class candidate maps
    all of them, so at every node a class is wholly identified or wholly
    free."""

    class WholeClasses(Observer):
        nodes = whole_nodes = 0

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
        assert all(s.cardinality == 2 for s in sets)
        assert candidates_of(sets, 0) == [
            ((0, 0, 1), (4, 2, 1)),
            ((0, 3, 0), (4, 4, 0)),
        ]
        assert candidates_of(sets, 5) == [((5, 1, 1),), ((5, 6, 0),)]
        assert candidates_of(sets, 6) == [((6, 1, 0),), ((6, 6, 1),)]
        assert select_min_set(sets).subject == 0

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


class TestMatchNPN:
    def test_case3_pair(self):
        result = match_npn(CASE3_F, CASE3_G)
        assert result.equivalent
        assert not result.witness.output_negated
        assert equal(apply_np_transform(CASE3_F, result.witness), CASE3_G)

    def test_trio_non_equivalent(self):
        assert match_npn(TRIO_A, TRIO_C).verdict is Verdict.NON_EQUIVALENT

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


class TestBacktrackingIntegrity:
    def test_state_restored_after_detect(self):
        for f, g in [(CASE5_F, CASE5_G), (CASE7_F, CASE7_G), (TRIO_A, TRIO_C)]:
            state = fresh_state(f, g)
            before = copy.deepcopy(state.snapshot())
            list(detect(state))
            assert state.snapshot() == before

    def test_state_restored_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(2, 5)
            f = random_table(rng, n)
            g = random_table(rng, n)
            state = fresh_state(f, g)
            before = copy.deepcopy(state.snapshot())
            list(detect(state))
            assert state.snapshot() == before

    def test_state_restored_mid_search(self):
        # snapshot keeps only the length of map_list, so a wrong truncation
        # shows only when the list is not empty on entry; the search stops
        # at its first verified branch, as match_npn does
        def observed(state):
            return (
                list(state.map_list),
                state.splits,
                state.f.restricted,
                state.g.restricted,
                state.f.phase_known,
                state.f.phase_neg,
                state.g.phase_known,
                state.g.phase_neg,
                state.f.identified,
                state.g.identified,
                tuple(str(c) for c in state.cubes()),
            )

        state = fresh_state(CASE7_F, CASE7_G)
        assert update(state, {})
        commit_mapping(state, VarMapping(2, 5, 1))
        extend_cubes(state)
        before = observed(state)
        assert before[-1] == ("x2", "~x5")
        search = detect(state)
        assert any(ok for _, ok in search)
        search.close()
        assert observed(state) == before

    def test_null_observer_builds_no_cubes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cube built with no observer asking")

        monkeypatch.setattr(MatchState, "cubes", refuse)
        result = match_npn(CASE7_F, CASE7_G)
        assert result.equivalent
        assert equal(apply_np_transform(CASE7_F, result.witness), CASE7_G)


def test_transformation_from_map_list_conventions():
    ml = [VarMapping(0, 1, 1), VarMapping(1, 0, 0)]
    t = transformation_from_map_list(ml, 2)
    assert t.perm == (1, 0)
    assert t.input_pol == (0, 1)
    assert t == NPTransformation((1, 0), (0, 1), False)
