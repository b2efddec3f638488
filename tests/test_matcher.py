import random
import tracemalloc
from collections import Counter
from functools import cache
from unittest.mock import patch

import pytest

from npnmatch import matcher
from npnmatch.boolfn import (
    NPTransformation,
    TruthTable,
    apply_np_transform,
    count_minterms,
    equal,
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
    candidates,
    descend,
    match_npn,
    transformation_from_map_list,
    verify,
)
from npnmatch.oracle import exhaustive_match, random_equivalent_pair, random_function
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
    enumerate_complete_transformations,
)
from invariants import InvariantObserver
from test_boolfn import random_table, random_transform
from test_golden import (
    _block,
    _family_pairs,
    _other_reweighted,
    _parity,
    _rotation,
    _symmetric,
    _transform,
    _type1,
    _type2,
    _vacuous,
    _with_weight,
    corpus,
    maiorana_mcfarland,
    search_corpus,
)


class RecordingObserver(Observer):
    """Collects every search event as a plain tuple for golden comparisons."""

    def __init__(self):
        self.events = []

    def on_arm(self, output_negated):
        self.events.append(("arm", output_negated))

    def on_vectors(self, depth, state):
        self.events.append(("vec", depth, state.f.dump(), state.g.dump()))

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


def candidates_of(state, sets, subject):
    (peers,) = [peers for i, peers in sets if i == subject]
    return [tuple(map(tuple, cand)) for cand in candidates(state, subject, peers)]


class TestBuildMappingSets:
    def test_trio_sets_without_symmetry(self):
        # symmetry ignored: every variable contributes a plain variable set
        state = fresh_state(TRIO_A, TRIO_B, ignore_symmetry=True)
        assert update(state, {})
        sets = build_mapping_sets(state)
        assert candidates_of(state, sets, 0) == [
            ((0, 1, 0),),
            ((0, 1, 1),),
            ((0, 2, 0),),
            ((0, 2, 1),),
        ]
        assert candidates_of(state, sets, 1) == [((1, 0, 1),)]
        assert len(candidates_of(state, sets, 2)) == 4

    def test_case4_initial_sets(self):
        state = fresh_state(CASE4_F, CASE4_G)
        assert update(state, {})
        sets = build_mapping_sets(state)
        assert candidates_of(state, sets, 3) == [((3, 0, 1),)]
        # undetermined phases: the class maps with both uniform polarities
        assert candidates_of(state, sets, 0) == [
            ((0, 1, 0), (1, 3, 0)),
            ((0, 1, 1), (1, 3, 1)),
        ]
        assert candidates_of(state, sets, 2) == [((2, 2, 0),), ((2, 2, 1),)]

    def test_identity_candidates_present(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_table(rng, rng.randint(1, 5))
            state = fresh_state(f, f)
            if not update(state, {}):
                continue
            for i, peers in build_mapping_sets(state):
                assert any(
                    all(frm == to and pol == 0 for frm, to, pol in cand)
                    for cand in candidates(state, i, peers)
                )


class TestWholeClasses:
    """Symmetry classes stay whole at every node (InvariantObserver). The
    invariant walk's bent pairs come from maiorana_mcfarland, so it must
    give bent functions."""

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
        assert_walk_reaches(whole_classes=328, free_class_checks=1690)

    def test_members_read_the_first_members_phase_record(self):
        # the premise on which build_mapping_sets tests a class pair once
        assert_walk_reaches(phased_classes=2108, double_classes=1656)

    def test_bent_pairs_under_hidden_transform(self):
        # the walk matches each bent pair with a verified witness
        bent = invariant_walk()[1]
        assert bent["whole_classes"] > 0 and bent["free_class_checks"] > 0, bent


def _bent(rng, n):
    return maiorana_mcfarland(rng, n).bits


def _bent_identity_pi(rng, n):
    """x . y xor h(y): the bent family whose searches branch most."""
    k = n // 2
    h = [rng.getrandbits(1) for _ in range(1 << k)]
    return sum(((m & (m >> k) & ((1 << k) - 1)).bit_count() & 1 ^ h[m >> k]) << m
               for m in range(1 << n))


@cache
def invariant_walk():
    """InvariantObserver over pairs chosen to reach symmetry classes,
    double classes, collisions, sibling vectors and key prunes below the
    root: the search corpus; seeded symmetric, block and parity pairs at
    n <= 8 (two seeds); small random, bent, rotation and block pairs at
    n <= 10; and bent pairs under a hidden NP transform, each matched with
    a verified witness. Returns the observer's counts, those of the bent
    pairs alone, and the vectors reused."""
    classes = (
        ("symmetric", _symmetric, range(1, 9), 16, 16, _other_reweighted),
        ("block", _block, range(4, 9), 16, 16, _other_reweighted),
        ("parity", _parity, range(1, 9), 16, 16, _other_reweighted),
    )
    # small random tables branch on balanced variables, where the
    # candidates i -> j - 0 and i -> j - 1 narrow g to opposite literals
    siblings = (
        ("type1", _type1, range(1, 7), 16, 16, _other_reweighted),
        ("type2", _type2, range(1, 7), 16, 16, _other_reweighted),
        ("bent", _bent, (6, 8, 10), 4, 4, _other_reweighted),
        ("bent-identity-pi", _bent_identity_pi, (4, 6, 8, 10), 8, 8, _other_reweighted),
        ("rotation", _rotation, range(3, 11), 8, 8, _other_reweighted),
        ("block", _block, range(6, 11), 4, 4, _other_reweighted),
    )
    pairs = (
        list(search_corpus())
        + _family_pairs(random.Random(47), classes)
        + _family_pairs(random.Random(53), classes)
        + _family_pairs(random.Random(53), siblings)
    )
    observer, reused = InvariantObserver(), 0
    for pair_id, f, g in pairs:
        reused += match_npn(f, g, observer=observer).stats.vectors_reused
        assert not observer.pending, pair_id
    before = observer.counts.copy()
    rng = random.Random(59)
    for n in (6, 8, 10):
        for k in range(5):
            f = maiorana_mcfarland(rng, n, inner=k == 0)
            g = apply_np_transform(f, _transform(rng, n))
            result = match_npn(f, g, observer=observer)
            assert result.equivalent, n
            assert equal(apply_np_transform(f, result.witness), g)
    return observer.counts.copy(), observer.counts - before, reused


def assert_walk_reaches(**floors):
    # each floor is what its check reached alone on its own corpus
    counts = invariant_walk()[0]
    assert all(counts[k] >= floor for k, floor in floors.items()), counts


class TestOneKeyPerGroup:
    def test_one_canonical_key_per_group(self):
        assert_walk_reaches(nodes=1250, keyed_groups=3723)

    def test_sets_and_collisions_match_the_per_pair_rule(self):
        assert_walk_reaches(nodes=1250, collisions=483, class_sets=527)

    def test_a_groups_free_variables_share_one_phase_known_bit(self):
        # the premise on which build_mapping_sets reads only the subject's
        # record: groups with and without a record are both reached
        assert_walk_reaches(nodes=4295, recorded_groups=7074, unrecorded_groups=1288)


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
        descend(state, (VarMapping(2, 5, 1),))
        update(state, {})
        sets = build_mapping_sets(state)
        assert [i for i, _ in sets] == [0, 1, 5, 6]
        assert all(len(candidates(state, i, peers)) == 2 for i, peers in sets)
        assert candidates_of(state, sets, 0) == [
            ((0, 0, 1), (4, 2, 1)),
            ((0, 3, 0), (4, 4, 0)),
        ]
        assert candidates_of(state, sets, 5) == [((5, 1, 1),), ((5, 6, 0),)]
        assert candidates_of(state, sets, 6) == [((6, 1, 0),), ((6, 6, 1),)]

    def test_ties_branch_on_the_lowest_subject(self, monkeypatch):
        # after the first split, subjects 0, 1, 5 and 6 each have two
        # candidates, and the search branches on the lowest of them
        sizes = []

        def recorded(state, observer):
            sets = build_mapping_sets(state, observer)
            sizes.append((state.splits, {i: len(candidates(state, i, p)) for i, p in sets}))
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

    def test_verified_corpus_branches_reproduce_their_target(self):
        # the other half: every branch verify accepts is an exact witness
        # for its arm's target, g or its complement
        verified = 0
        for _, f, g in corpus():
            for ml, output_negated, ok in enumerate_complete_transformations(f, g):
                if ok:
                    target = negate(g) if output_negated else g
                    assert apply_np_transform(f, transformation_from_map_list(ml, f.n)) == target
                    verified += 1
        assert verified >= 1300, verified  # seen: 1312

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


class TestDescend:
    """descend commits a candidate and splits both sides on the oldest
    mapping not yet split on. f = ~x0 (x1 | x2) | x0 x1 x2 has x0 at
    negative phase (one minterm under x0, three under ~x0), and g is its
    image under x0 -> x1 - 1, x1 -> x0 - 0, x2 -> x2 - 0, so the split on
    x0 -> x1 - 1 takes ~x0 in f and x1 in g."""

    F = TruthTable.from_minterms(3, [2, 4, 6, 7])
    G = TruthTable.from_minterms(3, [3, 5, 6, 7])
    X0, X1 = VarMapping(0, 1, 1), VarMapping(1, 0, 0)

    def root(self):
        state = fresh_state(self.F, self.G, ignore_symmetry=True)
        assert update(state, {}) and state.f.v.phase_neg & 1
        return state

    def test_splits_on_the_first_of_two_mappings(self):
        state, obs = self.root(), RecordingObserver()
        assert descend(state, (self.X0, self.X1), obs)
        f, g = state.f, state.g
        assert state.map_list == [self.X0, self.X1] and state.splits == 1
        assert (f.identified, g.identified) == (0b011, 0b011)
        assert (f.cube_vars, f.cube_vals, g.cube_vars, g.cube_vals) == (0b001, 0, 0b010, 0b010)
        # ~x0 keeps f's minterms 2, 4 and 6, x1 keeps g's 3, 6 and 7
        assert (f.restricted, g.restricted) == (0b01010100, 0b11001000)
        assert obs.events == [("commit", "0->1-1"), ("commit", "1->0-0"), ("cubes", "~x0", "x1")]

    def test_a_claimed_variable_of_g_stops_before_its_commit(self):
        state, obs = self.root(), RecordingObserver()
        assert not descend(state, (self.X0, VarMapping(2, 1, 0)), obs)
        f, g = state.f, state.g
        assert state.map_list == [self.X0] and state.splits == 0
        assert (f.identified, g.identified) == (0b001, 0b010)
        assert (f.cube_vars, f.cube_vals, g.cube_vars, g.cube_vals) == (0, 0, 0, 0)
        assert (f.restricted, g.restricted) == (self.F.bits, self.G.bits)
        assert obs.events == [("commit", "0->1-1")]

    def test_a_complete_map_list_splits_only_the_cube_masks(self):
        state, obs = self.root(), RecordingObserver()
        assert descend(state, (self.X0, self.X1, VarMapping(2, 2, 0)), obs)
        f, g = state.f, state.g
        assert len(state.map_list) == 3 and state.splits == 1
        assert (f.cube_vars, f.cube_vals, g.cube_vars, g.cube_vals) == (0b001, 0, 0b010, 0b010)
        assert (f.restricted, g.restricted) == (self.F.bits, self.G.bits)
        assert obs.events[-1] == ("cubes", "~x0", "x1")


class TestForcedExpansion:
    """detect sizes the mapping sets and expands the forced ones in one
    pass, a forced plain subject straight into its one mapping. At every
    forced descend of the golden corpus, and of every pair at n = 0 and 1,
    the list it commits is the concatenation of candidates(state, i,
    peers)[0] over the forced subjects in ascending order. descend is
    wrapped as cases.enumerate_complete_transformations wraps verify."""

    def test_forced_lists_are_the_first_candidates(self):
        counts, descend = Counter(), matcher.descend

        def checked(state, cand, observer=matcher._NULL_OBSERVER):
            known = state.f.v.phase_known
            forced = [
                (i, peers) for i, peers in build_mapping_sets(state)
                if peers.bit_count() << (not known >> i & 1) == 1
            ]
            # a branch point has no forced subject, so its candidates descend
            if forced:
                expected = [m for i, peers in forced for m in candidates(state, i, peers)[0]]
                assert list(cand) == expected, (state.map_list, cand)
                counts["forced"] += 1
                counts["class"] += any(i in state.f.classes for i, _ in forced)
                counts["plain"] += any(i not in state.f.classes for i, _ in forced)
                counts[f"n{state.f.table.n}"] += 1
            return descend(state, cand, observer)

        tiny = [
            (TruthTable(n, a), TruthTable(n, b))
            for n in (0, 1) for a in range(1 << (1 << n)) for b in range(1 << (1 << n))
        ]
        with patch.object(matcher, "descend", checked):
            for f, g in tiny + [(f, g) for _, f, g in corpus()]:
                match_npn(f, g)
        assert counts["forced"] >= 292, counts
        assert counts["class"] >= 52 and counts["plain"] >= 251, counts
        # n = 0 pairs verify their empty map list at the root
        assert counts["n1"] >= 18 and not counts["n0"], counts


class TestWholeFunctionTables:
    """A TruthTable holds a whole function; a side's table restricted to a
    cube is a bare int. So a match builds a TruthTable only where it needs
    a whole function: the full-width transform of verify, and negate for
    the negated arm's target."""

    def test_tables_built_only_by_transforms_and_negate(self, monkeypatch):
        # type2-n5-eq1 of the golden corpus is balanced: its positive arm
        # fails and its negated arm splits down to the witness
        (golden,) = [(f, g) for pair_id, f, g in corpus() if pair_id == "type2-n5-eq1"]
        pairs = [(CASE3_F, CASE3_G), (CASE4_F, CASE4_G), (CASE5_F, CASE5_G), (CASE7_F, CASE7_G)]
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        built = counting("tables", TruthTable.__post_init__)
        monkeypatch.setattr(TruthTable, "__post_init__", built)
        monkeypatch.setattr(matcher, "descend", counting("descend", matcher.descend))
        for name in ("apply_np_transform", "negate"):
            monkeypatch.setattr(matcher, name, counting(name, getattr(matcher, name)))
        for f, g in pairs + [golden]:
            calls.clear()
            result = match_npn(f, g)
            assert calls["descend"] > 0, f
            assert calls["tables"] == calls["apply_np_transform"] + calls["negate"], (f, calls)
        assert result.witness.output_negated and calls["negate"] == 1, calls


class TestBacktrackingIntegrity:
    def test_each_candidate_starts_from_its_branch_state(self):
        assert_walk_reaches(branches=179, deep_branches=85)

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

    @staticmethod
    def run(monkeypatch, f, g):
        """(result, arms run, build_symmetry_classes calls, first_order_pairs
        calls) of match_npn, under InvariantObserver: among its checks, a
        root whose target's keys differ from f's, whether the top input
        refutes it or only the full keys do, prunes before it builds a
        vector on either side."""
        calls = {"build_symmetry_classes": 0, "first_order_pairs": 0}
        for name in calls:
            real = getattr(matcher, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(matcher, name, counted)
        observer = InvariantObserver()
        result = match_npn(f, g, observer=observer)
        return result, observer.counts["arms"], *calls.values()

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



@cache
def n20_pairs():
    """The n = 20 pairs of the root tests, from the library's generators:
    weights that allow neither output arm, a balanced pair that g's top
    input refutes on both arms, and an equivalent pair on the positive arm
    only."""
    return {
        "weights": (random_function(20, "type1_random", 1), random_function(20, "type1_random", 2)),
        "balanced": (
            random_function(20, "type2_balanced", 1),
            random_function(20, "type2_balanced", 2),
        ),
        "equivalent": random_equivalent_pair(20, "type1_random", 2)[:2],
    }


class TestRootSplit:
    """match_npn splits each table once on x_{n-1}, and every root fold
    starts from that split: each root call of first_order_pairs (the only
    calls made through matcher's name; the search counts through
    signature's) gets the split of the table it folds, f's first."""

    @staticmethod
    def folds(monkeypatch, f, g):
        """(result, [(table folded, split given)] per root fold)"""
        real, calls = matcher.first_order_pairs, []

        def counted(bits, n, skip=0, split=None):
            table = "f" if bits is f.bits else "g" if bits is g.bits else None
            calls.append((table, split is not None and len(split) == 3))
            return real(bits, n, skip, split)

        monkeypatch.setattr(matcher, "first_order_pairs", counted)
        return match_npn(f, g), calls

    def test_weights_that_allow_no_arm_fold_nothing(self, monkeypatch):
        f, g = n20_pairs()["weights"]
        assert count_minterms(f) not in (count_minterms(g), (1 << 20) - count_minterms(g))
        result, calls = self.folds(monkeypatch, f, g)
        assert not result.equivalent and result.stats.nodes_visited == 0
        assert calls == []

    def test_gs_top_input_refutes_both_arms_after_fs_fold(self, monkeypatch):
        f, g = n20_pairs()["balanced"]
        keys = canonical_keys(first_order_pairs(f.bits, 20))
        for t in (g, negate(g)):
            p = (t.bits & var_mask(20, 19)).bit_count()
            assert canonical_keys([(p, (1 << 19) - p)])[0] not in keys
        result, calls = self.folds(monkeypatch, f, g)
        assert not result.equivalent and result.stats.nodes_visited == 2
        assert calls == [("f", True)]

    def test_an_equivalent_pair_folds_f_then_g(self, monkeypatch):
        f, g = n20_pairs()["equivalent"]
        result, calls = self.folds(monkeypatch, f, g)
        assert result.equivalent and not result.witness.output_negated
        assert calls == [("f", True), ("g", True)]


def traced_widths(f, g):
    """(peak, held) of one match_npn(f, g) call, after a first call has
    filled the mask caches: the traced bytes above those at its start, at
    its peak and when the root's search starts (the first detect call), in
    widths of one table (2^n bits)."""
    match_npn(f, g)
    real, held = matcher.detect, []

    def first(state, observer, siblings):
        if not held:
            held.append(tracemalloc.get_traced_memory()[0])
        return real(state, observer, siblings)

    matcher.detect = first
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        match_npn(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        matcher.detect = real
    width = (1 << f.n) // 8
    return (peak - base) / width, (held[0] - base) / width


class TestRootMemory:
    """The traced peak of one n = 20 call, in table widths (a Python int of
    2^20 bits reads 1.067 of them). The equivalent pair reads 3.316, 0.1
    above its own root fold: its peak is the final verify's transform,
    where the transform joins its halves (TestTransformMemory); it read
    3.849 while each exchange shifted the upper half twice. The balanced
    pair reads 3.212, what the root read before it split each table once
    (commit d776151), and its peak is f's fold. Each bound adds 0.01 width
    (1.3 KB) for small objects, far less than one half-table int (0.53),
    and may tighten but must not loosen. At the balanced pair's peak, the
    first step of f's fold, f's halves, their sum and carry and g's halves
    are held: three widths of ints, as the whole-table fold held at its
    second level. The search starts with no half held: both pairs
    run the positive arm first, whose target is g itself."""

    @pytest.mark.parametrize("name, bound", [("equivalent", 3.33), ("balanced", 3.23)])
    def test_traced_peak(self, name, bound):
        peak, held = traced_widths(*n20_pairs()[name])
        assert peak <= bound, peak
        assert held < 0.25, held


def below_root_widths(f, v):
    """The traced peak of one signature.update at the node below f's root
    that maps x_v to itself (f against itself), above the bytes traced at
    its start, in widths of one table. The node's cube is x_v at the
    phase of f's root record, so both sides count the cofactor of f on
    that literal."""
    pairs = first_order_pairs(f.bits, f.n)
    state = MatchState(Side(f, (), pairs), Side(f, (), pairs))
    assert update(state, {})
    assert descend(state, (VarMapping(v, v, 0),))
    snap = state.snapshot()
    update(state, {})  # fills the mask caches
    state.restore(snap)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        update(state, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / ((1 << f.n) // 8)


class TestBelowRootMemory:
    """The traced peak of one below-root update on n = 20 sides, the
    largest over the 20 single-variable cubes of a type1 function, in
    table widths. It reads 1.636, where it read 2.171 while update counted
    the masked full-width table (commit c231241): the cofactor's join
    holds three half-width ints next to the side's restricted table, and
    the fold starts from the cofactor's split and frees it. The cube on
    x_18 reads 1.636 against 1.369 then, as that masked table is 3/4 of a
    width long; the one on x_19 reads 1.109 against 1.371. The bound adds
    0.01 width, as TestRootMemory's do, and may tighten but must not
    loosen."""

    def test_traced_peak(self):
        f = random_function(20, "type1_random", 1)
        assert max(below_root_widths(f, v) for v in range(20)) <= 1.65
