import random

from npnmatch.boolfn import MAX_VARS, TruthTable, apply_np_transform, low_mask, var_mask
from npnmatch.signature import update
from npnmatch import signature
from npnmatch.matcher import MatchState, Side, VarMapping, descend
from npnmatch.symmetry import build_symmetry_classes, canonical_keys, first_order_pairs

from cases import (
    CASE4_F,
    CASE4_G,
    CASE5_F,
    CASE5_G,
    CASE7_F,
    CASE7_G,
    TRIO_A,
    TRIO_B,
    TRIO_C,
    dump_first_order,
    vector_side,
)
from invariants import check_key_refuted
from test_boolfn import random_table, random_transform
from test_matcher import assert_walk_reaches, invariant_walk


def ss(f, cube=None, sym=None, identified=0, prev=None):
    """f's side with the vector of f restricted by the bit mask cube
    (unrestricted when None)."""
    if sym is None:
        sym = build_symmetry_classes(f)
    return vector_side(f, sym, None if cube is None else f.bits & cube, identified, prev)


class TestFirstOrderValue:
    def test_trio_vectors(self):
        assert dump_first_order(first_order_pairs(TRIO_A.bits, TRIO_A.n)) == "{(2,2),(1,3),(2,2)}"
        assert dump_first_order(first_order_pairs(TRIO_B.bits, TRIO_B.n)) == "{(3,1),(2,2),(2,2)}"
        assert dump_first_order(first_order_pairs(TRIO_C.bits, TRIO_C.n)) == "{(3,1),(1,3),(3,1)}"

    def test_restricted_value(self):
        assert first_order_pairs(CASE5_F.bits & var_mask(5, 0), 5)[1] == (5, 6)

    def test_constant_true(self):
        f = TruthTable.constant(3, True)
        for i in range(3):
            assert first_order_pairs(f.bits, f.n)[i] == (4, 4)


class TestComputeSSVector:
    def test_case4_initial(self):
        assert ss(CASE4_F).dump() == (
            "{(4, 4, 2, 0, 1),(4, 4, 2, 0, 1),(4, 4, -1, -1, 1),(5, 3, -1, -1, 0)}"
        )
        assert ss(CASE4_G).dump() == (
            "{(3, 5, -1, -1, 0),(4, 4, 2, 1, 1),(4, 4, -1, -1, 1),(4, 4, 2, 1, 1)}"
        )

    def test_case5_initial(self):
        assert ss(CASE5_F).dump() == (
            "{(11, 5, -1, -1, 0),(8, 8, -1, -1, 3),(10, 6, -1, -1, 1),"
            "(9, 7, -1, -1, 2),(9, 7, -1, -1, 2)}"
        )
        assert ss(CASE5_G).dump() == (
            "{(5, 11, -1, -1, 0),(8, 8, -1, -1, 3),(10, 6, -1, -1, 1),"
            "(9, 7, -1, -1, 2),(9, 7, -1, -1, 2)}"
        )

    def test_case5_refined_after_split(self):
        prev = ss(CASE5_F).v
        identified = 0b00101  # x0 and x2
        v = ss(CASE5_F, var_mask(5, 0), identified=identified, prev=prev)
        assert v.dump() == (
            "{(0, 0, -1, -1, 0),(5, 6, -1, -1, 3),(0, 0, -1, -1, 1),"
            "(6, 5, -1, -1, 2),(6, 5, -1, -1, 2)}"
        )

    def test_case7_initial(self):
        assert ss(CASE7_F).dump() == (
            "{(30, 16, 2, 0, 1),(30, 16, 2, 1, 1),(31, 15, -1, -1, 0),"
            "(16, 30, 2, 1, 1),(30, 16, 2, 0, 1),(24, 22, -1, -1, 2),(22, 24, -1, -1, 2)}"
        )
        assert ss(CASE7_G).dump() == (
            "{(16, 30, 2, 0, 1),(22, 24, -1, -1, 2),(16, 30, 2, 0, 1),"
            "(30, 16, 2, 3, 1),(30, 16, 2, 3, 1),(15, 31, -1, -1, 0),(24, 22, -1, -1, 2)}"
        )

    def test_refinement_never_merges(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 6)
            f = random_table(rng, n)
            sym = build_symmetry_classes(f)
            prev = vector_side(f, sym).v
            i = rng.randrange(n)
            identified = 1 << i
            mask = var_mask(n, i) if rng.random() < 0.5 else low_mask(n, i)
            cur = vector_side(f, sym, f.bits & mask, identified, prev).v
            for a in range(n):
                for b in range(a + 1, n):
                    if prev.group[a] != prev.group[b]:
                        assert cur.group[a] != cur.group[b]

    def test_counts_sum_to_restricted_size(self):
        rng = random.Random(29)
        f = random_table(rng, 5)
        cube = var_mask(5, 2)
        v = ss(f, cube).v
        restricted = f.bits & cube
        for i in range(5):
            if i != 2:
                assert v.pos[i] + v.neg[i] == restricted.bit_count()


def root_phases(f, g):
    """(phase_known, phase_neg) of each side after update at the root."""
    sides = [Side(h, build_symmetry_classes(h), first_order_pairs(h.bits, h.n)) for h in (f, g)]
    state = MatchState(*sides)
    update(state, {})
    return [(side.v.phase_known, side.v.phase_neg) for side in sides]


class TestDeterminePhases:
    def test_case4_phases(self):
        # f: x3 positive, the rest undetermined; g: x0 negative
        assert root_phases(CASE4_F, CASE4_G) == [(0b1000, 0), (0b1, 0b1)]

    def test_balanced_is_undetermined(self):
        f = TruthTable.constant(2, True)
        assert root_phases(f, f) == [(0, 0), (0, 0)]


class TestVectorsCompatible:
    """Two vectors are compatible when their profiles are equal (SSVector)."""

    def test_case4_pair(self):
        assert ss(CASE4_F).v.profile == ss(CASE4_G).v.profile

    def test_trio_mismatch(self):
        assert ss(TRIO_A).v.profile != ss(TRIO_C).v.profile

    def test_self(self):
        assert ss(CASE5_F).v.profile == ss(CASE5_F).v.profile

    def test_single_bit_flip_detected(self):
        rng = random.Random(41)
        f = random_table(rng, 4)
        g = TruthTable(4, f.bits ^ 1)
        vf, vg = ss(f).v, ss(g).v
        # one flipped minterm shifts every per-variable count by one
        assert vf.profile != vg.profile

    def test_np_invariance_of_canonical_multiset(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 5)
            f = random_table(rng, n)
            t = random_transform(rng, n, allow_output=False)
            h = apply_np_transform(f, t)
            keys = [sorted(canonical_keys(first_order_pairs(x.bits, x.n))) for x in (f, h)]
            assert keys[0] == keys[1] == ss(f).v.sorted_keys

    def test_identified_counts_agree_at_every_node(self):
        # the profile skips identified variables because their per-group
        # counts cannot differ between f and g (InvariantObserver)
        assert_walk_reaches(identified_nodes=197)


class TestSiblingVectors:
    def test_vectors_count_the_current_restricted_tables(self):
        # InvariantObserver recounts each node's tables and key prunes; top
        # and keys floor the sum of the two checks that counted them
        assert_walk_reaches(recounted=2147, top=239, keys=264, below=462)
        assert invariant_walk()[2] >= 731

    def test_refuted_sibling_key_prunes_without_recounting(self, monkeypatch):
        # the root keys agree, but under x0 (and x0 of g) they differ: the
        # first child refutes g before it has a vector and stores a marker
        # under g's key; a later sibling with the same key takes it, and
        # f's stored vector, and prunes without counting either table
        f, g = TruthTable(4, 0x6C0F), TruthTable(4, 0x81F9)
        state = MatchState(*(Side(h, (), first_order_pairs(h.bits, h.n)) for h in (f, g)))
        assert update(state, {})
        snap, children = state.snapshot(), {}

        def child():
            descend(state, (VarMapping(0, 0, 0),))
            reused = state.stats.vectors_reused
            assert not update(state, children)
            assert state.f.v is not None and state.g.v is None
            assert check_key_refuted(state.splits, state) == "below"
            return state.stats.vectors_reused - reused

        assert child() == 0
        state.restore(snap)
        counted = []
        monkeypatch.setattr(signature, "first_order_pairs", lambda *a: counted.append(a))
        assert child() == 2 and not counted


def test_canonical_keys_order_like_max_min_pairs():
    # (p, q) and (q, p) share a key, and keys order like (max, min) tuples
    # up to the largest count, 2^(MAX_VARS - 1)
    top = 1 << (MAX_VARS - 1)
    counts = [0, 1, 2, 3, 5, top - 1, top]
    pairs = [(p, q) for p in counts for q in counts]
    keys = canonical_keys(pairs)
    assert keys == canonical_keys([(q, p) for p, q in pairs])
    canonical = [(max(p, q), min(p, q)) for p, q in pairs]
    for ka, ca in zip(keys, canonical):
        for kb, cb in zip(keys, canonical):
            assert (ka < kb, ka == kb) == (ca < cb, ca == cb), (ca, cb)
