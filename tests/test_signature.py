import random
from collections import Counter

from npnmatch.boolfn import MAX_VARS, TruthTable, apply_np_transform, low_mask, var_mask
from npnmatch.signature import (
    compute_ss_vector,
    dump_first_order,
    update,
    vectors_compatible,
)
from npnmatch import signature
from npnmatch.matcher import (
    MatchState,
    Observer,
    Side,
    VarMapping,
    commit_mapping,
    extend_cubes,
    match_npn,
)
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
)
from test_boolfn import random_table, random_transform
from test_golden import (
    _block,
    _family_pairs,
    _other_reweighted,
    _parity,
    _rotation,
    _symmetric,
    _type1,
    _type2,
    maiorana_mcfarland,
)


def ss(f, cube=None, sym=None, identified=0, prev=None):
    """Vector of f restricted by the bit mask cube (unrestricted when None)."""
    if sym is None:
        sym = build_symmetry_classes(f)
    restricted = f.bits if cube is None else f.bits & cube
    return compute_ss_vector(restricted, f.n, sym, identified, prev)


def canonical_pairs(side):
    """Per variable, the canonical first-order pair (max, min) of the side's
    table under its cube, counted minterm by minterm."""
    n, bits = side.table.n, side.table.bits
    pos, total = [0] * n, 0
    for m in range(1 << n):
        if bits >> m & 1 and m & side.cube_vars == side.cube_vals:
            total += 1
            for i in range(n):
                pos[i] += m >> i & 1
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
    assert not state.f.sym and not state.g.sym
    assert sorted(pairs_f) != sorted(pairs_g), pairs_f
    return "keys" if pairs_g[-1] in pairs_f else "top"


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
        prev = ss(CASE5_F)
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
            prev = compute_ss_vector(f.bits, f.n, sym)
            i = rng.randrange(n)
            identified = 1 << i
            mask = var_mask(n, i) if rng.random() < 0.5 else low_mask(n, i)
            cur = compute_ss_vector(f.bits & mask, n, sym, identified, prev)
            for a in range(n):
                for b in range(a + 1, n):
                    if prev[a].group != prev[b].group:
                        assert cur[a].group != cur[b].group

    def test_counts_sum_to_restricted_size(self):
        rng = random.Random(29)
        f = random_table(rng, 5)
        cube = var_mask(5, 2)
        v = ss(f, cube)
        restricted = f.bits & cube
        for i in range(5):
            if i != 2:
                assert v[i].pos_count + v[i].neg_count == restricted.bit_count()


def root_phases(f, g):
    """(phase_known, phase_neg) of each side after update at the root."""
    sides = [Side(h, build_symmetry_classes(h), first_order_pairs(h.bits, h.n)) for h in (f, g)]
    state = MatchState(*sides)
    update(state, {})
    return [(side.phase_known, side.phase_neg) for side in sides]


class TestDeterminePhases:
    def test_case4_phases(self):
        # f: x3 positive, the rest undetermined; g: x0 negative
        assert root_phases(CASE4_F, CASE4_G) == [(0b1000, 0), (0b1, 0b1)]

    def test_balanced_is_undetermined(self):
        f = TruthTable.constant(2, True)
        assert root_phases(f, f) == [(0, 0), (0, 0)]


class TestVectorsCompatible:
    def test_case4_pair(self):
        assert vectors_compatible(ss(CASE4_F), ss(CASE4_G))

    def test_trio_mismatch(self):
        assert not vectors_compatible(ss(TRIO_A), ss(TRIO_C))

    def test_self(self):
        v = ss(CASE5_F)
        assert vectors_compatible(v, v)

    def test_single_bit_flip_detected(self):
        rng = random.Random(41)
        f = random_table(rng, 4)
        g = TruthTable(4, f.bits ^ 1)
        vf, vg = ss(f), ss(g)
        # one flipped minterm shifts every per-variable count by one
        assert not vectors_compatible(vf, vg)

    def test_np_invariance_of_canonical_multiset(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 5)
            f = random_table(rng, n)
            t = random_transform(rng, n, allow_output=False)
            h = apply_np_transform(f, t)
            keys = [sorted(canonical_keys(first_order_pairs(x.bits, x.n))) for x in (f, h)]
            assert keys[0] == keys[1] == sorted(ss(f).key)

    def test_identified_counts_agree_at_every_node(self):
        # vectors_compatible skips identified variables because their
        # per-group counts cannot differ between f and g; check that claim
        # on every node of searches that reach symmetry classes and phases
        class IdentifiedCounts(Observer):
            nodes = identified_nodes = 0
            refuted = Counter()

            def on_vectors(self, depth, state):
                self.nodes += 1
                cf = counts(state.f.v, state.f.identified)
                assert cf == counts(state.g.v, state.g.identified), (depth, state.map_list)
                self.identified_nodes += bool(cf)

            def on_incompatible(self, depth, state):
                kind = check_key_refuted(depth, state)
                if kind:
                    self.refuted[kind] += 1
                else:
                    self.on_vectors(depth, state)

        def counts(v, identified):
            return Counter(val.group for i, val in enumerate(v.values) if identified >> i & 1)

        families = (
            ("symmetric", _symmetric, range(1, 9), 16, 16, _other_reweighted),
            ("block", _block, range(4, 9), 16, 16, _other_reweighted),
            ("parity", _parity, range(1, 9), 16, 16, _other_reweighted),
        )
        observer = IdentifiedCounts()
        for _, f, g in _family_pairs(random.Random(47), families):
            match_npn(f, g, observer=observer)
        assert observer.identified_nodes > 100, observer.nodes
        # both kinds of refuted root: by the target's top input, and by
        # the full first-order keys once the top input passes
        assert min(observer.refuted[k] for k in ("top", "keys")) > 50, observer.refuted


class TestSiblingVectors:
    def test_vectors_count_the_current_restricted_tables(self):
        # update hands a node the vector a sibling computed when their keys
        # agree; at every node, each side's restricted table must be its
        # table under its cube, and each vector must count that table. Below
        # the root, g may be pruned on its keys before it has a vector (its
        # own or a sibling's refuted marker); check_key_refuted then
        # recounts both sides and asserts the prune sound
        class Recount(Observer):
            nodes = 0
            refuted = Counter()

            def on_vectors(self, depth, state):
                self.nodes += 1
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

            def on_incompatible(self, depth, state):
                kind = check_key_refuted(depth, state)
                self.refuted[kind] += 1
                if kind in (None, "below"):
                    self.on_vectors(depth, state)

        def bent(rng, n):
            return maiorana_mcfarland(rng, n).bits

        def bent_identity_pi(rng, n):
            # x . y xor h(y): the bent family whose searches branch most
            k = n // 2
            h = [rng.getrandbits(1) for _ in range(1 << k)]
            return sum(((m & (m >> k) & ((1 << k) - 1)).bit_count() & 1 ^ h[m >> k]) << m
                       for m in range(1 << n))

        # small random tables branch on balanced variables, where the
        # candidates i -> j - 0 and i -> j - 1 narrow g to opposite literals
        families = (
            ("type1", _type1, range(1, 7), 16, 16, _other_reweighted),
            ("type2", _type2, range(1, 7), 16, 16, _other_reweighted),
            ("bent", bent, (6, 8, 10), 4, 4, _other_reweighted),
            ("bent-identity-pi", bent_identity_pi, (4, 6, 8, 10), 8, 8, _other_reweighted),
            ("rotation", _rotation, range(3, 11), 8, 8, _other_reweighted),
            ("block", _block, range(6, 11), 4, 4, _other_reweighted),
        )
        observer, reused = Recount(), 0
        for _, f, g in _family_pairs(random.Random(53), families):
            reused += match_npn(f, g, observer=observer).stats.vectors_reused
        assert observer.nodes > 500 and reused > 250, (observer.nodes, reused)
        # both kinds of refuted root: by the target's top input, and by
        # the full first-order keys once the top input passes
        assert min(observer.refuted[k] for k in ("top", "keys")) > 50, observer.refuted
        # nodes below the root that g's keys refute before it has a vector
        assert observer.refuted["below"] > 300, observer.refuted

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
            commit_mapping(state, VarMapping(0, 0, 0))
            extend_cubes(state)
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
