import random

import pytest

from npnmatch.boolfn import (
    NPTransformation,
    TruthTable,
    _antiswap_vars,
    _negate_var,
    _swap_vars,
    apply_np_transform,
    compose,
    count_minterms,
    equal,
    full_mask,
    low_mask,
    negate,
    var_mask,
)
from npnmatch.matcher import MatchState, Side
from npnmatch.oracle import all_transformations
from npnmatch.signature import compute_ss_vector, update
from npnmatch.symmetry import build_symmetry_classes, complement_pairs, first_order_pairs

from cases import CASE3_F, CASE3_G, CASE7_F, CASE7_G, TRIO_A


def brute_apply(f, t):
    """Reference semantics for apply_np_transform via per-minterm evaluation."""
    n = f.n
    bits = 0
    for m in range(1 << n):
        a = 0
        for i in range(n):
            v = (m >> t.perm[i]) & 1
            if t.input_pol[i] == 0:
                v ^= 1
            a |= v << i
        v = f.bits >> a & 1
        if t.output_negated:
            v ^= 1
        bits |= v << m
    return TruthTable(n, bits)


def identity(n):
    return NPTransformation(tuple(range(n)), (1,) * n, False)


def inverse(t):
    n = len(t.perm)
    inv_perm = [0] * n
    inv_pol = [1] * n
    for i in range(n):
        inv_perm[t.perm[i]] = i
        inv_pol[t.perm[i]] = t.input_pol[i]
    return NPTransformation(tuple(inv_perm), tuple(inv_pol), t.output_negated)


def root_vector(f, sym, pairs):
    """The first vector update builds from the shared root pairs."""
    state = MatchState(Side(f, sym, pairs), Side(f, sym, pairs))
    update(state, {})
    return state.f.v


def random_table(rng, n):
    return TruthTable(n, rng.getrandbits(1 << n))


def random_transform(rng, n, allow_output=True):
    perm = list(range(n))
    rng.shuffle(perm)
    pol = tuple(rng.randint(0, 1) for _ in range(n))
    out = bool(rng.randint(0, 1)) if allow_output else False
    return NPTransformation(tuple(perm), pol, out)


class TestCountMinterms:
    def test_three_var_cover(self):
        # independent oracle: explicit enumeration of all 8 assignments
        def ref(m):
            x0, x1, x2 = m & 1, (m >> 1) & 1, (m >> 2) & 1
            return (x0 and not x1) or (not x1 and x2) or (not x0 and x1 and not x2)

        expected = sum(1 for m in range(8) if ref(m))
        assert expected == 4
        assert count_minterms(TRIO_A) == 4

    def test_constant_false(self):
        assert count_minterms(TruthTable.constant(4, False)) == 0

    def test_seven_var_case(self):
        assert count_minterms(CASE7_F) == 46


class TestCofactor:
    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            TruthTable.from_cover(3, [[(1, True), (1, False)]])

    def test_variable_past_n_rejected(self):
        # used to give the constant 1: a mask past 2^n bits ANDs to the row
        with pytest.raises(ValueError, match=r"x5 .*n=3"):
            TruthTable.from_cover(3, [[(5, False)]])

    def test_negative_variable_rejected(self):
        # used to fail inside var_mask with "negative shift count"
        with pytest.raises(ValueError, match=r"x-1 .*n=3"):
            TruthTable.from_cover(3, [[(-1, True)]])

    def test_shannon_recombination(self):
        rng = random.Random(7)
        for n in (1, 3, 5):
            f = random_table(rng, n)
            for i in range(n):
                pos = TruthTable(n, f.bits & var_mask(n, i))
                neg = TruthTable(n, f.bits & low_mask(n, i))
                assert pos.bits | neg.bits == f.bits
                assert pos.bits & neg.bits == 0
                assert count_minterms(pos) + count_minterms(neg) == count_minterms(f)


class TestNegate:
    def test_constant(self):
        assert negate(TruthTable.constant(3, False)) == TruthTable.constant(3, True)

    def test_involution(self):
        rng = random.Random(1)
        f = random_table(rng, 6)
        assert negate(negate(f)) == f

    def test_count_complement(self):
        assert count_minterms(negate(CASE7_F)) == 128 - 46


class TestApplyNPTransform:
    def test_reverse_and_invert_inputs(self):
        t = NPTransformation((2, 1, 0), (0, 0, 0))
        assert apply_np_transform(CASE3_F, t) == CASE3_G

    def test_identity(self):
        assert apply_np_transform(TRIO_A, identity(3)) == TRIO_A

    def test_seven_var_witness(self):
        # map list 2->5-1, 0->0-1, 4->2-1, 1->3-0, 3->4-1, 5->6-0, 6->1-0
        pairs = [(2, 5, 1), (0, 0, 1), (4, 2, 1), (1, 3, 0), (3, 4, 1), (5, 6, 0), (6, 1, 0)]
        perm = [0] * 7
        pol = [0] * 7
        for i, j, k in pairs:
            perm[i] = j
            pol[i] = 1 - k
        t = NPTransformation(tuple(perm), tuple(pol))
        assert equal(apply_np_transform(CASE7_F, t), CASE7_G)

    def test_matches_brute_reference(self):
        rng = random.Random(42)
        # n = 8 and 10 put the delta swaps' shifts across many machine words
        for n in (0, 1, 2, 3, 4, 5, 8, 10):
            for _ in range(8):
                f = random_table(rng, n)
                t = random_transform(rng, n)
                assert apply_np_transform(f, t) == brute_apply(f, t)

    def test_every_transform_n4(self):
        # 24 permutations x 16 polarities x 2 outputs: every cycle type, each
        # with odd and even negation parity, and negated fixed points
        rng = random.Random(17)
        f = random_table(rng, 4)
        for t in all_transformations(4):
            assert apply_np_transform(f, t) == brute_apply(f, t), t

    def test_n20_round_trip_compose_and_sampled_minterms(self):
        rng = random.Random(19)
        n = 20
        f = random_table(rng, n)
        ts = [random_transform(rng, n) for _ in range(3)]
        for t in ts:
            h = apply_np_transform(f, t)
            assert apply_np_transform(h, inverse(t)) == f
            for m in (rng.getrandbits(n) for _ in range(64)):
                a = sum(((m >> t.perm[i] & 1) ^ 1 ^ t.input_pol[i]) << i for i in range(n))
                assert h.bits >> m & 1 == (f.bits >> a & 1) ^ t.output_negated, (t, m)
        for t1, t2 in zip(ts, ts[1:]):
            seq = apply_np_transform(apply_np_transform(f, t1), t2)
            assert apply_np_transform(f, compose(t1, t2)) == seq

    def test_group_action(self):
        rng = random.Random(9)
        for _ in range(12):
            n = rng.randint(1, 5)
            f = random_table(rng, n)
            t1 = random_transform(rng, n)
            t2 = random_transform(rng, n)
            seq = apply_np_transform(apply_np_transform(f, t1), t2)
            assert apply_np_transform(f, compose(t1, t2)) == seq
            assert apply_np_transform(apply_np_transform(f, t1), inverse(t1)) == f

    def test_count_preserved_or_complemented(self):
        rng = random.Random(3)
        f = random_table(rng, 5)
        t = random_transform(rng, 5, allow_output=False)
        assert count_minterms(apply_np_transform(f, t)) == count_minterms(f)
        t_neg = NPTransformation(t.perm, t.input_pol, True)
        assert count_minterms(apply_np_transform(f, t_neg)) == 32 - count_minterms(f)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_np_transform(TRIO_A, identity(4))

    def test_polarity_other_than_0_or_1_rejected(self):
        # a 2 used to be applied as a positive literal
        with pytest.raises(ValueError, match="0 or 1"):
            NPTransformation((0, 1), (2, 1))

    def test_compose_arity_mismatch(self):
        # used to return a 2-input transform
        with pytest.raises(ValueError, match="arity"):
            compose(identity(2), identity(3))


def _bits_of(bits, n):
    return [(bits >> m) & 1 for m in range(1 << n)]


class TestVariableKernels:
    """Per-minterm references for the single-variable bigint kernels."""

    def test_swap_vars_every_pair_n7(self):
        n = 7
        rng = random.Random(11)
        bits = rng.getrandbits(1 << n)
        before = _bits_of(bits, n)
        for i in range(n):
            for j in range(n):
                after = _bits_of(_swap_vars(bits, n, i, j), n)
                for m in range(1 << n):
                    bi, bj = (m >> i) & 1, (m >> j) & 1
                    src = m & ~((1 << i) | (1 << j)) | (bi << j) | (bj << i)
                    assert after[m] == before[src], (i, j, m)

    def test_antiswap_vars_every_pair_n7(self):
        n = 7
        rng = random.Random(18)
        bits = rng.getrandbits(1 << n)
        before = _bits_of(bits, n)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                after = _bits_of(_antiswap_vars(bits, n, i, j), n)
                for m in range(1 << n):
                    bi, bj = (m >> i) & 1, (m >> j) & 1
                    src = m & ~((1 << i) | (1 << j)) | ((bi ^ 1) << j) | ((bj ^ 1) << i)
                    assert after[m] == before[src], (i, j, m)

    def test_negate_var_every_variable_n7(self):
        n = 7
        rng = random.Random(12)
        bits = rng.getrandbits(1 << n)
        before = _bits_of(bits, n)
        for i in range(n):
            after = _bits_of(_negate_var(bits, n, i), n)
            assert after == [before[m ^ (1 << i)] for m in range(1 << n)], i


class TestRootFirstOrderPairs:
    """The root pairs match_npn counts once and shares with the symmetry
    build and the first SS vector of every output arm."""

    def test_shared_pairs_match_cofactor_counts(self):
        rng = random.Random(13)
        for n in range(1, 9):
            for _ in range(4):
                f = random_table(rng, n)
                pairs = first_order_pairs(f)
                assert pairs == [
                    (
                        sum(f.bits >> m & 1 for m in range(1 << n) if m >> i & 1),
                        sum(f.bits >> m & 1 for m in range(1 << n) if not m >> i & 1),
                    )
                    for i in range(n)
                ]
                sym = build_symmetry_classes(f, pairs)
                assert sym == build_symmetry_classes(f)
                assert root_vector(f, sym, pairs) == compute_ss_vector(f, sym)

    def test_fold_matches_masked_popcount(self):
        # n = 15..20 take the bit-sliced fold; constant 1 carries into a
        # new plane at every fold level
        rng = random.Random(15)
        skips = random.Random(16)  # own stream: the tables stay as they were
        for n in range(0, 21):
            vacuous = rng.getrandbits(1 << max(n - 3, 0))
            for v in range(max(n - 3, 0), n):
                vacuous |= vacuous << (1 << v)
            parity = 0
            for i in range(n):
                parity ^= var_mask(n, i)
            tables = [rng.getrandbits(1 << n), 0, full_mask(n), parity, vacuous]
            for bits in tables:
                f = TruthTable(n, bits)
                pairs = first_order_pairs(f)
                total = bits.bit_count()
                want = [(bits & var_mask(n, i)).bit_count() for i in range(n)]
                assert pairs == [(p, total - p) for p in want], (n, bits.bit_count())
                for skip in (skips.getrandbits(n), skips.getrandbits(n) & skips.getrandbits(n)):
                    assert first_order_pairs(f, skip) == [
                        (0, 0) if skip >> i & 1 else (p, total - p) for i, p in enumerate(want)
                    ], (n, skip)
                if n in (15, 16):
                    sym = build_symmetry_classes(f, pairs)
                    assert sym == build_symmetry_classes(f)
                    assert root_vector(f, sym, pairs) == compute_ss_vector(f, sym)

    def test_negated_arm_pairs(self):
        rng = random.Random(14)
        for n in range(0, 9):
            for _ in range(4):
                g = random_table(rng, n)
                assert complement_pairs(first_order_pairs(g), n) == first_order_pairs(negate(g))


class TestEqual:
    def test_reflexive(self):
        assert equal(TRIO_A, TRIO_A)

    def test_negation_differs(self):
        assert not equal(TRIO_A, negate(TRIO_A))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            equal(TRIO_A, TruthTable.constant(4, False))


def test_bit_order_convention():
    # AND of x0 and x1 has only minterm 3 set
    f = TruthTable.from_cover(2, [[(0, True), (1, True)]])
    assert f.bits == 0b1000
    assert f.bits >> 3 & 1 == 1
    assert full_mask(0) == 1
