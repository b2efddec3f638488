import random
import tracemalloc

import pytest

from npnmatch.boolfn import (
    MAX_VARS,
    NPTransformation,
    TruthTable,
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
from npnmatch.signature import update
from npnmatch.symmetry import build_symmetry_classes, complement_pairs, first_order_pairs

from cases import CASE3_F, CASE3_G, CASE7_F, CASE7_G, TRIO_A, all_transformations


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


def assert_minterms_agree(f, t, h, minterms):
    """h(m) = f(T m), complemented when T negates the output, at each minterm."""
    n = f.n
    for m in minterms:
        a = sum(((m >> t.perm[i] & 1) ^ 1 ^ t.input_pol[i]) << i for i in range(n))
        assert h.bits >> m & 1 == (f.bits >> a & 1) ^ t.output_negated, (t, m)


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


def delta_swap(bits, d, mask):
    """Exchange the bits under mask with those d places up (Knuth, TAOCP 4A 7.1.3)."""
    t = ((bits >> d) ^ bits) & mask
    return bits ^ t ^ (t << d)


def negate_var(bits, n, i):
    """Complement x_i: minterms with x_i = 1 trade with those with x_i = 0."""
    shift = 1 << i
    return ((bits & var_mask(n, i)) >> shift) | ((bits & low_mask(n, i)) << shift)


def swap_vars(bits, n, i, j):
    """Exchange x_i and x_j: minterms with x_j = 1, x_i = 0 trade with x_j = 0, x_i = 1."""
    if i == j:
        return bits
    if i < j:
        i, j = j, i
    return delta_swap(bits, (1 << i) - (1 << j), var_mask(n, j) & low_mask(n, i))


def antiswap_vars(bits, n, i, j):
    """Exchange x_i and x_j, negating both: x_i = x_j = 0 trades with x_i = x_j = 1."""
    return delta_swap(bits, (1 << i) + (1 << j), low_mask(n, i) & low_mask(n, j))


def reference_apply(f, t):
    """apply_np_transform at full width from negate_var and swap_vars: negate
    each x_k with input_pol[k] = 0, then exchange variables until x_k reads
    x_{perm[k]} for every k (q[k] is the variable x_k reads so far)."""
    n, bits = f.n, f.bits
    for k in range(n):
        if not t.input_pol[k]:
            bits = negate_var(bits, n, k)
    q = list(range(n))
    for k in range(n):
        v, w = q[k], t.perm[k]
        if v != w:
            bits = swap_vars(bits, n, v, w)
            q = [w if u == v else v if u == w else u for u in q]
    if t.output_negated:
        bits ^= full_mask(n)
    return TruthTable(n, bits)


def top_cycle(n, walk, negated=()):
    """The transform whose x_{n-1} cycle makes apply_np_transform exchange
    x_{n-1} with each input of walk in turn, with input_pol 0 at negated."""
    perm = list(range(n))
    cycle = [n - 1, *walk]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        perm[a] = b
    return NPTransformation(tuple(perm), tuple(int(i not in negated) for i in range(n)))


def root_vector(f, sym, pairs):
    """f's side holding the first vector update builds from the root pairs."""
    state = MatchState(Side(f, sym, pairs), Side(f, sym, pairs))
    update(state, {})
    return state.f


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
                pos, neg = f.bits & var_mask(n, i), f.bits & low_mask(n, i)
                assert pos | neg == f.bits
                assert pos & neg == 0
                assert pos.bit_count() + neg.bit_count() == count_minterms(f)


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
        # n = 8 and up put the delta swaps' shifts across many machine words;
        # n = 11..16 move the top input's half-width boundary across them
        for n in (0, 1, 2, 3, 4, 5, 8, 10, 11, 12, 13, 14, 15, 16):
            for _ in range(8 if n <= 10 else 2):
                f = random_table(rng, n)
                t = random_transform(rng, n)
                assert apply_np_transform(f, t) == brute_apply(f, t)

    def test_every_transform_small_n(self):
        # every table and every transform at n = 1..3; at n = 1 the only
        # step the walk takes is the swap of the halves for a negated x_0
        for n in (1, 2, 3):
            for bits in range(1 << (1 << n)):
                f = TruthTable(n, bits)
                for t in all_transformations(n):
                    assert apply_np_transform(f, t) == brute_apply(f, t), (bits, t)

    def test_every_transform_n4(self):
        # 24 permutations x 16 polarities x 2 outputs: every cycle type, each
        # with odd and even negation parity, and negated fixed points
        rng = random.Random(17)
        f = random_table(rng, 4)
        for t in all_transformations(4):
            assert apply_np_transform(f, t) == brute_apply(f, t), t

    def test_every_transform_n5(self):
        # n = 5 is the smallest size where two cycles below a fixed x_4,
        # such as (x0 x1)(x2 x3), are merged into it in turn, or a cycle and
        # a negated fixed point, such as (x0 x1 x2) and ~x3
        rng = random.Random(23)
        f = random_table(rng, 5)
        for t in all_transformations(5):
            assert apply_np_transform(f, t) == brute_apply(f, t), t

    def test_n20_round_trip_compose_and_sampled_minterms(self):
        rng = random.Random(19)
        n = 20
        f = random_table(rng, n)
        ts = [random_transform(rng, n) for _ in range(3)]
        for t in ts:
            h = apply_np_transform(f, t)
            assert apply_np_transform(h, inverse(t)) == f
            assert_minterms_agree(f, t, h, (rng.getrandbits(n) for _ in range(64)))
        for t1, t2 in zip(ts, ts[1:]):
            seq = apply_np_transform(apply_np_transform(f, t1), t2)
            assert apply_np_transform(f, compose(t1, t2)) == seq

    @pytest.mark.parametrize("n", [21, MAX_VARS])
    def test_top_input_exchanges_sampled_minterms(self, n):
        # x_{n-1} exchanged with x_{n-2} and with x_0, plain and with both
        # negated; x_{n-1} negated alone (the halves swap); x_{n-2} negated
        # alone (two exchanges with x_{n-1}). The exchange with x_{n-2} is the
        # largest shift, where a stray bit above 2^(n-1) in the low half would
        # corrupt the high half at the join
        rng = random.Random(n)
        f = random_table(rng, n)
        top, half, quarter = n - 1, 1 << (n - 1), 1 << (n - 2)
        ts = []
        for j in (n - 2, 0):
            perm = list(range(n))
            perm[top], perm[j] = j, top
            for pol in (1, 0):
                input_pol = [1] * n
                input_pol[top] = input_pol[j] = pol
                ts.append(NPTransformation(tuple(perm), tuple(input_pol)))
        for j in (top, n - 2):
            ts.append(NPTransformation(tuple(range(n)), tuple(int(i != j) for i in range(n))))
        edges = [0, quarter, half - 1, half, half + quarter - 1, half + quarter, (1 << n) - 1]
        for t in ts:
            h = apply_np_transform(f, t)
            assert apply_np_transform(h, inverse(t)) == f
            assert_minterms_agree(f, t, h, edges + [rng.getrandbits(n) for _ in range(64)])

    def test_full_width_reference_every_transform_n4(self):
        rng = random.Random(21)
        f = random_table(rng, 4)
        for t in all_transformations(4):
            assert reference_apply(f, t) == brute_apply(f, t), t

    @pytest.mark.parametrize("n", [16, 21, MAX_VARS])
    def test_carried_offset_against_full_width_reference(self, n):
        # The walk holds the upper half shifted by the last exchange's
        # distance 2^j: x_{n-2} leaves the largest offset and x_0 the
        # smallest. The walks move the offset down and back up, swap the
        # halves right after the largest offset (x_{n-2} negated), and join
        # at the largest offset, with x_{n-1} or x_0 negated on the way
        rng = random.Random(n + 100)
        f = random_table(rng, n)
        top, a, b = n - 1, n - 2, n - 3
        ts = [
            top_cycle(n, (a, 0, b)),
            top_cycle(n, (a, 0, b), negated=(a,)),
            top_cycle(n, (a, b), negated=(a, b)),
            top_cycle(n, (b, 0, a), negated=(top,)),
            top_cycle(n, (0, a), negated=(0,)),
        ]
        ts.append(NPTransformation(ts[-1].perm, ts[-1].input_pol, True))
        for t in ts:
            assert apply_np_transform(f, t) == reference_apply(f, t), t

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

    @pytest.mark.parametrize(
        "build",
        [lambda: TruthTable(23, 0), lambda: TruthTable(1, 4), lambda: NPTransformation((0, 0), (1, 1))],
        ids=["n-too-large", "bits-too-wide", "not-a-permutation"],
    )
    def test_constructor_rejects(self, build):
        with pytest.raises(ValueError):
            build()

    def test_compose_arity_mismatch(self):
        # used to return a 2-input transform
        with pytest.raises(ValueError, match="arity"):
            compose(identity(2), identity(3))


def transform_peak_widths(f, ts):
    """The largest traced peak of apply_np_transform(f, t) over ts, above the
    bytes traced at the call's start, in widths of one table (2^n bits)."""
    apply_np_transform(f, ts[0])  # fills the mask caches
    peaks = []
    for t in ts:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = apply_np_transform(f, t)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        del h
    return max(peaks) / ((1 << f.n) // 8)


class TestTransformMemory:
    """The traced peak of one n = 20 transform, in table widths (a Python int
    of 2^20 bits reads 1.067 of them), over seeded random transforms and
    walks that end on the smallest and on the largest offset of the upper
    half. The peak is the join at the largest offset, 2^18: lo, the upper
    half shifted by a quarter of the table, that half moved to the top and
    the joined table. Each exchange releases its delta before the next one
    allocates, so no exchange comes near it. These transforms read 4.005
    when the walk shifted the upper half twice per exchange. The bound adds
    0.01 width for small objects and may tighten but must not loosen."""

    def test_traced_peak_n20(self):
        rng = random.Random(20)
        n = 20
        f = random_table(rng, n)
        ts = [random_transform(rng, n) for _ in range(8)]
        ts += [top_cycle(n, (n - 2, 0)), top_cycle(n, (0, n - 2)), top_cycle(n, (0, n - 2), negated=(0,))]
        peak = transform_peak_widths(f, ts)
        assert peak <= 3.48, peak


def _bits_of(bits, n):
    return [(bits >> m) & 1 for m in range(1 << n)]


class TestVariableKernels:
    """Per-minterm checks of the reference kernels: negate_var, and delta_swap
    under the masks of the reference swaps."""

    def test_swap_vars_every_pair_n7(self):
        n = 7
        rng = random.Random(11)
        bits = rng.getrandbits(1 << n)
        before = _bits_of(bits, n)
        for i in range(n):
            for j in range(n):
                after = _bits_of(swap_vars(bits, n, i, j), n)
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
                after = _bits_of(antiswap_vars(bits, n, i, j), n)
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
            after = _bits_of(negate_var(bits, n, i), n)
            assert after == [before[m ^ (1 << i)] for m in range(1 << n)], i


class TestRootFirstOrderPairs:
    """The root pairs match_npn counts once and shares with the symmetry
    build and the first SS vector of every output arm."""

    def test_shared_pairs_match_cofactor_counts(self):
        rng = random.Random(13)
        for n in range(1, 9):
            for _ in range(4):
                f = random_table(rng, n)
                pairs = first_order_pairs(f.bits, f.n)
                brute = [
                    (
                        sum(f.bits >> m & 1 for m in range(1 << n) if m >> i & 1),
                        sum(f.bits >> m & 1 for m in range(1 << n) if not m >> i & 1),
                    )
                    for i in range(n)
                ]
                assert pairs == brute
                sym = build_symmetry_classes(f, pairs)
                assert sym == build_symmetry_classes(f)
                assert root_vector(f, sym, pairs).dump() == root_vector(f, sym, brute).dump()

    def test_fold_matches_masked_popcount(self):
        # n = 15..MAX_VARS take the bit-sliced fold; constant 1 carries
        # into a new plane at every fold level
        rng = random.Random(15)
        skips = random.Random(16)  # own stream: the tables stay as they were
        for n in range(0, MAX_VARS + 1):
            vacuous = rng.getrandbits(1 << max(n - 3, 0))
            for v in range(max(n - 3, 0), n):
                vacuous |= vacuous << (1 << v)
            parity = 0
            for i in range(n):
                parity ^= var_mask(n, i)
            tables = [rng.getrandbits(1 << n), 0, full_mask(n), parity, vacuous]
            for bits in tables:
                f = TruthTable(n, bits)
                pairs = first_order_pairs(bits, n)
                total = bits.bit_count()
                want = [(bits & var_mask(n, i)).bit_count() for i in range(n)]
                assert pairs == [(p, total - p) for p in want], (n, bits.bit_count())
                for skip in (skips.getrandbits(n), skips.getrandbits(n) & skips.getrandbits(n)):
                    assert first_order_pairs(bits, n, skip) == [
                        (0, 0) if skip >> i & 1 else (p, total - p) for i, p in enumerate(want)
                    ], (n, skip)
                if n in (15, 16):
                    sym = build_symmetry_classes(f, pairs)
                    assert sym == build_symmetry_classes(f)
                    brute = root_vector(f, sym, [(p, total - p) for p in want])
                    assert root_vector(f, sym, pairs).dump() == brute.dump()

    def test_negated_arm_pairs(self):
        rng = random.Random(14)
        for n in range(0, 9):
            for _ in range(4):
                g = random_table(rng, n)
                pairs = first_order_pairs(g.bits, n)
                assert complement_pairs(pairs, n) == first_order_pairs(negate(g).bits, n)


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
