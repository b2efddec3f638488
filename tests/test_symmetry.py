import itertools
import random

import pytest

from npnmatch import symmetry
from npnmatch.boolfn import (
    MAX_VARS,
    NPTransformation,
    TruthTable,
    apply_np_transform,
    equal,
    full_mask,
    low_mask,
    negate,
    var_mask,
)
from npnmatch.matcher import match_npn
from npnmatch.symmetry import (
    _FOLD_ABOVE,
    _FOLD_STOP,
    SymmetryClass,
    build_symmetry_classes,
    first_order_pairs,
)

from cases import CASE4_F, CASE4_G, CASE7_F, CASE7_G, full_width_classes, symmetry_flags
from test_boolfn import antiswap_vars, random_table, random_transform, swap_vars
from test_golden import _transform, _type2, _wide_block, maiorana_mcfarland


def brute_flags(f, i, j):
    """(identical, opposite) swap invariance by explicit truth-table
    enumeration."""

    def swap_bits(m):
        bi, bj = (m >> i) & 1, (m >> j) & 1
        return m & ~((1 << i) | (1 << j)) | (bj << i) | (bi << j)

    identical = True
    opposite = True
    for m in range(1 << f.n):
        if (f.bits >> m & 1) != (f.bits >> swap_bits(m) & 1):
            identical = False
        if (f.bits >> m & 1) != (f.bits >> (swap_bits(m) ^ (1 << i) ^ (1 << j)) & 1):
            opposite = False
    return identical, opposite


class TestSymmetryFlags:
    def test_matches_brute_reference(self):
        for n in range(2, 4):
            for bits in range(1 << (1 << n)):
                f = TruthTable(n, bits)
                for i, j in itertools.permutations(range(n), 2):
                    assert symmetry_flags(f, i, j) == brute_flags(f, i, j), (f, i, j)

    def test_bad_indices(self):
        f = TruthTable.constant(3, True)
        with pytest.raises(ValueError):
            symmetry_flags(f, 0, 0)
        with pytest.raises(ValueError):
            symmetry_flags(f, 0, 3)


class TestBuildSymmetryClasses:
    def test_case4_f_one_class(self):
        classes = build_symmetry_classes(CASE4_F)
        assert [c.members for c in classes] == [(0, 1)]

    def test_case4_g_one_class(self):
        classes = build_symmetry_classes(CASE4_G)
        assert [c.members for c in classes] == [(1, 3)]

    def test_case7_classes(self):
        assert [c.members for c in build_symmetry_classes(CASE7_F)] == [(0, 4), (1, 3)]
        assert [c.members for c in build_symmetry_classes(CASE7_G)] == [(0, 2), (3, 4)]

    def test_parity_of_three_way_xor(self):
        # independent oracle: check all pairs by brute enumeration first
        f = TruthTable(3, 0b10010110)
        for i in range(3):
            for j in range(i + 1, 3):
                assert any(brute_flags(f, i, j))
        classes = build_symmetry_classes(f)
        assert [c.members for c in classes] == [(0, 1, 2)]

    def test_vacuous_variables_form_one_class(self):
        f = TruthTable.from_cover(4, [[(1, True)]])
        classes = build_symmetry_classes(f)
        assert (0, 2, 3) in [c.members for c in classes]

    def test_swap_invariance_of_reported_classes(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 5)
            f = random_table(rng, n)
            for c in build_symmetry_classes(f):
                for m, p in zip(c.members[1:], c.relative_pol[1:]):
                    # exchange the first member and m, complemented if p
                    perm = list(range(n))
                    perm[c.first], perm[m] = m, c.first
                    pol = [1] * n
                    if p:
                        pol[c.first] = pol[m] = 0
                    t = NPTransformation(tuple(perm), tuple(pol))
                    assert equal(apply_np_transform(f, t), f)

    def test_double_symmetry_flag(self):
        # parity function: every pair satisfies both swap conditions
        xor3 = TruthTable(3, 0b10010110)
        (cls,) = build_symmetry_classes(xor3)
        assert cls.members == (0, 1, 2)
        assert cls.double
        # opposite-only class is not double
        (cls4,) = build_symmetry_classes(CASE4_F)
        assert not cls4.double

    def test_np_transform_preserves_symmetry(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 5)
            f = random_table(rng, n)
            t = random_transform(rng, n, allow_output=False)
            h = apply_np_transform(f, t)
            for i in range(n):
                for j in range(i + 1, n):
                    sym_f = any(symmetry_flags(f, i, j))
                    sym_h = any(symmetry_flags(h, t.perm[i], t.perm[j]))
                    assert sym_f == sym_h


def block_function(rng, n):
    """Random blocks of inputs with random literal polarities, each read
    through its weight or its parity, combined by a random table."""
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    while order:
        size = min(len(order), rng.randint(1, 4))
        blocks.append((order[:size], rng.random() < 0.4))
        order = order[size:]
    flip = rng.getrandbits(n)
    top: dict[tuple, int] = {}
    bits = 0
    for m in range(1 << n):
        x = m ^ flip
        key = []
        for block, parity in blocks:
            weight = sum((x >> i) & 1 for i in block)
            key.append(weight & 1 if parity else weight)
        bits |= top.setdefault(tuple(key), rng.getrandbits(1)) << m
    return TruthTable(n, bits)


def plant(rng, n, kinds):
    """A random table made invariant under one swap of a fresh variable pair
    per entry of kinds: "identical", "opposite" or "double" (both). Each
    minterm reads the base table at the representative of its orbit, which
    only rewrites the pair's two bits, so pairs on disjoint variables keep
    each other's symmetry. Returns the table and the planted pairs."""
    free = list(range(n))
    rng.shuffle(free)
    pairs = [(free.pop(), free.pop(), kind) for kind in kinds]
    base, bits = rng.getrandbits(1 << n), 0
    for m in range(1 << n):
        r = m
        for i, j, kind in pairs:
            a, b = r >> i & 1, r >> j & 1
            if a > b and kind != "opposite" or a == b == 1 and kind != "identical":
                r ^= (1 << i) | (1 << j)  # to x_i = 0, x_j = 1 or to 0, 0
        bits |= (base >> r & 1) << m
    return TruthTable(n, bits), pairs


class TestBuildAgainstBruteForce:
    """The classes against explicit enumeration of both swap conditions
    for every pair of variables."""

    @staticmethod
    def check(f):
        n = f.n
        flags = {
            (i, j): brute_flags(f, i, j) for i in range(n) for j in range(i + 1, n)
        }
        owner = {}
        for c in build_symmetry_classes(f):
            assert c.size >= 2 and list(c.members) == sorted(c.members)
            assert c.relative_pol[0] == 0
            both = True
            for m, p in zip(c.members[1:], c.relative_pol[1:]):
                identical, opposite = flags[c.first, m]
                assert (identical, opposite)[p], (f, c)
                assert p == 0 or not identical, (f, c)
                both &= identical and opposite
            assert c.double == both, (f, c)
            for m in c.members:
                owner[m] = c.first
        for (i, j), (identical, opposite) in flags.items():
            if i not in owner or owner.get(i) != owner.get(j):
                assert not identical and not opposite, (f, i, j)

    def test_every_function_up_to_three_inputs(self):
        for n in range(4):
            for bits in range(1 << (1 << n)):
                self.check(TruthTable(n, bits))

    def test_seeded_block_functions(self):
        rng = random.Random(41)
        for n in range(4, 8):
            for _ in range(25):
                self.check(block_function(rng, n))

    def test_planted_pairs_with_unequal_counts(self):
        # the build tests a swap condition only where the counts allow it,
        # so planted pairs whose cofactor counts differ (p != q) must still
        # be found
        rng = random.Random(43)
        gated = {"identical": 0, "opposite": 0}
        for n in range(4, 9):
            for _ in range(12):
                kinds = [rng.choice(("identical", "opposite", "double")) for _ in range(n // 2)]
                f, pairs = plant(rng, n, kinds)
                self.check(f)
                sig = first_order_pairs(f.bits, f.n)
                for i, j, kind in pairs:
                    identical, opposite = brute_flags(f, i, j)
                    assert (identical or kind == "opposite") and (opposite or kind == "identical")
                    if kind in gated and sig[i][0] != sig[i][1]:
                        gated[kind] += 1
        # the double swap forces p = q; the other two must reach p != q
        assert min(gated.values()) >= 20, gated

    def test_bent_members(self):
        # every variable of a bent function has the same canonical cofactor
        # counts, with p != q, so every pair shares a bucket and runs one test
        rng = random.Random(47)
        for n in (4, 6, 8):
            for inner in (False, True):
                for _ in range(4):
                    self.check(maiorana_mcfarland(rng, n, inner))


class TestFullWidth:
    """The bit-parallel swap conditions at n = 15..20, where the table is a
    wide integer, against the reference swaps that test_boolfn defines and
    checks minterm by minterm."""

    def test_planted_pairs_agree_with_swap_kernels(self):
        rng = random.Random(53)
        for n in range(15, 21):
            for kind in ("identical", "opposite", "tie"):
                i, j = rng.sample(range(n), 2)
                bits = rng.getrandbits(1 << n)
                kernel = antiswap_vars if kind == "opposite" else swap_vars
                bits |= kernel(bits, n, i, j)
                if kind == "tie":
                    # set one minterm at x_i = 1, x_j = 0 and one at x_i = 0,
                    # x_j = 1 with other inputs: the counts of x_i and x_j stay
                    # tied, and the identical swap no longer holds
                    hi, lo = max(i, j), min(i, j)
                    rest = [m for m in range(64) if not m >> lo & 1 and not m >> hi & 1]
                    zeros = [m for m in rest if not bits >> (m | 1 << i) & 1]
                    a = zeros[0]
                    b = next(m for m in zeros[1:] if not bits >> (m | 1 << j) & 1 and m != a)
                    bits |= (1 << (a | 1 << i)) | (1 << (b | 1 << j))
                f = TruthTable(n, bits)
                if kind == "tie":
                    sig = first_order_pairs(f.bits, f.n)
                    assert sorted(sig[i]) == sorted(sig[j])
                others = [rng.sample(range(n), 2) for _ in range(2)]
                for a, b in [(i, j), (j, i)] + others:
                    expected = (
                        swap_vars(bits, n, a, b) == bits,
                        antiswap_vars(bits, n, a, b) == bits,
                    )
                    assert symmetry_flags(f, a, b) == expected, (n, kind, a, b)
                    if (a, b) == (i, j):
                        assert expected == (kind == "identical", kind == "opposite") or (
                            kind != "tie" and all(expected)
                        ), (n, kind, expected)


def image_classes(classes, t):
    """The classes of apply_np_transform(f, t) predicted from f's: variable
    m of f becomes perm[m], and a swap's sign flips with each input that t
    negates."""
    neg = [1 - p for p in t.input_pol]
    out = []
    for c in classes:
        rel = {t.perm[m]: r ^ neg[m] for m, r in zip(c.members, c.relative_pol)}
        members = tuple(sorted(rel))
        first = rel[members[0]]
        pols = tuple(0 if c.double else rel[m] ^ first for m in members)
        out.append(SymmetryClass(members, pols, c.double))
    return sorted(out, key=lambda c: c.first)


class TestTransformedClasses:
    """Above the brute-force limit: the classes of f under an NP transform
    are the image of f's classes, with the same sizes, double flags and
    members, and relative polarities moved by the input negations. Above
    _FOLD_ABOVE inputs, where the build refutes on slices first, the
    classes of f and of its image are also those of the full-width build
    (cases.full_width_classes)."""

    def test_bent_and_block_members(self):
        rng = random.Random(59)
        sizes = []
        for n in range(12, MAX_VARS + 1):
            members = [maiorana_mcfarland(rng, n)] if n % 2 == 0 else []
            members.append(TruthTable(n, _wide_block(rng, n)))
            for f in members:
                t = random_transform(rng, n)
                h = apply_np_transform(f, t)
                classes = build_symmetry_classes(f)
                assert build_symmetry_classes(h) == image_classes(classes, t), (n, t)
                if n > _FOLD_ABOVE:
                    assert classes == full_width_classes(f), n
                    assert build_symmetry_classes(h) == full_width_classes(h), (n, t)
                sizes += [c.size for c in classes]
        assert sizes and max(sizes) >= 3


def plant_wide(bits, n, i, j, kind):
    """bits made invariant under the identical swap of x_i and x_j (i > j),
    the opposite one, or both ("double"), without a loop over minterms:
    each orbit's cell at x_i = 0 is copied onto its other cell. Disjoint
    pairs keep each other's symmetry, as in plant."""
    if kind != "opposite":
        moving = bits & low_mask(n, i) & var_mask(n, j)  # x_i = 0, x_j = 1
        bits = bits & ~(var_mask(n, i) & low_mask(n, j)) | swap_vars(moving, n, i, j)
    if kind != "identical":
        moving = bits & low_mask(n, i) & low_mask(n, j)  # x_i = x_j = 0
        bits = bits & ~(var_mask(n, i) & var_mask(n, j)) | antiswap_vars(moving, n, i, j)
    return bits


class TestSliceRefutation:
    """Above _FOLD_ABOVE inputs the build tests a swap condition on a slice
    of the table first (symmetry._sliced_swap_invariant): 1, 2 or 4 chunks
    of 2^_FOLD_STOP bits, as none, one or both of the pair's inputs lie at
    or above _FOLD_STOP. A slice refutes only what the whole table
    refutes, so the classes equal the full-width build's
    (cases.full_width_classes)."""

    @staticmethod
    def shape(i, a):
        return (i >= _FOLD_STOP) + (a >= _FOLD_STOP)

    def test_planted_pairs_on_every_slice_shape(self, monkeypatch):
        real, accepted = symmetry._sliced_swap_invariant, {}

        def recorded(n, bits, i, a, low_i, mask_a, opposite):
            got = real(n, bits, i, a, low_i, mask_a, opposite)
            if got:
                accepted.setdefault((i, a), set()).add(opposite)
            return got

        monkeypatch.setattr(symmetry, "_sliced_swap_invariant", recorded)
        rng = random.Random(61)
        kinds = {"identical": {False}, "opposite": {True}, "double": {False, True}}
        passed = set()  # (shape, kind) of planted pairs that passed their slices
        for n in range(_FOLD_ABOVE + 1, MAX_VARS + 1):
            low, high = list(range(_FOLD_STOP)), list(range(_FOLD_STOP, n))
            for shape in range(3):
                rng.shuffle(low)
                rng.shuffle(high)
                # shape 0: both inputs below _FOLD_STOP, 1: across, 2: above
                if shape == 1:
                    upper, lower = iter(high), iter(low)
                else:
                    upper = lower = iter(high if shape == 2 else low)
                count = min(3, len(high) // 2) if shape == 2 else 3
                pairs = []
                for kind in list(kinds)[:count]:
                    i, j = next(upper), next(lower)
                    pairs.append((max(i, j), min(i, j), kind))
                bits = rng.getrandbits(1 << n)
                for i, j, kind in pairs:
                    bits = plant_wide(bits, n, i, j, kind)
                f = TruthTable(n, bits)
                accepted.clear()
                classes = build_symmetry_classes(f)
                assert classes == full_width_classes(f), (n, shape)
                owner = {m: (c.first, c.double) for c in classes for m in c.members}
                for i, j, kind in pairs:
                    assert self.shape(i, j) == shape
                    assert owner[i][0] == owner[j][0], (n, i, j, kind)
                    assert owner[i][1] == (kind == "double"), (n, i, j, kind)
                    if accepted.get((i, j)) == kinds[kind]:
                        passed.add((shape, kind))
        assert passed == {(shape, kind) for shape in range(3) for kind in kinds}, passed

    def test_slice_refutes_only_what_the_table_refutes(self, monkeypatch):
        # bent members put every pair in one bucket, so every pair reaches
        # its slice, and most are refuted there
        real, full_width = symmetry._swap_invariant, []

        def counted(bits, *args):
            full_width.append(bits.bit_length() > 1 << (_FOLD_STOP + 2))
            return real(bits, *args)

        monkeypatch.setattr(symmetry, "_swap_invariant", counted)
        rng = random.Random(67)
        tested = 0
        for n in range(16, MAX_VARS + 1, 2):
            f = maiorana_mcfarland(rng, n)
            sig = first_order_pairs(f.bits, n)
            for i in range(n):
                for a in range(i):
                    for opposite, want in enumerate((sig[a][0] == sig[i][0], sig[a][0] == sig[i][1])):
                        if not want:
                            continue
                        mask = (low_mask if opposite else var_mask)(n, a)
                        got = symmetry._sliced_swap_invariant(
                            n, f.bits, i, a, low_mask(n, i), mask, bool(opposite)
                        )
                        assert got == symmetry_flags(f, i, a)[opposite], (n, i, a, opposite)
                        tested += 1
        # a condition the slice lets through runs one full-width test
        refuted = tested - sum(full_width)
        assert refuted > 100, (tested, refuted)


def split_on_top(bits, n):
    """The fold's first step as match_npn takes it: [lo, hi, |hi|], bits's
    halves at x_{n-1} = 0 and 1 and the upper one's count."""
    hi = bits >> (1 << (n - 1))
    return [bits & full_mask(n - 1), hi, hi.bit_count()]


class TestFoldFromSplit:
    """first_order_pairs started from a given split on x_{n-1} returns the
    pairs of the whole-table fold, reads the split and not the table, and
    empties the split."""

    def test_agrees_with_the_whole_table_fold(self):
        assert _FOLD_ABOVE + 1 == 15
        rng = random.Random(83)
        for n in range(15, MAX_VARS + 1):
            half, low = 1 << (n - 1), full_mask(n - 1)
            tables = {
                "random": rng.getrandbits(1 << n),
                "zero": 0,
                "one": full_mask(n),
                "upper half zero": rng.getrandbits(half),
                "lower half zero": rng.getrandbits(half) << half,
                "upper half one": rng.getrandbits(half) | low << half,
            }
            top = 1 << (n - 1)
            # none, random ones with and without x_{n-1}, all but x_{n-1}
            skips = (0, rng.getrandbits(n) & ~top, rng.getrandbits(n) | top, (1 << n) - 1 ^ top)
            for name, bits in tables.items():
                for skip in skips:
                    split = split_on_top(bits, n)
                    want = first_order_pairs(bits, n, skip)
                    # bits None: the fold must not read the table
                    assert first_order_pairs(None, n, skip, split) == want, (n, name, skip)
                    assert split == [], (n, name)

    @pytest.mark.parametrize("n", [14, 15])
    def test_match_npn_at_the_fold_boundary(self, n):
        """n = 14 counts every variable by masked popcounts and n = 15 folds
        from the root's split (n = 0 and 1, where the split has no or one
        input below it, are checked against the oracle in test_matcher).
        Above the oracle's limit, match(f, g), match(g, f), match(f, ~g)
        and match(T(f), g) agree, and each witness maps its first argument
        onto its second."""
        rng = random.Random(89 + n)
        size = 1 << n
        f = TruthTable(n, rng.getrandbits(size))
        balanced = TruthTable(n, _type2(rng, n))
        one = next(m for m in range(size // 2) if f.bits >> m & 1)
        zero = next(m for m in range(size // 2) if not f.bits >> m & 1)
        pairs = [
            (f, apply_np_transform(f, _transform(rng, n))),
            (balanced, apply_np_transform(balanced, _transform(rng, n))),
            # a near miss: two minterms exchanged below x_{n-1}, so the top
            # input's counts agree and the full keys decide
            (f, TruthTable(n, f.bits ^ (1 << one) ^ (1 << zero))),
            (balanced, TruthTable(n, _type2(rng, n))),
        ]
        for k, (f, g) in enumerate(pairs):
            tf = apply_np_transform(f, _transform(rng, n))
            calls = (f, g), (g, f), (f, negate(g)), (tf, g)
            results = [match_npn(a, b) for a, b in calls]
            assert all(r.equivalent == (k < 2) for r in results), (n, k)
            for (a, b), r in zip(calls, results):
                if r.equivalent:
                    assert apply_np_transform(a, r.witness) == b, (n, k)


def restrict(bits, n, cube_vars, cube_vals):
    """bits ANDed with each cube literal, as descend restricts a side."""
    for v in range(n):
        if cube_vars >> v & 1:
            bits &= var_mask(n, v) if cube_vals >> v & 1 else low_mask(n, v)
    return bits


class TestCofactorCounts:
    """Given the cube of a restricted table, first_order_pairs counts its
    compacted cofactor above _FOLD_ABOVE inputs and returns the pairs of
    the masked full-width fold, for any skip mask."""

    def test_agrees_with_the_masked_fold(self):
        rng = random.Random(101)
        shapes = set()
        for n in range(_FOLD_ABOVE + 1, MAX_VARS + 1):
            cubes = [[n - 1], [0], [0, n - 1]]
            if n - _FOLD_ABOVE <= 4:
                # leaves _FOLD_ABOVE inputs: the cofactor takes masked popcounts
                cubes.append(rng.sample(range(n), n - _FOLD_ABOVE))
            cubes += [rng.sample(range(n), rng.randint(1, 4)) for _ in range(4)]
            for cube in cubes:
                cube_vars = sum(1 << v for v in cube)
                for _ in range(2):
                    cube_vals = rng.getrandbits(n) & cube_vars
                    bits = restrict(rng.getrandbits(1 << n), n, cube_vars, cube_vals)
                    # the search's skip holds the cube; the others need not
                    for skip in (0, rng.getrandbits(n), cube_vars | rng.getrandbits(n)):
                        want = first_order_pairs(bits, n, skip)
                        got = first_order_pairs(bits, n, skip, cube=(cube_vars, cube_vals))
                        assert got == want, (n, cube, cube_vals, skip)
                    shapes.add(n - len(cube) <= _FOLD_ABOVE)
        assert shapes == {False, True}

    def test_empty_and_full_cofactors(self):
        # an all-zero or all-one cofactor, and a cube on every input
        n = _FOLD_ABOVE + 2
        for cube_vars in (0b101 << 7, (1 << n) - 1):
            for cube_vals in (0, cube_vars, cube_vars & 0x5555):
                ones = restrict(full_mask(n), n, cube_vars, cube_vals)
                for bits in (0, ones):
                    for skip in (0, cube_vars):
                        got = first_order_pairs(bits, n, skip, cube=(cube_vars, cube_vals))
                        assert got == first_order_pairs(bits, n, skip), (cube_vars, cube_vals)
