import itertools
import random

import pytest

from npnmatch.boolfn import NPTransformation, TruthTable, apply_np_transform, equal
from npnmatch.symmetry import build_symmetry_classes, symmetry_flags

from cases import CASE4_F, CASE4_G, CASE7_F, CASE7_G
from test_boolfn import random_table, random_transform


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
