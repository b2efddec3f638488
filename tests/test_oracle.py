import hashlib
import random
import statistics
from collections import Counter

import pytest

from npnmatch.boolfn import (
    MAX_VARS,
    TruthTable,
    apply_np_transform,
    count_minterms,
    equal,
    negate,
)
from npnmatch.matcher import match_npn
from npnmatch.oracle import (
    enumerate_npn_classes,
    exhaustive_match,
    random_equivalent_pair,
    random_function,
)
from npnmatch.workbench import serialize_function

from cases import CASE3_F, CASE3_G, TRIO_A, TRIO_C, all_transformations
from test_boolfn import random_table, random_transform
from test_golden import _with_weight


class TestExhaustiveMatch:
    def test_three_variable_pair(self):
        t = exhaustive_match(CASE3_F, CASE3_G)
        assert t is not None
        assert equal(apply_np_transform(CASE3_F, t), CASE3_G)

    def test_trio_absent(self):
        assert exhaustive_match(TRIO_A, TRIO_C) is None

    def test_xor_against_xnor(self):
        f = TruthTable(2, 0b0110)
        t = exhaustive_match(f, negate(f))
        assert t is not None
        assert t.perm == (0, 1)
        assert t.output_negated

    def test_first_in_reference_order(self):
        rng = random.Random(3)
        f = random_table(rng, 3)
        t = exhaustive_match(f, f)
        for cand in all_transformations(3):
            if cand == t:
                break
            assert not equal(apply_np_transform(f, cand), f)

    def test_same_first_transform_as_plain_scan(self):
        # the minterm counts skip only transforms that cannot match
        def plain_scan(f, g):
            for t in all_transformations(f.n):
                if equal(apply_np_transform(f, t), g):
                    return t
            return None

        pairs = [
            (TruthTable(n, a), TruthTable(n, b))
            for n in (0, 1, 2)
            for a in range(1 << (1 << n))
            for b in range(1 << (1 << n))
        ]
        rng = random.Random(71)
        for k in range(60):
            f = random_table(rng, 3)
            g = apply_np_transform(f, random_transform(rng, 3)) if k % 2 else random_table(rng, 3)
            pairs.append((f, g))
        # n = 4, 5: balanced pairs (both outputs pass the count filter),
        # pairs matched only through the negated output, non-equivalent ones
        for n in (4, 5):
            for seed in range(3):
                f = random_function(n, "type2", 100 * n + seed)
                t = random_transform(rng, n)
                pairs.append((f, apply_np_transform(f, t)))
                pairs.append((f, negate(apply_np_transform(f, t))))
                pairs.append((f, random_function(n, "type2", 100 * n + seed + 50)))
                f = random_table(rng, n)
                while 2 * count_minterms(f) == 1 << n:
                    f = random_table(rng, n)
                pairs.append((f, negate(apply_np_transform(f, random_transform(rng, n, False)))))
                pairs.append((f, random_table(rng, n)))
        for f, g in pairs:
            assert exhaustive_match(f, g) == plain_scan(f, g), (f, g)

    def test_budget_guard(self):
        big = TruthTable.constant(9, True)
        with pytest.raises(ValueError):
            exhaustive_match(big, big)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            exhaustive_match(TruthTable.constant(2, True), TruthTable.constant(3, True))


class TestEnumerateClasses:
    def test_n2_has_four_classes(self):
        assert enumerate_npn_classes(2).count == 4

    def test_n3_has_fourteen_classes(self):
        assert enumerate_npn_classes(3).count == 14

    def test_representatives_are_canonical_minima(self):
        classes = enumerate_npn_classes(2)
        for rep in classes.representatives:
            assert classes.canonical[rep.bits] == rep.bits

    @pytest.mark.parametrize("n", range(5))
    def test_same_partition_as_plain_scan(self, n):
        # the reference applies every transform on its own, without the
        # orbit walk that enumerate_npn_classes and exhaustive_match share
        canonical, reps = [-1] * (1 << (1 << n)), []
        for v in range(len(canonical)):
            if canonical[v] == -1:
                f = TruthTable(n, v)
                for t in all_transformations(n):
                    canonical[apply_np_transform(f, t).bits] = v
                reps.append(f)
        classes = enumerate_npn_classes(n)
        assert classes.canonical == tuple(canonical)
        assert classes.representatives == tuple(reps)

    def test_canonicalization_matches_exhaustive(self):
        classes = enumerate_npn_classes(3)
        rng = random.Random(7)
        for _ in range(30):
            f = random_table(rng, 3)
            g = random_table(rng, 3)
            same_class = classes.canonical[f.bits] == classes.canonical[g.bits]
            assert same_class == (exhaustive_match(f, g) is not None)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            enumerate_npn_classes(5)
        with pytest.raises(ValueError, match=r"n=-1 out of range \[0, 4\]"):
            enumerate_npn_classes(-1)


class TestRandomFunction:
    def test_type2_is_balanced(self):
        for seed in range(10):
            f = random_function(7, "type2_balanced", seed)
            assert count_minterms(f) == 64

    def test_seed_determinism(self):
        for kind in ("type1_random", "type2_balanced"):
            assert random_function(9, kind, 42) == random_function(9, kind, 42)

    def test_type1_mean_count(self):
        n, samples = 12, 1000
        counts = [
            count_minterms(random_function(n, "type1_random", seed))
            for seed in range(samples)
        ]
        mean = statistics.fmean(counts)
        sigma_of_mean = ((1 << n) * 0.25 / samples) ** 0.5
        assert abs(mean - (1 << (n - 1))) < 3 * sigma_of_mean

    def test_kind_aliases(self):
        assert random_function(5, "type1", 1) == random_function(5, "type1_random", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_function(5, "type3", 1)

    # checked before drawing: type2 above 22 inputs would build a
    # 2^(n-1)-element sample before TruthTable could reject the table
    @pytest.mark.parametrize(
        "n, kind", [(-1, "type1"), (-1, "type2"), (40, "type1"), (40, "type2"), (23, "type1")]
    )
    def test_out_of_range_n_rejected(self, n, kind):
        with pytest.raises(ValueError, match=rf"n={n} out of range \[0, {MAX_VARS}\]"):
            random_function(n, kind, 1)
        with pytest.raises(ValueError, match=rf"n={n} out of range \[0, {MAX_VARS}\]"):
            random_equivalent_pair(n, kind, 1)

    def test_type2_tables_are_pinned(self):
        # sha256 of the hex form that `npnmatch gen` prints, so a faster
        # draw cannot move the generated functions
        pinned = {
            (0, 1): "8cf717f707be23c73fdc95edd5e4a394b9d79ab37d918ff414b9f3fedb595273",
            (1, 2): "d2d7a055a93c9cbdd61f007242a2ac92531351e017c4be3d30a1f4688ec38d2d",
            (3, 7): "a2be3837d3b2ff292437b790e0ab26271429f521f998e317775d826f07de063c",
            (6, 11): "a9bc43b04f8731dc878be7d4029f25aed4c80e50dde87206913ae0835b178b25",
            (10, 3): "10448f0640c8761a067bcd022477526377e36e0ce35994ee7a74686b8dc2fa4a",
            (16, 5): "ae3a0749b72e52e4c520a26a24d3d4ce1b883317664aed49c92272fd3f819fad",
            (20, 1): "56847f56e98c27de0d30792f3532fded08115f40c8864eb8f624175b854f0a30",
        }
        for (n, seed), digest in pinned.items():
            text = serialize_function(random_function(n, "type2", seed))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, seed)

    def test_type2_draw_is_the_random_sample(self):
        # the generator walks the pool that rng.sample walks over
        # range(2^n), so it picks the same minterms from the same seed
        for n, seed in [(0, 5), (1, 6), (2, 7), (3, 8), (5, 9), (8, 10), (11, 11), (14, 12)]:
            size = 1 << n
            picked = random.Random(seed).sample(range(size), size // 2)
            assert random_function(n, "type2", seed).bits == sum(1 << m for m in picked), (n, seed)


class TestRandomEquivalentPair:
    def test_pair_is_equivalent_by_construction(self):
        for seed in range(8):
            f, g, t = random_equivalent_pair(6, "type1_random", seed)
            assert equal(apply_np_transform(f, t), g)
            assert match_npn(f, g).equivalent

    def test_oracle_confirms_small_pairs(self):
        for seed in range(5):
            f, g, _ = random_equivalent_pair(4, "type2_balanced", seed)
            assert exhaustive_match(f, g) is not None

    def test_seed_determinism(self):
        a = random_equivalent_pair(8, "type2_balanced", 99)
        b = random_equivalent_pair(8, "type2_balanced", 99)
        assert a == b


class TestOracleMatcherAgreement:
    def test_small_n_random_pairs(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 4)
            if rng.random() < 0.5:
                f = random_table(rng, n)
                g = apply_np_transform(f, random_transform(rng, n))
            else:
                f, g = random_table(rng, n), random_table(rng, n)
            assert match_npn(f, g).equivalent == (exhaustive_match(f, g) is not None)

    @staticmethod
    def check(f, g):
        result = match_npn(f, g)
        assert result.equivalent == (exhaustive_match(f, g) is not None), (f, g)
        if result.equivalent:
            assert apply_np_transform(f, result.witness) == g, (f, g)
        return result.equivalent

    def test_every_pair_at_n2(self):
        # where g's top input refutes an arm most often (see matcher._arm_states)
        tables = [TruthTable(2, v) for v in range(16)]
        for f in tables:
            for g in tables:
                self.check(f, g)

    @pytest.mark.parametrize("n", [3, 4])
    def test_weight_matched_pairs(self, n):
        # every pair enters the search: half are a transformed f, the rest a
        # random table reweighted to f's weight (even k) or its complement's
        # (odd k), so both output arms see equivalent and refuted pairs
        rng = random.Random(73 + n)
        seen = Counter()
        for k in range(300):
            f = random_table(rng, n)
            if k % 4 < 2:
                g = apply_np_transform(f, random_transform(rng, n))
            else:
                weight = count_minterms(f) if k % 2 == 0 else (1 << n) - count_minterms(f)
                g = TruthTable(n, _with_weight(rng, n, rng.getrandbits(1 << n), weight))
            seen[k % 4 < 2, self.check(f, g)] += 1
        assert seen[True, False] == 0 and seen[False, False] >= 50, seen

    def test_spot_checks_n5_n6(self):
        rng = random.Random(13)
        for n in (5, 6):
            for _ in range(6):
                f, g = random_table(rng, n), random_table(rng, n)
                assert match_npn(f, g).equivalent == (
                    exhaustive_match(f, g) is not None
                )
