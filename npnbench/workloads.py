"""The three workloads: seeded inputs with ground truth, and the closed loop
that drives them.

One caller, one process: each match_npn call starts when the previous one
has returned. Every call is checked after the timed region against ground
truth that does not come from the matcher.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from npnmatch import BudgetExceededError, TruthTable, apply_np_transform, random_equivalent_pair
from npnmatch.oracle import enumerate_npn_classes

import groundtruth as gt

# A search that needs more nodes than this counts as a failure instead of
# hanging the run. The structured families stay below a few hundred.
NODE_CAP = 20_000

RANDOM_N = 20
# Twice as many type1 as type2 pairs: a balanced (type2) pair runs both
# output arms and costs about twice as much, so an even mix would put the
# median on the boundary between the two cost modes.
RANDOM_MIX = (("type1", 128), ("type2", 64))

# (family, sizes); every (family, n) gets STRUCTURED_PER pairs of each truth.
STRUCTURED = (
    ("bent", (10, 12, 14)),
    ("rotation", (10, 12, 14)),
    ("block", (12, 13, 14)),
    ("vacuous", (10, 12, 14)),
)
STRUCTURED_PER = 48

PARTITION_N = 4
PARTITION_SAMPLE = 400  # functions classified per round
PARTITION_ROUNDS = 8  # distinct rounds built at set-up; a run cycles them


@dataclass
class Inputs:
    """Pairs with their truth, or partition rounds; certify_s is the part of
    set-up spent establishing ground truth."""

    pairs: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    canonical: tuple = ()
    certify_s: float = 0.0

    def order(self, rng: random.Random) -> list[int]:
        out = list(range(len(self.pairs)))
        rng.shuffle(out)
        return out


@dataclass(frozen=True)
class Round:
    functions: tuple[TruthTable, ...]
    keys: tuple


class CertifyClock:
    """Accumulates the time spent in ground-truth certification."""

    def __init__(self):
        self.spent = 0.0

    def certify(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spent += time.perf_counter() - t0


def random_equivalent(rng: random.Random, n: int, kind: str, k: int) -> gt.Pair:
    if kind == "type1":
        f, g, _ = random_equivalent_pair(n, "type1_random", rng.getrandbits(62))
        return gt.Pair(f, g, True, kind)
    # the library's balanced generator sets 2^(n-1) bits one at a time,
    # which takes seconds at n = 20
    return gt.equivalent_pair(rng, n, gt.balanced_table(rng, n), kind, k % 2 == 1)


def random_nonequivalent(rng: random.Random, n: int, kind: str, k: int, clock: CertifyClock) -> gt.Pair:
    """Equal (even k) or complementary (odd k) minterm counts for type1,
    two balanced functions for type2: both pass the zeroth-order filter."""
    while True:
        if kind == "type1":
            f = rng.getrandbits(1 << n)
            cf = f.bit_count()
            g = gt.with_count(rng, n, rng.getrandbits(1 << n), (1 << n) - cf if k % 2 else cf)
        else:
            f, g = gt.balanced_table(rng, n), gt.balanced_table(rng, n)
        if clock.certify(gt.certified_nonequivalent, f, g, n):
            return gt.Pair(TruthTable(n, f), TruthTable(n, g), False, kind)


def _no_tick():
    pass


def build_random_n20(rng: random.Random, tick=_no_tick) -> Inputs:
    """tick() is called after every pair (the set-up timer's hook)."""
    clock, pairs = CertifyClock(), []
    for kind, count in RANDOM_MIX:
        for make in (random_equivalent, lambda *a: random_nonequivalent(*a, clock)):
            for k in range(count):
                pairs.append(make(rng, RANDOM_N, kind, k))
                tick()
    return Inputs(pairs=pairs, certify_s=clock.spent)


def structured_pairs(rng: random.Random, family: str, n: int, per: int, clock: CertifyClock,
                     attempts: int = 1000, tick=_no_tick) -> list[gt.Pair]:
    """per equivalent and per certified non-equivalent pairs of one family."""
    out = []
    for k in range(per):
        out.append(gt.equivalent_pair(rng, n, gt.family_member(rng, family, n), family, k % 2 == 1))
        tick()
    for _ in range(attempts):
        if len(out) == 2 * per:
            return out
        tick()
        cand = gt.family_candidate(rng, family, n)
        if cand is not None and clock.certify(gt.structured_nonequivalent, *cand, n):
            out.append(gt.Pair(TruthTable(n, cand[0]), TruthTable(n, cand[1]), False, family))
    raise RuntimeError(f"{family} n={n}: no certified non-equivalent pair in {attempts} candidates")


def build_structured_mid(rng: random.Random, tick=_no_tick) -> Inputs:
    clock, pairs = CertifyClock(), []
    for family, sizes in STRUCTURED:
        for n in sizes:
            pairs += structured_pairs(rng, family, n, STRUCTURED_PER, clock, tick=tick)
    return Inputs(pairs=pairs, certify_s=clock.spent)


def partition_key(f: int, n: int) -> tuple:
    """Bucket key for the greedy partition: an NPN invariant, so equivalent
    functions always share a bucket."""
    comp = f ^ gt.full(n)
    return min((f.bit_count(), gt.first_order_key(f, n)),
               (comp.bit_count(), gt.first_order_key(comp, n)))


def build_partition_n4(rng: random.Random, tick=_no_tick) -> Inputs:
    n, clock = PARTITION_N, CertifyClock()
    canonical = clock.certify(enumerate_npn_classes, n).canonical
    rounds = []
    for _ in range(PARTITION_ROUNDS):
        tick()
        sample = rng.sample(range(1 << (1 << n)), PARTITION_SAMPLE)
        rounds.append(Round(tuple(TruthTable(n, v) for v in sample),
                            tuple(partition_key(v, n) for v in sample)))
    return Inputs(rounds=rounds, canonical=canonical, certify_s=clock.spent)


BUILDERS = {
    "random_n20": build_random_n20,
    "structured_mid": build_structured_mid,
    "partition_n4": build_partition_n4,
}


# ------------------------------------------------------------------ loops


@dataclass
class Call:
    """One timed match_npn call: inputs, truth, seconds, and the result or
    the exception it raised. Calls with equal keys repeat the same inputs."""

    key: object
    f: TruthTable
    g: TruthTable
    equivalent: bool
    family: str
    seconds: float
    outcome: object
    observer: object = None


def timed_call(match, f: TruthTable, g: TruthTable, observe=None):
    """(seconds, result or exception, observer) of one match call."""
    kwargs = {"node_cap": NODE_CAP}
    if observe is not None:
        kwargs["observer"] = observe()
    t0 = time.perf_counter()
    try:
        outcome = match(f, g, **kwargs)
    except Exception as exc:  # any exception is a failed call
        outcome = exc
    return time.perf_counter() - t0, outcome, kwargs.get("observer")


def run_pairs(inputs: Inputs, order: list[int], match, calls: list, observe=None) -> float:
    """Call match once on each pair, in order. Returns the loop's wall time."""
    t_begin = time.perf_counter()
    for idx in order:
        p = inputs.pairs[idx]
        calls.append(Call(idx, p.f, p.g, p.equivalent, p.family, *timed_call(match, p.f, p.g, observe)))
    return time.perf_counter() - t_begin


def run_round(inputs: Inputs, r: int, match, calls: list, observe=None) -> tuple[list[int], float]:
    """Greedy NPN partition of round r: each function is matched against
    the representatives already in its bucket and joins the first that
    matches, or becomes a representative. Returns the labels (the
    representative's bits) and the loop's wall time. A call's key is its
    position in the round, so calls must start empty."""
    canonical = inputs.canonical
    rnd = inputs.rounds[r]
    buckets: dict = {}
    labels = []
    t_begin = time.perf_counter()
    for f, key in zip(rnd.functions, rnd.keys):
        label = f.bits
        for rep in buckets.setdefault(key, []):
            call = Call((r, len(calls)), rep, f, canonical[rep.bits] == canonical[f.bits], "n4",
                        *timed_call(match, rep, f, observe))
            calls.append(call)
            if not isinstance(call.outcome, Exception) and call.outcome.equivalent:
                label = rep.bits
                break
        else:
            buckets[key].append(f)
        labels.append(label)
    return labels, time.perf_counter() - t_begin


def check_call(call: Call) -> str | None:
    """Why the call failed, or None when its verdict matches the truth and
    an equivalent witness reproduces g bit-exactly."""
    outcome = call.outcome
    if isinstance(outcome, BudgetExceededError):
        return f"node cap {NODE_CAP} exceeded"
    if isinstance(outcome, Exception):
        return f"raised {outcome!r}"
    if outcome.equivalent != call.equivalent:
        return f"verdict {outcome.verdict.value}, truth equivalent={call.equivalent}"
    if outcome.equivalent and apply_np_transform(call.f, outcome.witness) != call.g:
        return "witness does not reproduce g"
    return None


def check_labels(inputs: Inputs, rnd: Round, labels: list[int]) -> bool:
    """The partition's labels and the enumerated canonical labels must be in
    bijection over the round's functions."""
    fwd, back = {}, {}
    for f, mine in zip(rnd.functions, labels):
        theirs = inputs.canonical[f.bits]
        if fwd.setdefault(theirs, mine) != mine or back.setdefault(mine, theirs) != theirs:
            return False
    return True
