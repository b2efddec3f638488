"""Transformation search: mapping sets, pruned DFS, and top-level matching.

The search keeps one Side per function (its table restricted to the
current cube, its structural signature vector with the phase record, and
its identified variables) and an ordered mapping list (one tree branch)
whose first `splits` mappings define the cubes. Each recursion descends
once on every forced (singleton) mapping set, or once per candidate of the
smallest multiple set. Branches are pruned on vector incompatibility and
on phase collisions. The search stops at the first complete branch that
verifies bit-exactly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import signature as sig
from .boolfn import (
    NPTransformation,
    TruthTable,
    apply_np_transform,
    equal,
    full_mask,
    low_mask,
    negate,
    set_bits,
    var_mask,
)
from .symmetry import (
    SymmetryClass,
    build_symmetry_classes,
    canonical_keys,
    complement_pairs,
    first_order_pairs,
)


class BudgetExceededError(RuntimeError):
    """Raised when the search visits more nodes than the configured cap."""

    def __init__(self, nodes: int):
        super().__init__(f"node budget exceeded after {nodes} nodes")
        self.nodes = nodes


class VarMapping(NamedTuple):
    """Correspondence i -> j - k between a variable of f and one of g."""

    frm: int
    to: int
    pol: int  # 0 identical phase, 1 opposite phase

    def __str__(self):
        return f"{self.frm}->{self.to}-{self.pol}"


class MappingSet(NamedTuple):
    """The mapping set a node branches on, as Observer.on_branch gets it:
    the subject (a variable or a symmetry class's first member of f) and
    its candidates (see candidates), each the tuple of mappings it would
    commit."""

    subject: int
    candidates: tuple[tuple[VarMapping, ...], ...]


@dataclass
class SearchStats:
    nodes_visited: int = 0
    verify_calls: int = 0
    vectors_reused: int = 0  # side vectors a node took from a sibling


class Observer:
    """No-op hooks for tracing the search; subclass what you need. Each
    descend calls on_commit per mapping, then on_cubes once; a refused
    forced commit ends it with neither further call."""

    def on_arm(self, output_negated: bool):
        pass

    def on_vectors(self, depth: int, state: "MatchState"):
        pass

    def on_incompatible(self, depth: int, state: "MatchState"):
        """The node prunes. state.g.v, and with it g's phase record, is
        None at a refuted arm's root (and state.f.v too) and wherever g's
        keys differ from f's (see update)."""

    def on_collision(self, mapping: VarMapping):
        pass

    def on_commit(self, mapping: VarMapping):
        pass

    def on_cubes(self, state: "MatchState"):
        pass

    def on_branch(self, chosen: MappingSet, candidate: tuple[VarMapping, ...]):
        """Before each candidate of a branch point, in order: chosen is one
        object per branch point, and candidate is the element of
        chosen.candidates itself."""

    def on_complete(self, map_list: tuple[VarMapping, ...], verified: bool):
        pass


_NULL_OBSERVER = Observer()


class Side:
    """One function of a match. Fixed for the match: its table, its class
    layout and its root first-order pairs. The subjects are the units a
    mapping places: each plain variable and each symmetry class, named by
    its first member; classes maps a first member to its class, size holds
    each variable's class size (-1 outside every class), and subjects is
    the subjects' bit mask. Per node, each an immutable value: the current
    cube as two bit masks (its variables and their values), the table's
    bits restricted to it (an int, as a TruthTable is a whole function),
    its SS vector v with its phase record (signature.SSVector), and the
    identified bit mask. At a complete map list the cube masks hold the
    last split but restricted does not (see descend). On an arm that
    match_npn refutes, both sides hold no classes and the target has
    root_pairs None, so observers at its root see no classes and no
    vectors (v None on both sides). A node that update prunes on g's
    sorted keys leaves g with v None and f with its vector."""

    __slots__ = (
        "table", "classes", "size", "subjects", "root_pairs", "cube_vars", "cube_vals",
        "restricted", "v", "identified",
    )

    def __init__(self, table: TruthTable, sym: Sequence[SymmetryClass], root_pairs):
        self.table, self.root_pairs = table, root_pairs
        self.classes = {cls.first: cls for cls in sym}
        self.size, later = [-1] * table.n, 0  # later: the classes' later members
        for cls in sym:
            for m in cls.members:
                self.size[m] = cls.size
                later |= 1 << m
            later ^= 1 << cls.first
        self.subjects = (1 << table.n) - 1 & ~later
        self.cube_vars = self.cube_vals = self.identified = 0
        self.restricted, self.v = table.bits, None

    def save(self):
        return self.cube_vars, self.cube_vals, self.restricted, self.v, self.identified

    def load(self, saved) -> None:
        self.cube_vars, self.cube_vals, self.restricted, self.v, self.identified = saved

    def dump(self) -> str:
        """Debug rendering of v: one (pos, neg, class size, first member,
        group) per variable, the class marks -1 outside every class."""
        first = [-1] * self.table.n
        for a, cls in self.classes.items():
            for m in cls.members:
                first[m] = a
        v = self.v
        return "{" + ",".join(map(str, zip(v.pos, v.neg, self.size, first, v.group))) + "}"


@dataclass
class MatchState:
    """Live state of one transformation search: a Side for f and one for g,
    restricted to the Shannon splits on map_list[:splits] (see descend);
    the split that completes the map list enters only their cube masks."""

    f: Side
    g: Side
    map_list: list[VarMapping] = field(default_factory=list)
    splits: int = 0
    stats: SearchStats = field(default_factory=SearchStats)
    node_cap: Optional[int] = None

    def cubes(self) -> tuple[str, str]:
        """The sides' cubes in split order, for display: x2~x0 style, "true"
        when empty."""
        cube_f, cube_g = "", ""
        for m in self.map_list[: self.splits]:
            cube_f += f"x{m.frm}" if self.f.cube_vals >> m.frm & 1 else f"~x{m.frm}"
            cube_g += f"x{m.to}" if self.g.cube_vals >> m.to & 1 else f"~x{m.to}"
        return cube_f or "true", cube_g or "true"

    def snapshot(self):
        # map_list only grows between a snapshot and its restore
        return self.f.save(), self.g.save(), len(self.map_list), self.splits

    def restore(self, snap):
        saved_f, saved_g, length, self.splits = snap
        self.f.load(saved_f)
        self.g.load(saved_g)
        del self.map_list[length:]


def build_mapping_sets(state: MatchState, observer: Observer = _NULL_OBSERVER):
    """(subject, peers) for every free subject of f, in ascending order:
    peers is the bit mask of g's free subjects of the subject's class size
    (Side.size) and group. candidates expands a pair into its mapping set.

    After a compatible update, a group's free variables share one canonical
    key on each side, the same on both, and all of them, on both sides,
    have a phase record or none has (signature.update; sign_f and sign_g
    are the vectors' phase_neg masks). So for free i of f
    and j of g in one group, (|f_{x_i}|, |f_{~x_i}|) is g's (a, b) or
    (b, a), and j takes i at both polarities without a record and at
    k = sign_f[i] ^ sign_g[j] with one. When the counts differ, k must also
    be the first-order case [|f_{x_i}| != a]. It is not exactly when one of
    the two records, not both, disagrees with its counts (phase_neg is not
    the vector's lesser mask): a phase collision, dropped and reported,
    plain subjects first, each in ascending (i, j) order. A class pair is
    decided on its first members: under a cube over other variables every
    member reads the first member's group, key, counts and record, the last
    two swapped when its relative_pol is 1.
    """
    f, g = state.f, state.g
    group_f, size_f, group_g, size_g = f.v.group, f.size, g.v.group, g.size
    sign_f, sign_g = f.v.phase_neg, g.v.phase_neg
    flip_f, flip_g = sign_f ^ f.v.lesser, sign_g ^ g.v.lesser  # records that disagree
    free_f, free_g = f.subjects & ~f.identified, g.subjects & ~g.identified

    # g's free subjects by (class size, group)
    by_key = {}
    for j in set_bits(free_g):
        key = size_g[j], group_g[j]
        by_key[key] = by_key.get(key, 0) | 1 << j

    sets, clashes = [], []
    for i in set_bits(free_f):
        peers = by_key.get((size_f[i], group_f[i]), 0)
        if f.v.unequal >> i & 1 and (clash := peers & (flip_g ^ -(flip_f >> i & 1))):
            peers ^= clash
            clashes.append((i in f.classes, i, clash))
        sets.append((i, peers))
    for _, i, clash in sorted(clashes):
        for j in set_bits(clash):
            observer.on_collision(VarMapping(i, j, (sign_f >> i ^ sign_g >> j ^ 1) & 1))
    return sets


def candidates(state: MatchState, i: int, peers: int) -> tuple[tuple[VarMapping, ...], ...]:
    """The mapping set of f's subject i over its peers (see
    build_mapping_sets), in search order: ascending g subject j, polarity k
    0 before 1, k over both polarities when i has no phase record and
    sign_f[i] ^ sign_g[j] when it has one. Each candidate is the tuple of
    mappings it commits: i -> j - k for a plain variable; for a class pair,
    member t maps at k ^ rel_f[t] ^ rel_g[t] (the classes' relative_pol),
    or, when both classes are double, the first member at k and the rest
    at 0. A double class's members read equal counts under every cube over
    other variables, so they never get a phase record."""
    f, g = state.f, state.g
    cls_f = f.classes.get(i)
    known, sign = f.v.phase_known >> i & 1, f.v.phase_neg >> i
    out = []
    for j in set_bits(peers):
        pols = ((sign ^ g.v.phase_neg >> j) & 1,) if known else (0, 1)
        if cls_f is None:
            out += [(VarMapping(i, j, k),) for k in pols]
            continue
        cls_g = g.classes[j]
        if cls_f.double and cls_g.double:
            # jointly negating two members is an invariance of both
            # functions, so only the polarity parity matters: one
            # candidate per parity, set on the first member
            patterns = [(k,) + (0,) * (cls_f.size - 1) for k in pols]
        else:
            rel = [a ^ b for a, b in zip(cls_f.relative_pol, cls_g.relative_pol)]
            patterns = [[k ^ r for r in rel] for k in pols]
        out += [tuple(map(VarMapping, cls_f.members, cls_g.members, ks)) for ks in patterns]
    return tuple(out)


def descend(state: MatchState, cand: Sequence[VarMapping], observer=_NULL_OBSERVER) -> bool:
    """The paper's commit and Shannon expansion: commit cand's mappings in
    order, then split both sides on map_list[splits], the oldest mapping
    not yet split on. f's variable takes its recorded phase (positive
    without one), g's that literal flipped by the mapping's polarity. The
    cube masks always take both literals, the tables only while the map
    list is incomplete. False, with no split, at a mapping whose variable
    of g is already identified, before it commits: two forced subjects can
    claim one; a branch's peers are free."""
    f, g, map_list = state.f, state.g, state.map_list
    for m in cand:
        if g.identified >> m.to & 1:
            return False
        map_list.append(m)
        f.identified |= 1 << m.frm
        g.identified |= 1 << m.to
        observer.on_commit(m)
    m, n = map_list[state.splits], f.table.n
    state.splits += 1
    lit_f = ~f.v.phase_neg >> m.frm & 1
    for side, i, lit in ((f, m.frm, lit_f), (g, m.to, lit_f ^ m.pol)):
        side.cube_vars |= 1 << i
        side.cube_vals |= lit << i
        if len(map_list) < n:
            side.restricted &= (var_mask if lit else low_mask)(n, i)
    observer.on_cubes(state)
    return True


def transformation_from_map_list(
    map_list: Sequence[VarMapping], n: int, output_negated: bool = False
) -> NPTransformation:
    if len(map_list) != n:
        raise ValueError(f"map list has {len(map_list)} of {n} mappings")
    perm = [0] * n
    pol = [0] * n
    for m in map_list:
        perm[m.frm] = m.to
        pol[m.frm] = 1 - m.pol
    return NPTransformation(tuple(perm), tuple(pol), output_negated)


# Probe minterms checked before the full-width transform. Reading bit pos of
# a 2^n-bit table as (bits >> pos) & 1 copies the 2^n - pos bits above it
# (at n = 20: 0.2 us within 2^11 bits of the top, 23 us from the middle),
# so every probe sets the top _PROBE_TOP inputs of both read positions.
# Over the verify calls of the random_n20 and structured_mid pairs of seeds
# 1 and 2 (2-vCPU Xeon, Python 3.11), wrong map lists refuted and the
# probes' time per accepted call (us, min of 7 passes):
#               refuted, of 43 / of 7,572         us per accepted call
#   probes     2    3    4    6                 2    3    4    6
#   n = 20
#   top 3     39   38   42   43                20   28   39   50
#   top 5     37   39   42   43                17   23   28   43
#   top 7     29   38   41   43                19   27   32   46
#   n = 10..14
#   top 3   4941 5799 6248 6731               3.9  4.6  5.3  6.6
#   top 5   4861 5579 6093 6596               3.8  4.8  5.5  6.4
#   top 7   4655 5539 6076 6475               4.1  4.9  5.7  7.1
# A transform that the probes let through costs about 0.8 ms at n = 20 and
# 7 us at n = 10..14 (median over the seed-1 verify calls that reach it,
# 2-vCPU Xeon, Python 3.11.7).
_PROBES = 4
_PROBE_TOP = 5


@lru_cache(maxsize=None)
def _probe_draws(n: int) -> tuple[int, int]:
    """(lanes, draws) for _PROBES probes over n inputs, probe p in lane p
    (bits p*n to p*n + n - 1): lanes has bit 0 of every lane set, and draws
    holds the probes' fixed pseudo-random inputs."""
    lanes = sum(1 << p * n for p in range(_PROBES))
    return lanes, random.Random(n).getrandbits(_PROBES * n)


def verify(f: TruthTable, g: TruthTable, map_list: Sequence[VarMapping]) -> bool:
    """g = f under the complete map list's transform T (output not negated):
    perm[k] = j and neg[k] = p for each mapping k -> j - p. Only the exact
    full-width comparison accepts, and only it builds T. Probe minterms,
    all computed at once, one lane each, refute most wrong lists first:
    g(m) = f(a) must hold for a = T m, the point that apply_np_transform
    reads for m. m's top _PROBE_TOP inputs are 1, and for each of f's top
    inputs k, m's input perm[k] reads 1 ^ neg[k] so that a_k = 1: where the
    two collide (neg[k] = 1 and perm[k] among m's top inputs), the lower of
    the bits k and perm[k] gives way."""
    n = f.n
    if len(map_list) != n:
        raise ValueError(f"map list has {len(map_list)} of {n} mappings")
    lanes, m = _probe_draws(n)
    top = min(_PROBE_TOP, n)
    m |= lanes * ((1 << n) - (1 << (n - top)))
    for k, j, p in sorted(x for x in map_list if x.frm >= n - top):
        if not p or j <= k:
            m = m & ~(lanes << j) if p else m | lanes << j
    a = 0
    for k, j, p in map_list:
        a |= (m >> j & lanes ^ lanes * p) << k
    lane = (1 << n) - 1
    for p in range(_PROBES):
        if (g.bits >> (m >> p * n & lane) ^ f.bits >> (a >> p * n & lane)) & 1:
            return False
    return equal(apply_np_transform(f, transformation_from_map_list(map_list, n)), g)


def detect(
    state: MatchState, observer: Observer, siblings: dict
) -> Optional[tuple[VarMapping, ...]]:
    """Procedure-2 style DFS. Returns the first complete branch, in search
    order, that verifies (None when none does) and consumes the state. A
    node descends once on its forced mappings or once per candidate of the
    set it branches on, restoring a snapshot after each that fails. The
    node's depth is state.splits; every level commits a mapping, so the
    recursion is at most n + 1 deep.

    siblings is the store that the node above shares among its children
    (see signature.update); a root takes an empty one.
    """
    state.stats.nodes_visited += 1
    if state.node_cap is not None and state.stats.nodes_visited > state.node_cap:
        raise BudgetExceededError(state.stats.nodes_visited)

    if len(state.map_list) == state.f.table.n:
        state.stats.verify_calls += 1
        branch = tuple(state.map_list)
        ok = verify(state.f.table, state.g.table, branch)
        observer.on_complete(branch, ok)
        return branch if ok else None

    if not sig.update(state, siblings):
        observer.on_incompatible(state.splits, state)
        return None
    observer.on_vectors(state.splits, state)

    sets = build_mapping_sets(state, observer)
    # a peer gives a candidate per polarity the phase record allows
    known, sign_f, sign_g = state.f.v.phase_known, state.f.v.phase_neg, state.g.v.phase_neg
    forced, best = [], None
    for i, peers in sets:
        if not peers:
            return None
        size = peers.bit_count() << (not known >> i & 1)
        if size == 1 and i in state.f.classes:
            forced += candidates(state, i, peers)[0]
        elif size == 1:
            j = peers.bit_length() - 1
            forced.append(VarMapping(i, j, (sign_f >> i ^ sign_g >> j) & 1))
        elif best is None or size < best[0]:
            best = size, i, peers
    if forced:
        # every forced mapping commits together as the one candidate; the
        # nearest ancestor that branched undoes it
        return detect(state, observer, {}) if descend(state, forced, observer) else None

    # the smallest set, the lowest subject on ties; an incomplete map list
    # always leaves a free subject, so there is one
    _, i, peers = best
    chosen = MappingSet(i, candidates(state, i, peers))
    snap, children = state.snapshot(), {}
    for cand in chosen.candidates:
        observer.on_branch(chosen, cand)
        descend(state, cand, observer)
        if (found := detect(state, observer, children)) is not None:
            return found
        state.restore(snap)
    return None


class Verdict(enum.Enum):
    EQUIVALENT = "equivalent"
    NON_EQUIVALENT = "non_equivalent"


@dataclass
class MatchResult:
    verdict: Verdict
    witness: Optional[NPTransformation]
    witness_mappings: Optional[tuple[VarMapping, ...]]
    stats: SearchStats

    @property
    def equivalent(self) -> bool:
        return self.verdict is Verdict.EQUIVALENT

    def witness_text(self) -> str:
        if self.witness is None:
            return "no transformation"
        body = ", ".join(str(m) for m in self.witness_mappings)
        out = "neg" if self.witness.output_negated else "pos"
        return f"T = {{{body}}}; output={out}"


def match_npn(
    f: TruthTable,
    g: TruthTable,
    node_cap: Optional[int] = None,
    observer: Observer = _NULL_OBSERVER,
) -> MatchResult:
    """Decide NPN equivalence of f and g and produce a witness if equivalent.

    The zeroth-order counts pick the output polarity arms: detection runs
    against g when |f| = |g|, against its complement when |f| = 2^n - |g|
    (both for balanced functions), and stops at the first verified branch.
    node_cap None leaves the search unbounded; a negative cap is rejected.

    The root counts in this order:
    - each table is split once, on its top input x_{n-1}; the popcounts of
      its two halves sum to its weight, and the upper one is its count of
      x_{n-1}. A pair whose weights allow no arm stops here, unfolded;
    - f's first-order pairs are folded from f's split
      (symmetry.first_order_pairs);
    - an NP transform keeps the sorted canonical keys of the first-order
      pairs, so an arm whose key for x_{n-1}, read from g's split, is
      missing from f's keys is refuted without counting the rest of g;
    - g's pairs are folded from g's split only when an arm survives that,
      once (the negated arm's derive from them);
    - the halves are dropped, folded or not, before any arm's search.
    An arm whose full keys differ from f's is refuted too: its target gets
    root_pairs None, neither side gets classes, and the root prunes before
    any vector is built. The complement of g is built only when its arm is
    reached, and the classes once, for the first arm not refuted.
    """
    if node_cap is not None and node_cap < 0:
        raise ValueError(f"node cap {node_cap} is negative")
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    n = f.n
    half, low = (1 << n) >> 1, full_mask(n - 1) if n else 0
    # [lower half, upper half, |upper half|] per table; at n = 0 the upper
    # half is the whole table. g is split first, as its halves outlive f's
    # fold: splitting f first read 0.5-0.6 MB more peak RSS on random_n20
    # (2-vCPU Xeon, Python 3.11)
    split_g, split_f = [
        [h.bits & low, hi, hi.bit_count()] for h in (g, f) for hi in (h.bits >> half,)
    ]
    p = split_g[2]  # |g_{x_{n-1}}|
    cg, cf = split_g[0].bit_count() + p, split_f[0].bit_count() + split_f[2]
    polarities = [neg for neg, weight in ((False, cg), (True, (1 << n) - cg)) if weight == cf]
    stats = SearchStats()
    if not polarities:
        return MatchResult(Verdict.NON_EQUIVALENT, None, None, stats)
    pairs_f = first_order_pairs(f.bits, n, 0, split_f)
    keys_f = sorted(canonical_keys(pairs_f))
    # the arms whose target's pair on x_{n-1} has its key among f's keys
    alive = [
        neg for neg in polarities
        if not n or canonical_keys([(half - p, half - cg + p) if neg else (p, cg - p)])[0] in keys_f
    ]
    pairs_g = first_order_pairs(g.bits, n, 0, split_g) if alive else None
    del split_f, split_g  # a fold empties its split; these hold what no fold took
    built = None  # the classes of f and g
    for output_negated in polarities:
        target = negate(g) if output_negated else g
        target_pairs, sym_f, sym_g = None, (), ()
        if output_negated in alive:
            pairs = complement_pairs(pairs_g, n) if output_negated else pairs_g
            if sorted(canonical_keys(pairs)) == keys_f:
                if built is None:
                    built = build_symmetry_classes(f, pairs_f), build_symmetry_classes(g, pairs_g)
                target_pairs, (sym_f, sym_g) = pairs, built
        sides = Side(f, sym_f, pairs_f), Side(target, sym_g, target_pairs)
        state = MatchState(*sides, stats=stats, node_cap=node_cap)
        observer.on_arm(output_negated)
        if (found := detect(state, observer, {})) is not None:
            witness = transformation_from_map_list(found, n, output_negated)
            return MatchResult(Verdict.EQUIVALENT, witness, found, stats)
    return MatchResult(Verdict.NON_EQUIVALENT, None, None, stats)
