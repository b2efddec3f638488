"""Transformation search: mapping sets, pruned DFS, and top-level matching.

The search keeps one Side per function (its table restricted to the
current cube, its structural signature vector, identified variables and
phase masks) and an ordered mapping list (one tree branch) whose first
`splits` mappings define the cubes. Each recursion either commits every
forced (singleton) mapping set, or branches over the smallest multiple set.
Branches are pruned on vector incompatibility and on phase collisions. Each
complete branch is verified bit-exactly and reported with its verdict.
"""

from __future__ import annotations

import enum
from contextlib import closing
from dataclasses import dataclass, field
from itertools import starmap
from typing import Iterator, NamedTuple, Optional, Sequence

from . import signature as sig
from .boolfn import (
    NPTransformation,
    TruthTable,
    apply_np_transform,
    count_minterms,
    equal,
    low_mask,
    negate,
    var_mask,
)
from .symmetry import (
    SymmetryClass,
    build_symmetry_classes,
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


@dataclass(frozen=True)
class MappingSet:
    """Candidates for one subject: a variable or a symmetry class of f.

    Each candidate is the tuple of variable mappings it would commit
    (a single mapping for plain variables, one per member for classes).
    build_mapping_sets gives each mapping as a plain (frm, to, pol) triple;
    the search names them as VarMappings only in the set it branches on and
    in the forced mappings it commits.
    """

    subject: int
    candidates: tuple[tuple[VarMapping, ...], ...]

    @property
    def cardinality(self) -> int:
        return len(self.candidates)


@dataclass
class SearchStats:
    nodes_visited: int = 0
    verify_calls: int = 0
    vectors_reused: int = 0  # side vectors a node took from a sibling


class Observer:
    """No-op hooks for tracing the search; subclass what you need."""

    def on_arm(self, output_negated: bool):
        pass

    def on_vectors(self, depth: int, state: "MatchState"):
        pass

    def on_incompatible(self, depth: int, state: "MatchState"):
        pass

    def on_collision(self, mapping: VarMapping):
        pass

    def on_commit(self, mapping: VarMapping):
        pass

    def on_cubes(self, state: "MatchState"):
        pass

    def on_branch(self, chosen: MappingSet, candidate: tuple[VarMapping, ...]):
        pass

    def on_complete(self, map_list: tuple[VarMapping, ...], verified: bool):
        pass


_NULL_OBSERVER = Observer()


class Side:
    """One function of a match. Fixed for the match: its table, symmetry
    classes, their marks (signature.symmetry_marks) and its root first-order
    pairs. Per node, each an immutable value: the current cube as two bit
    masks (its variables and their values), the table restricted to it, its
    SS vector v, the identified bit mask, and the phase record as two bit
    masks: phase_known marks the variables whose phase is determined,
    phase_neg those of them whose phase is negative."""

    __slots__ = (
        "table", "sym", "marks", "root_pairs", "cube_vars", "cube_vals",
        "restricted", "v", "identified", "phase_known", "phase_neg",
    )

    def __init__(self, table: TruthTable, sym: Sequence[SymmetryClass], root_pairs):
        self.table, self.sym, self.root_pairs = table, sym, root_pairs
        self.marks = sig.symmetry_marks(sym, table.n)
        self.cube_vars = self.cube_vals = self.identified = self.phase_known = self.phase_neg = 0
        self.restricted, self.v = table, None

    def save(self):
        return (
            self.cube_vars, self.cube_vals, self.restricted, self.v, self.identified,
            self.phase_known, self.phase_neg,
        )

    def load(self, saved) -> None:
        (
            self.cube_vars, self.cube_vals, self.restricted, self.v, self.identified,
            self.phase_known, self.phase_neg,
        ) = saved

    def narrow(self, i: int, positive: bool) -> None:
        """Restrict to the literal x_i (positive) or ~x_i."""
        n = self.table.n
        self.cube_vars |= 1 << i
        self.cube_vals |= positive << i
        cut = var_mask(n, i) if positive else low_mask(n, i)
        self.restricted = TruthTable(n, self.restricted.bits & cut)


@dataclass
class MatchState:
    """Live state of one transformation search: a Side for f and one for g.

    The sides are restricted to the Shannon splits on map_list[:splits]
    (see cubes()). The split that completes the map list leaves them as
    they are, because the node below it only verifies.
    """

    f: Side
    g: Side
    map_list: list[VarMapping] = field(default_factory=list)
    splits: int = 0
    stats: SearchStats = field(default_factory=SearchStats)
    node_cap: Optional[int] = None

    def split_sides(self, m: VarMapping) -> tuple[bool, bool]:
        """Literal phases of the split on m: f's variable takes its recorded
        phase (positive when undetermined), g's follows m's polarity."""
        side_f = not self.f.phase_neg >> m.frm & 1
        return side_f, side_f ^ (m.pol == 1)

    def cubes(self) -> tuple[str, str]:
        """The cubes that the sides are restricted to, for display: x2~x0
        style, "true" when empty."""
        cube_f, cube_g = "", ""
        for m in self.map_list[: self.splits]:
            side_f, side_g = self.split_sides(m)
            cube_f += f"x{m.frm}" if side_f else f"~x{m.frm}"
            cube_g += f"x{m.to}" if side_g else f"~x{m.to}"
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
    """Mapping sets for every unidentified variable and symmetry class.

    Candidates must agree on group mark and symmetry marks and satisfy one of
    the two first-order cases; candidates contradicting the phase records are
    excluded here (a collision the observer gets to see).
    """
    f, g = state.f, state.g
    pos_f, neg_f, group_f = f.v.pos, f.v.neg, f.v.group
    pos_g, neg_g, group_g = g.v.pos, g.v.neg, g.v.group
    known_f, known_g = f.phase_known, g.phase_known
    sign_f, sign_g = f.phase_neg, g.phase_neg
    idf, idg = f.identified, g.identified
    n = f.table.n

    def pair_pols(i: int, j: int) -> tuple[int, ...]:
        """Polarities k for which i -> j - k passes the group mark, one of the
        first-order cases and the phase records; a case the records rule out
        is reported as a collision."""
        if group_f[i] != group_g[j]:
            return ()
        p, q, a, b = pos_f[i], neg_f[i], pos_g[j], neg_g[j]
        pols = (0,) if p == a and q == b else ()
        if p == b and q == a:
            pols += (1,)
        if not pols or not known_f >> i & known_g >> j & 1:
            return pols
        need = (sign_f >> i ^ sign_g >> j) & 1
        if need in pols:
            return (need,)
        for k in pols:
            observer.on_collision(VarMapping(i, j, k))
        return ()

    sets: list[MappingSet] = []

    # free plain variables of g by group; a variable of f meets only its own
    peers: dict[int, list[int]] = {}
    skip_g = idg | g.marks.members
    for j in range(n):
        if not skip_g >> j & 1:
            peers.setdefault(group_g[j], []).append(j)
    skip_f = idf | f.marks.members
    for i in range(n):
        if skip_f >> i & 1:
            continue
        cands = tuple(((i, j, k),) for j in peers.get(group_f[i], ()) for k in pair_pols(i, j))
        sets.append(MappingSet(i, cands))

    # a class's members enter no plain set and every class candidate maps
    # all of them, so a class is either wholly identified or wholly free
    free_g = [cls for cls in g.sym if not idg >> cls.first & 1]

    for cls_f in f.sym:
        if idf >> cls_f.first & 1:
            continue
        cands = []
        for cls_g in free_g:
            if cls_g.size != cls_f.size:
                continue
            member_pols: list[tuple[int, ...]] = []
            for a, b in zip(cls_f.members, cls_g.members):
                pols = pair_pols(a, b)
                if not pols:
                    break
                member_pols.append(pols)
            if len(member_pols) < cls_f.size:
                continue
            if cls_f.double and cls_g.double:
                # jointly negating two members is an invariance of both
                # functions, so only the polarity parity matters: one
                # candidate per achievable parity
                base = [p[0] for p in member_pols]
                patterns = [base]
                free = next((t for t, p in enumerate(member_pols) if len(p) == 2), None)
                if free is not None:
                    patterns.append([k ^ (t == free) for t, k in enumerate(base)])
            else:
                rel = [a ^ b for a, b in zip(cls_f.relative_pol, cls_g.relative_pol)]
                base_pols = {0, 1}
                for r, pols in zip(rel, member_pols):
                    base_pols &= {p ^ r for p in pols}
                patterns = [[base ^ r for r in rel] for base in sorted(base_pols)]
            for ks in patterns:
                cands.append(tuple(zip(cls_f.members, cls_g.members, ks)))
        sets.append(MappingSet(cls_f.first, tuple(cands)))

    sets.sort(key=lambda s: s.subject)
    return sets


def select_min_set(sets: Sequence[MappingSet]) -> MappingSet:
    """First set of minimum cardinality (lowest subject index on ties)."""
    if not sets:
        raise ValueError("no mapping sets to select from")
    return min(sets, key=lambda s: (s.cardinality, s.subject))


def _named(candidate) -> tuple[VarMapping, ...]:
    return tuple(starmap(VarMapping, candidate))


def commit_mapping(state: MatchState, m: VarMapping) -> None:
    state.map_list.append(m)
    state.f.identified |= 1 << m.frm
    state.g.identified |= 1 << m.to


def extend_cubes(state: MatchState) -> None:
    """Shannon-split on the oldest committed mapping not yet used: narrow
    each side by one literal."""
    m = state.map_list[state.splits]
    state.splits += 1
    if len(state.map_list) == state.f.table.n:
        return  # the node below only verifies and reads neither table
    side_f, side_g = state.split_sides(m)
    state.f.narrow(m.frm, side_f)
    state.g.narrow(m.to, side_g)


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


def verify(f: TruthTable, g: TruthTable, map_list: Sequence[VarMapping]) -> bool:
    t = transformation_from_map_list(map_list, f.n)
    return equal(apply_np_transform(f, t), g)


def detect(
    state: MatchState,
    observer: Observer = _NULL_OBSERVER,
    _siblings: Optional[dict] = None,
    _depth: int = 0,
) -> Iterator[tuple[tuple[VarMapping, ...], bool]]:
    """Procedure-2 style DFS. Yields (map_list, verified) for each complete
    branch, in search order. The state is back at its entry value once the
    generator is exhausted or closed.

    _siblings is the store that the node above shares among its children
    (see signature.update).
    """
    state.stats.nodes_visited += 1
    if state.node_cap is not None and state.stats.nodes_visited > state.node_cap:
        raise BudgetExceededError(state.stats.nodes_visited)

    if len(state.map_list) == state.f.table.n:
        state.stats.verify_calls += 1
        branch = tuple(state.map_list)
        ok = verify(state.f.table, state.g.table, branch)
        observer.on_complete(branch, ok)
        yield branch, ok
        return

    snap = state.snapshot()
    try:
        if not sig.update(state, {} if _siblings is None else _siblings):
            observer.on_incompatible(_depth, state)
            return
        observer.on_vectors(_depth, state)

        sets = build_mapping_sets(state, observer)
        if any(s.cardinality == 0 for s in sets):
            return

        singles = [s for s in sets if s.cardinality == 1]
        if singles:
            # every forced mapping commits together as the one candidate;
            # nothing follows it, so the entry snapshot serves for its undo
            chosen, inner = None, snap
            candidates = [_named(m for s in singles for m in s.candidates[0])]
        else:
            best, inner = select_min_set(sets), state.snapshot()
            chosen = MappingSet(best.subject, tuple(map(_named, best.candidates)))
            candidates = chosen.candidates
        children: dict = {}
        for cand in candidates:
            if chosen is not None:
                observer.on_branch(chosen, cand)
            for m in cand:
                # two forced subjects can claim the same variable of g
                if state.g.identified >> m.to & 1:
                    break
                commit_mapping(state, m)
                observer.on_commit(m)
            else:
                extend_cubes(state)
                observer.on_cubes(state)
                yield from detect(state, observer, children, _depth + 1)
            state.restore(inner)
    finally:
        state.restore(snap)


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


def _arm_states(f: TruthTable, g: TruthTable, stats: SearchStats, node_cap=None):
    """Yield (output_negated, fresh MatchState) for each output polarity the
    zeroth-order counts allow: against g when |f| = |g|, against its
    complement when |f| = 2^n - |g| (both for balanced functions).

    The root first-order pairs of f and g are counted once and shared with
    the symmetry build and the first SS vector of every arm; the negated
    arm's pairs are derived from g's. Nothing past the zeroth-order counts
    is computed when no arm is possible, and the complement of g only when
    its arm is reached.
    """
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    n = f.n
    cf, cg = count_minterms(f), count_minterms(g)
    polarities = [neg for neg, target in ((False, cg), (True, (1 << n) - cg)) if cf == target]
    if not polarities:
        return
    pairs_f, pairs_g = first_order_pairs(f), first_order_pairs(g)
    sym_f = build_symmetry_classes(f, pairs_f)
    sym_g = build_symmetry_classes(g, pairs_g)
    for output_negated in polarities:
        if output_negated:
            target, target_pairs = negate(g), complement_pairs(pairs_g, n)
        else:
            target, target_pairs = g, pairs_g
        sides = Side(f, sym_f, pairs_f), Side(target, sym_g, target_pairs)
        yield output_negated, MatchState(*sides, stats=stats, node_cap=node_cap)


def match_npn(
    f: TruthTable,
    g: TruthTable,
    node_cap: Optional[int] = None,
    observer: Observer = _NULL_OBSERVER,
) -> MatchResult:
    """Decide NPN equivalence of f and g and produce a witness if equivalent.

    The zeroth-order signatures pick the output polarity: detection runs
    against g, against its complement, or (for balanced functions) both.
    """
    stats = SearchStats()
    for output_negated, state in _arm_states(f, g, stats, node_cap):
        observer.on_arm(output_negated)
        # closing the search runs the restores of the nodes it stopped in
        with closing(detect(state, observer)) as search:
            found = next((branch for branch, ok in search if ok), None)
        if found is not None:
            witness = transformation_from_map_list(found, f.n, output_negated)
            return MatchResult(Verdict.EQUIVALENT, witness, found, stats)
    return MatchResult(Verdict.NON_EQUIVALENT, None, None, stats)


def enumerate_complete_transformations(
    f: TruthTable, g: TruthTable
) -> list[tuple[tuple[VarMapping, ...], bool, bool]]:
    """Exhaust the search tree; each entry is (map_list, output_negated,
    verified). Diagnostic companion to match_npn."""
    return [
        (ml, output_negated, ok)
        for output_negated, state in _arm_states(f, g, SearchStats())
        for ml, ok in detect(state)
    ]
