"""Transformation search: mapping sets, pruned DFS, and top-level matching.

The search maintains a pair of cube-restricted functions, their structural
signature vectors, and an ordered mapping list (one tree branch) whose first
`splits` mappings define the cubes. Each recursion either commits every
forced (singleton) mapping set, or branches over the smallest multiple set.
Branches are pruned on vector incompatibility and on phase collisions. A
complete branch is verified bit-exactly before it is reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
from .signature import PHASE_NEGATIVE, PHASE_UNDETERMINED, SSVector
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


@dataclass(frozen=True)
class VarMapping:
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


@dataclass
class MatchState:
    """Live state of one transformation search.

    fc and gc are f and g restricted to the current cubes; the cubes
    themselves are the Shannon splits on map_list[:splits] (see cubes()).
    The split that completes the map list leaves fc and gc as they are,
    because the node below it only verifies. identified_f and identified_g
    are bit masks over the variables.
    """

    f: TruthTable
    g: TruthTable
    sym_f: Sequence[SymmetryClass]
    sym_g: Sequence[SymmetryClass]
    fc: TruthTable
    gc: TruthTable
    vf: Optional[SSVector] = None
    vg: Optional[SSVector] = None
    identified_f: int = 0
    identified_g: int = 0
    phase_record_f: list[int] = field(default_factory=list)
    phase_record_g: list[int] = field(default_factory=list)
    map_list: list[VarMapping] = field(default_factory=list)
    splits: int = 0
    stats: SearchStats = field(default_factory=SearchStats)
    node_cap: Optional[int] = None
    # first-order pairs of the unrestricted f and g, counted once per match
    root_pairs_f: Optional[list[tuple[int, int]]] = None
    root_pairs_g: Optional[list[tuple[int, int]]] = None
    # symmetry marks of f and g (signature.symmetry_marks), fixed for the match
    marks_f: Optional[sig.SymmetryMarks] = None
    marks_g: Optional[sig.SymmetryMarks] = None

    @staticmethod
    def initial(
        f, g, sym_f, sym_g, stats=None, node_cap=None, root_pairs_f=None, root_pairs_g=None
    ) -> "MatchState":
        return MatchState(
            f=f,
            g=g,
            sym_f=sym_f,
            sym_g=sym_g,
            fc=f,
            gc=g,
            phase_record_f=[PHASE_UNDETERMINED] * f.n,
            phase_record_g=[PHASE_UNDETERMINED] * f.n,
            stats=stats or SearchStats(),
            node_cap=node_cap,
            root_pairs_f=root_pairs_f,
            root_pairs_g=root_pairs_g,
            marks_f=sig.symmetry_marks(sym_f, f.n),
            marks_g=sig.symmetry_marks(sym_g, f.n),
        )

    def split_sides(self, m: VarMapping) -> tuple[bool, bool]:
        """Literal phases of the split on m: f's variable takes its recorded
        phase (positive when undetermined), g's follows m's polarity."""
        side_f = self.phase_record_f[m.frm] != PHASE_NEGATIVE
        return side_f, side_f ^ (m.pol == 1)

    def cubes(self) -> tuple[str, str]:
        """The cubes that fc and gc are restricted to, for display: x2~x0
        style, "true" when empty."""
        cube_f, cube_g = "", ""
        for m in self.map_list[: self.splits]:
            side_f, side_g = self.split_sides(m)
            cube_f += f"x{m.frm}" if side_f else f"~x{m.frm}"
            cube_g += f"x{m.to}" if side_g else f"~x{m.to}"
        return cube_f or "true", cube_g or "true"

    def snapshot(self):
        # map_list only grows between a snapshot and its restore
        return (
            self.fc,
            self.gc,
            self.vf,
            self.vg,
            self.identified_f,
            self.identified_g,
            tuple(self.phase_record_f),
            tuple(self.phase_record_g),
            len(self.map_list),
            self.splits,
        )

    def restore(self, snap):
        (
            self.fc,
            self.gc,
            self.vf,
            self.vg,
            self.identified_f,
            self.identified_g,
            prf,
            prg,
            length,
            self.splits,
        ) = snap
        self.phase_record_f[:] = prf
        self.phase_record_g[:] = prg
        del self.map_list[length:]


def build_mapping_sets(state: MatchState, observer: Observer = _NULL_OBSERVER):
    """Mapping sets for every unidentified variable and symmetry class.

    Candidates must agree on group mark and symmetry marks and satisfy one of
    the two first-order cases; candidates contradicting the phase records are
    excluded here (a collision the observer gets to see).
    """
    pos_f, neg_f, group_f = state.vf.pos, state.vf.neg, state.vf.group
    pos_g, neg_g, group_g = state.vg.pos, state.vg.neg, state.vg.group
    rec_f, rec_g = state.phase_record_f, state.phase_record_g
    idf, idg = state.identified_f, state.identified_g
    n = state.f.n

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
        rf, rg = rec_f[i], rec_g[j]
        if not pols or rf == PHASE_UNDETERMINED or rg == PHASE_UNDETERMINED:
            return pols
        need = 0 if rf == rg else 1
        if need in pols:
            return (need,)
        for k in pols:
            observer.on_collision(VarMapping(i, j, k))
        return ()

    sets: list[MappingSet] = []

    # free plain variables of g by group; a variable of f meets only its own
    peers: dict[int, list[int]] = {}
    skip_g = idg | state.marks_g.members
    for j in range(n):
        if not skip_g >> j & 1:
            peers.setdefault(group_g[j], []).append(j)
    skip_f = idf | state.marks_f.members
    for i in range(n):
        if skip_f >> i & 1:
            continue
        cands = tuple(
            (VarMapping(i, j, k),) for j in peers.get(group_f[i], ()) for k in pair_pols(i, j)
        )
        sets.append(MappingSet(i, cands))

    # a class's members enter no plain set and every class candidate maps
    # all of them, so a class is either wholly identified or wholly free
    free_g = [cls for cls in state.sym_g if not idg >> cls.first & 1]

    for cls_f in state.sym_f:
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
                cands.append(tuple(map(VarMapping, cls_f.members, cls_g.members, ks)))
        sets.append(MappingSet(cls_f.first, tuple(cands)))

    sets.sort(key=lambda s: s.subject)
    return sets


def select_min_set(sets: Sequence[MappingSet]) -> MappingSet:
    """First set of minimum cardinality (lowest subject index on ties)."""
    if not sets:
        raise ValueError("no mapping sets to select from")
    return min(sets, key=lambda s: (s.cardinality, s.subject))


def commit_mapping(state: MatchState, m: VarMapping) -> None:
    state.map_list.append(m)
    state.identified_f |= 1 << m.frm
    state.identified_g |= 1 << m.to


def extend_cubes(state: MatchState) -> None:
    """Shannon-split on the oldest committed mapping not yet used: narrow fc
    and gc by one literal each."""
    m = state.map_list[state.splits]
    state.splits += 1
    n = state.f.n
    if len(state.map_list) == n:
        return  # the node below only verifies and reads neither table
    side_f, side_g = state.split_sides(m)
    state.fc = TruthTable(
        n, state.fc.bits & (var_mask(n, m.frm) if side_f else low_mask(n, m.frm))
    )
    state.gc = TruthTable(
        n, state.gc.bits & (var_mask(n, m.to) if side_g else low_mask(n, m.to))
    )


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
    collect_all: Optional[list] = None,
    _depth: int = 0,
) -> Optional[tuple[VarMapping, ...]]:
    """Procedure-2 style DFS. Returns a verified complete mapping list, or
    None when no transformation exists on this branch. The state is restored
    to its entry value before returning.

    With collect_all, every complete branch is recorded as (map_list,
    verified) and the search exhausts the whole tree.
    """
    state.stats.nodes_visited += 1
    if state.node_cap is not None and state.stats.nodes_visited > state.node_cap:
        raise BudgetExceededError(state.stats.nodes_visited)

    n = state.f.n
    if len(state.map_list) == n:
        state.stats.verify_calls += 1
        branch = tuple(state.map_list)
        ok = verify(state.f, state.g, branch)
        observer.on_complete(branch, ok)
        if collect_all is not None:
            collect_all.append((branch, ok))
            return None
        return branch if ok else None

    snap = state.snapshot()
    try:
        if not sig.update(state):
            observer.on_incompatible(_depth, state)
            return None
        observer.on_vectors(_depth, state)

        sets = build_mapping_sets(state, observer)
        if any(s.cardinality == 0 for s in sets):
            return None

        singles = [s for s in sets if s.cardinality == 1]
        if singles:
            # every forced mapping commits together as the one candidate;
            # nothing follows it, so the entry snapshot serves for its undo
            chosen, inner = None, snap
            candidates = [tuple(m for s in singles for m in s.candidates[0])]
        else:
            chosen, inner = select_min_set(sets), state.snapshot()
            candidates = chosen.candidates
        for cand in candidates:
            if chosen is not None:
                observer.on_branch(chosen, cand)
            for m in cand:
                # two forced subjects can claim the same variable of g
                if state.identified_g >> m.to & 1:
                    break
                commit_mapping(state, m)
                observer.on_commit(m)
            else:
                extend_cubes(state)
                observer.on_cubes(state)
                found = detect(state, observer, collect_all, _depth + 1)
                if found is not None:
                    return found
            state.restore(inner)
        return None
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


def _arm_states(f: TruthTable, g: TruthTable, stats=None, node_cap=None):
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
        yield output_negated, MatchState.initial(
            f, target, sym_f, sym_g, stats, node_cap, pairs_f, target_pairs
        )


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
        found = detect(state, observer)
        if found is not None:
            witness = transformation_from_map_list(found, f.n, output_negated)
            return MatchResult(Verdict.EQUIVALENT, witness, found, stats)
    return MatchResult(Verdict.NON_EQUIVALENT, None, None, stats)


def enumerate_complete_transformations(
    f: TruthTable, g: TruthTable
) -> list[tuple[tuple[VarMapping, ...], bool, bool]]:
    """Exhaust the search tree; each entry is (map_list, output_negated,
    verified). Diagnostic companion to match_npn."""
    out = []
    for output_negated, state in _arm_states(f, g):
        collected: list = []
        detect(state, collect_all=collected)
        out.extend((ml, output_negated, ok) for ml, ok in collected)
    return out
