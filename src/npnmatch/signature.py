"""Structural signature vectors.

Per variable: the first-order value (cofactor minterm counts) of a function
already restricted to the current cube, frozen symmetry marks, and a group
serial number. Groups partition variables that have ever shown distinct
first-order values; refinement never merges groups, so stale-signature
mappings are ruled out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .boolfn import TruthTable
from .symmetry import SymmetryClass, first_order_pairs

PHASE_POSITIVE = 0
PHASE_NEGATIVE = 1
PHASE_UNDETERMINED = -1


class SSValue(NamedTuple):
    pos_count: int
    neg_count: int
    sym_size: int  # -1 when asymmetric
    sym_first: int  # -1 when asymmetric
    group: int

    @property
    def canonical(self) -> tuple[int, int]:
        p, q = self.pos_count, self.neg_count
        return (p, q) if p >= q else (q, p)


@dataclass(frozen=True)
class SSVector:
    values: tuple[SSValue, ...]

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i) -> SSValue:
        return self.values[i]

    def dump(self) -> str:
        """Debug rendering: one (pos, neg, symSize, symFirst, group) per variable."""
        return "{" + ",".join(
            f"({v.pos_count}, {v.neg_count}, {v.sym_size}, {v.sym_first}, {v.group})"
            for v in self.values
        ) + "}"


def dump_first_order(pairs: Sequence[tuple[int, int]]) -> str:
    return "{" + ",".join(f"({p},{q})" for p, q in pairs) + "}"


def compute_ss_vector(
    f: TruthTable,
    sym: Sequence[SymmetryClass],
    identified: int = 0,
    prev: Optional[SSVector] = None,
    pairs: Optional[Sequence[tuple[int, int]]] = None,
) -> SSVector:
    """Fill first-order values, frozen symmetry marks, and group marks.

    f is counted as given; to read the vector under a cube, pass f with its
    bits ANDed with var_mask(n, i) for each positive literal x_i and
    low_mask(n, i) for each negative one. identified is a bit mask over the
    variables.

    Without a previous vector, group serials are assigned by canonical
    first-order pair (max, min) in descending order. With one, each previous
    group is refined: the sub-group with the largest canonical pair keeps the
    old serial, the rest take fresh serials past the current maximum.
    Identified variables read (0, 0) and keep their frozen group.

    pairs, when given, are f's first-order pairs (the matcher passes the
    root pairs it already counted); the count pass is then skipped.
    """
    n = f.n
    if pairs is None:
        pairs = first_order_pairs(f, identified)
    else:
        pairs = [(0, 0) if identified >> i & 1 else pairs[i] for i in range(n)]

    sym_size = [-1] * n
    sym_first = [-1] * n
    for cls in sym:
        for m in cls.members:
            sym_size[m] = cls.size
            sym_first[m] = cls.first

    canon = [(max(p, q), min(p, q)) for p, q in pairs]
    group = [0] * n
    if prev is None:
        order = sorted({canon[i] for i in range(n)}, reverse=True)
        rank = {key: g for g, key in enumerate(order)}
        for i in range(n):
            group[i] = rank[canon[i]]
    else:
        next_id = max((v.group for v in prev.values), default=-1) + 1
        old_groups: dict[int, list[int]] = {}
        for i in range(n):
            if identified >> i & 1:
                group[i] = prev[i].group
            else:
                old_groups.setdefault(prev[i].group, []).append(i)
        for gid in sorted(old_groups):
            members = old_groups[gid]
            keys = sorted({canon[i] for i in members}, reverse=True)
            assign = {keys[0]: gid}
            for key in keys[1:]:
                assign[key] = next_id
                next_id += 1
            for i in members:
                group[i] = assign[canon[i]]

    values = tuple(
        SSValue(pairs[i][0], pairs[i][1], sym_size[i], sym_first[i], group[i])
        for i in range(n)
    )
    return SSVector(values)


def determine_phases(v: SSVector) -> list[int]:
    """Three-way phase per variable, from its first-order value."""
    phases = []
    for val in v.values:
        if val.pos_count > val.neg_count:
            phases.append(PHASE_POSITIVE)
        elif val.pos_count < val.neg_count:
            phases.append(PHASE_NEGATIVE)
        else:
            phases.append(PHASE_UNDETERMINED)
    return phases


def vectors_compatible(
    vf: SSVector, vg: SSVector, identified_f: int = 0, identified_g: int = 0
) -> bool:
    """Necessary condition for a mapping to exist under the current cubes.

    Per group, the multisets of (canonical first-order pair, symmetry size)
    over unidentified variables must agree; the canonical pair admits the
    opposite-phase mapping. Identified variables are skipped: every
    committed mapping pairs variables of equal group, and an identified
    variable keeps its group, so their per-group counts always agree.
    """
    if len(vf) != len(vg):
        raise ValueError("arity mismatch")

    def profile(v: SSVector, identified: int):
        live: dict[int, list] = {}
        for i, val in enumerate(v.values):
            if not identified >> i & 1:
                live.setdefault(val.group, []).append((val.canonical, val.sym_size))
        return {g: sorted(items) for g, items in live.items()}

    return profile(vf, identified_f) == profile(vg, identified_g)


def update(state) -> bool:
    """Recompute both SS vectors of the cube-restricted functions, refresh
    phases and first-determination records, and report cross-function
    compatibility.

    ``state`` carries fc and gc (f and g restricted to the current cubes),
    symmetry classes, identification masks, vectors, phase records, and
    optionally the root first-order pairs used for the first vectors (see
    the matcher's MatchState).
    """
    state.vf = compute_ss_vector(
        state.fc, state.sym_f, state.identified_f, prev=state.vf,
        pairs=state.root_pairs_f if state.vf is None else None,
    )
    state.vg = compute_ss_vector(
        state.gc, state.sym_g, state.identified_g, prev=state.vg,
        pairs=state.root_pairs_g if state.vg is None else None,
    )
    for v, identified, record in (
        (state.vf, state.identified_f, state.phase_record_f),
        (state.vg, state.identified_g, state.phase_record_g),
    ):
        fresh = determine_phases(v)
        for i, ph in enumerate(fresh):
            if not identified >> i & 1 and record[i] == PHASE_UNDETERMINED:
                record[i] = ph
    return vectors_compatible(state.vf, state.vg, state.identified_f, state.identified_g)
