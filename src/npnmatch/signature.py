"""Structural signature vectors.

Per variable: the first-order value (cofactor minterm counts) of a function
already restricted to the current cube, frozen symmetry marks, and a group
serial number. Groups partition variables that have ever shown distinct
first-order values; refinement never merges groups, so stale-signature
mappings are ruled out.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .boolfn import MAX_VARS, TruthTable
from .symmetry import SymmetryClass, first_order_pairs


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


class SymmetryMarks(NamedTuple):
    size: list[int]  # per variable its class size, -1 outside every class
    first: list[int]  # per variable its class's first member, -1 outside
    members: int  # bit mask of the class members


def symmetry_marks(sym: Sequence[SymmetryClass], n: int) -> SymmetryMarks:
    """Marks of the classes sym over n variables, fixed for a match."""
    size, first = [-1] * n, [-1] * n
    for cls in sym:
        for m in cls.members:
            size[m], first[m] = cls.size, cls.first
    return SymmetryMarks(size, first, sum(1 << m for cls in sym for m in cls.members))


class SSVector:
    """Per-variable lists: cofactor counts pos and neg, group serial and
    packed canonical pair key, plus the match's symmetry marks. The SSValue
    views (values, v[i], ==, dump) are built on demand."""

    __slots__ = ("pos", "neg", "group", "key", "marks")

    def __init__(self, pos, neg, group, key, marks):
        self.pos, self.neg, self.group, self.key, self.marks = pos, neg, group, key, marks

    @property
    def values(self) -> tuple[SSValue, ...]:
        m = self.marks
        return tuple(map(SSValue, self.pos, self.neg, m.size, m.first, self.group))

    def __len__(self):
        return len(self.pos)

    def __getitem__(self, i) -> SSValue:
        return self.values[i]

    def __eq__(self, other):
        return isinstance(other, SSVector) and self.values == other.values

    def dump(self) -> str:
        """Debug rendering: one (pos, neg, symSize, symFirst, group) per variable."""
        return "{" + ",".join(str(tuple(v)) for v in self.values) + "}"


def dump_first_order(pairs: Sequence[tuple[int, int]]) -> str:
    return "{" + ",".join(f"({p},{q})" for p, q in pairs) + "}"


def compute_ss_vector(
    f: TruthTable,
    sym: Sequence[SymmetryClass],
    identified: int = 0,
    prev: Optional[SSVector] = None,
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
    """
    return _vector(first_order_pairs(f, identified), identified, prev, symmetry_marks(sym, f.n))


def _vector(pairs, identified, prev, marks) -> SSVector:
    """The vector of first-order pairs already counted with identified
    variables at (0, 0); see compute_ss_vector."""
    # the canonical pair (max, min) packed as max << MAX_VARS | min orders
    # like the tuple: a count never exceeds 2^(MAX_VARS - 1)
    key = [p << MAX_VARS | q if p >= q else q << MAX_VARS | p for p, q in pairs]
    # a first vector refines one group that holds every variable
    old, skip = (prev.group, identified) if prev is not None else ([0] * len(key), 0)
    group = _refine(old, key, skip)
    return SSVector([p for p, _ in pairs], [q for _, q in pairs], group, key, marks)


def _refine(old: list[int], key: list[int], skip: int) -> list[int]:
    """old with each group split by the keys of its members outside skip
    (see compute_ss_vector); old itself when no group splits."""
    # distinct (group, -key) pairs: groups in ascending serial order, each
    # group's keys in descending order
    splits = sorted({(g, -key[i]) for i, g in enumerate(old) if not skip >> i & 1})
    top = fresh = max(old, default=0) + 1
    serial, last = {}, None
    for g, k in splits:
        if g == last:
            serial[g, k], fresh = fresh, fresh + 1
        else:
            serial[g, k] = last = g
    if fresh == top:
        return old
    return [g if skip >> i & 1 else serial[g, -key[i]] for i, g in enumerate(old)]


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
        live = zip(v.group, v.key, v.marks.size)
        return sorted([t for i, t in enumerate(live) if not identified >> i & 1])

    return profile(vf, identified_f) == profile(vg, identified_g)


def update(state, siblings: dict) -> bool:
    """Recompute the SS vector of each side's cube-restricted table, record
    first-determined phases, and report cross-function compatibility.

    ``state`` carries two sides f and g (see the matcher's Side): each holds
    its restricted table and cube, symmetry marks, identified mask, vector,
    phase masks, and the root first-order pairs, from which the first
    vector is built at the root (the node where the side has no vector).

    siblings is the store that the node above shares among its children (a
    fresh one at the root). Below the root, a side's new vector and phase
    masks depend only on its restricted table (the table and its cube), its
    identified mask, its previous vector and the masks it enters with. The
    siblings below a branch point enter with the parent's vector and its
    post-update masks, so the result is stored under (side index,
    identified, cube) and a sibling with the same key takes it without
    recounting. The cube belongs in the key: the candidates i -> j - 0 and
    i -> j - 1 identify the same variables of g but may split g on opposite
    literals of x_j.
    """
    for index, side in enumerate((state.f, state.g)):
        key = index, side.identified, side.cube_vars, side.cube_vals
        stored = siblings.get(key)
        if stored is not None:
            side.v, side.phase_known, side.phase_neg = stored
            state.stats.vectors_reused += 1
            continue
        prev = side.v
        if prev is None:
            pairs = side.root_pairs
        else:
            pairs = first_order_pairs(side.restricted, side.identified)
        v = side.v = _vector(pairs, side.identified, prev, side.marks)
        known, neg = side.phase_known, side.phase_neg
        # identified variables read (0, 0), so p != q leaves them alone
        for i, (p, q) in enumerate(pairs):
            if p != q and not known >> i & 1:
                known |= 1 << i
                neg |= (p < q) << i
        side.phase_known, side.phase_neg = known, neg
        siblings[key] = v, known, neg
    return vectors_compatible(state.f.v, state.g.v, state.f.identified, state.g.identified)
