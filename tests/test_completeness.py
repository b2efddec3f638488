"""Local completeness: no prune cuts off a witness (n <= 5).

The oracle tests check only the root verdict, but every pruning rule of the
search is a local necessary condition: SS-vector compatibility, the group
mark, the phase-collision check, and a symmetry class mapped as one
subject. Each promises that a node stays alive when some witness extends
its map list. An unsound prune deep in a subtree goes unseen by a verdict
check whenever another branch still verifies.

So at every detect call on the arm with target h (g, or its complement on
the negated arm), with map list L: if some input transform T with
apply_np_transform(f, T) = h agrees with every mapping i -> j - k of L,
that is T.perm[i] = j and T.input_pol[i] = 1 - k, then detect returns a
branch. The witnesses of each arm come from scanning all n!·2^n input
transforms (oracle._orbit). The converse, that a returned branch is a
witness, is checked too.

The corpus is every n = 3 function and seeded structured members at n = 4
and 5 (symmetric, parity, rotation, block, bent, vacuous, random), each
against copies under hidden NP transforms: double classes, phase
collisions and branch points all occur (see the floors).
"""

import random
from collections import Counter
from functools import cache
from unittest.mock import patch

from npnmatch import matcher
from npnmatch.boolfn import TruthTable, apply_np_transform
from npnmatch.oracle import _orbit

from test_golden import (
    _block,
    _parity,
    _rotation,
    _symmetric,
    _transform,
    _type1,
    _vacuous,
    maiorana_mcfarland,
)

SEED = 20261022


PER_FAMILY = 40


def _members(rng, n):
    """Seeded structured members at n = 4 or 5, PER_FAMILY of each family."""
    makers = [_symmetric, _parity, _rotation, _block, _vacuous, _type1]
    if n == 4:
        makers.append(lambda rng, n: maiorana_mcfarland(rng, n).bits)
    return [make(rng, n) for make in makers for _ in range(PER_FAMILY)]


def corpus():
    """(f, g) pairs: every n = 3 function, and the structured members at
    n = 4 and 5, each against two copies under hidden NP transforms and
    against the next table of the list with its weight or its complement's
    (equivalent or not)."""
    rng = random.Random(SEED)
    out = []
    for n in (3, 4, 5):
        tables = range(1 << (1 << n)) if n == 3 else _members(rng, n)
        by_weight = {}
        for bits in tables:
            by_weight.setdefault(min(bits.bit_count(), (1 << n) - bits.bit_count()), []).append(bits)
        for bits in tables:
            f = TruthTable(n, bits)
            out += [(f, apply_np_transform(f, _transform(rng, n))) for _ in range(2)]
            peers = by_weight[min(bits.bit_count(), (1 << n) - bits.bit_count())]
            out.append((f, TruthTable(n, peers[(peers.index(bits) + 1) % len(peers)])))
    return out


@cache
def _witnesses(n, bits):
    """Every input transform's image of f, as {image bits: [witness]}: a
    witness is a tuple whose entry i is perm[i] << 1 | input_pol[i]."""
    out = {}
    for perm, images in _orbit(TruthTable(n, bits)):
        for pol_bits, image in enumerate(images):
            w = tuple(p << 1 | pol_bits >> i & 1 for i, p in enumerate(perm))
            out.setdefault(image, []).append(w)
    return out


class _Nodes(matcher.Observer):
    """Attributes each search event to the innermost detect call open."""

    def __init__(self):
        self.stack = []

    def _note(self, event):
        if self.stack:
            self.stack[-1].append(event)

    def on_incompatible(self, depth, state):
        self._note("incompatible")

    def on_collision(self, mapping):
        self._note("collision")

    def on_commit(self, mapping):
        self._note("commit")

    def on_cubes(self, state):
        self._note("cubes")

    def on_branch(self, chosen, candidate):
        self._note("branch")

    def on_complete(self, map_list, verified):
        self._note("verified" if verified else "rejected")


def _reason(events):
    """Why a detect call returned None, from its own events ("child": a
    nested detect call returned)."""
    if "rejected" in events:
        return "verify"
    if "incompatible" in events:
        return "incompatible"
    if "branch" in events:
        return "branches_exhausted"
    if "commit" in events and "cubes" not in events:
        return "claimed"  # two forced subjects claimed one variable of g
    if "child" in events:
        return "forced_child"
    return "collision_empty_set" if "collision" in events else "empty_set"


@cache
def completeness_walk():
    """Counter of detect calls: "extended" (some witness extends the map
    list; each returned a branch), "witnessed" (a returned branch is a
    witness), and per prune reason the calls that returned None with no
    extending witness; plus "pairs". Asserts the property on the way."""
    counts, nodes, detect = Counter(), _Nodes(), matcher.detect

    def observed(state, observer, siblings):
        f, h = state.f.table, state.g.table
        need = [(m.frm, m.to << 1 | 1 - m.pol) for m in state.map_list]
        ws = _witnesses(f.n, f.bits).get(h.bits, ())
        extended = any(all(w[i] == c for i, c in need) for w in ws)
        events = []
        nodes.stack.append(events)
        try:
            found = detect(state, observer, siblings)
        finally:
            nodes.stack.pop()
        if extended:
            assert found is not None, (f, h, need)
            counts["extended"] += 1
        if found is not None:
            t = matcher.transformation_from_map_list(found, f.n)
            assert tuple(p << 1 | a for p, a in zip(t.perm, t.input_pol)) in ws
            counts["witnessed"] += 1
        elif not extended:
            counts[_reason(events)] += 1
        if nodes.stack:
            nodes.stack[-1].append("child")
        return found

    with patch.object(matcher, "detect", observed):
        for f, g in corpus():
            matcher.match_npn(f, g, observer=nodes)
            counts["pairs"] += 1
    return counts


def test_every_node_a_witness_extends_returns_a_branch():
    counts = completeness_walk()
    assert counts["pairs"] == 2328
    assert counts["extended"] >= 5085 and counts["witnessed"] == counts["extended"]


def test_the_walk_reaches_every_prune_reason():
    # detect calls that returned None with no extending witness, by reason.
    # An empty mapping set without a collision never occurs: equal profiles
    # give every free subject of f peers of its group and class size
    floors = {
        "incompatible": 740,
        "verify": 441,
        "branches_exhausted": 165,
        "forced_child": 123,
        "collision_empty_set": 31,
        "claimed": 2,
    }
    counts = completeness_walk()
    short = {k: counts[k] for k, floor in floors.items() if counts[k] < floor}
    assert not short, short
