"""Outside-in tracing of npnmatch for the benchmark's traced run.

The library is not edited. For the duration of a traced pass, the module
globals that `npnmatch.matcher` looks up at call time are replaced by
wrappers that record one span per call: name, parent span, start, end, and
an optional integer taken from the result. Spans stay in flat arrays until
the run ends, so recording one costs a few list appends.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

from npnmatch import matcher, signature, symmetry
from npnmatch.matcher import Observer

ROOT = "matcher.match_npn"


class SpanLog:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack = [-1]

    def __len__(self):
        return len(self.name)

    def wrap(self, label: str, fn, value=None):
        """fn with a span around every call; value(result) is stored with it."""
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        name, parent, start, end, vals, stack = (
            self.name, self.parent, self.start, self.end, self.value, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            vals.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if value is not None:
                vals[i] = value(result)
            return result

        return traced

    def summarize(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per span name over spans [lo, hi): calls, total and self seconds,
        and the sum of stored values. Self time is the span's duration minus
        the durations of its direct children."""
        hi = len(self) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            s = out.setdefault(
                self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0}
            )
            d = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += d
            s["self_s"] += d - child[i - lo]
            s["value"] += self.value[i]
        return out

    def write(self, path, hi: int) -> None:
        """Spans [0, hi) as one JSON header line, then one [name, parent,
        start_us, end_us, value] line per span, times relative to the first
        span."""
        origin = self.start[0] if hi else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names,
                                  "fields": ["name", "parent", "start_us", "end_us", "value"]}))
            out.write("\n")
            for i in range(hi):
                out.write(
                    f"[{self.name[i]},{self.parent[i]},{(self.start[i] - origin) * 1e6:.1f},"
                    f"{(self.end[i] - origin) * 1e6:.1f},{self.value[i]}]\n"
                )


# (owner, attribute, span name, value taken from the result)
TARGETS = (
    (matcher, "build_symmetry_classes", "symmetry.build", len),
    (matcher, "build_mapping_sets", "matcher.mapping_sets", None),
    (matcher, "verify", "matcher.verify", int),
    (matcher, "negate", "boolfn.negate", None),
    (matcher, "apply_np_transform", "boolfn.transform", None),
    (symmetry, "apply_np_transform", "boolfn.transform", None),
    (signature, "update", "signature.update", int),
    (matcher.MatchState, "snapshot", "matcher.bookkeeping", None),
    (matcher.MatchState, "restore", "matcher.bookkeeping", None),
)


@contextmanager
def instrumented(log: SpanLog):
    """Patch every target for the duration of the block and yield a traced
    match_npn, which opens the root span of each call."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, label, value), (_, _, original) in zip(TARGETS, saved):
            setattr(owner, attr, log.wrap(label, original, value))
        yield log.wrap(ROOT, matcher.match_npn)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class CountingObserver(Observer):
    """Counts the search events that tell an algorithmic change from a
    constant-factor one."""

    def __init__(self):
        self.arms = 0
        self.incompatible = 0
        self.collisions = 0
        self.branch_points = 0

    def on_arm(self, output_negated):
        self.arms += 1

    def on_incompatible(self, depth, state):
        self.incompatible += 1

    def on_collision(self, mapping):
        self.collisions += 1

    def on_branch(self, chosen, candidate):
        if candidate is chosen.candidates[0]:
            self.branch_points += 1
