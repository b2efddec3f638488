"""npnmatch benchmark: per-verdict latency of match_npn on three workloads.

    python3 npnbench/run.py --workload random_n20 --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. The
workloads, their inputs and their ground truth are in workloads.py and
groundtruth.py. One caller drives match_npn in a closed loop, repeating a
seeded set of inputs until --seconds have passed; every call is checked
after the timed region.

The last line of standard output is one JSON object: correct, attempted,
failed (failed / attempted is the failed share) and the metrics. The line
before it is the run record: machine, seed, the percentile and sample
count behind each tail, functions_per_s for the partition, failures.

--trace 0 reports the end-to-end metrics with nothing patched:
  equiv_p50_ms, nonequiv_p50_ms    median over the distinct inputs of each
  equiv_tail_ms, nonequiv_tail_ms  truth, and the highest percentile with
                                   ten inputs beyond it; an input is timed
                                   by the median of its repeats
  pairs_per_s                      calls per second of timed wall time
  setup_s                          median of the set-ups (input generation
                                   and ground-truth certification)
  peak_rss_mb                      peak resident memory of the process

Every end-to-end time is scaled to a reference machine speed (see
speed.py): a fixed calibration kernel runs between blocks of about BLOCK_S
of calls or of set-up work, and each block's times are multiplied by the
reference kernel time over the kernel time measured around the block. The
run record keeps the unscaled pairs_per_s and set-up times and the kernel
samples. The per-layer times of the traced run are not scaled.

--trace 1 alternates untraced and traced passes over the same calls; the
traced passes record a span per call of each layer (see tracer.py) and
report the per-layer metrics. Counts come from the first traced pass,
which repeats exactly for a seed; its spans are written to
npnbench/out/<workload>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up runs this many times per run; setup_s is the median.
SETUPS = 3
# Calls run in blocks of about this many seconds between two samples of
# the calibration kernel.
BLOCK_S = 0.25
# BENCHMARK.json lists the first two. partition_n4 runs by hand: ten runs
# of 30 s on each of three workloads, twice, do not fit the benchmark's time
# limit.
WORKLOADS = ("random_n20", "structured_mid", "partition_n4")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with
    at least ten samples beyond it, by nearest rank; the maximum when there
    are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


def workload_why(name: str):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), None)


class Tally:
    """Checks finished calls and keeps their latencies and search counts."""

    def __init__(self):
        self.equiv: list[float] = []
        self.nonequiv: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.repeats: dict = {}  # call key -> (equivalent, [seconds of each repeat])
        self.families: dict[str, Counter] = {}

    def drain(self, calls: list, check, count_search: bool = False, scale: float = 1.0) -> float:
        """Check and record calls, their times multiplied by scale, then
        clear the list. Returns their total scaled seconds."""
        spent = 0.0
        for c in calls:
            self.attempted += 1
            seconds = c.seconds * scale
            spent += seconds
            why = check(c)
            if why is not None:
                self.failures.append(f"{c.family} n={c.f.n}: {why}")
            (self.equiv if c.equivalent else self.nonequiv).append(seconds * 1e3)
            self.repeats.setdefault(c.key, (c.equivalent, []))[1].append(seconds)
            if count_search:
                fam = self.families.setdefault(c.family, Counter())
                fam["pairs"] += 1
                if why is None:
                    nodes = c.outcome.stats.nodes_visited
                    fam["nodes"] += nodes
                    fam["nodes_max"] = max(fam["nodes_max"], nodes)
                obs = c.observer
                fam["branch_points"] += obs.branch_points
                fam["collisions"] += obs.collisions
                fam["incompatible_prunes"] += obs.incompatible
                fam["arms"] += obs.arms
        calls.clear()
        return spent


def search_counts(families: dict[str, Counter]) -> dict[str, dict]:
    """Per-pair search counts per family and for all families together."""
    total = Counter()
    for fam in families.values():
        for k, v in fam.items():
            total[k] = max(total[k], v) if k == "nodes_max" else total[k] + v
    out = {}
    for name, c in [("all", total)] + sorted(families.items()):
        pairs = max(c["pairs"], 1)
        out[name] = {
            "pairs": c["pairs"],
            "nodes_per_pair": c["nodes"] / pairs,
            "nodes_max": c["nodes_max"],
            "branch_points": c["branch_points"] / pairs,
            "collisions": c["collisions"] / pairs,
            "incompatible_prunes": c["incompatible_prunes"] / pairs,
            "arms_per_pair": c["arms"] / pairs,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "npnmatch" / "__init__.py").is_file():
        print(f"error: npnmatch sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import npnmatch
    if Path(npnmatch.__file__).resolve().parent != SRC / "npnmatch":
        print(f"error: imported npnmatch from {npnmatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from npnmatch import match_npn

    import speed
    import tracer
    import workloads as wl

    pairs_workload = args.workload != "partition_n4"
    build = wl.BUILDERS[args.workload]
    gauge = speed.Gauge()
    setup_raw_s, setup_s, certify_s = [], [], []
    for _ in range(SETUPS):
        inputs = None  # release the previous inputs before building again
        with speed.ScaledTimer(gauge, BLOCK_S) as timer:
            inputs = build(random.Random(f"{args.workload}:{args.seed}"), timer.tick)
        setup_raw_s.append(timer.raw)
        setup_s.append(timer.scaled)
        certify_s.append(inputs.certify_s)

    order = inputs.order(random.Random(f"order:{args.seed}")) if pairs_workload else []

    def run_unit(k: int, match, calls: list, observe=None, block=None):
        """Pass k: every pair once, or round k of the partition. Returns
        (wall seconds, functions classified). block(wall) is called when
        about BLOCK_S of pairs have run and at the end of the pass; a
        partition round is one block."""
        if pairs_workload:
            wall = begun = 0.0
            for idx in order:
                begun += wl.run_pairs(inputs, [idx], match, calls, observe)
                if block is not None and begun >= BLOCK_S:
                    block(begun)
                    wall, begun = wall + begun, 0.0
            if block is not None and calls:
                block(begun)
            return wall + begun, 0
        r = k % len(inputs.rounds)
        labels, wall = wl.run_round(inputs, r, match, calls, observe)
        if not wl.check_labels(inputs, inputs.rounds[r], labels):
            label_failures.append(k)
        if block is not None:
            block(wall)
        return wall, len(inputs.rounds[r].functions)

    # Warm-up, untimed and unchecked: fills the library's mask caches for
    # every input size before the clock starts.
    if pairs_workload:
        for n in sorted({p.f.n for p in inputs.pairs}):
            p = next(p for p in inputs.pairs if p.f.n == n)
            match_npn(p.f, p.g, node_cap=wl.NODE_CAP)
    else:
        fs = inputs.rounds[0].functions
        match_npn(fs[0], fs[1], node_cap=wl.NODE_CAP)

    tally = Tally()
    calls: list = []
    label_failures: list[int] = []
    record = {
        "workload": args.workload,
        "why": workload_why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine(),
        "loop": "closed, one caller, one process",
        "node_cap": wl.NODE_CAP,
    }
    gc.collect()

    if args.trace == 0:
        raw_wall = scaled_wall = 0.0
        functions = 0

        def block(wall):
            nonlocal raw_wall, scaled_wall
            scale = gauge.factor()
            raw_wall += wall
            scaled_wall += wall * scale
            tally.drain(calls, wl.check_call, scale=scale)

        gauge.factor()  # the first block starts from a fresh sample
        k = 0
        deadline = time.perf_counter() + args.seconds
        while k == 0 or time.perf_counter() < deadline:
            functions += run_unit(k, match_npn, calls, block=block)[1]
            k += 1
        metrics = end_to_end(tally, tally.attempted / scaled_wall, setup_s, record)
        record["passes"] = k
        record["unscaled"] = {"pairs_per_s": tally.attempted / raw_wall, "setup_runs_s": setup_raw_s}
        record["gauge"] = gauge.summary()
        if not pairs_workload:
            record["functions_per_s"] = {"value": functions / scaled_wall, "unit": "1/s"}
    else:
        log = tracer.SpanLog()
        untraced_s = traced_s = 0.0
        traced_calls = first_calls = first_hi = 0
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            run_unit(k, match_npn, calls)
            untraced_s += tally.drain(calls, wl.check_call)
            with tracer.instrumented(log) as traced_match:
                run_unit(k, traced_match, calls, observe=tracer.CountingObserver)
            n_calls = len(calls)
            traced_calls += n_calls
            traced_s += tally.drain(calls, wl.check_call, count_search=(k == 0))
            if k == 0:
                first_calls, first_hi = n_calls, len(log)
            k += 1
        counts = search_counts(tally.families)
        metrics = per_layer(log, tracer.ROOT, first_hi, first_calls, traced_calls, traced_s, untraced_s,
                            counts["all"], statistics.median(certify_s), record)
        record["passes"] = k
        record["search_counts"] = counts
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}.spans.jsonl"
        log.write(spans, first_hi)
        record["spans"] = {"file": str(spans.relative_to(ROOT)), "written": first_hi,
                           "recorded": len(log)}

    failed = len(tally.failures) + len(label_failures)
    record["failed_share"] = failed / max(tally.attempted, 1)
    record["failures"] = tally.failures[:10]
    record["label_failures"] = label_failures[:10]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(tally: Tally, pairs_per_s: float, setup_s: list[float], record: dict) -> dict:
    """p50 and tail over distinct inputs, each timed by the median of its
    repeats, so the tail shows slow inputs rather than moments when the
    machine was busy."""
    def m(value, unit):
        return {"value": value, "unit": unit}

    out = {}
    tails = {}
    for label, truth in (("equiv", True), ("nonequiv", False)):
        calls = getattr(tally, label)
        per_input = [statistics.median(s) * 1e3 for eq, s in tally.repeats.values() if eq is truth]
        value, pct, beyond = tail(per_input)
        out[f"{label}_p50_ms"] = m(statistics.median(per_input), "ms")
        out[f"{label}_tail_ms"] = m(value, "ms")
        tails[label] = {"percentile": round(pct, 3), "samples": len(per_input), "beyond": beyond,
                        "calls": len(calls), "p50_all_calls_ms": statistics.median(calls),
                        "tail_all_calls_ms": tail(calls)[0]}
    out["pairs_per_s"] = m(pairs_per_s, "1/s")
    out["setup_s"] = m(statistics.median(setup_s), "s")
    out["peak_rss_mb"] = m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    record["tails"] = tails
    record["setup_runs_s"] = setup_s
    return out


def per_layer(log, root, first_hi, first_calls, traced_calls, traced_s, untraced_s, counts,
              certify_s, record) -> dict:
    every = log.summarize()
    first = log.summarize(0, first_hi)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0}

    def calls(name):
        return first.get(name, empty)["calls"] / first_calls

    def self_ms(name):
        return every.get(name, empty)["self_s"] * 1e3 / traced_calls

    def ratio(name, accept=True):
        s = first.get(name, empty)
        if not s["calls"]:
            return 0.0
        share = s["value"] / s["calls"]
        return share if accept else 1.0 - share

    def m(value, unit):
        return {"value": value, "unit": unit}

    total_self = sum(s["self_s"] for s in every.values())
    out = {
        "symmetry.build_calls": m(calls("symmetry.build"), "1/pair"),
        "symmetry.build_self_ms": m(self_ms("symmetry.build"), "ms/pair"),
        "symmetry.classes_per_call": m(ratio("symmetry.build"), "classes"),
        "signature.update_calls": m(calls("signature.update"), "1/pair"),
        "signature.update_self_ms": m(self_ms("signature.update"), "ms/pair"),
        "signature.incompatible_ratio": m(ratio("signature.update", accept=False), "ratio"),
        "matcher.mapping_sets_calls": m(calls("matcher.mapping_sets"), "1/pair"),
        "matcher.mapping_sets_self_ms": m(self_ms("matcher.mapping_sets"), "ms/pair"),
        "matcher.bookkeeping_calls": m(calls("matcher.bookkeeping"), "1/pair"),
        "matcher.bookkeeping_self_ms": m(self_ms("matcher.bookkeeping"), "ms/pair"),
        "matcher.verify_calls": m(calls("matcher.verify"), "1/pair"),
        "matcher.verify_self_ms": m(self_ms("matcher.verify"), "ms/pair"),
        "matcher.verify_accept_ratio": m(ratio("matcher.verify"), "ratio"),
        "boolfn.transform_calls": m(calls("boolfn.transform"), "1/pair"),
        "boolfn.transform_ms": m(self_ms("boolfn.transform"), "ms/pair"),
        "boolfn.negate_ms": m(self_ms("boolfn.negate"), "ms/pair"),
        "matcher.search_self_ms": m(self_ms(root), "ms/pair"),
        "matcher.nodes_per_pair": m(counts["nodes_per_pair"], "1/pair"),
        "matcher.nodes_max": m(counts["nodes_max"], "nodes"),
        "matcher.branch_points": m(counts["branch_points"], "1/pair"),
        "matcher.collisions": m(counts["collisions"], "1/pair"),
        "matcher.incompatible_prunes": m(counts["incompatible_prunes"], "1/pair"),
        "matcher.arms_per_pair": m(counts["arms_per_pair"], "1/pair"),
        "oracle.ground_truth_ms": m(certify_s * 1e3, "ms"),
        "trace.coverage": m(total_self / traced_s, "ratio"),
        "trace.overhead_ratio": m(traced_s / untraced_s, "ratio"),
    }
    record["self_share"] = {k: round(v["self_s"] / total_self, 4) for k, v in sorted(every.items())}
    record["inclusive_share"] = {
        k: round(every[k]["total_s"] / total_self, 4)
        for k in ("symmetry.build", "matcher.verify") if k in every
    }
    return out


if __name__ == "__main__":
    sys.exit(main())
