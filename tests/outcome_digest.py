"""Print one sha256 digest of every search outcome of a benchmark workload.

Usage: python tests/outcome_digest.py WORKLOAD SEED

The pairs are those the benchmark builds for WORKLOAD at SEED, in set-up
order. Each is matched once, with the benchmark's node cap, under a
TraceObserver, and one UTF-8 line is hashed per pair:

    verdict \\t witness_text \\t nodes_visited \\t verify_calls \\t
    vectors_reused \\t sha256-hex(trace text) \\n

verdict is the Verdict's value (equivalent or non_equivalent),
witness_text is MatchResult.witness_text(), the counts are the
SearchStats fields in decimal, and the trace text is everything the
TraceObserver printed for the pair. The digest printed is the sha256 hex
of all lines in order.

A change that keeps every verdict, witness, node count and trace line keeps
the digest; a change to any of them changes it. Only pairs workloads
(random_n20, structured_mid) are accepted.
"""

import hashlib
import io
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "npnbench")]

from npnmatch import match_npn  # noqa: E402
from npnmatch.workbench import TraceObserver  # noqa: E402

import workloads  # noqa: E402


def outcome_digest(workload: str, seed: int) -> str:
    inputs = workloads.BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    total = hashlib.sha256()
    for pair in inputs.pairs:
        buf = io.StringIO()
        r = match_npn(pair.f, pair.g, node_cap=workloads.NODE_CAP, observer=TraceObserver(buf))
        trace = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        fields = (
            r.verdict.value, r.witness_text(), r.stats.nodes_visited, r.stats.verify_calls,
            r.stats.vectors_reused, trace,
        )
        total.update(("\t".join(map(str, fields)) + "\n").encode())
    return total.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("random_n20", "structured_mid"):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    print(outcome_digest(argv[0], int(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
