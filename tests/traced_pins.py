"""Check a traced benchmark run's search counts against their pinned values.

Usage: python tests/traced_pins.py WORKLOAD

Runs npnbench/run.py --workload WORKLOAD --seed 1 --seconds 2 --trace 1 and
prints the eight pinned counts of its last line. Exits 1 unless that line
reports correct true, failed 0, and every count at its pinned value; 2 for
an unknown workload.

A traced run fails when a rename breaks one of the tracer's patch targets,
when it reports a wrong verdict or witness, or when the search counts
differ from the pinned seed-1 values, which a seed repeats exactly: a
per-node rewrite must not change the search, nor restore or verify past
the first verified branch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "structured_mid": {
        "matcher.nodes_per_pair": 14.572916666666666,
        "matcher.collisions": 1.2829861111111112,
        "matcher.incompatible_prunes": 5.220486111111111,
        "matcher.branch_points": 3.9609375,
        "signature.update_calls": 10.79513888888889,
        "matcher.mapping_sets_calls": 5.574652777777778,
        "matcher.bookkeeping_calls": 14.90017361111111,
        "matcher.verify_calls": 3.7777777777777777,
    },
    # the tracer's patched build_symmetry_classes runs only for output arms
    # whose root first-order keys agree, which the n = 20 pairs reach on
    # both sides of that condition; the two phase collisions these pairs
    # reach fail the check when the collision rule changes at n = 20
    "random_n20": {
        "matcher.nodes_per_pair": 2.0338541666666665,
        "matcher.collisions": 0.005208333333333333,
        "matcher.incompatible_prunes": 0.6901041666666666,
        "matcher.branch_points": 0.0,
        "signature.update_calls": 1.4739583333333333,
        "matcher.mapping_sets_calls": 0.7838541666666666,
        "matcher.bookkeeping_calls": 0.0,
        "matcher.verify_calls": 0.5598958333333334,
    },
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in PINS:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    pinned = PINS[argv[0]]
    cmd = [sys.executable, str(ROOT / "npnbench" / "run.py"), "--workload", argv[0],
           "--seed", "1", "--seconds", "2", "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    r = json.loads(out.splitlines()[-1])
    got = {name: r["metrics"][name]["value"] for name in pinned}
    print(got)
    return int(not (r["correct"] is True and r["failed"] == 0 and got == pinned))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
