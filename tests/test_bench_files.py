"""Every committed BENCH_*.json is a complete, correct measurement record.

A performance claim counts only against a committed BENCH file, so each one
must say what ran where, point at the file it was measured against, and
hold only runs whose verdicts were all correct.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHES = sorted(ROOT.glob("BENCH_*.json"))


def _runs(record):
    for trace in ("trace0", "trace1"):
        for key, runs in record[trace].items():
            for run in runs if isinstance(runs, list) else [runs]:
                yield f"{trace} {key}", run


def test_bench_files_committed():
    assert BENCHES


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
def test_bench_file(path):
    record = json.loads(path.read_text())
    for field in ("commit", "python", "cpu", "command"):
        assert isinstance(record.get(field), str) and record[field], field
    assert path.name == f"BENCH_{record['commit']}.json"
    parent = record["parent_bench"]
    assert parent is None or (ROOT / parent).is_file(), parent
    runs = list(_runs(record))
    assert runs
    for where, run in runs:
        assert run["correct"] is True and run["failed"] == 0, where


def test_one_chain_of_parents():
    # only the first record has no parent, and no record is its own ancestor
    parents = {p.name: json.loads(p.read_text())["parent_bench"] for p in BENCHES}
    assert sum(parent is None for parent in parents.values()) == 1
    for name in parents:
        seen = set()
        while name is not None:
            assert name not in seen, name
            seen.add(name)
            name = parents[name]
