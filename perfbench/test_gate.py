"""The benchmark's correctness gate must be able to fail.

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import worker

WORKER = os.path.join(worker.BENCH_DIR, "worker.py")


def _run_verify(*extra: str) -> tuple[int, list]:
    proc = subprocess.run(
        [sys.executable, WORKER, "run", "--workload", "verify", "--seed", "3",
         "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])["ops"]


def test_seed_code_passes_the_gate():
    code, ops = _run_verify()
    assert ops and all(ok for _, _, ok, _ in ops)
    assert code == 0


def test_inject_broken_counts_as_failed():
    code, ops = _run_verify("--inject-broken")
    failed = sum(1 for _, _, ok, _ in ops if not ok)
    assert failed / len(ops) > 0
    assert code != 0


def test_corrupted_digest_counts_as_failed():
    worker.import_slval()
    with open(worker.EXPECTED_PATH) as fh:
        expected = json.load(fh)["surd_union"]
    workload = worker.Workload("surd_union", work_dir=worker.BENCH_DIR)
    stratum, index = "2", 0
    prepared = workload.prepare(stratum, index)
    [(*_, ok)] = workload.ops(stratum, index, prepared, expected)
    assert ok
    key = f"{stratum}:{index}"
    corrupted = dict(expected, **{key: "0" * len(expected[key])})
    [(*_, ok)] = workload.ops(stratum, index, prepared, corrupted)
    assert not ok


def test_shoelace_oracle_matches_a_square():
    # conv{(±1, ±1)} has area 4, so valuate must print 7 + 8*4
    assert worker.shoelace_value([(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0)]) == 39
