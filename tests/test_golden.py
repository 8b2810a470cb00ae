"""Exact outputs stay byte-identical to the digests the benchmark gates on.

`perfbench/expected.json` holds a digest of every benchmark input's exact
output.  This test rebuilds a few of those inputs with the benchmark's own
builders and compares digests, so output drift fails the test suite and
not only a benchmark run.  It only reads `expected.json`.

verify runs the whole `run_suite` report; surd_union runs `clip` and
`intersect` on polytopes over Q(sqrt 2); hull_wide runs `valuate` on wide
integer clouds.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(BENCH_DIR)

from worker import HullFiles, digest, surd_input, surd_union_text, verify_argv  # noqa: E402

from slval import cli  # noqa: E402

with open(os.path.join(BENCH_DIR, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


@pytest.mark.parametrize("key", ["2:0", "2:1", "3:0", "3:1", "4:0", "4:1"])
def test_verify_lines(key, capsys):
    stratum, index = key.split(":")
    assert cli.main(verify_argv(stratum, int(index))) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [digest(line) for line in lines] == EXPECTED["verify"][key]


@pytest.mark.parametrize("stratum, count", [("2", 40), ("3", 10)])
def test_surd_union(stratum, count):
    for index in range(count):
        text = surd_union_text(*surd_input(stratum, index))
        assert digest(text) == EXPECTED["surd_union"][f"{stratum}:{index}"], index


@pytest.mark.parametrize("key", ["2x40:0", "2x40:1", "3x24:0", "3x40:0", "4x12:0", "4x20:0"])
def test_hull_wide(key, tmp_path, capsys):
    stratum, index = key.split(":")
    files = HullFiles(str(tmp_path))
    cloud = files.write(stratum, int(index))
    assert cli.main(["valuate", "--in", cloud, "--valuation", files.valuation]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert digest(line) == EXPECTED["hull_wide"][key]
