"""Exact outputs stay byte-identical to the digests the benchmark gates on.

`perfbench/expected.json` holds a digest of every benchmark input's exact
output.  This test rebuilds a few of those inputs with the benchmark's own
builders and compares digests, so output drift fails the test suite and
not only a benchmark run.  It only reads `expected.json`.

verify runs the whole `run_suite` report; surd_union runs `clip` and
`intersect` on polytopes over Q(sqrt 2); hull_wide runs `valuate` on wide
integer clouds.  A surd_union op runs no hull pass, since every cut is
handed its record, and a hull_wide `valuate` runs one.  The same output,
and the same number of hull passes, must come out under any hash seed,
since set and dict order follow it.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
sys.path.append(BENCH_DIR)

from worker import HullFiles, digest, surd_input, surd_union_text, verify_argv  # noqa: E402

from slval import cli, polytope  # noqa: E402

with open(os.path.join(BENCH_DIR, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


@pytest.mark.parametrize("key", ["2:0", "2:1", "3:0", "3:1", "4:0", "4:1"])
def test_verify_lines(key, capsys):
    stratum, index = key.split(":")
    assert cli.main(verify_argv(stratum, int(index))) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [digest(line) for line in lines] == EXPECTED["verify"][key]


def counting_passes(monkeypatch) -> list:
    """A list that gains one entry per hull pass (`polytope._supporting`
    call) from here to the end of the monkeypatch context."""
    passes, real = [], polytope._supporting
    monkeypatch.setattr(polytope, "_supporting", lambda *args: passes.append(args) or real(*args))
    return passes


@pytest.mark.parametrize("stratum, count", [("2", 40), ("3", 10)])
def test_surd_union(stratum, count, monkeypatch):
    """Digests, and no hull pass inside an op: the passes that build its
    input are not counted."""
    for index in range(count):
        prepared = surd_input(stratum, index)
        with monkeypatch.context() as patch:
            passes = counting_passes(patch)
            text = surd_union_text(*prepared)
        assert digest(text) == EXPECTED["surd_union"][f"{stratum}:{index}"], index
        assert passes == [], index


@pytest.mark.parametrize("key", ["2x40:0", "2x40:1", "3x24:0", "3x40:0", "4x12:0", "4x20:0"])
def test_hull_wide(key, tmp_path, capsys, monkeypatch):
    """Digests, and one hull pass per `valuate`."""
    stratum, index = key.split(":")
    files = HullFiles(str(tmp_path))
    cloud = files.write(stratum, int(index))
    passes = counting_passes(monkeypatch)
    assert cli.main(["valuate", "--in", cloud, "--valuation", files.valuation]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert digest(line) == EXPECTED["hull_wide"][key]
    assert len(passes) == 1


#: verify at n = 2, 3, 4 and one valuate, with the hull passes counted on stderr
_HASH_PROBE = """
import sys
sys.path.insert(0, {src!r})
from slval import cli, polytope
real, calls = polytope._supporting, [0]
def counting(*args):
    calls[0] += 1
    return real(*args)
polytope._supporting = counting
for n in ("2", "3", "4"):
    assert cli.main(["verify", "--n", n, "--cases", "5", "--seed", "1"]) == 0
assert cli.main(["valuate", "--in", {cloud!r}, "--valuation", {valuation!r}]) == 0
print(calls[0], file=sys.stderr)
"""


def test_output_and_hull_passes_do_not_depend_on_the_hash_seed(tmp_path):
    files = HullFiles(str(tmp_path))
    probe = _HASH_PROBE.format(src=os.path.join(ROOT, "src"), cloud=files.write("3x24", 0),
                               valuation=files.valuation)
    runs = [subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONHASHSEED=seed),
                           capture_output=True, check=True, timeout=120)
            for seed in ("0", "1")]
    (out, err), (out_1, err_1) = ((run.stdout, run.stderr) for run in runs)
    # 23 verify lines at 5 cases (4 checks of 5 lines, the fit, the two usc lines)
    assert out == out_1 and out.count(b"\n") == 3 * 23 + 1
    assert err == err_1 and int(err) > 0
