"""The benchmark's tracer must still be able to wrap the package.

`perfbench/tracing.py` wraps slval by name: it reads the `lru_cache` of
`triangulate.volume`, the calls of `linalg.solve_any` and the methods of
`Matrix`, among others.  Deleting or renaming one of them leaves every
other test green and breaks only `perfbench/run.py --trace 1`.  The tracer
replaces functions in place, so it is installed in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracing import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(sorted(tracer.metrics())))
"""


def test_tracer_installs_and_reads_every_per_layer_metric():
    code = _PROBE.format(bench=os.path.join(ROOT, "perfbench"), src=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    # the trace.* figures compare whole passes and come from perfbench/run.py
    assert {name for name in declared if not name.startswith("trace.")} <= names
