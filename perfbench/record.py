"""Write expected.json: the digest of every pool entry's exact output.

Run at the commit whose outputs are the reference (the seed commit);
a later commit that changes any output byte fails the benchmark's
correctness gate until this is re-run on purpose.

    python3 perfbench/record.py            # every workload, two at a time
    python3 perfbench/record.py --one verify
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import worker


def record_one(name: str) -> dict:
    worker.import_slval()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=worker.BENCH_DIR) as work_dir:
        workload = worker.Workload(name, work_dir)
        table = {}
        for stratum, size in worker.POOLS[name].items():
            for index in range(size):
                table[f"{stratum}:{index}"] = workload.record(stratum, index)
        return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", choices=tuple(worker.POOLS))
    args = parser.parse_args()
    if args.one:
        print(json.dumps(record_one(args.one)))
        return 0

    names = list(worker.POOLS)
    tables = {}
    # at most two recorders at once
    for batch in (names[:2], names[2:]):
        procs = {
            name: subprocess.Popen([sys.executable, __file__, "--one", name],
                                   stdout=subprocess.PIPE, text=True)
            for name in batch
        }
        for name, proc in procs.items():
            out, _ = proc.communicate()
            if proc.returncode != 0:
                print(f"recording {name} failed", file=sys.stderr)
                return 1
            tables[name] = json.loads(out)
    with open(worker.EXPECTED_PATH, "w") as fh:
        json.dump(tables, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
