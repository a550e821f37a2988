"""Record the expected output of every request in a workload's pool.

Usage, from the root of a checkout:

    python3 perfbench/record.py [sweep] [local] [reduce]

Runs each pool request once, checks its property test, and writes
``perfbench/expected/<workload>.json`` mapping request id to the digests of
its input and its canonical output.  The recorded files are the reference
that ``run.py`` checks every output against; record them only from a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

import workloads


def record(name: str) -> dict:
    pool = workloads.build(name, workloads.WORK / "record")
    expected = {}
    for request in pool:
        raw = request.execute()
        problem = request.check(raw)
        if problem:
            raise SystemExit(f"{request.id}: {problem}")
        expected[request.id] = {
            "input": request.input_digest,
            "output": workloads.digest(request.render(raw)),
        }
    return expected


def main(names: list[str]) -> int:
    for name in names or sorted(workloads.BUILDERS):
        expected = record(name)
        workloads.EXPECTED.mkdir(exist_ok=True)
        path = workloads.EXPECTED / f"{name}.json"
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(expected)} requests recorded in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
