#!/usr/bin/env python3
"""Record the golden outputs that perfbench/run.py compares against.

Run from the root of a source checkout, at the commit whose outputs are
the reference:

    python3 perfbench/record_golden.py

Golden jobs use fixed inputs, so the seed does not matter.
"""

import json
import os
import shutil

import run


def main():
    run.prepare()
    import workloads

    workdir = run.WORK / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    golden = {}
    try:
        with open(os.devnull, "w") as sink:
            for name in run.WORKLOADS:
                workload = workloads.build(name, 0, workdir, sink)
                golden[name] = {key: produce() for key, produce in workload.golden.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.BENCH / "golden.json", "w") as f:
        f.write(format_golden(golden))


def format_golden(golden):
    """JSON with one table row per line."""
    workloads = []
    for name, tables in golden.items():
        entries = []
        for key, rows in tables.items():
            body = ",\n".join("   " + json.dumps(row) for row in rows)
            entries.append(f"  {json.dumps(key)}: [\n{body}\n  ]")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(entries) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


if __name__ == "__main__":
    main()
