"""Record golden SHA-256 digests of the outputs of every pool item.

    python3 bench/record_goldens.py

Run from the root of a source checkout, at the commit whose output bytes
are the reference.  Every output must pass its independent check before
its digest is stored.  Every pool item is recorded each time, so all
digests come from one commit; if any item fails, the file is left as it
was.  Re-recording redefines correct output, so a change that does it
must say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, run.SRC)
    import checks
    import workloads

    goldens = {}
    workdir = os.path.join(run.WORK, "goldens")
    os.makedirs(workdir, exist_ok=True)
    failed = 0
    try:
        for item in workloads.all_pool_items():
            workloads.write_input(workdir, item)
            latency, outputs, problems = run.execute(item, workdir)
            problems = problems or run.check_outputs(item, outputs)
            if problems:
                failed += 1
                print(f"{item.key}: FAIL {problems}", flush=True)
                continue
            goldens[item.key] = {name: checks.sha256(data) for name, data in outputs.items()}
            print(f"{item.key}: {latency:.3f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        print(f"{failed} items failed; {run.GOLDENS} not written", file=sys.stderr)
        return 1
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(goldens.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
