"""Check every benchmark pool item against ``bench/goldens.json``.

    python3 tools/check_goldens.py

Each item of ``workloads.all_pool_items()`` runs through the same three
steps as a benchmark request: ``run.execute`` (the ``qcliff`` command
line, in this process), ``run.check_outputs`` (the bench's independent
output checks) and ``checks.golden_problems`` (the recorded SHA-256
digests).  Inputs and outputs live in a temporary directory and no
bytecode is written, so the checkout is left as it was.  Prints each
failing item with its problems, then a summary; exits 1 if any item
fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import run

    run.cap_threads()  # before numpy is imported
    import checks
    import workloads

    with open(run.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    items = workloads.all_pool_items()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="qcliff-goldens-") as workdir:
        run.write_inputs(workdir, items)
        for item in items:
            _, outputs, problems = run.execute(item, workdir)
            if not problems:
                problems = run.check_outputs(item, outputs)
                problems += checks.golden_problems(outputs, goldens.get(item.key))
            if problems:
                failed += 1
                print(f"{item.key}: " + "; ".join(problems))
    print(f"{len(items) - failed} of {len(items)} pool items match bench/goldens.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
