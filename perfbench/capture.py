"""
Capture reference.json: every operation's observed output, one pass each.

    python3 perfbench/capture.py

Run only at a commit whose outputs are known good; the benchmark compares
every later run against the file this writes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    os.environ.update(run.THREAD_PINS)  # before numpy loads
    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, ops in workloads.WORKLOADS.items():
            env = run.WORKLOAD_ENV.get(name, {})
            os.environ.update(env)
            reference[name] = {}
            for op in ops:
                d = workloads.op_dir(Path(tmp) / name, op)
                reference[name][op.name] = op.observe(op.run(d), d)
            for key in env:
                del os.environ[key]
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(workloads.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
