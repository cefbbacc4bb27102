"""Record the rcheck workload's results as the reference its checks use.

    python3 perfbench/record.py

Run from the root of a checkout.  It runs the ops of every rcheck variant
once and writes rcheck_expected.json: op argv -> digest of its result.
Only the R0 verdict over F_p has an independent oracle, so the rest of
each result is pinned to what this commit computes; run it only at a
commit whose rcheck results are trusted.  The committed file was written
at the seed commit, before any change to vdc.
"""

from __future__ import annotations

import json
import sys

import checks
import run
from workloads import RCHECK_VARIANTS, rcheck_ops


def main() -> int:
    sys.path.insert(0, str(run.SRC.resolve()))
    import vdc.cli

    recorded = {}
    for variant in range(RCHECK_VARIANTS):
        for op in rcheck_ops(variant):
            rc, out, _ = run.call(vdc.cli, op.argv)
            if rc != 0:
                print(f"exit code {rc}: {' '.join(op.argv)}", file=sys.stderr)
                return 1
            recorded[checks.op_key(op.argv)] = checks.digest(json.loads(out)["result"])
    text = json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    checks.EXPECTED_PATH.write_text(text)
    print(f"{len(recorded)} results -> {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
