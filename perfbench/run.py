"""proofbench CLI benchmark: cold forked requests over three workloads.

    python3 perfbench/run.py --workload expanded|lazy|lab --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/`.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, HERE)
    import plan

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "proofbench", "cli.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
