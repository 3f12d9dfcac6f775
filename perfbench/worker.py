"""Runs one round of a benchmark run's program calls in a fresh interpreter.

    python3 worker.py PLAN.json RESULT.json

The plan lists the operations (argument lists for ``dirlap.cli.main``)
and whether to trace.  The operations run one at a time.  The process does
nothing but import dirlap and make those calls, so its peak resident
memory, read by the parent, is the program's.  Each round gets its own
process so that every round starts from the same state: in one long-lived
process a second round reused the first one's memory and ran faster,
while the peak grew.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import dirlap.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        print(f"dirlap imported from {cli.__file__}, not from {plan['src']}",
              file=sys.stderr)
        return 2
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).parent))
        import tracing
        tracer = tracing.install()
    times, codes = [], []
    for argv in plan["ops"]:
        t0 = time.perf_counter()
        codes.append(cli.main(argv))
        times.append(time.perf_counter() - t0)
    result = {"times": times, "codes": codes}
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
