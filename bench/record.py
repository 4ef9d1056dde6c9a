"""Re-record the benchmark's reference data under bench/data/.

    python3 bench/record.py

It runs operations 0..N-1 of every workload for the default seed and writes
their answer digests to data/digests.json; every later run on that seed
compares its answers against them.  It also runs the traced operation set of
`search` and of `ode` for the default seed, captures the linear systems handed
to linalg, and keeps a spread of them by size in data/systems_<workload>.json,
with the results the current code gives.

Only re-record after a change that is meant to change answers; the recorded
files are what makes a silent change of answer visible.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.pop("DIFFIELD_MAX_CELLS", None)

import linsys  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from worker import DATA, DIGESTS, TRACE_OPS  # noqa: E402

# at least twice what the seed code gets through in one timed run of 35 s, so
# that a speed-up still finds its operations here; an operation past the
# record is only checked on its own terms
RECORDED_OPS = {"derive": 6000, "ode": 1200, "search": 3500}


def record_digests():
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        wl = workloads.Workload(name, DEFAULT_SEED)
        digests = []
        for i in range(RECORDED_OPS[name]):
            op = wl.op(i)
            digests.append(workloads.answer_digest(op.check(op.run())))
        out["workloads"][name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=0) + "\n")


def record_systems():
    for name in ("search", "ode"):
        wl = workloads.Workload(name, DEFAULT_SEED)
        ops = [wl.op(i) for i in range(TRACE_OPS[name])]
        with linsys.Capture() as cap:
            for op in ops:
                op.run()
        kept = linsys.select(cap.systems)
        linsys.dump(kept, DATA / f"systems_{name}.json")
        print(f"{name}: kept {len(kept)} of {len(cap.systems)} systems, "
              f"cells {[linsys.cells(s) for s in kept]}", file=sys.stderr)


def main() -> int:
    DATA.mkdir(exist_ok=True)
    record_systems()
    record_digests()
    return 0

if __name__ == "__main__":
    sys.exit(main())
