"""One benchmark process: set up a workload, then measure or trace it.

Run by ``run.py`` in a fresh interpreter per call; prints one JSON object as
its last line of output.

  --mode setup    import, build the first operations and warm up; report
                  the set-up time only
  --mode measure  set up, then run operations 0, 1, 2, ... in a closed loop
                  (one client, one thread) for --seconds, timing each call
  --mode trace    set up, run operations 0..N-1 once untraced and once under
                  the layer trace, then replay the recorded linear systems
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import calibrate  # noqa: E402
import layers  # noqa: E402
import linsys  # noqa: E402
import workloads  # noqa: E402
from workloads import WrongAnswer, answer_digest  # noqa: E402

DATA = HERE / "data"
DIGESTS = DATA / "digests.json"
SYSTEMS = (DATA / "systems_search.json", DATA / "systems_ode.json")
WARMUP_SEED = 0
WARMUP_OPS = 6
CALIBRATION_SAMPLES = 30
# operations per traced run; fixed so that call counts repeat exactly
TRACE_OPS = {"derive": 648, "ode": 100, "search": 325}


def load_digests(workload: str, seed: int) -> list:
    """Recorded per-operation digests for this seed, or [] if none."""
    data = json.loads(DIGESTS.read_text())
    if data["seed"] != seed:
        return []
    return data["workloads"].get(workload, [])


class Checker:
    """Verifies answers and counts failures: an exception, a failed check and
    a digest mismatch each count once."""

    def __init__(self, expected: list):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.errors = []

    def record(self, i: int, op, answer, error) -> bool:
        self.attempted += 1
        try:
            if error is not None:
                raise error
            digest = answer_digest(op.check(answer))
            if i < len(self.expected):
                self.digest_checked += 1
                if digest != self.expected[i]:
                    raise WrongAnswer("answer digest differs from record")
            return True
        except Exception as e:  # any failure of the library counts
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i} ({op.kind}): "
                                   f"{type(e).__name__}: {e}")
            return False


def call(op):
    try:
        return op.run(), None
    except Exception as e:  # counted as a failed operation
        return None, e


def set_up(workload: str, seed: int):
    """Import (already done), build the workload, warm up on fixed inputs so
    that the cost does not depend on the seed; returns (workload, set-up
    seconds at reference speed)."""
    warm = workloads.Workload(workload, WARMUP_SEED)
    for i in range(WARMUP_OPS):
        call(warm.op(i))
    wl = workloads.Workload(workload, seed)
    setup_s = time.perf_counter() - T_START
    kernel = [calibrate.sample() for _ in range(CALIBRATION_SAMPLES)]
    return wl, setup_s / calibrate.factor(kernel)


def measure(wl, seconds: float, checker: Checker) -> dict:
    """Closed loop over operations 0, 1, 2, ... for `seconds` of wall time.
    A calibration sample is taken between every two operations; each
    operation's time is brought to reference speed by the samples of its
    neighbourhood (two operations either side)."""
    raw = []
    ok = 0
    kernel = [calibrate.sample()]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = wl.op(i)
        t0 = time.perf_counter()
        answer, error = call(op)
        raw.append(time.perf_counter() - t0)
        kernel.append(calibrate.sample())
        ok += checker.record(i, op, answer, error)
        i += 1
    # kernel[i] was taken just before operation i and kernel[i + 1] just after
    scaled = [dt / calibrate.factor(kernel[max(0, i - 2):i + 4])
              for i, dt in enumerate(raw)]

    def summary(latencies):
        cuts = statistics.quantiles(latencies, n=10, method="inclusive") \
            if len(latencies) > 1 else latencies * 9
        return ok / sum(latencies), cuts[4] * 1e3, cuts[8] * 1e3

    out = {}
    for prefix, latencies in (("", scaled), ("raw_", raw)):
        out.update(zip((f"{prefix}throughput_ops_s", f"{prefix}latency_p50_ms",
                        f"{prefix}latency_p90_ms"), summary(latencies)))
    out["kernel_ms"] = statistics.fmean(kernel) * 1e3
    return out


def trace(wl, n_ops: int, checker: Checker) -> dict:
    """Operations 0..n_ops-1 once untraced and once traced; every time is
    reported at reference speed."""
    ops = [wl.op(i) for i in range(n_ops)]

    def run_all():
        kernel, busy, results = [], 0.0, []
        for op in ops:
            kernel.append(calibrate.sample())
            t0 = time.perf_counter()
            results.append(call(op))
            busy += time.perf_counter() - t0
        return busy, calibrate.factor(kernel), results

    untraced_s, untraced_factor, plain = run_all()
    with layers.LayerTrace(extra_modules=[workloads]) as tr:
        traced_s, factor, traced = run_all()
    for results in (plain, traced):
        for i, (op, (answer, error)) in enumerate(zip(ops, results)):
            checker.record(i, op, answer, error)
    metrics = {name: (value / factor if unit == "s" else value, unit)
               for name, (value, unit) in tr.metrics().items()}
    metrics["trace.overhead_frac"] = (
        (traced_s / factor) / (untraced_s / untraced_factor) - 1, "ratio")
    metrics["trace.wall_s"] = (traced_s / factor, "s")
    systems = [s for path in SYSTEMS for s in linsys.load(path)]
    kernel = [calibrate.sample() for _ in range(CALIBRATION_SAMPLES)]
    replay_s, mismatches = linsys.replay(systems)
    kernel += [calibrate.sample() for _ in range(CALIBRATION_SAMPLES)]
    metrics["linalg.replay_s"] = (replay_s / calibrate.factor(kernel), "s")
    checker.attempted += len(systems)
    checker.failed += mismatches
    if mismatches:
        checker.errors.append(f"{mismatches} replayed systems differ")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    wl, setup_s = set_up(args.workload, args.seed)
    out = {"setup_s": setup_s}
    checker = Checker(load_digests(args.workload, args.seed))
    if args.mode == "measure":
        out.update(measure(wl, args.seconds, checker))
    elif args.mode == "trace":
        out["metrics"] = trace(wl, TRACE_OPS[args.workload], checker)
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=checker.attempted, failed=checker.failed,
               digest_checked=checker.digest_checked, errors=checker.errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
