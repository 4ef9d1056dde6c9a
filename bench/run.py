"""difftower benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload {derive,ode,search} --seed N \
        --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics, measured with no tracing:
throughput, latency p50/p90, set-up time (median of several set-ups, each in
a fresh interpreter) and peak memory.  --trace 1 runs a fixed number of
operations under the layer trace and prints the per-layer metrics.  The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are for people.

Every worker runs in a fresh interpreter with DIFFIELD_MAX_CELLS removed from
its environment, so no cell cap leaks in from the caller or from an earlier
run, and with a fixed PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("derive", "ode", "search")
DEFAULT_SEED = 20261017
HELD_OUT_SEED = 7919
SETUPS_PER_RUN = 9     # set-ups per timed run, the timed run's own included
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DIFFIELD_MAX_CELLS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"{mode} worker timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def timed_run(args):
    setups = [run_worker(args, "setup")["setup_s"]
              for _ in range(SETUPS_PER_RUN - 1)]
    res = run_worker(args, "measure")
    setups.append(res["setup_s"])
    metrics = {
        "throughput_ops_s": res["throughput_ops_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    res["notes"] = [
        f"raw (not speed-normalized): {res['raw_throughput_ops_s']:.6g} 1/s, "
        f"p50 {res['raw_latency_p50_ms']:.6g} ms, "
        f"p90 {res['raw_latency_p90_ms']:.6g} ms",
        f"calibration kernel mean {res['kernel_ms']:.4g} ms "
        f"(reference 1 ms); set-ups {[round(s, 4) for s in setups]} s"]
    return res, metrics


def traced_run(args):
    res = run_worker(args, "trace")
    return res, {k: tuple(v) for k, v in res["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "difftower" / "__init__.py").is_file():
        print(f"error: no difftower sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        res, metrics = traced_run(args) if args.trace else timed_run(args)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    env = {"workload": args.workload, "seed": args.seed,
           "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "digest_checked": res["digest_checked"]}
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} operations)")
    for note in res.get("notes", ()):
        print(note)
    for err in res["errors"]:
        print(f"failure: {err}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
