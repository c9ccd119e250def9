"""xchan benchmark: one workload, timed from outside, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload population --seed 1 --seconds 40 --trace 0

Runs ``SETUP_PROBES`` short processes that only set up and warm up, then
one workload process (``worker.py``) that also runs the timed items.
``setup_s`` is the median over all of them of the time from spawning the
process to the start of its first timed item.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics (see README.md).  Earlier
lines carry the machine record and run details.  The exit code is 0 only if
every item passed its correctness gate.

xchan is imported from ``src/`` next to this directory; BLAS is pinned to
one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from machine import BLAS_THREAD_VARS
from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("population", "large_n", "cli_pipeline")

# Set-up samples per run: these probes plus the workload process itself.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 15
# Time allowed on top of --seconds for the workload process to finish.
RUN_SLACK_S = 90


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run the worker; return its spawn time and its last-line JSON."""
    t_spawn = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv], env=env, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        # A timeout, Ctrl-C or SIGTERM: stop the worker's whole session, which
        # includes any CLI process it is waiting on, before leaving.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return t_spawn, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "xchan", "__init__.py")):
        print(f"error: no xchan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = pinned_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            t_spawn, probe = spawn([*base, "--probe"], env, PROBE_TIMEOUT_S)
            setup.append(probe["t_ready"] - t_spawn)
        t_spawn, result = spawn(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, args.seconds * (1.5 if args.trace else 1.0) + RUN_SLACK_S,
        )
        setup.append(result["t_ready"] - t_spawn)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as err:
        print(f"error: {args.workload} run failed: {err}", file=sys.stderr)
        return 2

    raw = dict(result["metrics"], setup_s=statistics.median(setup))
    ok = result["failed"] == 0
    raw["ok_ratio"] = 1.0 - result["failed"] / result["attempted"]
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(raw.get(name, 0.0)), "unit": unit}
               for name, unit, *_ in names}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup,
        "failures": result["failures"], "residuals": result["residuals"],
        **{k: v for k, v in result["metrics"].items()
           if k in ("samples", "beyond_p90", "p90_tail_ok")},
    }
    summary = {"correct": ok, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{stem}.result.json"), "w") as fh:
        json.dump({"machine": result["machine"], "detail": detail,
                   "all_metrics": raw, **summary}, fh, indent=1)
    print(json.dumps({"machine": result["machine"]}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
