"""One workload process: import xchan, set up, warm up, then run timed items.

Started by ``run.py``, which times it from before the process is spawned to
the ``t_ready`` it reports (the start of the first timed item, on the
system-wide monotonic clock that ``time.perf_counter`` reads on Linux).
Prints one JSON object as its last line of standard output.

Load is closed-loop from this single process: the next item starts only
after the previous one has finished.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from array import array
from dataclasses import dataclass
from time import perf_counter

from machine import record
from metrics import RESIDUAL_LAYERS
from spans import NullTracer, Tracer, by_function, layer_metrics, rows
from stats import beyond, percentile, tail_ok
from workloads import WORKLOADS, bind

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


@dataclass
class Phase:
    items: int
    elapsed: float
    latencies: array
    failures: list

    @property
    def rate(self) -> float:
        return self.items / self.elapsed

    def merged(self, other: "Phase") -> "Phase":
        return Phase(self.items + other.items, self.elapsed + other.elapsed,
                     self.latencies + other.latencies, self.failures + other.failures)


def import_xchan():
    """Import xchan from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import xchan

    if not os.path.abspath(xchan.__file__).startswith(SRC + os.sep):
        raise ImportError(f"xchan imported from {xchan.__file__}, not from {SRC}")
    return xchan


def run_phase(wl, seconds: float, tracer, first: int = 0) -> Phase:
    """Run items first, first+1, ... back to back until ``seconds`` have passed.

    Runs at least one cycle of the workload's item mix and stops only at the
    end of a whole cycle, so every phase holds each kind of item equally often.
    """
    wl.tracer = tracer
    wl.api = bind(tracer if isinstance(tracer, Tracer) else None)
    latencies = array("d")
    failures = []
    i = first
    start = now = perf_counter()
    deadline = start + seconds
    while now < deadline or i == first or (i - first) % wl.cycle:
        n, k = wl.shape(i)
        tracer.begin_item(i, n, k)
        try:
            wl.item(i)
        except Exception as err:  # any item error is a counted failure
            failures.append(f"item {i}: {type(err).__name__}: {err}")
        tracer.end_item()
        end = perf_counter()
        latencies.append(end - now)
        now = end
        i += 1
    return Phase(i - first, now - start, latencies, failures)


def run_abba(wl, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Untraced, traced, traced, untraced quarters: a linear drift cancels."""
    quarter = seconds / 4
    a1 = run_phase(wl, quarter, NullTracer())
    b1 = run_phase(wl, quarter, tracer)
    b2 = run_phase(wl, quarter, tracer, first=b1.items)
    a2 = run_phase(wl, quarter, NullTracer(), first=a1.items)
    return a1.merged(a2), b1.merged(b2)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def untraced_result(wl, phase: Phase) -> dict:
    # Read the peak before sorting the latencies, which allocates in
    # proportion to the item count.
    rss = peak_rss_mb(children=wl.name == "cli_pipeline")
    return {
        "items_per_s": phase.rate,
        "item_ms_p50": 1e3 * percentile(phase.latencies, 50),
        "item_ms_p90": 1e3 * percentile(phase.latencies, 90),
        "samples": phase.items,
        "beyond_p90": beyond(phase.items, 90),
        "p90_tail_ok": tail_ok(phase.items, 90),
        "peak_rss_mb": rss,
    }


def traced_result(wl, seconds: float, stem: str) -> tuple[dict, list[Phase]]:
    """Interleaved untraced and traced phases, then for the CLI an in-process one.

    The CLI workload gives a third of ``seconds`` to each of the three; the
    others split it between untraced and traced.
    """
    cli = wl.name == "cli_pipeline"
    tracer = Tracer()
    base, traced = run_abba(wl, seconds * (2 / 3 if cli else 1.0), tracer)
    phases = [base, traced]
    residuals = {k: v for k, v in wl.gate.by_layer().items()
                 if k in RESIDUAL_LAYERS}
    metrics = layer_metrics(tracer.spans, traced.elapsed, residuals)
    metrics["trace.overhead_ratio"] = traced.rate / base.rate
    for name, count in tracer.bytes.items():
        metrics[f"{name}.bytes"] = count
    tracers = {"traced": tracer}
    if cli:
        wl.inproc = True
        tracers["inproc"] = Tracer()
        phases.append(run_phase(wl, seconds / 3, tracers["inproc"]))
        for (name, _), group in by_function(tracers["inproc"].spans).items():
            if name.startswith("cli."):
                metrics[f"{name}.inproc_ms_p50"] = 1e3 * percentile(
                    [s[2] - s[1] for s in group], 50)
    with open(os.path.join(OUT_DIR, f"{stem}.spans.jsonl"), "w") as fh:
        for phase, t in tracers.items():
            t.dump(fh, phase)
    with open(os.path.join(OUT_DIR, f"{stem}.rows.json"), "w") as fh:
        json.dump(rows(tracer.spans, wl.gate.worst), fh, indent=1)
    return metrics, phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up and the warm-up item")
    args = parser.parse_args(argv)

    import_xchan()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        wl.item(0)  # untimed warm-up; a failure here aborts the run
        t_ready = perf_counter()
        if args.probe:
            print(json.dumps({"t_ready": t_ready}))
            return 0
        if args.trace:
            metrics, phases = traced_result(wl, args.seconds, args.workload)
        else:
            phases = [run_phase(wl, args.seconds, NullTracer())]
            metrics = untraced_result(wl, phases[0])
        failures = [f for p in phases for f in p.failures]
        print(json.dumps({
            "t_ready": t_ready,
            "attempted": sum(p.items for p in phases),
            "failed": len(failures),
            "failures": failures[:5],
            "metrics": metrics,
            "residuals": wl.gate.by_layer(),
            "machine": record(),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
