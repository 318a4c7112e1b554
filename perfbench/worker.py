"""One measured process: set up, make one timed call, check it, report JSON.

Started by run.py, one fresh interpreter per call, so ``ru_maxrss`` covers
this call alone.  With ``--setup-only`` it stops after set-up.  The last
stdout line is a JSON object; ``ready`` is the CLOCK_MONOTONIC time at which
set-up (import, fixture check, warm-up) finished, and ``reference_s`` the
time of reference(), taken last.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import tempfile
import time
from pathlib import Path

from workloads import WORK_DIR, WORKLOADS, check_fixture, mismatches, outcome, peak_rss_mb


def warm_up() -> None:
    """A millisecond-scale search through the same code paths as the workloads."""
    from triramsey import ProblemSpec, RunLimits, compute_number
    report = compute_number(ProblemSpec(k=1, j=4), RunLimits(worker_count=1))
    if report.value != 7:
        raise SystemExit(f"warm-up: T_1(4) = {report.value}, expected 7")


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop that uses nothing of the package.

    The machine is shared, and how fast it runs drifts by tens of percent
    over tens of seconds.  Timed in the same process right after the call
    (or after set-up, for a set-up probe), this loop is slowed by the same
    drift, so a time divided by it is much steadier than the time alone.
    It runs after peak_rss_mb is read, and with the cyclic collector off,
    so that the heap the call leaves behind does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(12345)
        keys = [rng.getrandbits(40) for _ in range(10_000)]
        check = 0
        for shift in range(1, 17):
            table = {key ^ (key >> shift): (key & 0xFFFF, key >> 20) for key in keys}
            for key in keys:
                low, high = table[key ^ (key >> shift)]
                check += (low ^ high) & 0xFF
            check += len({frozenset((k & 63, (k >> 6) & 63, (k >> shift) & 63)) for k in keys})
            check += sorted(keys, key=lambda k: k >> shift)[0] & 1
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if check <= 0:
        raise SystemExit("reference loop computed nothing")
    return elapsed


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed_call(workload, limits, input_path) -> tuple[object, dict]:
    cpu = cpu_seconds()
    start = time.perf_counter()
    report = workload.call(limits, input_path)
    wall = time.perf_counter() - start
    return report, {"wall_s": wall, "cpu_s": cpu_seconds() - cpu,
                    "peak_rss_mb": peak_rss_mb()}


def traced_call(workload, limits, input_path, span_path: Path) -> tuple[object, dict]:
    from tracing import ROOT_SPAN, Tracer, layer_metrics, patched
    tracer = Tracer()
    with patched(tracer, workload.workers), tracer.span(ROOT_SPAN):
        report = workload.call(limits, input_path)
    tracer.dump(span_path)
    table = tracer.self_times()
    return report, {"layers": layer_metrics(tracer, workload.workers),
                    "self_times": table, "spans": len(tracer.spans)}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", type=Path, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    check_fixture()
    warm_up()
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        checkpoint_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            limits = workload.limits(checkpoint_dir)
            if args.trace:
                report, measured = traced_call(workload, limits, args.input, args.spans)
            else:
                report, measured = timed_call(workload, limits, args.input)
            result.update(measured)
            result["mismatches"] = mismatches(workload, outcome(report, checkpoint_dir))
        finally:
            shutil.rmtree(checkpoint_dir)
    result["reference_s"] = reference()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
