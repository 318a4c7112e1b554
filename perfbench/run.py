"""Benchmark of the triramsey level search: time-to-value, memory, per-layer cost.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their reasons and the recorded baseline are in BENCHMARK.json and
perfbench/baseline.json.  Every call runs in a fresh worker process
(worker.py) and is checked against the pinned results in workloads.py.

--trace 0: repeats the workload's public call, closed loop, one call at a
time, for about S seconds (at least one call), and reports medians of
wall_norm_s and cpu_norm_s (the call's wall time, and the user+sys time of
the worker and its pool children), peak_rss_mb (ru_maxrss of the worker
plus its children; our own processes only) and setup_s (process start
through import, fixture check and warm-up, over every worker started in the
run).  The shared machine's speed drifts by tens of percent over tens of
seconds, so every worker also times a fixed pure-Python loop,
worker.reference(), and the times are scaled by REFERENCE_S / reference_s
(each call by its own worker's, setup_s by the run's medians): seconds at
the speed the machine recorded in baseline.json had.  reference() runs no
code of the package; the raw wall_s, cpu_s and set-up times are printed
beside the normalized ones.

--trace 1: one untraced call, then one traced call (tracing.py), and reports
the per-layer metrics, a self-time table and the tracing overhead.

The seed sets PYTHONHASHSEED of every worker (the layout of the dedup
table); for t1_7_verify it also relabels and shuffles the members of the
resumed level file.  The last stdout line is one JSON object; the exit code
is 1 when any call's output differs from the pins.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BENCH_DIR, WORK_DIR, WORKLOADS, check_fixture, write_seeded_level

SETUP_PROBES = 5
#: Median of worker.reference() on the machine recorded in baseline.json.
#: Normalized times are scaled by it so that they read as seconds there.
REFERENCE_S = 0.25
CALL_TIMEOUT_S = 170


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


def environment() -> dict:
    import importlib.util
    import platform

    import numpy
    kernels = sys.modules.get("triramsey._kernels")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"HAVE_NUMBA": getattr(kernels, "HAVE_NUMBA", False),
            "numba_installed": importlib.util.find_spec("numba") is not None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_worker(workload: str, seed: int, input_path: Path | None, *,
               trace: int = 0, spans: Path | None = None,
               setup_only: bool = False) -> dict:
    """Start one worker process, wait for it, return its JSON plus setup_s."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--trace", str(trace)]
    if input_path is not None:
        cmd += ["--input", str(input_path)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload}: worker exceeded {CALL_TIMEOUT_S} s")
    finally:
        # Reap pool processes a crashed worker may have left in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_raw_s"] = result.pop("ready") - started
    if "wall_s" in result:
        scale = REFERENCE_S / result["reference_s"]
        result["wall_norm_s"] = result["wall_s"] * scale
        result["cpu_norm_s"] = result["cpu_s"] * scale
    return result


def print_samples(samples: dict[str, list[float]], units: dict[str, str]) -> None:
    print(f"{'metric':<14} {'unit':<5} {'n':>3} {'median':>12} {'min':>12} {'max':>12}")
    for name, values in samples.items():
        print(f"{name:<14} {units[name]:<5} {len(values):>3} "
              f"{statistics.median(values):>12.6f} {min(values):>12.6f} {max(values):>12.6f}")


def print_self_times(table: dict[str, list], wall: float) -> None:
    print(f"{'span':<24} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}")
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<24} {calls:>8} {total:>10.4f} {own:>10.4f} {100 * own / wall:>6.1f}%")
    accounted = sum(row[2] for row in table.values())
    print(f"self times sum to {accounted:.6f} s of traced wall {wall:.6f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    check_fixture()
    print("environment", json.dumps(environment()))

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        input_path = None
        if workload.resume:
            input_path = run_dir / "level-11.lvl"
            write_seeded_level(args.seed, input_path)
        probes = [run_worker(workload.name, args.seed, input_path, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        calls = []
        if args.trace:
            spans = WORK_DIR / f"spans-{workload.name}.jsonl"
            calls.append(run_worker(workload.name, args.seed, input_path))
            calls.append(run_worker(workload.name, args.seed, input_path,
                                    trace=1, spans=spans))
        else:
            # Start a call only if it can end within --seconds, judged by the
            # slowest call so far, so that a run lasts about --seconds.
            start = time.monotonic()
            longest = 0.0
            while not calls or time.monotonic() - start + longest <= args.seconds:
                began = time.monotonic()
                calls.append(run_worker(workload.name, args.seed, input_path))
                longest = max(longest, time.monotonic() - began)
    finally:
        shutil.rmtree(run_dir)

    failed = sum(1 for call in calls if call["mismatches"])
    for index, call in enumerate(calls):
        for line in call["mismatches"]:
            print(f"MISMATCH call {index}: {line}")
    print(f"workload {workload.name} seed {args.seed} calls {len(calls)} "
          f"failed {failed} failed_frac {failed / len(calls):.6f}")

    if args.trace:
        untraced, traced = calls
        layers = traced["layers"]
        print_self_times(traced["self_times"], layers["trace.wall_s"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced["wall_s"]
        print(f"tracing overhead: traced wall {layers['trace.wall_s']:.6f} s - "
              f"untraced wall_s {untraced['wall_s']:.6f} s = "
              f"{layers['trace.overhead_s']:.6f} s; {traced['spans']} spans in {spans}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        samples = {name: [call[name] for call in calls]
                   for name in ("wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s", "peak_rss_mb")}
        for name in ("setup_raw_s", "reference_s"):
            samples[name] = [worker[name] for worker in probes + calls]
        units = metric_units("end_to_end")
        print_samples(samples, {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s",
                                "reference_s": "s", **units})
        medians = {name: statistics.median(values) for name, values in samples.items()}
        # Each set-up and its reference loop last a fraction of a second, too
        # short for their ratio to be steady; the run's medians are.
        medians["setup_s"] = medians["setup_raw_s"] * REFERENCE_S / medians["reference_s"]
        print(f"setup_s = median setup_raw_s * REFERENCE_S / median reference_s "
              f"= {medians['setup_s']:.6f} s")
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in units.items()}

    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
