"""Regenerate the order-11 T_1(7) level file that t1_7_verify resumes from.

Usage: python3 perfbench/make_fixture.py

Runs compute_number(T_1(7), max_order=11) with 2 workers and a checkpoint
directory under perfbench/.work, copies level-11.lvl to perfbench/fixtures/
and prints its sha256, which must equal FIXTURE_SHA256 in workloads.py.
Takes about 50 s on a 2-vCPU Xeon virtual machine.
"""

from __future__ import annotations

import shutil
import tempfile

from workloads import FIXTURE, WORK_DIR, WORKLOADS, sha256_file


def main() -> None:
    workload = WORKLOADS["t1_7_verify"]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        from triramsey import RunLimits, compute_number
        limits = RunLimits(max_order=11, worker_count=2, checkpoint_dir=tmp)
        report = compute_number(workload.spec, limits)
        if report.per_level_counts.get(11) != workload.expected["counts"][11]:
            raise SystemExit(f"unexpected level counts {report.per_level_counts}")
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(f"{tmp}/level-11.lvl", FIXTURE)
    print(f"{FIXTURE.name} {FIXTURE.stat().st_size} bytes sha256 {sha256_file(FIXTURE)}")


if __name__ == "__main__":
    main()
