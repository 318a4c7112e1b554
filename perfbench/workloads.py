"""Workload definitions and pinned results for the level-search benchmark.

Each workload is one closed-loop call into the package's public API from a
single measuring process.  Every call's outcome is compared with the pins
below; the rendered run report carries seconds, so it is never hashed.
"""

from __future__ import annotations

import hashlib
import random
import resource
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Runtime files (checkpoint dirs, seeded inputs, span dumps); ignored by git.
WORK_DIR = BENCH_DIR / ".work"

sys.path.insert(0, str(ROOT / "src"))

import triramsey  # noqa: E402  (needs the src path above)

if not Path(triramsey.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"measuring {triramsey.__file__}, not the checkout's {ROOT / 'src'}")

from triramsey import (  # noqa: E402
    LevelSet,
    ProblemSpec,
    RunLimits,
    checkpoint_resume,
    compute_number,
    graph6_decode,
    permute,
    write_level,
)

FIXTURE = BENCH_DIR / "fixtures" / "t1_7-level-11.lvl"
FIXTURE_SHA256 = "9de02d1771cc76035914f201351ccf6de64c8e1d7b7b9ba79e203a9d3daf59fa"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ProblemSpec
    max_order: int
    workers: int
    resume: bool
    expected: dict

    def limits(self, checkpoint_dir: Path) -> RunLimits:
        return RunLimits(max_order=self.max_order, worker_count=self.workers,
                         checkpoint_dir=checkpoint_dir)

    def call(self, limits: RunLimits, input_path: Path | None):
        """The timed public call."""
        if self.resume:
            return checkpoint_resume(self.spec, input_path, limits)
        return compute_number(self.spec, limits)


WORKLOADS = {w.name: w for w in [
    Workload("t1_7_front_w2", ProblemSpec(k=1, j=7), max_order=9, workers=2,
             resume=False, expected={
                 "status": "capped", "value": None, "resumed_from": None,
                 "extremal_count": 0,
                 "counts": {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 103,
                            8: 376, 9: 1511},
                 "sha256": "11875c0a082a755f3a9d72a05b08883b2a9870da6136fdeb166cb2798c5adbdc",
             }),
    Workload("t1_7_verify", ProblemSpec(k=1, j=7), max_order=11, workers=1,
             resume=True, expected={
                 "status": "capped", "value": None, "resumed_from": 11,
                 "extremal_count": 0,
                 "counts": {11: 31011},
                 "sha256": FIXTURE_SHA256,
             }),
]}


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outcome(report, checkpoint_dir: Path) -> dict:
    """The pinned view of a run: value, counts and the digest of the last level file."""
    last = max(report.per_level_counts)
    digest = sha256_file(checkpoint_dir / f"level-{last:02d}.lvl")
    return {
        "status": report.status,
        "value": report.value,
        "resumed_from": report.resumed_from,
        "extremal_count": report.extremal_count,
        "counts": dict(report.per_level_counts),
        "sha256": digest,
    }


def mismatches(workload: Workload, got: dict) -> list[str]:
    return [f"{key}: got {got[key]!r}, pinned {want!r}"
            for key, want in workload.expected.items() if got[key] != want]


def check_fixture() -> None:
    actual = sha256_file(FIXTURE)
    if actual != FIXTURE_SHA256:
        raise SystemExit(f"{FIXTURE}: sha256 {actual} != pinned {FIXTURE_SHA256}; "
                         "regenerate with perfbench/make_fixture.py")


def write_seeded_level(seed: int, destination: Path) -> None:
    """The fixture level with every member relabeled and the members shuffled.

    ``read_level`` re-canonicalizes each member, so any seed yields the same
    level and the same output digest while the labelings fed to the
    canonizer differ from seed to seed.
    """
    rng = random.Random(seed)
    lines = FIXTURE.read_text(encoding="ascii").splitlines()
    begin = lines.index("begin")
    count = int(lines[begin - 1].split()[1])
    order = int(lines[begin - 2].split()[1])
    graphs = []
    for line in lines[begin + 1:begin + 1 + count]:
        g = graph6_decode(line)
        pi = list(range(g.order))
        rng.shuffle(pi)
        graphs.append(permute(g, pi))
    rng.shuffle(graphs)
    level = LevelSet(order, tuple((b"", g) for g in graphs))
    write_level(level, WORKLOADS["t1_7_verify"].spec, destination)

