from __future__ import annotations

import multiprocessing.process
import textwrap
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from types import SimpleNamespace

import pytest

from triramsey import (
    CAPPED,
    COMPLETED,
    ConstructionError,
    IntegrityError,
    ProblemSpec,
    RunLimits,
    SpecConflictError,
    are_isomorphic,
    build_graph,
    checkpoint_resume,
    compute_number,
    complete_bipartite,
    cycle,
    driver,
    find_forbidden_set,
    graph6_encode,
    level_at,
    probe_conjecture,
    write_level,
)
from triramsey.enumeration import LevelCardinalityExceeded, LevelSet, level_step
from triramsey.formats import level_filename
from triramsey.graphs import _spans
from triramsey.canon import canonical_graph

from .conftest import run_script


def extremal_lines(report) -> list[str]:
    return [graph6_encode(g) for g in report.extremals]


def test_limits_validation():
    with pytest.raises(ConstructionError):
        RunLimits(max_order=0)
    with pytest.raises(ConstructionError):
        RunLimits(worker_count=0)


def test_compute_r_1_4_5():
    report = compute_number(ProblemSpec(k=1, j=5, i=4))
    assert report.status == COMPLETED
    assert report.value == 8
    assert report.extremal_count == 1
    assert are_isomorphic(report.extremals[0], cycle(7))


def test_compute_t_2_5():
    report = compute_number(ProblemSpec(k=2, j=5))
    assert (report.value, report.extremal_count) == (9, 2)


def test_compute_t_3_6_extremal_structure():
    report = compute_number(ProblemSpec(k=3, j=6))
    assert (report.value, report.extremal_count) == (8, 2)
    k25 = complete_bipartite(2, 5)
    minus = build_graph(7, [e for e in k25.edges() if e != (0, 2)])
    assert any(are_isomorphic(g, k25) for g in report.extremals)
    assert any(are_isomorphic(g, minus) for g in report.extremals)


def test_report_consistency():
    report = compute_number(ProblemSpec(k=1, j=4))
    assert report.value == 7
    last_nonempty = max(o for o, c in report.per_level_counts.items() if c > 0)
    assert report.value == 1 + last_nonempty
    assert report.extremal_count == report.per_level_counts[report.value - 1]
    assert report.per_level_counts[report.value] == 0
    assert set(report.wall_times) == set(report.per_level_counts)


def test_checkpoints_written_and_resume_matches(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    base = compute_number(spec, RunLimits(checkpoint_dir=tmp_path / "base"))
    base_lines = extremal_lines(base)
    for order in range(1, base.value + 1):
        assert (tmp_path / "base" / level_filename(order)).exists()
    # resuming from every level reproduces the identical extremal output
    for order in range(1, base.value + 1):
        resumed = checkpoint_resume(spec, tmp_path / "base" / level_filename(order))
        assert resumed.value == base.value
        assert resumed.resumed_from == order
        if order < base.value:
            assert resumed.status == COMPLETED
            assert extremal_lines(resumed) == base_lines


def test_resume_from_empty_level_with_sibling(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    compute_number(spec, RunLimits(checkpoint_dir=tmp_path))
    report = checkpoint_resume(spec, tmp_path / level_filename(7))
    assert report.status == COMPLETED
    assert report.value == 7 and report.extremal_count == 2


def test_resume_from_empty_level_verifies_sibling(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    triangle = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    write_level(LevelSet(6, (canonical_graph(triangle),)), spec, tmp_path / level_filename(6))
    write_level(LevelSet(7, ()), spec, tmp_path / level_filename(7))
    with pytest.raises(IntegrityError, match=r"level-06\.lvl: member 0"):
        checkpoint_resume(spec, tmp_path / level_filename(7))


def test_resume_from_empty_level_without_sibling(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    write_level(LevelSet(7, ()), spec, tmp_path / level_filename(7))
    report = checkpoint_resume(spec, tmp_path / level_filename(7))
    assert report.status == CAPPED
    assert report.value == 7
    assert report.extremals == ()


def test_resume_from_empty_level_writes_checkpoint(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    compute_number(spec, RunLimits(checkpoint_dir=tmp_path / "base"))
    source = tmp_path / "base" / level_filename(7)
    report = checkpoint_resume(spec, source, RunLimits(checkpoint_dir=tmp_path / "out"))
    assert (report.status, report.value, report.per_level_counts) == (COMPLETED, 7, {6: 2, 7: 0})
    assert [p.name for p in (tmp_path / "out").iterdir()] == [level_filename(7)]
    assert (tmp_path / "out" / level_filename(7)).read_bytes() == source.read_bytes()


def test_resume_spec_conflict(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    compute_number(spec, RunLimits(checkpoint_dir=tmp_path))
    with pytest.raises(SpecConflictError):
        checkpoint_resume(ProblemSpec(k=1, j=5), tmp_path / level_filename(5))


def test_resume_rejects_invalid_member(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    triangle = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    level = LevelSet(5, (canonical_graph(triangle),))
    target = tmp_path / level_filename(5)
    write_level(level, spec, target)
    with pytest.raises(IntegrityError, match="member 0"):
        checkpoint_resume(spec, target)


@pytest.mark.parametrize("spec, bad, kind", [
    (ProblemSpec(k=1, j=4), build_graph(5, [(0, 1)]), "sparse"),
    (ProblemSpec(k=1, j=5, i=4), build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),
     "dense"),
])
def test_resume_rejects_member_with_forbidden_set(tmp_path, spec, bad, kind):
    """A digest-valid level whose one bad member, not the first, is
    triangle-free and fails only by a k-sparse j-set (T mode) or a k-dense
    i-set (R mode)."""
    assert find_forbidden_set(bad, spec)[0] == kind
    members = sorted(level_at(spec, bad.order).members + (canonical_graph(bad),))
    index = members.index(canonical_graph(bad))
    assert index >= 1
    target = tmp_path / level_filename(bad.order)
    write_level(LevelSet(bad.order, tuple(members)), spec, target)
    with pytest.raises(IntegrityError, match=f"member {index} fails membership"):
        checkpoint_resume(spec, target)


def test_capped_by_cardinality_then_resume(tmp_path):
    spec = ProblemSpec(k=1, j=5)
    limits = RunLimits(max_level_cardinality=8, checkpoint_dir=tmp_path)
    capped = compute_number(spec, limits)
    assert capped.status == CAPPED
    assert capped.value is None
    last = max(capped.per_level_counts)
    assert (tmp_path / level_filename(last)).exists()
    resumed = checkpoint_resume(spec, tmp_path / level_filename(last))
    assert resumed.status == COMPLETED
    full = compute_number(spec)
    assert resumed.value == full.value == 11
    assert extremal_lines(resumed) == extremal_lines(full)


def test_capped_by_max_order():
    report = compute_number(ProblemSpec(k=1, j=5), RunLimits(max_order=6))
    assert report.status == CAPPED and report.value is None
    assert max(report.per_level_counts) == 6


def test_probe_conjecture_small():
    cells = probe_conjecture(3)
    assert [(c.k, c.i) for c in cells] == [(2, 2), (3, 2), (3, 3)]
    assert all(c.agrees for c in cells)
    assert cells[0].value == 5 and cells[0].extremal_count == 1
    assert cells[2].value == 8 and cells[2].extremal_count == 2


def test_probe_conjecture_shares_reports():
    reports = {}
    probe_conjecture(3, reports=reports)
    assert ProblemSpec(k=3, j=6) in reports
    again = probe_conjecture(3, reports=reports)
    assert all(c.agrees for c in again)


@pytest.fixture
def counted(monkeypatch):
    """Record the helper count of each pool a run opens, every task it
    submits and every process it starts (``BaseProcess.start``, whatever the
    start method)."""
    seen = SimpleNamespace(opened=[], submitted=[], started=[])

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, helpers):
            super().__init__(helpers)
            seen.opened.append(helpers)

        def submit(self, fn, *args):
            seen.submitted.append(args)
            return super().submit(fn, *args)

    start = multiprocessing.process.BaseProcess.start

    def counted_start(process):
        seen.started.append(process)
        start(process)

    monkeypatch.setattr(driver, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    return seen


def test_one_pool_per_run(counted, monkeypatch):
    # T_1(6) has 34 parents at order 6 and 83 at order 7: multi-task steps
    # once a task holds 1024 // n**2 of them (28 at order 6, 20 at order 7).
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", 1 << 10)
    spec = ProblemSpec(k=1, j=6)
    two = compute_number(spec, RunLimits(worker_count=2))
    assert counted.opened == [1] and counted.submitted
    assert len(counted.started) == 1  # the one helper; this process computes too
    one = compute_number(spec, RunLimits(worker_count=1))
    assert counted.opened == [1]
    assert (two.value, two.per_level_counts) == (one.value, one.per_level_counts)
    assert extremal_lines(two) == extremal_lines(one)


def test_single_task_steps_start_no_process(counted):
    # Every level of T_1(5) holds at most 30 parents, one task of them.
    report = compute_number(ProblemSpec(k=1, j=5), RunLimits(worker_count=2))
    assert report.value == 11
    assert all(len(list(_spans(count, order ** 2))) <= 1
               for order, count in report.per_level_counts.items())
    assert counted.opened == [1]
    assert counted.submitted == [] and counted.started == []


def test_helpers_fork_at_the_first_level_past_one_task(counted):
    # T_1(7) holds at most 376 parents below order 9, one task each (1,024
    # parents a task at order 8); its 1,511 order-9 parents make two tasks.
    spec = ProblemSpec(k=1, j=7)
    compute_number(spec, RunLimits(max_order=9, worker_count=2))
    assert counted.opened == [1]
    assert counted.submitted == [] and counted.started == []
    report = compute_number(spec, RunLimits(max_order=10, worker_count=2))
    assert report.per_level_counts[9] == 1511
    assert counted.opened == [1, 1]
    assert len(counted.submitted) == 1 and len(counted.started) == 1


def test_levels_identical_on_one_two_and_three_workers(tmp_path):
    spec = ProblemSpec(k=1, j=6)
    files = {}
    for workers in (1, 2, 3):
        directory = tmp_path / f"w{workers}"
        report = compute_number(spec, RunLimits(max_order=10, worker_count=workers,
                                                checkpoint_dir=directory))
        assert report.status == CAPPED
        files[workers] = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    assert len(files[1]) == 10
    assert files[1] == files[2] == files[3]


def _logged(log, fn, task):
    with open(log, "a") as out:
        out.write("task\n")
    return fn(task)


def test_capped_shared_step_skips_queued_tasks(tmp_path, monkeypatch):
    # The runner keeps at most two tasks per helper queued; when the guard
    # fires, the queued tasks no helper has started are cancelled, so the
    # step returns after a few of its tasks.
    spec = ProblemSpec(k=1, j=7)
    level = level_at(spec, 8)
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", 4 * level.order ** 2)
    tasks = -(-len(level) // 4)
    log = tmp_path / "tasks.log"
    with ProcessPoolExecutor(1) as pool:
        def mapper(fn, tasks):
            return driver._shared_map(pool, 1, partial(_logged, log, fn), tasks)

        with pytest.raises(LevelCardinalityExceeded):
            level_step(level, spec, mapper=mapper, max_cardinality=30)
    assert 1 < len(log.read_text().splitlines()) < tasks // 4


KILL_A_WORKER_IN_RUN = textwrap.dedent("""
    import multiprocessing
    import os
    import sys
    from concurrent.futures.process import BrokenProcessPool

    from triramsey import ProblemSpec, RunLimits, compute_number, enumeration, graphs

    # Tasks of 1024 // n**2 parents, so the 34 parents of order 6 make two
    # tasks and one reaches a helper.
    graphs._BROADCAST_ELEMENTS = 1 << 10
    extend = enumeration._extend_entries

    def dying(spec, parents):
        # Parents of order 6, in a helper: the calling process computes too.
        if len(parents[0]) == 6 and multiprocessing.parent_process() is not None:
            os._exit(1)
        return extend(spec, parents)

    enumeration._extend_entries = dying

    if __name__ == "__main__":
        try:
            compute_number(ProblemSpec(k=1, j=6), RunLimits(worker_count=int(sys.argv[1])))
        except BrokenProcessPool:
            print("broken pool")
""")


def test_killed_worker_breaks_the_run(tmp_path):
    """A helper process that dies mid-run raises instead of hanging the run."""
    result = run_script(tmp_path, KILL_A_WORKER_IN_RUN, "2")
    assert result.stdout.strip() == "broken pool", result.stderr


def test_one_of_two_helpers_dying_breaks_the_run(tmp_path):
    result = run_script(tmp_path, KILL_A_WORKER_IN_RUN, "3")
    assert result.stdout.strip() == "broken pool", result.stderr
