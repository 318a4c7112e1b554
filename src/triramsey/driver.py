"""Full computations: iterate level steps from K1 until a level is empty.

The computed number is the first order with no member; the previous level is
the complete list of extremal graphs.  Runs that hit a resource limit report
a ``capped`` status instead of failing, with every completed level already
persisted when a checkpoint directory is configured, so the search can be
resumed exactly where it stopped.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path

from .canon import canonical_graph
from .enumeration import (
    LevelCardinalityExceeded,
    LevelSet,
    ProblemSpec,
    first_nonmember,
    initial_level,
    level_step,
    verify_membership,  # noqa: F401  (perfbench/tracing.py swaps this name for a timed wrapper)
)
from .errors import ConstructionError, IntegrityError
from .formats import check_spec_match, level_filename, read_level, write_level
from .graphs import MAX_N, Graph, complete_bipartite

COMPLETED = "completed"
CAPPED = "capped"


@dataclass(frozen=True)
class RunLimits:
    """Resource knobs for a run; all bounds are inclusive.

    ``max_level_cardinality`` bounds the distinct children, checked after
    each level-step task, so a run stops at the first task that carries
    them past the bound.  Between tasks the merge holds up to the bound plus
    one task's children as key rows (``key_width`` bytes each, repeats
    included), and, once those rows pass the bound, the temporaries of one
    sort that compacts them to the distinct keys (``canon.sorted_keys``),
    a few times their size.  A task at order n holds at most the parents
    of one batch, 2**16 // n**2 of them (1,024 at order 8, 291 at order
    15), so one task's children are up to that many parents' children.
    ``worker_count`` is the number of processes that compute level-step
    tasks, the calling one included.
    """

    max_order: int = MAX_N
    max_level_cardinality: int = 5_000_000
    worker_count: int = 1
    checkpoint_dir: str | Path | None = None

    def __post_init__(self):
        if not 1 <= self.max_order <= MAX_N:
            raise ConstructionError(f"max_order must be in 1..{MAX_N}")
        if self.max_level_cardinality < 1 or self.worker_count < 1:
            raise ConstructionError("limits must be positive")


@dataclass
class RunReport:
    """Outcome of a computation.

    ``value`` is the computed Ramsey/threshold number, or None when the run
    was capped before the search finished.  ``extremals`` are the canonical
    members of the last non-empty level of a completed run, sorted by key.
    """

    spec: ProblemSpec
    status: str
    value: int | None
    extremals: tuple[Graph, ...]
    per_level_counts: dict[int, int] = field(default_factory=dict)
    wall_times: dict[int, float] = field(default_factory=dict)
    resumed_from: int | None = None

    @property
    def extremal_count(self) -> int:
        return len(self.extremals)


def _write_checkpoint(level: LevelSet, spec: ProblemSpec, limits: RunLimits) -> None:
    if limits.checkpoint_dir is None:
        return
    directory = Path(limits.checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    write_level(level, spec, directory / level_filename(level.order))


def _shared_map(pool: ProcessPoolExecutor, helpers: int, fn, tasks):
    """Yield ``fn(task)`` for every task, computed here and in ``pool``.

    This process takes one task, tops the pool's queue up to two tasks per
    helper, runs its own task and yields it with every helper result that
    has finished, then repeats; results come in no fixed order.  A step of
    one task submits nothing.  Closing the generator cancels every queued
    task no helper has started.
    """
    tasks = iter(tasks)
    queued = []
    try:
        for task in tasks:
            queued += [pool.submit(fn, more) for more in islice(tasks, 2 * helpers - len(queued))]
            yield fn(task)
            for future in [future for future in queued if future.done()]:
                queued.remove(future)
                yield future.result()
        while queued:
            yield queued.pop(0).result()
    finally:
        for future in queued:
            future.cancel()


def _iterate(spec: ProblemSpec, limits: RunLimits, level: LevelSet,
             resumed_from: int | None, previous: LevelSet | None = None) -> RunReport:
    """Grow ``level`` until it empties or a limit stops the run.

    ``previous`` is the level below ``level``, when known; an empty level
    without one (a resumed file with no sibling) decides the value but not
    the extremal graphs, so the run reports ``capped`` with that value.
    With ``worker_count`` N > 1, this process computes alongside one pool
    of N - 1 helper processes that serves every level step of the run
    (``_shared_map``); the helpers fork at the first step with two or more
    tasks, and a helper that dies raises ``BrokenProcessPool``.
    """
    counts: dict[int, int] = {} if previous is None else {previous.order: len(previous)}
    times: dict[int, float] = {level.order: 0.0}
    helpers = limits.worker_count - 1
    with ProcessPoolExecutor(helpers) if helpers else nullcontext() as pool:
        mapper = map if pool is None else partial(_shared_map, pool, helpers)
        while True:
            counts[level.order] = len(level)
            _write_checkpoint(level, spec, limits)
            if len(level) == 0:
                if previous is None:
                    return RunReport(spec, CAPPED, level.order, (), counts, times, resumed_from)
                return RunReport(spec, COMPLETED, level.order, tuple(previous.graphs()),
                                 counts, times, resumed_from)
            if level.order >= limits.max_order:
                return RunReport(spec, CAPPED, None, (), counts, times, resumed_from)
            started = time.perf_counter()
            previous = level
            try:
                level = level_step(previous, spec, mapper=mapper,
                                   max_cardinality=limits.max_level_cardinality)
            except LevelCardinalityExceeded:
                return RunReport(spec, CAPPED, None, (), counts, times, resumed_from)
            times[level.order] = time.perf_counter() - started


def compute_number(spec: ProblemSpec, limits: RunLimits | None = None) -> RunReport:
    """Compute the threshold (T mode) or defective Ramsey number (R mode)."""
    limits = limits or RunLimits()
    return _iterate(spec, limits, initial_level(spec), resumed_from=None)


def _read_verified(path: Path, spec: ProblemSpec) -> LevelSet:
    """Read a level file written for ``spec`` and re-check every member."""
    level, file_spec = read_level(path)
    check_spec_match(file_spec, spec, path)
    index = first_nonmember(level.rows, spec)
    if index is not None:
        raise IntegrityError(f"{path}: member {index} fails membership for "
                             f"k={spec.k} i={spec.i} j={spec.j}")
    return level


def checkpoint_resume(spec: ProblemSpec, checkpoint: str | Path,
                      limits: RunLimits | None = None) -> RunReport:
    """Continue a run from a persisted level, after re-validating it fully.

    Every member is re-checked with the unrestricted membership test (the
    batched ``first_nonmember``), and so is every member of the sibling file
    an empty level reports as extremal;
    a corrupted file would silently invalidate the result otherwise.
    """
    limits = limits or RunLimits()
    path = Path(checkpoint)
    level = _read_verified(path, spec)
    previous = None
    if len(level) == 0:
        # The number is already decided; extremal graphs live in the
        # previous level's file when it sits next to this one.
        sibling = path.with_name(level_filename(level.order - 1))
        if level.order > 1 and sibling.exists():
            prior = _read_verified(sibling, spec)
            if len(prior) > 0 and prior.order == level.order - 1:
                previous = prior
    return _iterate(spec, limits, level, resumed_from=level.order, previous=previous)


@dataclass(frozen=True)
class ProbeCell:
    """One (k, i) cell of the linear-growth probe."""

    k: int
    i: int
    value: int | None
    extremal_count: int
    bipartite_witness_found: bool

    @property
    def expected(self) -> int:
        return self.k + 2 * self.i - 1

    @property
    def agrees(self) -> bool:
        return self.value == self.expected and self.bipartite_witness_found


def probe_conjecture(k_max: int, limits: RunLimits | None = None, *,
                     reports: dict[ProblemSpec, RunReport] | None = None) -> list[ProbeCell]:
    """Test whether T_k(k+i) = k+2i-1 with a K_{i-1,k+i-1} extremal witness.

    Covers every (k, i) with 2 <= i <= k <= k_max, so k_max >= 2 (a smaller
    one has no cell, and an empty probe would read as agreement).  Nothing
    is assumed: each cell is computed from scratch and compared against the
    predicted value.  ``reports`` lets callers share already-computed runs
    across probes.
    """
    if k_max < 2:
        raise ConstructionError(f"k_max={k_max} < 2: the probe has no cell")
    cells = []
    for k in range(2, k_max + 1):
        for i in range(2, k + 1):
            spec = ProblemSpec(k=k, j=k + i)
            report = reports.get(spec) if reports is not None else None
            if report is None:
                report = compute_number(spec, limits)
                if reports is not None:
                    reports[spec] = report
            target = complete_bipartite(i - 1, k + i - 1)
            # Extremals are canonically labeled, so a copy of the target is its canonical graph.
            found = canonical_graph(target)[1] in report.extremals
            cells.append(ProbeCell(k, i, report.value, report.extremal_count, found))
    return cells
