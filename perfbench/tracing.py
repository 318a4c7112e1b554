"""Per-layer tracing from outside the package.

Spans are recorded around calls into each layer's public functions: the
driver's references to ``level_step``, ``write_level``, ``read_level`` and
``verify_membership`` are swapped for timed wrappers, as are the
``graph6_decode`` and ``canonical_graph`` references inside ``formats``.
Each level step runs twice: once as the real ``level_step`` (with the
workload's worker count, one opaque span) and once replayed serially through
``independent_set_masks``, ``surviving_extension_sets`` and
``canonical_graph`` to split its time by layer.  The replay's level keys must
equal the real step's, or the traced run fails.  The replay mirrors how
``level_step`` works today (label every surviving child, dedup by key, sort);
a change to that algorithm needs a matching change here before its per-layer
numbers mean anything.

Spans stay in memory as (name, start, end, parent, level order) and are
written out when the call ends.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import triramsey.driver as driver
import triramsey.formats as formats
from triramsey.canon import canonical_graph
from triramsey.enumeration import surviving_extension_sets
from triramsey.graphs import add_vertex, independent_set_masks
from workloads import peak_rss_mb

ROOT_SPAN = "driver.call"

#: Per-layer time metrics: metric name -> span name whose self time it is.
SELF_TIME_METRICS = {
    "kernels.filter_s": "kernels.filter",
    "canon.label_s": "canon.label",
    "enumeration.merge_s": "enumeration.merge",
    "enumeration.level_step_s": "enumeration.level_step",
    "formats.write_s": "formats.write",
    "formats.read_s": "formats.read",
    "formats.decode_s": "formats.decode",
    "defect.verify_s": "defect.verify",
    "graphs.indep_s": "graphs.indep",
}


class ReplayMismatch(Exception):
    """The serial replay of a level step disagrees with the real step."""


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.order = 0
        self.counts: Counter = Counter()
        self.rss_mb_at_widest = 0.0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.order)
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def saw_level(self, order: int, size: int) -> None:
        self.order = order
        if size > self.counts["enumeration.widest_level"]:
            self.counts["enumeration.widest_level"] = size
            self.rss_mb_at_widest = peak_rss_mb()

    def self_times(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[index]
        return dict(table)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            for index, (name, start, end, parent, order) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                      "parent": parent, "order": order}) + "\n")


def _replay(tracer: Tracer, level, spec, workers: int) -> list:
    """Serial copy of one level step, one span per layer call."""
    counts = tracer.counts
    merged = {}
    for _, g in level.members:
        with tracer.span("graphs.indep"):
            counts["graphs.indep_sets"] += len(independent_set_masks(g))
        with tracer.span("enumeration.task"):
            with tracer.span("kernels.filter"):
                survivors = surviving_extension_sets(g, spec)
            entries = []
            for s in survivors:
                child = add_vertex(g, s)
                with tracer.span("canon.label"):
                    key, canon = canonical_graph(child)
                entries.append((key, canon.adj))
        counts["kernels.survivors"] += len(survivors)
        counts["canon.labelings"] += len(entries)
        counts["enumeration.tasks"] += 1
        if workers > 1:
            task = (g.adj, g.order, spec.k, spec.j, spec.i)
            counts["enumeration.ipc_bytes"] += (len(pickle.dumps(task))
                                                + len(pickle.dumps(entries)))
        with tracer.span("enumeration.merge"):
            for key, adj in entries:
                merged.setdefault(key, adj)
    with tracer.span("enumeration.merge"):
        members = sorted(merged.items())
    counts["canon.classes"] += len(members)
    return members


@contextmanager
def patched(tracer: Tracer, workers: int):
    """Swap the traced wrappers into the driver and formats modules."""
    counts = tracer.counts
    level_step = driver.level_step
    write_level = driver.write_level
    read_level = driver.read_level
    verify_membership = driver.verify_membership

    def traced_level_step(level, spec, **kwargs):
        tracer.order = level.order + 1
        with tracer.span("enumeration.level_step"):
            grown = level_step(level, spec, **kwargs)
        replayed = _replay(tracer, level, spec, workers)
        if [(key, g.adj) for key, g in grown.members] != replayed:
            raise ReplayMismatch(f"order {grown.order}: replayed level differs")
        tracer.saw_level(grown.order, len(grown))
        return grown

    def traced_write_level(level, spec, destination):
        with tracer.span("formats.write"):
            write_level(level, spec, destination)
        counts["formats.bytes_written"] += destination.stat().st_size

    def traced_read_level(source):
        with tracer.span("formats.read"):
            level, spec = read_level(source)
        counts["formats.bytes_read"] += source.stat().st_size
        counts["canon.classes"] += len(level)
        tracer.saw_level(level.order, len(level))
        return level, spec

    def traced_verify(g, spec):
        counts["defect.verified"] += 1
        with tracer.span("defect.verify"):
            return verify_membership(g, spec)

    def traced_canonical_graph(g):
        counts["canon.labelings"] += 1
        with tracer.span("canon.label"):
            return canonical_graph(g)

    swaps = [
        (driver, "level_step", traced_level_step),
        (driver, "write_level", traced_write_level),
        (driver, "read_level", traced_read_level),
        (driver, "verify_membership", traced_verify),
        (formats, "canonical_graph", traced_canonical_graph),
        (formats, "graph6_decode", tracer.wrap("formats.decode", formats.graph6_decode)),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in swaps]
    try:
        for module, name, wrapper in swaps:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced call (values only; units in BENCHMARK.json)."""
    table = tracer.self_times()
    counts = tracer.counts

    def self_s(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[2]

    wall = table[ROOT_SPAN][1]
    metrics = {metric: self_s(span) for metric, span in SELF_TIME_METRICS.items()}
    metrics["driver.other_s"] = wall - sum(metrics.values())
    sets_in = counts["graphs.indep_sets"]
    metrics.update({
        "kernels.sets_in": sets_in,
        "kernels.survivors": counts["kernels.survivors"],
        "kernels.survival_ratio": counts["kernels.survivors"] / sets_in if sets_in else 0.0,
        "canon.labelings": counts["canon.labelings"],
        "canon.classes": counts["canon.classes"],
        "canon.labelings_per_class": (counts["canon.labelings"] / counts["canon.classes"]
                                      if counts["canon.classes"] else 0.0),
        "enumeration.tasks": counts["enumeration.tasks"],
        "enumeration.ipc_bytes": counts["enumeration.ipc_bytes"],
        "enumeration.widest_level": counts["enumeration.widest_level"],
        "enumeration.rss_mb_at_widest": tracer.rss_mb_at_widest,
        "formats.bytes_written": counts["formats.bytes_written"],
        "formats.bytes_read": counts["formats.bytes_read"],
        "defect.verified": counts["defect.verified"],
        "graphs.indep_sets": sets_in,
        "trace.wall_s": wall,
    })
    step = metrics["enumeration.level_step_s"]
    busy = table.get("enumeration.task", [0, 0.0, 0.0])[1]
    metrics["enumeration.parallel_eff"] = busy / (workers * step) if step else 0.0
    return metrics
