from __future__ import annotations

import random
import textwrap
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest

from triramsey import (
    ConstructionError,
    LevelCardinalityExceeded,
    LevelSet,
    ProblemSpec,
    add_vertex,
    are_isomorphic,
    build_graph,
    canonical_form,
    cycle,
    decode_key,
    find_forbidden_set,
    first_nonmember,
    independent_set_masks,
    initial_level,
    level_at,
    level_step,
    single_vertex,
    validate_graph,
    verify_membership,
)
from triramsey import enumeration, formats
from triramsey.enumeration import surviving_extension_sets
from triramsey.formats import read_level, write_level
from triramsey.graphs import _label_spans, _spans, row_array
from triramsey.oracle import (
    brute_has_k_dense_set,
    brute_has_k_sparse_set,
    brute_has_triangle,
    brute_membership,
)

from .conftest import random_graph, random_triangle_free, reject_extension_slow, run_script


def test_problem_spec_validation():
    assert ProblemSpec(k=1, j=4).mode == "T"
    assert ProblemSpec(k=1, j=4, i=4).mode == "R"
    with pytest.raises(ConstructionError):
        ProblemSpec(k=-1, j=4)
    with pytest.raises(ConstructionError):
        ProblemSpec(k=1, j=1)
    with pytest.raises(ConstructionError):
        ProblemSpec(k=1, j=4, i=1)


def test_verify_membership_examples():
    r44 = ProblemSpec(k=1, j=4, i=4)
    assert verify_membership(cycle(5), r44)
    assert not verify_membership(cycle(4), r44)  # C4 is its own 1-dense 4-set
    assert verify_membership(single_vertex(), r44)
    assert verify_membership(single_vertex(), ProblemSpec(k=0, j=2))


def test_find_forbidden_set_kinds():
    spec = ProblemSpec(k=1, j=4, i=4)
    kind, mask = find_forbidden_set(build_graph(3, [(0, 1), (1, 2), (0, 2)]), spec)
    assert kind == "triangle" and mask.bit_count() == 3
    kind, mask = find_forbidden_set(cycle(4), spec)
    assert kind == "dense" and mask == 0b1111
    kind, mask = find_forbidden_set(build_graph(4, []), spec)
    assert kind == "sparse" and mask.bit_count() == 4
    assert find_forbidden_set(cycle(5), spec) is None


def test_extend_graph_examples():
    """One parent's surviving children: ``add_vertex`` on every set that
    ``surviving_extension_sets`` returns."""
    def extend(g, spec):
        return [add_vertex(g, s) for s in surviving_extension_sets(g, spec)]

    children = extend(single_vertex(), ProblemSpec(k=1, j=3))
    assert len(children) == 2
    for child in children:
        validate_graph(child)
        assert child.order == 2

    assert extend(cycle(4), ProblemSpec(k=1, j=3)) == []
    assert extend(cycle(5), ProblemSpec(k=1, j=4, i=4)) == []


def test_level_step_examples():
    spec = ProblemSpec(k=1, j=3)
    level = initial_level(spec)
    level2 = level_step(level, spec)
    assert level2.order == 2 and len(level2) == 2

    level4 = level_at(spec, 4)
    assert len(level4) == 1
    assert are_isomorphic(level4.graphs()[0], cycle(4))


def test_level_at_rejects_orders_below_one():
    spec = ProblemSpec(k=1, j=3)
    for order in (0, -1):
        with pytest.raises(ConstructionError):
            level_at(spec, order)
    assert level_at(spec, 1) == initial_level(spec)


@pytest.mark.parametrize("spec", [ProblemSpec(k=1, j=5), ProblemSpec(k=2, j=6),
                                  ProblemSpec(k=1, j=6, i=4), ProblemSpec(k=0, j=4),
                                  ProblemSpec(k=3, j=7), ProblemSpec(k=0, j=4, i=4)])
def test_attachment_rules_are_lossless(spec):
    """Level keys equal an unpruned step: every independent set, filtered by
    ``reject_extension_slow``, every child labeled."""
    level = initial_level(spec)
    keys = [key for key, _ in level.members]
    while level.order < 8:
        parents = [decode_key(key) for key in keys]
        keys = sorted({canonical_form(add_vertex(g, s)) for g in parents
                       for s in independent_set_masks(g)
                       if not reject_extension_slow(g, spec, s)})
        level = level_step(level, spec)
        assert [key for key, _ in level.members] == keys, level.order


@pytest.mark.parametrize("spec, max_order, total", [(ProblemSpec(k=1, j=7), 9, 3235),
                                                     (ProblemSpec(k=2, j=7), 14, 2594),
                                                     (ProblemSpec(k=1, j=7, i=4), 14, 635),
                                                     (ProblemSpec(k=1, j=7), 11, 55130),
                                                     (ProblemSpec(k=4, j=11, i=9), 11, 94278)])
def test_attachment_set_totals(spec, max_order, total):
    """Pins how many attachment sets the rules leave, summed over every parent
    up to ``max_order`` (T_2(7) and R_1(4,7) die out before order 14).  A
    weaker rule still passes the lossless tests; it fails this one.  The sets
    are counted a task of parents at a time, as ``level_step`` takes them."""
    level = initial_level(spec)
    seen = 0
    while len(level) > 0 and level.order < max_order:
        rows = row_array([g.adj for g in level.graphs()], level.order)
        seen += sum(len(enumeration._attachment_sets(rows[span], spec)[1])
                    for span in _spans(len(rows), level.order ** 2))
        level = level_step(level, spec)
    assert seen == total


def test_level_step_r_mode_order_9(figure_9):
    level9 = level_at(ProblemSpec(k=1, j=6, i=4), 9)
    assert len(level9) == 1
    assert are_isomorphic(level9.graphs()[0], figure_9)


def test_members_sorted_and_key_unique():
    spec = ProblemSpec(k=2, j=5)
    level = level_at(spec, 7)
    keys = [key for key, _ in level.members]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("spec", [ProblemSpec(k=1, j=3), ProblemSpec(k=1, j=4, i=4),
                                  ProblemSpec(k=2, j=4)])
def test_closure_small_orders(spec):
    level = initial_level(spec)
    while len(level) > 0 and level.order < 8:
        level = level_step(level, spec)
        for _, g in level.members:
            validate_graph(g)
            assert verify_membership(g, spec)
            assert brute_membership(g, spec.k, spec.j, spec.i)


def test_closure_spot_check_moderate_level():
    rng = random.Random(0)
    spec = ProblemSpec(k=2, j=6)
    level = level_at(spec, 9)
    sample = rng.sample(level.members, max(1, len(level) // 20))
    for _, g in sample:
        assert verify_membership(g, spec)


def test_worker_counts_agree():
    spec = ProblemSpec(k=1, j=5)
    serial = level_at(spec, 8)
    two = initial_level(spec)
    with ProcessPoolExecutor(2) as pool:
        while two.order < 8:
            two = level_step(two, spec, mapper=partial(pool.map, chunksize=3))
    assert serial == two
    assert all(g == decode_key(key) for level in (serial, two) for key, g in level.members)


@pytest.mark.parametrize("bound", [1, 300, 700])
def test_level_step_decodes_in_chunks(monkeypatch, bound):
    # The final decode of the 30 order-8 classes takes 1, 4 or 10 keys a
    # chunk (a labeling batch of one batch); each class is still the graph
    # decode_key rebuilds.
    spec = ProblemSpec(k=1, j=5)
    whole = level_at(spec, 8)
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", bound)
    monkeypatch.setattr("triramsey.graphs._LABEL_BATCHES", 1)
    chunked = level_at(spec, 8)
    assert chunked == whole and next(_label_spans(len(chunked), 8)).stop < len(chunked)
    assert all(g == decode_key(key) for key, g in chunked.members)


T_1_7_LEVEL_11 = Path(__file__).resolve().parents[1] / "perfbench/fixtures/t1_7-level-11.lvl"


def test_level_holds_its_rows_only():
    """A level keeps no per-member Python object: decoded from the pinned
    31,011 order-11 keys of T_1(7), with the caller's key list deleted, it
    holds its rows and a few KB more by tracemalloc."""
    keys = [key for key, _ in read_level(T_1_7_LEVEL_11)[0].members]
    assert len(keys) == 31011
    LevelSet.from_keys(11, keys[:1])  # fills the caches of the first call
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        level = LevelSet.from_keys(11, keys)
        del keys
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held - level.rows.nbytes < 8192, held - level.rows.nbytes
    assert not hasattr(level, "keys")


def test_level_rows_are_read_only():
    spec = ProblemSpec(k=1, j=6)
    for level in (level_at(spec, 6), LevelSet(4, [(b"", cycle(4))])):
        with pytest.raises(ValueError):
            level.rows[0, 0] = 1
    assert LevelSet(4, [(b"", cycle(4))]).graphs() == [cycle(4)]


@pytest.mark.parametrize("cut", ["one task", "a task per parent"])
def test_level_step_agrees_for_any_task_cut(monkeypatch, cut):
    # The children of one task are labeled together, so the cut decides
    # which graphs share a batch; the level must not depend on it.  A task
    # is a slice of the level's uint32 rows, so no graph or tuple is pickled.
    spec = ProblemSpec(k=1, j=6)
    level = level_at(spec, 8)
    whole = level_step(level, spec)
    per_task = len(level) if cut == "one task" else 1
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", per_task * level.order ** 2)
    cuts = []

    def counting(fn, tasks):
        tasks = list(tasks)
        assert all(isinstance(task, np.ndarray) and task.dtype == np.uint32
                   and task.shape[1] == level.order and len(task) <= per_task
                   for task in tasks)
        cuts.append([len(task) for task in tasks])
        return map(fn, tasks)

    assert level_step(level, spec, mapper=counting) == whole
    assert cuts == [[len(level)] if cut == "one task" else [1] * len(level)]
    with ProcessPoolExecutor(2) as pool:
        assert level_step(level, spec, mapper=pool.map) == whole


@pytest.mark.parametrize("bound", [None, 1 << 12])
def test_level_step_tasks_are_batch_spans(monkeypatch, bound):
    # A task holds at most as many consecutive parents as one batch holds
    # graphs of the level's order, and the tasks are as few as that allows,
    # of near-equal lengths: the 1,511 order-9 parents of T_1(7) make two
    # tasks at the default bound (755 + 756, at most 809 each) and 31 at
    # 2**12 (48 or 49, at most 50 each).
    spec = ProblemSpec(k=1, j=7)
    level = level_at(spec, 9)
    if bound is not None:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", bound)
    spans = list(_spans(len(level), level.order ** 2))
    assert len(spans) == (2 if bound is None else 31)
    assert {span.stop - span.start for span in spans} == ({755, 756} if bound is None else {48, 49})
    cuts = []

    def counting(fn, tasks):
        cuts.append(list(tasks))
        return map(fn, cuts[-1])

    level_step(level, spec, mapper=counting)
    assert len(cuts) == 1 and len(cuts[0]) == len(spans)
    assert all(np.shares_memory(task, level.rows) and np.array_equal(task, level.rows[span])
               for task, span in zip(cuts[0], spans))


def test_graphs_are_labeled_and_decoded_in_label_spans(monkeypatch, tmp_path):
    # Graphs are decoded and labeled in ``_label_spans``, four batches of
    # their order at a time, while a task stays one batch of parents: the
    # step from T_1(7)'s 1,511 order-9 parents is still two tasks of 755 and
    # 756, each task's children go to ``canonical_forms`` in its label spans
    # (more than one batch of 655 order-10 graphs per call), and so do the
    # keys ``LevelSet.from_keys`` decodes and the members ``read_level``
    # re-labels.
    spec = ProblemSpec(k=1, j=7)
    level = level_at(spec, 9)
    labeled, decoded = [], []

    def counting(calls, fn):
        def counted(batch):
            calls.append(len(batch))
            return fn(batch)
        return counted

    monkeypatch.setattr("triramsey.enumeration.canonical_forms",
                        counting(labeled, enumeration.canonical_forms))
    monkeypatch.setattr("triramsey.formats.canonical_forms", counting(labeled, formats.canonical_forms))
    monkeypatch.setattr("triramsey.enumeration.decode_keys",
                        counting(decoded, enumeration.decode_keys))
    tasks = []

    def mapper(fn, cut):
        for task in cut:
            labeled.clear()
            keys = fn(task)
            tasks.append((len(task), list(labeled)))
            yield keys

    grown = level_step(level, spec, mapper=mapper)
    assert [parents for parents, _ in tasks] == [span.stop - span.start
                                                 for span in _spans(len(level), 9 * 9)] == [755, 756]
    for _, calls in tasks:
        assert calls == [span.stop - span.start for span in _label_spans(sum(calls), 10)]
        assert max(calls) > (1 << 16) // 10 ** 2
    assert decoded == [span.stop - span.start for span in _label_spans(len(grown), 10)]
    assert len(decoded) > 1
    target = tmp_path / "level-10.lvl"
    write_level(grown, spec, target)
    labeled.clear()
    decoded.clear()
    assert read_level(target)[0] == grown
    assert labeled == decoded == [span.stop - span.start for span in _label_spans(len(grown), 10)]


KILL_ONE_WORKER = textwrap.dedent("""
    import os
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from triramsey import ProblemSpec, enumeration, level_at, level_step

    extend = enumeration._extend_entries

    def dying(spec, parents):
        if repr(parents[0].tolist()) == os.environ.get("DIE_ON"):
            os._exit(1)
        return extend(spec, parents)

    enumeration._extend_entries = dying

    if __name__ == "__main__":
        spec = ProblemSpec(k=1, j=6)
        level = level_at(spec, 6)
        os.environ["DIE_ON"] = repr(level.rows[0].tolist())
        try:
            with ProcessPoolExecutor(2) as pool:
                level_step(level, spec, mapper=pool.map)
        except BrokenProcessPool:
            print("broken pool")
""")


def test_killed_worker_breaks_the_step(tmp_path):
    """A worker process that dies mid-step raises instead of hanging the step.

    Runs in a child interpreter with a timeout, so a hang fails the test."""
    result = run_script(tmp_path, KILL_ONE_WORKER)
    assert result.stdout.strip() == "broken pool", result.stderr


def test_monotone_termination():
    spec = ProblemSpec(k=1, j=3)
    dead = level_at(spec, 9)
    assert len(dead) == 0
    assert len(level_step(dead, spec)) == 0


def test_cardinality_guard():
    spec = ProblemSpec(k=1, j=5)
    level = level_at(spec, 6)
    with pytest.raises(LevelCardinalityExceeded):
        level_step(level, spec, max_cardinality=3)


def test_cardinality_guard_trips_within_one_task(monkeypatch):
    # Partway through a level of many tasks: the step stops at the first task
    # whose children carry the merge past the bound, so it overshoots by at
    # most one task's children.
    spec = ProblemSpec(k=1, j=7)
    level = level_at(spec, 8)
    bound = 700  # of the 1,511 classes of order 9
    per_task = 32  # the 376 parents fit one task at the default batch size
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", per_task * level.order ** 2)
    ran = []

    def lazy(fn, tasks):
        for task in tasks:
            assert len(task) <= per_task
            ran.append(set(fn(task)))
            yield ran[-1]

    with pytest.raises(LevelCardinalityExceeded):
        level_step(level, spec, mapper=lazy, max_cardinality=bound)
    assert 1 < len(ran) < -(-len(level) // per_task)
    assert len(set().union(*ran[:-1])) <= bound < len(set().union(*ran))


def _logged(log, fn, task):
    with open(log, "a") as out:
        out.write("task\n")
    return fn(task)


def test_capped_pooled_step_skips_queued_tasks(tmp_path, monkeypatch):
    # The pool's map submits every task up front; when the guard fires, the
    # tasks no worker has started are cancelled, so the step returns after
    # a few tasks instead of running all of them.
    spec = ProblemSpec(k=1, j=7)
    level = level_at(spec, 8)
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", 4 * level.order ** 2)
    tasks = -(-len(level) // 4)
    log = tmp_path / "tasks.log"
    with ProcessPoolExecutor(2) as pool:
        def mapper(fn, tasks):
            return pool.map(partial(_logged, log, fn), tasks)

        with pytest.raises(LevelCardinalityExceeded):
            level_step(level, spec, mapper=mapper, max_cardinality=30)
    assert 1 < len(log.read_text().splitlines()) < tasks // 4


def test_membership_independent_of_kernels():
    rng = random.Random(5)
    spec = ProblemSpec(k=1, j=4, i=4)
    for _ in range(30):
        g = random_triangle_free(rng, rng.randint(1, 8))
        assert verify_membership(g, spec) == brute_membership(g, 1, 4, 4)


@lru_cache(maxsize=None)
def _member_pool(order: int) -> tuple:
    """Members of several small levels at ``order``: graphs right at the edge
    of membership for specs near the ones they were grown for."""
    specs = [ProblemSpec(k=0, j=4), ProblemSpec(k=1, j=5), ProblemSpec(k=1, j=6, i=4),
             ProblemSpec(k=2, j=6), ProblemSpec(k=2, j=7, i=5), ProblemSpec(k=3, j=7)]
    return tuple(g for spec in specs for g in level_at(spec, order).graphs())


def _rows(graphs) -> np.ndarray:
    """The row array of graphs of one order."""
    return row_array([g.adj for g in graphs], graphs[0].order)


def _nonmembers(graphs, spec) -> list[int]:
    """Every index ``first_nonmember`` reports, restarting after each one."""
    rows, found, start = _rows(graphs), [], 0
    while (index := first_nonmember(rows[start:], spec)) is not None:
        found.append(start + index)
        start += index + 1
    return found


@pytest.mark.parametrize("seed", range(8))
def test_first_nonmember_matches_both_references(seed, monkeypatch):
    """The batched check agrees with ``find_forbidden_set`` and with the
    brute-force oracle on every graph: seeded random graphs of orders 1-12 at
    several densities, with and without triangles, plus level members; k 0-3,
    j 2..k+5 and R specs with i 2..k+4, j and i beyond the order included.
    Odd seeds shrink the broadcast bound, so graphs and subsets are taken
    in many chunks."""
    rng = random.Random(seed)
    if seed % 2:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", rng.choice([1, 5, 40, 300]))
    for n in range(1, 13):
        graphs = [random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.8])) for _ in range(3)]
        graphs += [random_triangle_free(rng, n, rng.randint(0, 3 * n * n)) for _ in range(4)]
        pool = _member_pool(n)
        graphs += rng.sample(pool, min(5, len(pool)))
        rng.shuffle(graphs)
        for _ in range(6):
            k = rng.randint(0, 3)
            j = rng.randint(2, k + 5)
            spec = ProblemSpec(k=k, j=j, i=rng.choice([None, rng.randint(2, k + 4)]))
            searched = [i for i, g in enumerate(graphs) if find_forbidden_set(g, spec) is not None]
            brute = [i for i, g in enumerate(graphs)
                     if not brute_membership(g, spec.k, spec.j, spec.i)]
            assert searched == brute, (n, spec)
            assert _nonmembers(graphs, spec) == searched, (n, spec)


def test_first_nonmember_returns_the_lowest_bad_index():
    spec = ProblemSpec(k=1, j=4, i=4)
    c5 = cycle(5)
    # Each of these fails membership one way only.
    triangle = build_graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
    sparse = build_graph(5, [(0, 1)])                         # {1, 2, 3, 4} is 1-sparse
    dense = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4 plus an isolated vertex
    for g, kind in ((triangle, "triangle"), (sparse, "sparse"), (dense, "dense")):
        assert brute_has_triangle(g) == (kind == "triangle")
        assert brute_has_k_sparse_set(g, 1, 4) == (kind == "sparse")
        assert brute_has_k_dense_set(g, 1, 4) == (kind == "dense")
    assert first_nonmember(np.zeros((0, 5), dtype=np.uint32), spec) is None
    assert first_nonmember(_rows([c5] * 3), spec) is None
    for bad in (triangle, sparse, dense):
        assert first_nonmember(_rows([c5, c5, bad, c5, triangle, sparse, dense]), spec) == 2
    assert first_nonmember(_rows([dense, sparse, triangle]), spec) == 0
    assert first_nonmember(_rows([c5, c5, c5, sparse]), spec) == 3
    assert first_nonmember(_rows([c5, dense]), ProblemSpec(k=1, j=4)) is None


@pytest.mark.parametrize("bound", [None, 1])
def test_first_nonmember_at_word_boundaries(bound, monkeypatch):
    """One machine word holds 64 graphs, and the lanes past the last graph
    hold empty graphs, which have sparse sets: runs that end on either side
    of a word boundary pass, and one bad member is reported at exactly its
    index, in the second word or at the end of a partial word.  A bound of 1
    puts each graph in its own chunk, so every word is partial."""
    if bound is not None:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", bound)
    spec = ProblemSpec(k=1, j=5, i=4)
    members = level_at(spec, 6).graphs()
    empty = build_graph(6, [])  # every 5-set is 1-sparse
    triangle = build_graph(6, [(0, 1), (1, 2), (0, 2)])
    for total in (63, 64, 65, 129):
        assert first_nonmember(_rows([members[x % len(members)] for x in range(total)]), spec) is None
    for total, index, bad in ((129, 64, empty), (65, 64, triangle), (100, 99, empty),
                              (129, 128, triangle)):
        graphs = [members[x % len(members)] for x in range(total)]
        graphs[index] = bad
        assert first_nonmember(_rows(graphs), spec) == index, (total, index)


@pytest.mark.parametrize("bound", [None, 2000])
def test_first_nonmember_counts_to_five(bound, monkeypatch):
    """R_4(9,11) at orders 13 and 14: a member is crowded once it has 5
    neighbours in its subset, the deepest count of the saturating counter.
    The batched check agrees with ``find_forbidden_set`` on random
    triangle-free graphs on both sides of membership and on members less
    one edge."""
    if bound is not None:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", bound)
    rng = random.Random(4)
    spec = ProblemSpec(k=4, j=11, i=9)
    for n in (13, 14):
        graphs = [random_triangle_free(rng, n, rng.randint(n, 3 * n * n)) for _ in range(40)]
        graphs += [build_graph(n, rng.sample(g.edges(), len(g.edges()) - 1))
                   for g in graphs if verify_membership(g, spec)]
        rng.shuffle(graphs)
        verdicts = [find_forbidden_set(g, spec) for g in graphs]
        assert None in verdicts and {v[0] for v in verdicts if v} == {"sparse", "dense"}, n
        assert _nonmembers(graphs, spec) == [x for x, v in enumerate(verdicts) if v], n
