from __future__ import annotations

import random
import textwrap
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from triramsey import (
    ConstructionError,
    LevelCardinalityExceeded,
    ProblemSpec,
    add_vertex,
    are_isomorphic,
    canonical_form,
    cycle,
    decode_key,
    extend_graph,
    find_forbidden_set,
    independent_set_masks,
    initial_level,
    level_at,
    level_step,
    single_vertex,
    validate_graph,
    verify_membership,
)
from triramsey.enumeration import reject_extension_slow, surviving_extension_sets
from triramsey.oracle import brute_membership

from .conftest import random_triangle_free, run_script


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
    from triramsey import build_graph

    spec = ProblemSpec(k=1, j=4, i=4)
    kind, mask = find_forbidden_set(build_graph(3, [(0, 1), (1, 2), (0, 2)]), spec)
    assert kind == "triangle" and mask.bit_count() == 3
    kind, mask = find_forbidden_set(cycle(4), spec)
    assert kind == "dense" and mask == 0b1111
    kind, mask = find_forbidden_set(build_graph(4, []), spec)
    assert kind == "sparse" and mask.bit_count() == 4
    assert find_forbidden_set(cycle(5), spec) is None


def test_extend_graph_examples():
    children = extend_graph(single_vertex(), ProblemSpec(k=1, j=3))
    assert len(children) == 2
    for child in children:
        validate_graph(child)
        assert child.order == 2

    assert extend_graph(cycle(4), ProblemSpec(k=1, j=3)) == []
    assert extend_graph(cycle(5), ProblemSpec(k=1, j=4, i=4)) == []


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
                                                     (ProblemSpec(k=1, j=7, i=4), 14, 635)])
def test_attachment_set_totals(spec, max_order, total):
    """Pins how many attachment sets the rules leave, summed over every parent
    up to ``max_order`` (T_2(7) and R_1(4,7) die out before order 14).  A
    weaker rule still passes the lossless tests; it fails this one."""
    level = initial_level(spec)
    seen = 0
    while len(level) > 0 and level.order < max_order:
        seen += sum(len(surviving_extension_sets(g, spec)) for g in level.graphs())
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


KILL_ONE_WORKER = textwrap.dedent("""
    import os
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from triramsey import ProblemSpec, enumeration, level_at, level_step

    extend = enumeration._extend_entries

    def dying(spec, adj):
        if repr(adj) == os.environ.get("DIE_ON"):
            os._exit(1)
        return extend(spec, adj)

    enumeration._extend_entries = dying

    if __name__ == "__main__":
        spec = ProblemSpec(k=1, j=6)
        level = level_at(spec, 6)
        os.environ["DIE_ON"] = repr(level.members[0][1].adj)
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


def test_membership_independent_of_kernels():
    rng = random.Random(5)
    spec = ProblemSpec(k=1, j=4, i=4)
    for _ in range(30):
        g = random_triangle_free(rng, rng.randint(1, 8))
        assert verify_membership(g, spec) == brute_membership(g, 1, 4, 4)
