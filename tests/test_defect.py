from __future__ import annotations

import random

import pytest

from triramsey import (
    ConstructionError,
    alpha_k,
    blow_up,
    build_graph,
    complement,
    complete_bipartite,
    cycle,
    dense_cap_check,
    empty_graph,
    has_k_dense_set,
    has_k_dense_set_containing,
    has_k_sparse_set,
    has_k_sparse_set_containing,
    is_k_dense_set,
    is_k_sparse_set,
    path,
    single_vertex,
    sparse_bound_witness,
    vertex_set,
)
from triramsey.oracle import brute_alpha_k, brute_has_k_dense_set, brute_has_k_sparse_set

from .conftest import petersen, random_graph, random_triangle_free


def test_is_k_sparse_examples():
    c5 = cycle(5)
    assert is_k_sparse_set(c5, vertex_set([0, 1, 3]), 1)
    assert is_k_sparse_set(c5, 0, 0)
    # any 4 vertices of C5 induce P4, whose middle degree is 2
    for v in range(5):
        four = c5.full_mask() & ~(1 << v)
        assert not is_k_sparse_set(c5, four, 1)


def test_is_k_sparse_rejects_foreign_vertices():
    with pytest.raises(ConstructionError):
        is_k_sparse_set(cycle(4), vertex_set([5]), 1)


def test_is_k_dense_examples():
    c4 = cycle(4)
    assert is_k_dense_set(c4, c4.full_mask(), 1)
    k23 = complete_bipartite(2, 3)
    assert is_k_dense_set(k23, k23.full_mask(), 2)
    for k in (1, 2, 3):
        g = complete_bipartite(k + 1, k + 1)
        assert is_k_dense_set(g, g.full_mask(), k)


def test_has_k_sparse_set_examples():
    assert has_k_sparse_set(complete_bipartite(3, 3), 1, 4) is None
    witness = has_k_sparse_set(cycle(5), 1, 3)
    assert witness is not None and witness.bit_count() == 3
    assert is_k_sparse_set(cycle(5), witness, 1)
    assert has_k_sparse_set(blow_up(cycle(5), 2), 1, 5) is None


def test_witness_is_smallest_bitmask():
    witness = has_k_sparse_set(cycle(5), 1, 3)
    candidates = [m for m in range(1 << 5)
                  if m.bit_count() == 3 and is_k_sparse_set(cycle(5), m, 1)]
    assert witness == min(candidates)


def test_containing_examples():
    c4 = cycle(4)
    dense = has_k_dense_set_containing(c4, 0, 1, 4)
    assert dense is not None and dense == c4.full_mask()
    assert has_k_sparse_set_containing(single_vertex(), 0, 1, 2) is None
    p3 = path(3)
    assert has_k_sparse_set_containing(p3, 1, 0, 2) is None
    through_leaf = has_k_sparse_set_containing(p3, 0, 0, 2)
    assert through_leaf is not None and through_leaf == vertex_set([0, 2])


def test_alpha_k_examples():
    for n in (1, 4, 6):
        for k in (0, 1, 3):
            size, witness = alpha_k(empty_graph(n), k)
            assert size == n and witness == (1 << n) - 1
    size, witness = alpha_k(cycle(5), 1)
    assert size == 3 and is_k_sparse_set(cycle(5), witness, 1)
    size, _ = alpha_k(complete_bipartite(6, 6), 2)
    assert size == 6


@pytest.mark.parametrize("seed", range(10))
def test_alpha_k_matches_brute_force(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), p=rng.choice([0.3, 0.5, 0.7]))
    for k in (0, 1, 2):
        size, witness = alpha_k(g, k)
        assert size == brute_alpha_k(g, k)
        assert witness.bit_count() == size
        assert is_k_sparse_set(g, witness, k)


@pytest.mark.parametrize("seed", range(10))
def test_search_agrees_with_brute_force(seed):
    rng = random.Random(1000 + seed)
    g = random_graph(rng, 8)
    for k in (0, 1, 2):
        for j in (2, 3, 4, 5):
            assert (has_k_sparse_set(g, k, j) is not None) == brute_has_k_sparse_set(g, k, j)
            assert (has_k_dense_set(g, k, j) is not None) == brute_has_k_dense_set(g, k, j)


@pytest.mark.parametrize("seed", range(10))
def test_containing_search_agrees_with_brute_force(seed):
    rng = random.Random(2000 + seed)
    g = random_graph(rng, 7)
    k, j = 1, 3
    for v in range(g.order):
        found = has_k_sparse_set_containing(g, v, k, j)
        brute = any(m.bit_count() == j and m >> v & 1 and is_k_sparse_set(g, m, k)
                    for m in range(1 << g.order))
        assert (found is not None) == brute
        if found is not None:
            assert found >> v & 1 and found.bit_count() == j


@pytest.mark.parametrize("seed", range(12))
def test_complement_duality(seed):
    rng = random.Random(3000 + seed)
    g = random_graph(rng, rng.randint(1, 8))
    co = complement(g)
    for _ in range(10):
        mask = rng.randrange(1 << g.order)
        k = rng.randint(0, 3)
        assert is_k_sparse_set(g, mask, k) == is_k_dense_set(co, mask, k)


@pytest.mark.parametrize("seed", range(8))
def test_hereditary(seed):
    rng = random.Random(4000 + seed)
    g = random_graph(rng, 8)
    k = rng.randint(0, 2)
    size, witness = alpha_k(g, k)
    for _ in range(10):
        sub = witness & rng.randrange(1 << g.order)
        assert is_k_sparse_set(g, sub, k)
    full = g.full_mask()
    dense_k = rng.randint(0, 3)
    if is_k_dense_set(g, full, dense_k):
        for _ in range(10):
            sub = full & rng.randrange(1 << g.order)
            assert is_k_dense_set(g, sub, dense_k)


@pytest.mark.parametrize("seed", range(8))
def test_alpha_monotone_in_k(seed):
    rng = random.Random(5000 + seed)
    g = random_graph(rng, 8)
    sizes = [alpha_k(g, k)[0] for k in range(4)]
    assert sizes == sorted(sizes)


def test_sparse_bound_witness_examples():
    w = sparse_bound_witness(cycle(5), 1)
    assert w.bit_count() >= 3 and is_k_sparse_set(cycle(5), w, 1)
    # max degree <= k: the single color class is everything
    g = cycle(6)  # degree 2
    w = sparse_bound_witness(g, 2)
    assert w == g.full_mask()
    pet = petersen()
    w = sparse_bound_witness(pet, 1)
    assert w.bit_count() >= 5 and is_k_sparse_set(pet, w, 1)
    assert brute_alpha_k(pet, 1) >= 5


@pytest.mark.parametrize("seed", range(20))
def test_sparse_bound_meets_guarantee(seed):
    rng = random.Random(6000 + seed)
    g = random_graph(rng, rng.randint(1, 9))
    k = seed % 4
    w = sparse_bound_witness(g, k)
    assert is_k_sparse_set(g, w, k)
    colors = -((g.max_degree() + 1) // -(k + 1))
    assert w.bit_count() >= -(g.order // -colors)


def test_dense_cap_examples():
    for k in (1, 2):
        assert dense_cap_check(complete_bipartite(k + 1, k + 1), k)
    assert dense_cap_check(cycle(7), 1)
    with pytest.raises(ValueError):
        dense_cap_check(build_graph(3, [(0, 1), (1, 2), (0, 2)]), 0)


@pytest.mark.parametrize("seed", range(10))
def test_dense_cap_holds_on_random_triangle_free(seed):
    rng = random.Random(7000 + seed)
    g = random_triangle_free(rng, rng.randint(1, 10))
    for k in (0, 1, 2):
        assert dense_cap_check(g, k)
