from __future__ import annotations

import random

import pytest

from triramsey import (
    CapacityError,
    ConstructionError,
    Graph,
    MAX_N,
    add_vertex,
    blow_up,
    build_graph,
    complete_bipartite,
    cycle,
    empty_graph,
    independent_set_masks,
    induced_subgraph,
    is_triangle_free,
    path,
    permute,
    single_vertex,
    validate_graph,
    vertex_set,
)
from triramsey.defect import has_k_sparse_set
from triramsey.oracle import brute_isomorphic

from .conftest import random_graph, random_permutation, random_triangle_free


def brute_independent_masks(g: Graph) -> list[int]:
    out = []
    for mask in range(1 << g.order):
        if all(not g.adj[v] & mask for v in range(g.order) if mask >> v & 1):
            out.append(mask)
    return out


def test_build_graph_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    validate_graph(g)
    assert g.degrees() == (2, 2, 2, 2)
    assert g.edge_count() == 4


def test_build_graph_k1():
    g = build_graph(1, [])
    assert g.order == 1 and g.max_degree() == 0


def test_build_graph_rejects_loop():
    with pytest.raises(ConstructionError, match=r"\(0, 0\)"):
        build_graph(2, [(0, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ConstructionError, match=r"\(0, 5\)"):
        build_graph(3, [(0, 5)])


def test_build_graph_rejects_over_capacity():
    with pytest.raises(CapacityError):
        build_graph(MAX_N + 1, [])


def test_triangle_free_examples():
    assert is_triangle_free(cycle(5))
    assert is_triangle_free(complete_bipartite(3, 3))
    assert not is_triangle_free(build_graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_independent_sets_k1_k2():
    assert independent_set_masks(single_vertex()) == [0, 1]
    assert independent_set_masks(build_graph(2, [(0, 1)])) == [0, 1, 2]


def test_independent_sets_c4():
    got = independent_set_masks(cycle(4))
    assert got == brute_independent_masks(cycle(4))
    assert len(got) == 7
    assert got == sorted(got)


@pytest.mark.parametrize("seed", range(8))
def test_independent_sets_match_brute_force(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 6))
    expected = brute_independent_masks(g)
    assert independent_set_masks(g) == expected


def test_add_vertex_examples():
    k2 = add_vertex(single_vertex(), vertex_set([0]))
    assert k2.edges() == [(0, 1)]
    lonely = add_vertex(k2, 0)
    assert lonely.order == 3 and lonely.degree(2) == 0
    g = add_vertex(cycle(4), vertex_set([0, 2]))
    assert sorted(g.degrees(), reverse=True) == [3, 3, 2, 2, 2]
    assert brute_isomorphic(g, complete_bipartite(2, 3))


def test_add_vertex_capacity():
    g = empty_graph(MAX_N)
    with pytest.raises(CapacityError):
        add_vertex(g, 0)


def test_add_vertex_keeps_triangle_freeness():
    rng = random.Random(7)
    for _ in range(25):
        g = random_triangle_free(rng, rng.randint(1, 7))
        for s in independent_set_masks(g):
            child = add_vertex(g, s)
            validate_graph(child)
            assert is_triangle_free(child)


def test_induced_subgraph_examples():
    assert brute_isomorphic(induced_subgraph(cycle(5), vertex_set([0, 1, 2, 3])), path(4))
    side = induced_subgraph(complete_bipartite(3, 3), vertex_set([0, 1, 2]))
    assert side.edge_count() == 0 and side.order == 3
    assert induced_subgraph(cycle(4), vertex_set([0, 1])).edges() == [(0, 1)]


def test_permute_examples():
    g = cycle(5)
    assert permute(g, range(5)) == g
    p3 = path(3)
    assert permute(p3, [2, 1, 0]) == p3
    rotated = permute(build_graph(3, [(0, 1)]), [1, 2, 0])
    assert rotated.edges() == [(1, 2)]
    with pytest.raises(ConstructionError):
        permute(p3, [0, 0, 1])


@pytest.mark.parametrize("seed", range(6))
def test_induced_and_permute_commute_with_edge_lists(seed):
    # Oracle comparison: apply the same operations on raw edge lists.
    rng = random.Random(seed)
    g = random_graph(rng, 6)
    pi = random_permutation(rng, 6)
    h = permute(g, pi)
    assert sorted(h.edges()) == sorted(tuple(sorted((pi[u], pi[v]))) for u, v in g.edges())
    keep = sorted(rng.sample(range(6), 4))
    new_index = {v: p for p, v in enumerate(keep)}
    sub = induced_subgraph(g, vertex_set(keep))
    validate_graph(sub)
    expected = sorted((new_index[u], new_index[v]) for u, v in g.edges()
                      if u in new_index and v in new_index)
    assert sorted(sub.edges()) == expected


def test_builders():
    assert cycle(4).degrees() == (2, 2, 2, 2)
    with pytest.raises(ConstructionError):
        cycle(2)
    k66 = complete_bipartite(6, 6)
    assert k66.edge_count() == 36
    assert has_k_sparse_set(k66, 2, 7) is None
    assert complete_bipartite(0, 0).order == 0
    with pytest.raises(CapacityError):
        complete_bipartite(MAX_N, 1)


def test_blow_up_examples():
    doubled = blow_up(cycle(5), 2)
    validate_graph(doubled)
    assert doubled.order == 10
    assert has_k_sparse_set(doubled, 1, 5) is None
    assert blow_up(single_vertex(), 5) == empty_graph(5)
    with pytest.raises(CapacityError):
        blow_up(cycle(5), 7)


@pytest.mark.parametrize("seed", range(6))
def test_blow_up_triangle_freeness_both_directions(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    t = rng.randint(1, 3)
    tri_free = random_triangle_free(rng, n)
    assert is_triangle_free(blow_up(tri_free, t))
    with_triangle = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not is_triangle_free(blow_up(with_triangle, t))


@pytest.mark.parametrize("seed", range(10))
def test_operations_produce_valid_graphs(seed):
    rng = random.Random(100 + seed)
    g = random_graph(rng, rng.randint(1, 8))
    validate_graph(add_vertex(g, 0))
    validate_graph(induced_subgraph(g, g.full_mask() >> 1))
    validate_graph(permute(g, random_permutation(rng, g.order)))
    if g.order * 2 <= MAX_N:
        validate_graph(blow_up(g, 2))
