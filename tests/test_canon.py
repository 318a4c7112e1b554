from __future__ import annotations

import itertools
import math
import random

import pytest

from triramsey import (
    MAX_N,
    DecodeError,
    Graph,
    are_isomorphic,
    blow_up,
    build_graph,
    canonical_form,
    canonical_graph,
    complete_bipartite,
    cycle,
    decode_key,
    path,
    permute,
    set_members,
    validate_graph,
)
from triramsey.canon import _automorphisms, _encode, _twin_classes, orbit_representatives
from triramsey.oracle import brute_isomorphic, count_graph_classes

from .conftest import petersen, random_graph, random_permutation


def all_labeled_graphs(n: int):
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(slots)):
        yield build_graph(n, [slots[e] for e in range(len(slots)) if mask >> e & 1])


def brute_min_key(g: Graph) -> bytes:
    """Exact minimization over every labeling; independent of the refinement path."""
    return min(_encode(g.order, g.adj, list(p)) for p in itertools.permutations(range(g.order)))


def test_relabeling_examples():
    p3 = path(3)
    assert canonical_form(p3) == canonical_form(permute(p3, [2, 0, 1]))
    assert canonical_form(cycle(4)) != canonical_form(path(4))


def test_distinct_key_count_order_4():
    keys = {canonical_form(g) for g in all_labeled_graphs(4)}
    assert len(keys) == 11
    assert count_graph_classes(4) == 11


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_completeness_small_orders(n):
    keys = {canonical_form(g) for g in all_labeled_graphs(n)}
    assert len(keys) == count_graph_classes(n)


def test_completeness_order_6():
    keys = {canonical_form(g) for g in all_labeled_graphs(6)}
    assert len(keys) == count_graph_classes(6) == 156


def test_are_isomorphic_examples(figure_12a, figure_12b):
    rng = random.Random(42)
    c5 = cycle(5)
    assert are_isomorphic(c5, permute(c5, random_permutation(rng, 5)))
    assert not are_isomorphic(complete_bipartite(1, 3), path(4))
    assert not are_isomorphic(figure_12a, figure_12b)


def test_relabeling_invariance_random():
    rng = random.Random(9)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 12), p=rng.choice([0.2, 0.5, 0.8]))
        key = canonical_form(g)
        assert canonical_form(permute(g, random_permutation(rng, g.order))) == key


def test_soundness_decoded_key_is_isomorphic():
    rng = random.Random(10)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8))
        key, canon = canonical_graph(g)
        validate_graph(canon)
        decoded = decode_key(key)
        assert decoded == canon
        assert brute_isomorphic(decoded, g)


def test_agrees_with_brute_force_minimization():
    # Same equivalence relation as exact permutation minimization.
    rng = random.Random(11)
    graphs = [random_graph(rng, 5, p=rng.choice([0.3, 0.5, 0.7])) for _ in range(25)]
    graphs += [cycle(5), path(5), complete_bipartite(2, 3)]
    for g in graphs:
        for h in graphs:
            assert (canonical_form(g) == canonical_form(h)) == (brute_min_key(g) == brute_min_key(h))


def test_twin_heavy_graphs_are_cheap_and_correct():
    rng = random.Random(12)
    for p, l in [(6, 6), (5, 7), (1, 11), (4, 4)]:
        g = complete_bipartite(p, l)
        key = canonical_form(g)
        assert canonical_form(permute(g, random_permutation(rng, g.order))) == key
    doubled = blow_up(cycle(5), 2)
    assert canonical_form(permute(doubled, random_permutation(rng, 10))) == canonical_form(doubled)


def test_vertex_transitive_graph():
    pet = petersen()
    rng = random.Random(13)
    key = canonical_form(pet)
    for _ in range(10):
        assert canonical_form(permute(pet, random_permutation(rng, 10))) == key


def test_key_layout():
    # one order byte, then row-major upper-triangular bits, MSB first
    k2 = build_graph(2, [(0, 1)])
    assert canonical_form(k2) == bytes([2, 0b10000000])
    assert canonical_form(build_graph(0, [])) == bytes([0])
    assert canonical_form(build_graph(1, [])) == bytes([1])
    triangle = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert canonical_form(triangle) == bytes([3, 0b11100000])


def test_key_total_order_is_bytewise():
    keys = sorted(canonical_form(g) for g in all_labeled_graphs(3))
    assert keys == sorted(keys)
    assert len(set(keys)) == 4


def test_decode_key_rejects_malformed_keys():
    # Order 3 has 3 adjacency bits, so the low 5 bits of the byte are padding.
    assert decode_key(bytes([3, 0x20])) == build_graph(3, [(1, 2)])
    with pytest.raises(DecodeError, match="padding"):
        decode_key(bytes([3, 0x21]))
    with pytest.raises(DecodeError, match="exceeds"):
        decode_key(bytes([MAX_N + 1]) + bytes((MAX_N + 1) * MAX_N // 16))
    with pytest.raises(DecodeError, match="length"):
        decode_key(bytes([4, 0, 0]))  # order 4 needs one byte for its 6 bits


@pytest.mark.parametrize("name", ["C5", "K33", "C5x2", "petersen", "figure_9", "figure_12a"])
def test_automorphisms_and_set_orbits_match_networkx(name, request):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    g = {"C5": lambda: cycle(5), "K33": lambda: complete_bipartite(3, 3),
         "C5x2": lambda: blow_up(cycle(5), 2), "petersen": petersen,
         "figure_9": lambda: request.getfixturevalue("figure_9"),
         "figure_12a": lambda: request.getfixturevalue("figure_12a")}[name]()
    maps = _automorphisms(g, _twin_classes(g))
    for image in maps:
        assert permute(g, image) == g
    assert len({tuple(image) for image in maps} - {tuple(range(g.order))}) == len(maps)

    reference = nx.Graph()
    reference.add_nodes_from(range(g.order))
    reference.add_edges_from(g.edges())
    automorphisms = [[m[u] for u in range(g.order)]
                     for m in GraphMatcher(reference, reference).isomorphisms_iter()]
    twin_symmetries = 1
    for cell in _twin_classes(g):
        twin_symmetries *= math.factorial(len(cell))
    assert (len(maps) + 1) * twin_symmetries == len(automorphisms)

    # The first (lowest) set of every orbit of vertex sets, by brute force.
    seen: set[int] = set()
    expected = []
    for s in range(1 << g.order):
        if s not in seen:
            expected.append(s)
            seen.update(sum(1 << p[u] for u in set_members(s)) for p in automorphisms)
    assert orbit_representatives(g, list(range(1 << g.order))) == expected
