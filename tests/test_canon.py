from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    validate_graph,
)
from triramsey.canon import _encode
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


@st.composite
def triangle_free_and_permutation(draw):
    """A triangle-free graph of order <= 14 from a drawn edge list, plus a
    relabeling; drawn edges that would close a triangle are skipped."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    rows = [0] * n
    for u, v in pairs:
        if u != v and not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows)), draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(triangle_free_and_permutation())
def test_key_invariance_property(drawn):
    g, pi = drawn
    validate_graph(g)
    key = canonical_form(g)
    assert canonical_form(permute(g, pi)) == key
    assert canonical_form(decode_key(key)) == key


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


def lcf(n: int, shifts: list[int]) -> Graph:
    """The cubic graph with LCF notation ``shifts``: an n-cycle plus chords
    u -- u + shifts[u mod len(shifts)]."""
    edges = [(u, (u + 1) % n) for u in range(n)]
    edges += [(u, (u + shifts[u % len(shifts)]) % n) for u in range(n)]
    return build_graph(n, edges)


MCGEE = lcf(24, [12, 7, -7] * 8)  # triangle-free, |Aut| = 32, not vertex-transitive
FRUCHT = lcf(12, [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])  # |Aut| = 1


@pytest.mark.parametrize("g", [MCGEE, FRUCHT], ids=["mcgee", "frucht"])
def test_relabeling_invariance_beyond_orbit_partitions(g):
    # Refinement leaves cells that are not automorphism orbits here, so the
    # key is only invariant if the search takes the minimum over its leaves.
    assert all(row.bit_count() == 3 for row in g.adj)
    rng = random.Random(14)
    key = canonical_form(g)
    for _ in range(20):
        assert canonical_form(permute(g, random_permutation(rng, g.order))) == key


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
