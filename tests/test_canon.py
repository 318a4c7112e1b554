from __future__ import annotations

import hashlib
import itertools
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from triramsey import (
    MAX_N,
    DecodeError,
    Graph,
    ProblemSpec,
    add_vertex,
    are_isomorphic,
    blow_up,
    build_graph,
    canonical_form,
    canonical_graph,
    complete_bipartite,
    cycle,
    decode_key,
    graph6_decode,
    initial_level,
    level_step,
    path,
    permute,
    validate_graph,
)
from triramsey import canon
from triramsey.canon import (
    _individualize,
    _leaf_keys,
    _refine_cells,
    _root_cells,
    _twins,
    _word_width,
    canonical_forms,
    decode_keys,
    key_width,
    sorted_keys,
)
from triramsey.graphs import _LABEL_BATCHES, _label_spans, _spans
from triramsey.oracle import brute_isomorphic, count_graph_classes

from .conftest import petersen, random_graph, random_permutation, random_triangle_free


def all_labeled_graphs(n: int):
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(slots)):
        yield build_graph(n, [slots[e] for e in range(len(slots)) if mask >> e & 1])


def _encode(n: int, rows: tuple[int, ...], order: list[int]) -> bytes:
    """Frozen reference: the key of ``rows`` relabeled so that ``order[a]``
    becomes vertex a, built bit by bit."""
    place = [0] * n
    for a, v in enumerate(order):
        place[v] = 1 << (n - 1 - a)
    # Row a contributes its bits towards the vertices placed after it.
    later = (1 << n) - 1
    bits = 0
    for v in order:
        later ^= 1 << v
        row = rows[v] & later
        relabeled = 0
        while row:
            low = row & -row
            relabeled |= place[low.bit_length() - 1]
            row ^= low
        bits = bits << later.bit_count() | relabeled
    nbits = n * (n - 1) // 2
    bits <<= -nbits % 8
    return bytes([n]) + bits.to_bytes((nbits + 7) // 8, "big")


def brute_min_key(g: Graph) -> bytes:
    """Exact minimization over every labeling; independent of the refinement path."""
    return min(_encode(g.order, g.adj, list(p)) for p in itertools.permutations(range(g.order)))


def key_list(keys: np.ndarray) -> list[bytes]:
    """The rows of a (graphs x key width) uint8 array of keys, each as ``bytes``."""
    return [key.tobytes() for key in keys]


def key_array(keys: list[bytes], n: int) -> np.ndarray:
    """Keys of order n as one (keys x ``key_width(n)``) uint8 array."""
    return np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), key_width(n))


def test_relabeling_examples():
    p3 = path(3)
    assert canonical_form(p3) == canonical_form(permute(p3, [2, 0, 1]))
    assert canonical_form(cycle(4)) != canonical_form(path(4))


def labeled_keys(n: int) -> set[bytes]:
    """The keys of every labeled graph of order n, labeled in one batch."""
    return set(key_list(canonical_forms(row_array(list(all_labeled_graphs(n)), n))))


def test_distinct_key_count_order_4():
    keys = labeled_keys(4)
    assert len(keys) == 11
    assert count_graph_classes(4) == 11


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_completeness_small_orders(n):
    keys = labeled_keys(n)
    assert len(keys) == count_graph_classes(n)


def test_completeness_order_6():
    keys = labeled_keys(6)
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
# The folded 5-cube: 4-bit vertices, adjacent when they differ in one bit or in all four.
CLEBSCH = build_graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                           if (u ^ v).bit_count() == 1 or u ^ v == 15])


def nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("g", [MCGEE, FRUCHT], ids=["mcgee", "frucht"])
def test_relabeling_invariance_beyond_orbit_partitions(g):
    # Refinement leaves cells that are not automorphism orbits here, so the
    # key is only invariant if the search takes the minimum over its leaves.
    assert all(row.bit_count() == 3 for row in g.adj)
    rng = random.Random(14)
    key = canonical_form(g)
    for _ in range(20):
        assert canonical_form(permute(g, random_permutation(rng, g.order))) == key


def test_clebsch_graph():
    h = nx_graph(CLEBSCH)
    assert sum(nx.triangles(h).values()) == 0
    automorphisms = list(nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    assert len(automorphisms) == 1920
    assert {a[0] for a in automorphisms} == set(range(16))  # vertex-transitive


@pytest.mark.parametrize("per_chunk", [None, 16], ids=["whole", "chunked"])
@pytest.mark.parametrize("g", [CLEBSCH, MCGEE, petersen()], ids=["clebsch", "mcgee", "petersen"])
def test_wide_search_trees(monkeypatch, g, per_chunk):
    # No twins and a single root cell: the search tree has at least |Aut|
    # leaves per graph (1920, 32 and 120), so a batch of 20 relabelings puts
    # hundreds of nodes in one frontier.  Shrinking the bound to 16 nodes a
    # chunk cuts every round into many chunks; no key may notice.
    n = g.order
    key = canonical_form(g)
    if per_chunk is not None:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", per_chunk * n * n)
        assert next(_spans(160, n * n)) == slice(0, per_chunk)
    rng = random.Random(22)
    copies = [permute(g, random_permutation(rng, n)) for _ in range(20)]
    assert [canonical_forms(row_array([c], n))[0].tobytes() for c in copies] == [key] * 20
    assert key_list(canonical_forms(row_array(copies, n))) == [key] * 20
    assert nx.is_isomorphic(nx_graph(decode_key(key)), nx_graph(g))


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


def test_sorted_keys_match_sorted_set():
    # One sort dedups keys of every order: random rows over a small alphabet
    # (so that words tie), each repeated up to twice, and beside each row one
    # that differs only in its last byte and one that differs only in the
    # first byte past an 8-byte word boundary (order 12 and up: 66 bits make
    # a 10-byte key).
    rng = random.Random(31)
    for n in range(MAX_N + 1):
        width = key_width(n)
        empty = sorted_keys(np.zeros((0, width), dtype=np.uint8))
        assert empty.shape == (0, width) and empty.dtype == np.uint8, n
        rows = [bytes([n, *(rng.choice([0, 1, 128, 255]) for _ in range(width - 1))])
                for _ in range(rng.randint(1, 40))]
        for at in [width - 1] * (width > 1) + [8] * (width > 8):
            rows += [row[:at] + bytes([row[at] ^ rng.choice([1, 128])]) + row[at + 1:]
                     for row in rows]
        rows = [row for row in rows for _ in range(rng.randint(1, 3))]
        rng.shuffle(rows)
        keys = sorted_keys(np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), width))
        assert keys.dtype == np.uint8 and keys.flags.c_contiguous, n
        assert key_list(keys) == sorted(set(rows)), n
        assert len(keys) < len(rows), n


def test_decode_key_rejects_malformed_keys():
    # Order 3 has 3 adjacency bits, so the low 5 bits of the byte are padding.
    assert decode_key(bytes([3, 0x20])) == build_graph(3, [(1, 2)])
    with pytest.raises(DecodeError, match="padding"):
        decode_key(bytes([3, 0x21]))
    with pytest.raises(DecodeError, match="exceeds"):
        decode_key(bytes([MAX_N + 1]) + bytes((MAX_N + 1) * MAX_N // 16))
    with pytest.raises(DecodeError, match="length"):
        decode_key(bytes([4, 0, 0]))  # order 4 needs one byte for its 6 bits
    with pytest.raises(DecodeError, match="empty"):
        decode_key(b"")


def test_decode_key_inverts_the_identity_encoding():
    rng = random.Random(15)
    for n in range(MAX_N + 1):
        g = random_graph(rng, n, p=rng.choice([0.1, 0.5, 0.9]))
        assert decode_key(_encode(n, g.adj, list(range(n)))) == g


def round_based_refine(qadj: list[int], partition: list[list[int]]) -> list[list[int]]:
    """Frozen reference: split every cell by its neighbor counts into every
    cell, round after round, until a round splits nothing."""
    while True:
        masks = []
        for cell in partition:
            m = 0
            for x in cell:
                m |= 1 << x
            masks.append(m)
        refined: list[list[int]] = []
        changed = False
        for cell in partition:
            if len(cell) == 1:
                refined.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for x in cell:
                row = qadj[x]
                sig = tuple((row & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(x)
            if len(buckets) == 1:
                refined.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    refined.append(buckets[sig])
        partition = refined
        if not changed:
            return partition


def random_ordered_partition(rng: random.Random, n: int) -> list[list[int]]:
    vertices = random_permutation(rng, n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 4)))) if n > 1 else []
    return [vertices[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def vertex_cells(partition: list[list[int]], n: int) -> np.ndarray:
    """Each vertex's cell index in an ordered partition of range(n), as
    ``canon`` holds cells (uint8)."""
    cells = np.zeros(n, dtype=np.uint8)
    for c, cell in enumerate(partition):
        cells[cell] = c
    return cells


def test_refine_matches_round_based_reference():
    # The cell order decides which leaves the search visits, so it must match
    # exactly, from any ordered partition and after every individualization.
    # Every vertex is treated as its own class, so the refinement stops only
    # where the reference does.
    rng = random.Random(16)
    for trial in range(600):
        n = 1 + trial % 16
        if trial % 3 == 0:
            g = random_triangle_free(rng, n, tries=rng.randint(n, 2 * n * n))
        else:
            g = random_graph(rng, n, p=rng.choice([0.15, 0.3, 0.5, 0.7]))
        qadj = list(g.adj)
        rows = row_array([g], n)
        partition = random_ordered_partition(rng, n)
        equitable = round_based_refine(qadj, partition)
        cells, count = _refine_cells(rows, vertex_cells(partition, n)[None, :],
                                     np.array([len(partition)]), np.array([n]))
        assert batch_root(cells[0]) == [sorted(cell) for cell in equitable]
        assert count.tolist() == [len(equitable)]
        target = next((ci for ci, cell in enumerate(equitable) if len(cell) > 1), None)
        if target is None:
            continue
        cell = equitable[target]
        individualized = [equitable[:target] + [[x], [y for y in cell if y != x]] + equitable[target + 1:]
                          for x in sorted(cell)]
        parent, children = _individualize(cells, np.arange(n)[None, :])
        assert parent.tolist() == [0] * len(cell)
        assert children.tolist() == [vertex_cells(p, n).tolist() for p in individualized]
        # All individualizations refined in one batch, as the search does.
        children, count = _refine_cells(np.repeat(rows, len(cell), axis=0), children,
                                        np.full(len(cell), len(equitable) + 1), np.full(len(cell), n))
        for child, split, p in zip(children, count, individualized):
            reference = round_based_refine(qadj, p)
            assert batch_root(child) == [sorted(c) for c in reference]
            assert split == len(reference)


@pytest.mark.parametrize("n", [1, 11, 14, 15, 16, 23, 32])
def test_round_ranks_match_field_tuples(n):
    # A round ranks each vertex by the tuple (cell, its count of neighbours
    # in each cell).  From order 15 on, a tuple over many cells takes more
    # bits than one sort key holds, and the key is folded into its rank part
    # way: the ranks must still be the tuples' dense ranks.
    rng = random.Random(60 + n)
    graphs = [random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8])) for _ in range(40)]
    count = max(1, n - rng.randint(0, 2))
    cells = np.array([[rng.randrange(count) for _ in range(n)] for _ in graphs], dtype=np.uint8)
    ranks, split = canon._round_ranks(row_array(graphs, n), cells.copy(), count)
    for g, cell, rank, distinct in zip(graphs, cells.tolist(), ranks.tolist(), split.tolist()):
        fields = [(cell[v],) + tuple(sum(1 for u in range(n) if g.adj[v] >> u & 1 and cell[u] == c)
                                     for c in range(count)) for v in range(n)]
        order = sorted(set(fields))
        assert rank == [order.index(f) for f in fields]
        assert distinct == len(order)


def golden_corpus() -> list[Graph]:
    """Seeded random triangle-free graphs of order 0-15, every second one with
    an added twin, plus five named graphs."""
    rng = random.Random(20240603)
    graphs = []
    for n in range(16):
        for t in range(64):
            g = random_triangle_free(rng, n, tries=rng.randint(n, 2 * n * n))
            if t % 2 and n:
                g = add_vertex(g, g.adj[rng.randrange(n)])
            graphs.append(g)
    return graphs + [petersen(), MCGEE, FRUCHT, blow_up(cycle(5), 3), complete_bipartite(4, 7)]


def test_golden_key_digest():
    # Pins the keys themselves, not only their equivalence relation: level
    # files and their digests are written in key order.
    digest = hashlib.sha256(b"".join(canonical_form(g) for g in golden_corpus()))
    assert digest.hexdigest() == (
        "5f3081bcfb60fb9e6761aa3db0ad591bd2bb88f2fd39a3512ca7c8101db0f9d9")


T_1_7_LEVEL_11 = Path(__file__).resolve().parents[1] / "perfbench/fixtures/t1_7-level-11.lvl"


def test_fixture_level_key_digest():
    # Pins the keys of a real level at scale, where the golden corpus has
    # about a thousand small graphs: the 31,011 order-11 members of T_1(7)'s
    # pinned level, each relabeled, labeled a labeling batch at a time.
    lines = T_1_7_LEVEL_11.read_text(encoding="ascii").splitlines()
    members = [graph6_decode(line) for line in lines[lines.index("begin") + 1:-1]]
    rng = random.Random(1)
    rows = row_array(relabeled(rng, members), 11)
    keys = [key for span in _label_spans(len(rows), 11) for key in key_list(canonical_forms(rows[span]))]
    assert len(keys) == len(set(keys)) == 31011
    digest = hashlib.sha256(b"".join(sorted(keys)))
    assert digest.hexdigest() == (
        "f9293465b004f59e1272e96b9c500e4fa6c8b0f099e1e1131b37198c973c59a1")


def row_array(graphs: list[Graph], n: int) -> np.ndarray:
    return np.array([g.adj for g in graphs], dtype=np.uint32).reshape(len(graphs), n)


def twin_classes(g: Graph) -> list[list[int]]:
    """Partition vertices into identical-neighborhood classes.

    Classes are listed by ascending first member and hold their members in
    ascending order.  Members of one class are pairwise non-adjacent (a twin
    inside its own row would be a loop).
    """
    index: dict[int, int] = {}
    classes: list[list[int]] = []
    for v, row in enumerate(g.adj):
        c = index.get(row)
        if c is None:
            index[row] = len(classes)
            classes.append([v])
        else:
            classes[c].append(v)
    return classes


def quotient_root(g: Graph) -> tuple[list[list[int]], bool]:
    """``canonical_form``'s root partition by the frozen reference: the twin
    quotient refined round by round from its class-size partition, each cell
    listed as its vertices; and whether every cell is one twin class."""
    classes = twin_classes(g)
    first = [cell[0] for cell in classes]
    qadj = [sum(1 << d for d, v in enumerate(first) if g.adj[cell[0]] >> v & 1)
            for cell in classes]
    sizes = sorted({len(cell) for cell in classes})
    partition = [[c for c, cell in enumerate(classes) if len(cell) == s] for s in sizes]
    cells = round_based_refine(qadj, partition)
    return [sorted(v for c in cell for v in classes[c]) for cell in cells], len(cells) == len(classes)


def batch_root(cells: np.ndarray) -> list[list[int]]:
    return [np.flatnonzero(cells == c).tolist() for c in range(cells.size and int(cells.max()) + 1)]


def relabeled(rng: random.Random, graphs: list[Graph]) -> list[Graph]:
    return [permute(g, random_permutation(rng, g.order)) for g in graphs]


def level_members(spec: ProblemSpec) -> list[Graph]:
    """Every member of every level of the search, from K1 to the first empty level."""
    level, members = initial_level(spec), []
    while len(level):
        members += level.graphs()
        level = level_step(level, spec)
    return members


def batch_corpus() -> list[Graph]:
    """``golden_corpus`` plus relabeled copies of it, relabeled blow-ups
    (whose twin classes have several sizes) and random graphs of orders
    16-32; about a quarter have root cells that are not their twin classes."""
    rng = random.Random(17)
    corpus = golden_corpus()
    corpus += relabeled(rng, corpus)
    corpus += [permute(blow_up(g, t), random_permutation(rng, g.order * t))
               for g in (cycle(5), path(4), petersen(), FRUCHT) for t in (1, 2, 3) if g.order * t <= MAX_N]
    corpus += [random_graph(rng, n, p) for n in (16, 24, 32) for p in (0.1, 0.3, 0.5)]
    return corpus


def by_order(graphs: list[Graph]) -> dict[int, list[Graph]]:
    groups: dict[int, list[Graph]] = {}
    for g in graphs:
        groups.setdefault(g.order, []).append(g)
    return groups


def test_root_cells_match_round_based_reference():
    # All graphs of one order go through one batch, so every round runs with
    # some graphs already stable.  Each vertex's first twin comes with them.
    for n, graphs in by_order(batch_corpus()).items():
        cells, first, count, classes = _root_cells(row_array(graphs, n))
        for g, vertex_cells, twin, single in zip(graphs, cells, first, count == classes):
            assert (batch_root(vertex_cells), bool(single)) == quotient_root(g), g
            assert twin.tolist() == [g.adj.index(row) for row in g.adj], g


def twinned(rng: random.Random, n: int) -> Graph:
    """A random graph of order n in which about half the vertices are added
    as false twins of earlier ones."""
    g = random_graph(rng, (n + 1) // 2, rng.choice([0.2, 0.5, 0.8]))
    while g.order < n:
        g = add_vertex(g, g.adj[rng.randrange(g.order)])
    return permute(g, random_permutation(rng, n))


def test_twins_match_twin_matrices():
    # Each vertex's first twin and class size, from one column compare per
    # vertex, are the argmax and the sum along the last axis of the
    # (graphs x n x n) twin matrix, at every order, twin-heavy graphs
    # included: blow-ups, complete bipartite and edgeless graphs.
    rng = random.Random(23)
    for n in range(1, MAX_N + 1):
        graphs = [random_graph(rng, n, rng.choice([0.1, 0.5, 0.9])) for _ in range(4)]
        graphs += [twinned(rng, n) for _ in range(4)]
        graphs += [permute(blow_up(g, n // g.order), random_permutation(rng, n))
                   for g in (cycle(5), path(4), petersen()) if n % g.order == 0]
        graphs += [build_graph(n, []), permute(complete_bipartite(n // 3, n - n // 3), random_permutation(rng, n))]
        rows = row_array(graphs, n)
        matrices = rows[:, :, None] == rows[:, None, :]
        first, sizes = _twins(rows)
        assert first.dtype == sizes.dtype == np.uint8
        assert first.tolist() == matrices.argmax(axis=2).tolist(), n
        assert sizes.tolist() == matrices.sum(axis=2).tolist(), n
        assert _root_cells(rows)[1].tolist() == first.tolist(), n


def test_leaf_keys_order_twins_by_vertex():
    # Twins share a leaf's cell; ``_leaf_keys`` orders the vertices of a cell
    # by vertex, as a stable argsort of the cells does, whatever the cells.
    rng = random.Random(24)
    for n in range(MAX_N + 1):
        graphs = [twinned(rng, n) if n else build_graph(0, []) for _ in range(rng.randint(1, 4))]
        cells = np.array([[rng.randrange(max(1, n // 3)) for _ in range(n)] for _ in graphs],
                         dtype=np.uint8).reshape(len(graphs), n)
        keys = _leaf_keys(row_array(graphs, n), cells)[:, :key_width(n)]
        orders = np.argsort(cells, axis=1, kind="stable").tolist()
        assert key_list(keys) == [_encode(n, g.adj, order) for g, order in zip(graphs, orders)], n


def test_encode_rows_matches_encode():
    # A leaf whose cells are the inverse of a vertex order is relabeled by it.
    rng = random.Random(18)
    for n in range(MAX_N + 1):
        graphs = [random_graph(rng, n, rng.choice([0.1, 0.5, 0.9])) for _ in range(rng.randint(0, 4))]
        orders = [random_permutation(rng, n) for _ in graphs]
        cells = np.argsort(np.array(orders, dtype=np.intp).reshape(len(graphs), n), axis=1)
        keys = _leaf_keys(row_array(graphs, n), cells)
        assert keys.dtype == np.uint8 and keys.shape == (len(graphs), _word_width(n))
        assert not keys[:, key_width(n):].any()  # zero padded to whole 8-byte words
        assert key_list(keys[:, :key_width(n)]) == [_encode(n, g.adj, order) for g, order in zip(graphs, orders)]


@pytest.mark.parametrize("name, graphs", [
    ("corpus", batch_corpus),
    ("t_2_7", lambda: relabeled(random.Random(19), level_members(ProblemSpec(k=2, j=7)))),
    ("r_1_4_7", lambda: relabeled(random.Random(20), level_members(ProblemSpec(k=1, j=7, i=4)))),
    ("empty", lambda: []),
    ("order_0", lambda: [build_graph(0, [])] * 3),
])
def test_canonical_forms_match_canonical_form(name, graphs):
    # ``_root_cells`` runs different rounds for a graph alone, in its order's
    # whole batch and in a shuffled batch; the keys must not notice.  Every
    # order the graphs miss is labeled as an empty (0 x n) batch.  The keys
    # are one C-contiguous (graphs x key width) uint8 array.
    rng = random.Random(21)
    groups = by_order(graphs())
    for n in range(MAX_N + 1):
        group = groups.get(n, [])
        alone = [canonical_form(g) for g in group]
        keys = canonical_forms(row_array(group, n))
        assert keys.dtype == np.uint8 and keys.shape == (len(group), key_width(n)), n
        assert keys.flags.c_contiguous, n
        assert key_list(keys) == alone, n
        shuffle = rng.sample(range(len(group)), len(group))
        assert (key_list(canonical_forms(row_array([group[at] for at in shuffle], n)))
                == [alone[at] for at in shuffle]), n


def random_labeling_batch(n: int, count: int) -> np.ndarray:
    """Seeded random triangle-free graphs of order n, sparse enough that
    about a fifth of them need a search."""
    rng = random.Random(40 + n)
    return row_array([random_triangle_free(rng, n, tries=rng.randint(n, 3 * n))
                      for _ in range(count)], n)


def test_wide_labeling_batches_keep_keys(monkeypatch):
    # 2,500 order-11 graphs in one call, 514 of them searched: the search's
    # frontier (1,051 nodes in its first round) is refined a labeling batch
    # of nodes at a time, four batches of order 11 (2,166 nodes), or, with
    # the rule at one batch, at most 541; the keys must not notice.
    rows = random_labeling_batch(11, 2500)
    _, _, count, classes = _root_cells(rows)
    assert (count < classes).sum() > 300
    searched = []
    refine = canon._refine_cells

    def counting(nodes, *args):
        if nodes is not rows:  # the root refinement takes the whole call's rows
            searched.append(len(nodes))
        return refine(nodes, *args)

    monkeypatch.setattr(canon, "_refine_cells", counting)
    wide = key_list(canonical_forms(rows))
    wide_chunks, searched[:] = searched[:], []
    monkeypatch.setattr("triramsey.graphs._LABEL_BATCHES", 1)
    assert key_list(canonical_forms(rows)) == wide
    assert max(searched) <= (1 << 16) // 11 ** 2 < max(wide_chunks)
    assert wide == [canonical_form(Graph(11, tuple(row))) for row in rows.tolist()]


@pytest.mark.parametrize("n", [11, 13])
def test_labeling_batch_peak(n):
    # One labeling batch, four batches of order n (2,166 graphs at order 11,
    # 1,551 at 13), holds about as much as one batch of 64-bit temporaries
    # did: 0.65 and 0.55 MB against 0.62 and 0.54 MB; widening alone took
    # 2.35 and 2.12 MB.
    rows = random_labeling_batch(n, _LABEL_BATCHES * (1 << 16) // n ** 2)
    canonical_forms(rows)  # fills the caches of the first call
    tracemalloc.start()
    try:
        canonical_forms(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000, peak


def test_clebsch_labeling_batch_peak(monkeypatch):
    # A full labeling batch of relabeled Clebsch graphs: vertex-transitive and
    # twin-free, so no refinement splits the root and each graph's search
    # tree has at least |Aut| = 1920 leaves, a frontier far wider than the
    # batch.  The bound is shrunk to 1024 elements, so that the batch is 16
    # graphs: at the default bound its 1,024 graphs take 24 s under
    # tracemalloc.  The search individualizes and refines that frontier a
    # labeling batch at a time.  The parent commit, which individualized the
    # whole frontier at once, peaked at 6,567,698 B here (431 MB at the
    # default bound); this code reads 0.56 MB.
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", 1 << 10)
    n = CLEBSCH.order
    rng = random.Random(16)
    copies = [permute(CLEBSCH, random_permutation(rng, n))
              for _ in range(_LABEL_BATCHES * (1 << 10) // n ** 2)]
    assert len(copies) == 16
    leaves = []
    encode = canon._leaf_keys
    monkeypatch.setattr(canon, "_leaf_keys", lambda rows, cells: leaves.append(len(rows)) or encode(rows, cells))
    rows = row_array(copies, n)
    canonical_forms(rows[:1])  # fills the caches of the first call
    leaves.clear()
    tracemalloc.start()
    try:
        keys = canonical_forms(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(leaves) >= 1920 * len(copies)
    assert key_list(keys) == [canonical_form(c) for c in copies]
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("seed", range(4))
def test_decode_keys_match_decode_key(seed):
    rng = random.Random(30 + seed)
    assert decode_keys(np.zeros((0, 1), dtype=np.uint8)).shape == (0, 0)
    for n in range(MAX_N + 1):
        # Orders 0 and 1 have no key body byte, 2 one partial byte, 31 and
        # 32 the most bytes; each always gets random graphs and its complete
        # graph, which sets every table bit.
        edge = n in (0, 1, 2, MAX_N - 1, MAX_N)
        graphs = [random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
                  for _ in range(rng.randint(2 if edge else 0, 5))]
        if edge:
            graphs.append(build_graph(n, itertools.combinations(range(n), 2)))
        if n == MAX_N:
            graphs.append(build_graph(n, [(0, n - 1), (n - 2, n - 1)]))  # bit 31 set in rows 0 and 30
        keys = [_encode(n, g.adj, list(range(n))) for g in graphs]
        rows = decode_keys(key_array(keys, n))
        assert rows.dtype == np.uint32
        assert rows.tolist() == [list(decode_key(key).adj) for key in keys] == [list(g.adj) for g in graphs]
