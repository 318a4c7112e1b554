"""Canonical labeling for isomorphism rejection.

Key layout: byte 0 holds the order n, then ceil(n(n-1)/2 / 8) bytes hold the
row-major upper-triangular adjacency bits of the canonically relabeled graph,
most significant bit first, zero padded.  Two graphs get equal keys exactly
when they are isomorphic, and keys compare as plain byte strings, which gives
the total order used for deduplication and stable file output.  The key is
the whole class: ``decode_key`` rebuilds the canonically labeled
representative from it, so no relabeled graph is ever carried beside a key.
The layout has one home, this module: ``_encode_rows`` writes it,
``decode_key`` validates it, and ``decode_keys`` gives the rows of a chunk
of keys, adding one ``key_tables`` entry per key byte; a level's rows are
decoded with it, once, by ``enumeration.LevelSet.from_keys``.

The labeling is found by equitable partition refinement plus
individualization.  Vertices with identical neighborhoods (false twins) are
collapsed into weighted classes first; twins are interchangeable in any
labeling, so searching over classes loses nothing and keeps the blow-up and
complete-bipartite graphs that dominate this workload from exploding the
search tree.  Every branching choice depends only on isomorphism-invariant
data (class sizes, neighbor counts per cell), so isomorphic graphs explore
corresponding trees; the candidate labeling with the smallest encoded key
wins.

``canonical_forms`` is the only labeling, of a whole array of same-order
graphs: it runs the root refinement for all of them in numpy, encodes the
single leaf of every graph whose root cells are its twin classes, and
searches the rest from the root cells it already has, breadth first, every
open search node of every graph refined in the same numpy rounds as the
roots (``_refine_cells``).  ``canonical_form`` labels a batch of one.  A
round ranks each graph's vertices by one in-place sort of uint64 keys
tagged with their vertex (``_rank``).  The per-vertex temporaries (cells,
first twins, twin counts, ranks) are uint8, as every such value is at most
n <= MAX_N, so that a call of a labeling batch (``graphs._label_spans``)
holds little more than one batch did in int64.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DecodeError
from .graphs import (
    MAX_N,
    Graph,
    _apply_tables,
    _bit_tables,
    _label_spans,
    _row_sides,
    _spans,
    row_array,
)

#: Total-order canonical encoding of a graph; byte-compare gives the order.
CanonKey = bytes


@lru_cache(maxsize=None)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs a < b of order n, by a and then by b, as two
    read-only index arrays of their a and their b (``np.triu_indices(n, 1)``),
    built once per order."""
    vertices = np.arange(n)
    pairs = np.nonzero(vertices[:, None] < vertices)
    for side in pairs:
        side.flags.writeable = False
    return pairs


# A run decodes keys one order at a time, and their tables take 1.1 MB at
# order 32, so only the last order's are kept.
@lru_cache(maxsize=1)
def key_tables(n: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Canonical key -> rows: key byte 1 + p // 8 holds pair p of
    ``upper_pairs(n)`` at bit 7 - p % 8."""
    first, second = upper_pairs(n)
    byte, place = np.divmod(np.tile(np.arange(len(first)), 2), 8)
    return _bit_tables(1 + byte, 7 - place, *_row_sides(first, second), 8, np.uint32)


def _encode_rows(rows: np.ndarray, orders: np.ndarray) -> list[CanonKey]:
    """The key of every graph of a (graphs x n) row array relabeled so that
    ``orders[g, a]`` becomes vertex a of ``rows[g]``."""
    m, n = rows.shape
    first, second = upper_pairs(n)
    # Pair (a, b) is an edge when row orders[g, a] holds orders[g, b]: one
    # (graphs x pairs) array, shifted and masked in place.
    bits = np.take_along_axis(rows, orders, axis=1)[:, first]
    bits >>= orders.astype(np.uint8)[:, second]
    bits &= 1
    body = np.packbits(bits, axis=1)
    blob = np.hstack([np.full((m, 1), n, dtype=np.uint8), body]).tobytes()
    width = 1 + body.shape[1]
    return [blob[at:at + width] for at in range(0, len(blob), width)]


def canonical_form(g: Graph) -> CanonKey:
    """Relabeling-invariant key; equal keys <=> isomorphic graphs (``canonical_forms`` of one)."""
    return canonical_forms(row_array([g.adj], g.order))[0]


def canonical_forms(rows: np.ndarray) -> list[CanonKey]:
    """The key of every graph of a (graphs x n) uint32 row array.

    The root refinement runs for all graphs at once (``_root_cells``).  A
    graph whose root cells are its twin classes has a single leaf, so its
    key is that leaf's (``_leaf_keys``); every other graph is searched from
    its root cells, all of them together (``_smallest_leaves``).
    """
    cells, first, leaf = _root_cells(rows)
    keys: list[CanonKey] = [b""] * len(rows)
    single = np.flatnonzero(leaf)
    for g, key in zip(single.tolist(), _leaf_keys(rows[single], cells[single])):
        keys[g] = key
    searched = np.flatnonzero(~leaf)
    for g, key in zip(searched.tolist(),
                      _smallest_leaves(rows[searched], cells[searched], first[searched])):
        keys[g] = key
    return keys


def _leaf_keys(rows: np.ndarray, cells: np.ndarray) -> list[CanonKey]:
    """The key of each leaf: ``rows[x]`` relabeled cell by cell of
    ``cells[x]``, each twin class in ascending vertex order.  Leaves are
    encoded one batch (``_spans``) at a time, which keeps the gathers of
    ``_encode_rows`` as small inside a wide labeling batch as in one batch."""
    keys: list[CanonKey] = []
    for at in _spans(len(rows), rows.shape[1] ** 2):
        keys += _encode_rows(rows[at], np.argsort(cells[at], axis=1, kind="stable"))
    return keys


def _smallest_leaves(rows: np.ndarray, cells: np.ndarray, first: np.ndarray) -> list[CanonKey]:
    """The smallest leaf key of every graph of a (graphs x n) uint32 row
    array, searched from its equitable cells (each vertex's cell, numbered in
    partition order, as ``_root_cells`` gives them, with each vertex's first
    twin).

    The search tree is walked breadth first, one level of every graph's
    tree at a time: the frontier holds every open node of every graph, as
    pieces of (graph, cells, cell count).  A round takes the frontier a
    labeling batch of nodes (``_label_spans``) at a time: it individualizes
    each node (``_individualize``), refines the children together
    (``_refine_cells``), again a labeling batch at a time, and encodes every
    child whose cells are its twin classes, a leaf, keeping each graph's
    smallest key; the other children are a piece of the next frontier.  So
    no temporary of a round grows with the frontier, which a graph with a
    large automorphism group makes far wider than a batch.  The smallest key
    over all leaves does not depend on the order in which they are
    visited.
    """
    m, n = rows.shape
    if not m:
        return []
    classes = (first == np.arange(n)).view(np.uint8).sum(axis=1, dtype=np.uint8)
    best: list[CanonKey | None] = [None] * m
    frontier = [(np.arange(m), cells, cells.max(axis=1) + 1)]
    while frontier:
        opened, frontier = frontier, []
        for graph, cells, count in opened:
            for span in _label_spans(graph.size, n):
                parent, children = _individualize(cells[span], first[graph[span]])
                child, below = graph[span][parent], count[span][parent] + 1
                for at in _label_spans(child.size, n):
                    _refine_cells(rows[child[at]], children[at], below[at], classes[child[at]])
                leaf = below == classes[child]
                found = child[leaf]
                for g, key in zip(found.tolist(), _leaf_keys(rows[found], children[leaf])):
                    if best[g] is None or key < best[g]:
                        best[g] = key
                if not leaf.all():
                    frontier.append((child[~leaf], children[~leaf], below[~leaf]))
    return best


def _individualize(cells: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every child of every search node (a row of ``cells``, each vertex's
    cell; ``first`` holds each vertex's first twin): each child's node and
    its cells, before refinement.

    A node's target is its first cell holding more than one twin class.  It
    has one child per class of the target, in which the class keeps the
    target's number, the rest of the target takes the next, and every later
    cell moves up by one.
    """
    nodes, n = cells.shape
    opens = first == np.arange(n)  # a vertex opens its class
    held = np.bincount((np.arange(nodes)[:, None] * n + cells)[opens],
                       minlength=nodes * n).reshape(nodes, n)
    target = (held > 1).argmax(axis=1)[:, None]
    parent, chosen = np.nonzero(opens & (cells == target))
    children, at = cells[parent], target[parent]
    children += (children > at) | ((children == at) & (first[parent] != chosen[:, None]))
    return parent, children


def _root_cells(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root refinement for every graph of a (graphs x n) uint32 row
    array, in vertex space: each vertex's cell index (graphs x n uint8,
    cells numbered in partition order), each vertex's first twin (graphs x n
    uint8), and whether the cells are exactly the twin classes.

    The root partition is the twin quotient's class-size partition, refined
    by ``_refine_cells``.
    """
    m, n = rows.shape
    if not n:
        empty = np.zeros((m, 0), dtype=np.uint8)
        return empty, empty, np.ones(m, dtype=bool)
    twins = rows[:, :, None] == rows[:, None, :]
    first, sizes = twins.argmax(axis=2).astype(np.uint8), twins.view(np.uint8).sum(axis=2, dtype=np.uint8)
    del twins  # the call's largest array: not held through the refinement
    # A vertex opens its class when its first twin is itself.
    classes = (first == np.arange(n)).view(np.uint8).sum(axis=1, dtype=np.uint8)
    cells, count = _refine_cells(rows, *_rank(sizes.astype(np.uint64)), classes)
    return cells, first, count == classes


def _refine_cells(rows: np.ndarray, cells: np.ndarray, count: np.ndarray,
                  classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine, in place, the uint8 cells of every graph of a (graphs x n)
    uint32 row array (each vertex's cell, numbered in partition order; every
    cell a union of twin classes of one size), ``count`` cells out of
    ``classes`` twin classes, and return the cells and their count.

    The refinement is the twin quotient's, round by round, each round
    splitting every cell by its members' counts into every cell.  Twins
    share their row, so they never part, and every class in a cell has the
    same size; a vertex's count into a cell is that size times its class's
    count, which orders the members of a cell as the quotient's counts do.
    So the rounds run here on the vertices: each splits every cell by the
    rank of (cell, counts into every cell) (``_round_ranks``), until a
    graph's round splits nothing or its cells are its classes.
    """
    active = np.flatnonzero(count < classes)
    while active.size:
        refined, split = _round_ranks(rows[active], cells[active], int(count[active].max()))
        grew = split > count[active]
        cells[active] = refined
        count[active] = split
        active = active[grew & (split < classes[active])]
    return cells, count


#: ``_rank`` tags each key with its vertex in the low 5 bits (n <= MAX_N = 32).
_KEY_BITS = 64 - 5


def _round_ranks(rows: np.ndarray, cells: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """One refinement round of every graph of a (graphs x n) uint32 row
    array and its uint8 cells (``count`` of them at most): each vertex's rank
    by (cell, its count of neighbours in each cell), and the number of ranks.

    Cells, counts and ranks are below n, so each takes ``n.bit_length()``
    bits: the fields are shifted into one uint64 key per vertex, most
    significant first, so that the keys compare as the field tuples do.  A
    key that would pass the ``_rank`` limit is ranked first and its rank
    carries on as the key's first field, which keeps the order (never below
    order 15, where a round takes one sort).
    """
    m, n = rows.shape
    width = n.bit_length()
    # Each cell's vertex mask, one vertex at a time: a vertex is in one cell
    # of its graph, so no mask is named twice in one OR.
    masks = np.zeros(m * count, dtype=np.uint32)
    base = np.arange(0, m * count, count)
    for v in range(n):
        masks[base + cells[:, v]] |= np.uint32(1 << v)
    masks = masks.reshape(m, count)
    key, used = cells.astype(np.uint64), width
    for mask in masks.T:
        if used + width > _KEY_BITS:
            key, used = _rank(key)[0].astype(np.uint64), width
        key <<= np.uint64(width)
        key |= np.bitwise_count(rows & mask[:, None])
        used += width
    return _rank(key)


def _rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per graph (row) of a (graphs x n) uint64 array of keys below
    2**_KEY_BITS, each vertex's rank among the graph's distinct keys, and
    the number of distinct keys (uint8: both are at most n <= MAX_N).  The
    keys are overwritten.

    Each key is tagged with its vertex in its low bits and every row sorted
    in place, a batch of graphs at a time, so that one sort gives both the
    keys' order and the vertex of each place in it.
    """
    m, n = keys.shape
    keys <<= np.uint64(64 - _KEY_BITS)
    keys |= np.arange(n, dtype=np.uint64)
    ranks = np.empty((m, n), dtype=np.uint8)
    split = np.empty(m, dtype=np.uint8)
    for at in _spans(m, n * n):
        tagged = keys[at]
        tagged.sort(axis=1)
        vertex = (tagged & np.uint64(31)).astype(np.uint8)
        tagged >>= np.uint64(64 - _KEY_BITS)
        # A vertex opens a key when it differs from the one before it.
        opens = np.zeros(tagged.shape, dtype=bool)
        np.not_equal(tagged[:, 1:], tagged[:, :-1], out=opens[:, 1:])
        place = np.cumsum(opens.view(np.uint8), axis=1, dtype=np.uint8)
        ranks[at][np.arange(len(tagged))[:, None], vertex] = place
        split[at] = place[:, -1] + 1
    return ranks, split


def canonical_graph(g: Graph) -> tuple[CanonKey, Graph]:
    """The canonical key together with the graph it encodes."""
    key = canonical_form(g)
    return key, decode_key(key)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.order == h.order and canonical_form(g) == canonical_form(h)


def decode_key(key: CanonKey) -> Graph:
    """Rebuild the labeled graph a canonical key encodes."""
    if len(key) < 1:
        raise DecodeError("empty key", offset=0)
    n = key[0]
    if n > MAX_N:
        raise DecodeError(f"order {n} exceeds {MAX_N}", offset=0)
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 7) // 8
    if len(key) != expected:
        raise DecodeError(f"key of length {len(key)}, expected {expected}", offset=len(key))
    pad = -nbits % 8
    if key[-1] & ((1 << pad) - 1):
        raise DecodeError("nonzero trailing padding bits", offset=len(key) - 1)
    return Graph(n, tuple(decode_keys([key])[0].tolist()))


def decode_keys(keys: Sequence[CanonKey]) -> np.ndarray:
    """The (keys x n) uint32 rows of the graphs ``decode_key`` rebuilds from
    keys of one order n ((0 x 0) for no keys): the sum over the key's body
    bytes of their ``key_tables`` entries.

    The keys are not validated: they must come from ``canonical_forms`` (or
    have passed ``decode_key``).
    """
    if not keys:
        return np.zeros((0, 0), dtype=np.uint32)
    n = keys[0][0]
    data = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
    return _apply_tables(key_tables(n), data, np.zeros((len(keys), n), dtype=np.uint32))
