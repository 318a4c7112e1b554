"""Canonical labeling for isomorphism rejection.

Key layout: byte 0 holds the order n, then ceil(n(n-1)/2 / 8) bytes hold the
row-major upper-triangular adjacency bits of the canonically relabeled graph,
most significant bit first, zero padded: ``key_width(n)`` bytes in all.  Two
graphs get equal keys exactly when they are isomorphic, and keys compare as
plain byte strings, which gives the total order used for deduplication and
stable file output.  Keys of a batch travel as one (graphs x
``key_width(n)``) uint8 array, a key a row; zero padded to whole 8-byte
words, such rows read as big-endian uint64 words compare as the keys do, so
one ``np.lexsort`` over the words sorts them.  That trick has one home, this
module: ``canonical_forms`` keeps each graph's smallest leaf key with it,
and ``sorted_keys`` gives the distinct rows of any array of keys in key
order, which is how ``enumeration.level_step`` merges its tasks' children
and ``formats.read_level`` finds a repeated class.  A ``CanonKey``
(``bytes``) is one such row, from ``canonical_form`` or ``.tobytes()``.
The key is the whole class: ``decode_key`` rebuilds the canonically labeled
representative from it, so no relabeled graph is ever carried beside a key.  The layout has
one home, this module: ``_leaf_keys`` writes it, ``decode_key`` validates
it, and ``decode_keys`` gives the rows of an array of keys, adding one
``key_tables`` entry per key byte; a level's rows are decoded with it, once,
by ``enumeration.LevelSet.from_keys``.

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
graphs, and holds the only search loop: breadth first from the root
refinement of all of them, every open search node of every graph refined in
the same numpy rounds as the roots (``_refine_cells``), and the roots and
every refined batch of nodes passed through one step that encodes the
leaves and keeps the rest for the next round.  ``canonical_form`` labels a
batch of one.  Each step works on whole (graphs x n) arrays, never along a
short axis of n <= 32 where numpy's reductions, sorts and fancy indexing
pay their per-row cost: the twin classes are one column compare per vertex
into a uint32 twin mask (``_twins``); a round ranks each graph's vertices
by one in-place sort of uint64 keys tagged with their vertex, adds up the
ranks column by column and takes them back to the vertices by a second sort
of uint16 tags (``_rank``); a leaf's vertex order is one sort of uint16
cells tagged with their vertex, and its key bits are packed from bool
(``_leaf_keys``).  The per-vertex temporaries (cells, first twins, twin
counts, ranks) are uint8, as every such value is at most n <= MAX_N, so
that a call of a labeling batch (``graphs._label_spans``) holds little more
than one batch did in int64.
"""

from __future__ import annotations

from functools import lru_cache

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


def key_width(n: int) -> int:
    """The bytes of a key of order n: the order byte, then n(n-1)/2 bits
    eight a byte."""
    return 1 + (n * (n - 1) // 2 + 7) // 8


def _word_width(n: int) -> int:
    """The bytes of a key of order n zero padded to whole 8-byte words."""
    return -(-key_width(n) // 8) * 8


def sorted_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct rows of a (keys x ``key_width(n)``) uint8 array of keys
    of one order n, in key order, as a C-contiguous array: the keys zero
    padded to whole 8-byte words, sorted by one ``np.lexsort`` over the
    words read big-endian, with each row equal to the one before it
    dropped."""
    count, width = keys.shape
    words = np.zeros((count, -(-width // 8) * 8), dtype=np.uint8)
    words[:, :width] = keys
    words = words.view(">u8")
    words = words[np.lexsort(words.T[::-1])]
    distinct = np.ones(count, dtype=bool)
    distinct[1:] = (words[1:] != words[:-1]).any(axis=1)
    return words.view(np.uint8)[distinct, :width]


def canonical_form(g: Graph) -> CanonKey:
    """Relabeling-invariant key; equal keys <=> isomorphic graphs (``canonical_forms`` of one)."""
    return canonical_forms(row_array([g.adj], g.order))[0].tobytes()


def canonical_forms(rows: np.ndarray) -> np.ndarray:
    """The keys of every graph of a (graphs x n) uint32 row array, as one
    C-contiguous (graphs x ``key_width(n)``) uint8 array, a key a row: each
    graph's smallest leaf key, searched from its equitable root cells
    (``_root_cells``), the roots of all graphs at once.

    The search tree is walked breadth first, one level of every graph's
    tree at a time: the frontier holds every open node of every graph, as
    pieces of (graph, cells, cell count).  A round takes the frontier a
    labeling batch of nodes (``_label_spans``) at a time, individualizes
    each node (``_individualize``) and refines the children together
    (``_refine_cells``), again a labeling batch at a time.  The roots, and
    the refined children of each batch of nodes, go through one step: a
    node whose cells are its twin classes is a leaf, encoded (``_leaf_keys``)
    and kept if it is its graph's smallest key so far; the others are one
    piece of the next frontier.  A root leaf is its graph's only leaf, and
    its key is written as it is; the leaves of a later step and the keys
    their graphs hold so far are sorted together by (graph, key) with one
    ``np.lexsort`` over the keys' big-endian 8-byte words, and each graph
    keeps the first.  So no leaf is held in the frontier, and no temporary
    of a round grows with the frontier, which a graph with a large
    automorphism group makes far wider than a batch.  The smallest key over
    all leaves does not depend on the order in which they are visited.
    """
    m, n = rows.shape
    cells, first, count, classes = _root_cells(rows)
    leaf = count == classes
    # Keys are held zero padded to whole words; a graph with no leaf yet
    # holds the largest row.
    keys = np.full((m, _word_width(n)), 255, dtype=np.uint8)
    keys[leaf] = _leaf_keys(rows[leaf], cells[leaf])
    frontier = [(np.flatnonzero(~leaf), cells[~leaf], count[~leaf])] if not leaf.all() else []

    def step(graph: np.ndarray, cells: np.ndarray, count: np.ndarray) -> None:
        leaf = count == classes[graph]
        if leaf.any():
            # Each leaf's key beside its graph's key so far: sorted by (graph,
            # key), a graph's first row is its smallest.
            found = graph[leaf]
            owner = np.concatenate([found, found])
            held = np.concatenate([keys[found], _leaf_keys(rows[found], cells[leaf])])
            order = np.lexsort((*held.view(">u8").T[::-1], owner))
            owner = owner[order]
            opens = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
            keys[owner[opens]] = held[order[opens]]
        if not leaf.all():
            frontier.append((graph[~leaf], cells[~leaf], count[~leaf]))

    while frontier:
        opened, frontier = frontier, []
        for graph, cells, count in opened:
            for span in _label_spans(graph.size, n):
                parent, children = _individualize(cells[span], first[graph[span]])
                child, below = graph[span][parent], count[span][parent] + 1
                for at in _label_spans(child.size, n):
                    _refine_cells(rows[child[at]], children[at], below[at], classes[child[at]])
                step(child, children, below)
    return np.ascontiguousarray(keys[:, :key_width(n)])


def _leaf_keys(rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The keys of the leaves, as a (leaves x ``_word_width(n)``) uint8
    array, a key a row, zero padded to whole 8-byte words: ``rows[x]``
    relabeled cell by cell of ``cells[x]``, each twin class in ascending
    vertex order.  Leaves are encoded one batch (``_spans``) at a time,
    which keeps the gathers as small inside a wide labeling batch as in one
    batch."""
    m, n = rows.shape
    first, second = upper_pairs(n)
    width = key_width(n)
    keys = np.zeros((m, _word_width(n)), dtype=np.uint8)
    keys[:, 0] = n
    for at in _spans(m, n * n):
        # Each vertex tagged with its cell above it, so that one sort of the
        # tags orders the vertices by cell and, within a cell, by vertex.
        tags = cells[at].astype(np.uint16) << np.uint16(8)
        tags |= np.arange(n, dtype=np.uint16)
        tags.sort(axis=1)
        orders = tags.astype(np.uint8)
        # Vertex a of leaf x is orders[x, a]; pair (a, b) is an edge when its
        # row holds orders[x, b]: one (leaves x pairs) array, masked in place.
        bits = np.take_along_axis(rows[at], orders, axis=1)[:, first]
        bits >>= orders[:, second]
        bits &= np.uint32(1)
        keys[at, 1:width] = np.packbits(bits.astype(bool), axis=1)
    return keys


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


def _root_cells(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The root refinement for every graph of a (graphs x n) uint32 row
    array, in vertex space: each vertex's cell index (graphs x n uint8,
    cells numbered in partition order), each vertex's first twin (graphs x n
    uint8), and the number of cells and of twin classes of each graph
    (uint8).

    The root partition is the twin quotient's class-size partition, refined
    by ``_refine_cells``.
    """
    m, n = rows.shape
    if not n:
        empty, zero = np.zeros((m, 0), dtype=np.uint8), np.zeros(m, dtype=np.uint8)
        return empty, empty, zero, zero
    first, sizes = _twins(rows)
    # A vertex opens its class when its first twin is itself.
    classes = (first == np.arange(n, dtype=np.uint8)).view(np.uint8).sum(axis=1, dtype=np.uint8)
    cells, count = _refine_cells(rows, *_rank(sizes.astype(np.uint64)), classes)
    return cells, first, count, classes


def _twins(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's first twin and the size of its twin class, for every
    graph of a (graphs x n) uint32 row array (two (graphs x n) uint8
    arrays).

    One column compare per vertex u sets bit u of the twin mask of every
    vertex that shares u's row: the mask's lowest bit is the vertex's first
    twin, and its count the class's size.
    """
    m, n = rows.shape
    twins = np.zeros((m, n), dtype=np.uint32)
    for u in range(n):
        twins |= (rows == rows[:, u, None]).astype(np.uint32) << np.uint32(u)
    first = np.bitwise_count(twins ^ (twins - np.uint32(1)))
    first -= np.uint8(1)
    return first, np.bitwise_count(twins)


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
    in place, so that one sort gives both the keys' order and the vertex of
    each place in it; a second sort, of uint16 tags, takes the ranks from
    places back to vertices.
    """
    m, n = keys.shape
    keys <<= np.uint64(64 - _KEY_BITS)
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    # Each place's vertex, tagged with the place's rank below it: sorted, the
    # tags are in vertex order, so their low bytes are the vertices' ranks.
    tags = keys.astype(np.uint16)
    tags &= np.uint16(31)
    tags <<= np.uint16(8)
    keys >>= np.uint64(64 - _KEY_BITS)
    # A place opens a key when it differs from the one before it (compared
    # along the flat rows, which takes no buffer, and the first column is
    # then cleared); its rank is the number of opens up to it, added up
    # column by column.
    place = np.empty((m, n), dtype=np.uint8)
    flat = keys.reshape(-1)
    np.not_equal(flat[1:], flat[:-1], out=place.reshape(-1)[1:].view(bool))
    place[:, 0] = 0
    for column in range(1, n):
        place[:, column] += place[:, column - 1]
    tags |= place
    tags.sort(axis=1)
    return tags.astype(np.uint8), place[:, -1] + np.uint8(1)


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
    rows = decode_keys(np.frombuffer(key, dtype=np.uint8).reshape(1, -1))
    return Graph(n, tuple(rows[0].tolist()))


def decode_keys(keys: np.ndarray) -> np.ndarray:
    """The (keys x n) uint32 rows of the graphs ``decode_key`` rebuilds from
    keys of one order n, a (keys x ``key_width(n)``) uint8 array, a key a
    row ((0 x 0) for no keys): the sum over the key's body bytes of their
    ``key_tables`` entries.

    The keys are not validated: they must come from ``canonical_forms`` (or
    have passed ``decode_key``).
    """
    if not len(keys):
        return np.zeros((0, 0), dtype=np.uint32)
    n = int(keys[0, 0])
    return _apply_tables(key_tables(n), keys, np.zeros((len(keys), n), dtype=np.uint32))
