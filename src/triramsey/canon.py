"""Canonical labeling for isomorphism rejection.

Key layout: byte 0 holds the order n, then ceil(n(n-1)/2 / 8) bytes hold the
row-major upper-triangular adjacency bits of the canonically relabeled graph,
most significant bit first, zero padded.  Two graphs get equal keys exactly
when they are isomorphic, and keys compare as plain byte strings, which gives
the total order used for deduplication and stable file output.  The key is
the whole class: ``decode_key`` rebuilds the canonically labeled
representative from it, so no relabeled graph is ever carried beside a key.

The labeling is found by equitable partition refinement plus backtracking
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
searches the rest from the root cells it already has.  ``canonical_form``
labels a batch of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DecodeError
from .graphs import MAX_N, Graph, adjacency_matrices, matrix_rows, upper_pairs

#: Total-order canonical encoding of a graph; byte-compare gives the order.
CanonKey = bytes


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


def _refine(qadj: list[int], partition: list[list[int]], fresh: list[int]) -> list[list[int]]:
    """Split cells by neighbor counts until stable, against fresh splitters only.

    ``fresh`` lists the cell masks, in partition order, whose counts may still
    differ inside a cell; the search passes the vertex it just
    individualized.  After a round, the members of each cell agree on their
    counts into every cell that existed when the round began, and the last
    piece of a split cell has the count the other pieces leave over.  So the
    next round counts only into the other pieces of the cells just split:
    within one cell that shorter tuple orders exactly as the full one, and
    the cells come out as the round-based refinement against every cell
    lists them.
    """
    while fresh:
        refined: list[list[int]] = []
        split: list[int] = []
        for cell in partition:
            if len(cell) == 1:
                refined.append(cell)
                continue
            # The count tuple packed six bits a count (counts stay below
            # MAX_N): integers of one length order as the tuples do.
            buckets: dict[int, list[int]] = {}
            for x in cell:
                row = qadj[x]
                sig = 0
                for m in fresh:
                    sig = sig << 6 | (row & m).bit_count()
                if sig in buckets:
                    buckets[sig].append(x)
                else:
                    buckets[sig] = [x]
            if len(buckets) == 1:
                refined.append(cell)
                continue
            pieces = [buckets[sig] for sig in sorted(buckets)]
            refined.extend(pieces)
            split.extend(_mask(piece) for piece in pieces[:-1])
        partition = refined
        fresh = split
    return partition


def _mask(cell: list[int]) -> int:
    m = 0
    for x in cell:
        m |= 1 << x
    return m


def _encode(n: int, rows: tuple[int, ...], order: list[int]) -> bytes:
    """Key of ``rows`` relabeled so that ``order[a]`` becomes vertex a."""
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


def _encode_rows(rows: np.ndarray, orders: np.ndarray) -> list[CanonKey]:
    """``_encode`` of every graph of a (graphs x n) row array at once: the key
    of ``rows[g]`` relabeled so that ``orders[g, a]`` becomes vertex a."""
    m, n = rows.shape
    matrices = np.take_along_axis(adjacency_matrices(rows), orders[:, :, None], axis=1)
    matrices = np.take_along_axis(matrices, orders[:, None, :], axis=2)
    body = np.packbits(matrices[:, upper_pairs(n)], axis=1)
    blob = np.hstack([np.full((m, 1), n, dtype=np.uint8), body]).tobytes()
    width = 1 + body.shape[1]
    return [blob[at:at + width] for at in range(0, len(blob), width)]


def canonical_form(g: Graph) -> CanonKey:
    """Relabeling-invariant key; equal keys <=> isomorphic graphs (``canonical_forms`` of one)."""
    return canonical_forms(np.array(g.adj, dtype=np.uint32).reshape(1, g.order))[0]


def canonical_forms(rows: np.ndarray) -> list[CanonKey]:
    """The key of every graph of a (graphs x n) uint32 row array.

    The root refinement runs for all graphs at once (``_root_cells``).  A
    graph whose root cells are its twin classes has a single leaf, so its
    key is that leaf's, encoded for all such graphs at once; every other
    graph is searched from its root cells (``_search``).
    """
    cells, leaf = _root_cells(rows)
    keys: list[CanonKey] = [b""] * len(rows)
    single = np.flatnonzero(leaf)
    # Cell by cell, each twin class in ascending vertex order, as the leaf lists them.
    orders = np.argsort(cells[single], axis=1, kind="stable")
    for g, key in zip(single.tolist(), _encode_rows(rows[single], orders)):
        keys[g] = key
    for g in np.flatnonzero(~leaf).tolist():
        keys[g] = _search(tuple(rows[g].tolist()), cells[g].tolist())
    return keys


def _search(rows: tuple[int, ...], cells: list[int]) -> CanonKey:
    """The smallest leaf key of the graph with adjacency ``rows``, searched
    on its twin quotient from the equitable root partition ``cells`` (each
    vertex's root cell, numbered in partition order, as ``_root_cells``
    gives them).  Each cell lists its classes by ascending first member.
    """
    n = len(rows)
    classes = twin_classes(Graph(n, rows))
    if len(classes) == n:
        qadj = list(rows)
    else:
        # Twins share their row, so a class is adjacent to r iff its
        # representative is.
        index = {cell[0]: c for c, cell in enumerate(classes)}
        rep_mask = 0
        for r in index:
            rep_mask |= 1 << r
        qadj = []
        for cell in classes:
            row = rows[cell[0]] & rep_mask
            qrow = 0
            while row:
                low = row & -row
                qrow |= 1 << index[low.bit_length() - 1]
                row ^= low
            qadj.append(qrow)

    root: list[list[int]] = [[] for _ in range(max(cells) + 1)]
    for c, cell in enumerate(classes):
        root[cells[cell[0]]].append(c)
    best_key: bytes | None = None

    def search(part: list[list[int]]) -> None:
        nonlocal best_key
        target = -1
        for ci, cell in enumerate(part):
            if len(cell) > 1:
                target = ci
                break
        if target < 0:
            order = [v for cell in part for v in classes[cell[0]]]
            key = _encode(n, rows, order)
            if best_key is None or key < best_key:
                best_key = key
            return
        cell = part[target]
        for x in cell:
            rest = [y for y in cell if y != x]
            trial = part[:target] + [[x], rest] + part[target + 1:]
            # ``part`` is equitable, so only the new singleton can split a cell.
            search(_refine(qadj, trial, [1 << x]))

    search(root)
    return best_key


def _root_cells(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root refinement for every graph of a (graphs x n) uint32 row
    array, in vertex space: each vertex's cell index (graphs x n, cells
    numbered in partition order), and whether the cells are exactly the twin
    classes.

    The root partition is the twin quotient's class-size partition, refined
    round by round, each round splitting every cell by its members' counts
    into every cell.  Twins share their row, so they never part, and every
    class in a cell has the same size; a vertex's count into a cell is that
    size times its class's count, which orders the members of a cell as the
    quotient's counts do.  So the rounds run here on the vertices: each
    splits every cell by the rank of (cell, counts into every cell), until a
    graph's round splits nothing or its cells are its classes.
    """
    m, n = rows.shape
    if not n:
        return np.zeros((m, 0), dtype=np.int64), np.ones(m, dtype=bool)
    twins = rows[:, :, None] == rows[:, None, :]
    # A vertex opens its class when its first twin is itself.
    classes = (twins.argmax(axis=2) == np.arange(n)).sum(axis=1)
    cells, count = _rank([twins.sum(axis=2)])
    width = n.bit_length()  # bits per packed field: cells and counts are below n
    active = np.flatnonzero(count < classes)
    while active.size:
        part, sub = cells[active], rows[active]
        masks = matrix_rows(part[:, None, :] == np.arange(count[active].max())[:, None])
        counts = [np.bitwise_count(sub & mask[:, None]) for mask in masks.T]
        refined, split = _rank(_pack([part] + counts, width))
        grew = split > count[active]
        cells[active] = refined
        count[active] = split
        active = active[grew & (split < classes[active])]
    return cells, count == classes


def _pack(fields: list[np.ndarray], width: int) -> list[np.ndarray]:
    """Per vertex, the (graphs x n) ``fields`` packed ``width`` bits each into
    uint64 words, most significant first, so that the words compare as the
    field tuples do."""
    per = 64 // width
    words = []
    for lo in range(0, len(fields), per):
        word = np.zeros(fields[0].shape, dtype=np.uint64)
        for at, field in enumerate(fields[lo:lo + per]):
            word |= field.astype(np.uint64) << np.uint64(width * (per - 1 - at))
        words.append(word)
    return words


def _rank(words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per graph (row), each vertex's rank among the graph's distinct keys,
    keys compared word by word, and the number of distinct keys."""
    order = np.lexsort(words[::-1], axis=1)
    new = np.zeros(order.shape, dtype=bool)
    for word in words:
        ranked = np.take_along_axis(word, order, axis=1)
        new[:, 1:] |= ranked[:, 1:] != ranked[:, :-1]
    ranks = np.cumsum(new, axis=1)
    out = np.empty_like(ranks)
    np.put_along_axis(out, order, ranks, axis=1)
    return out, ranks[:, -1] + 1


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
    return decode_keys([key])[0]


def decode_keys(keys: Sequence[CanonKey]) -> list[Graph]:
    """The graphs of keys of one order, each as ``decode_key`` rebuilds it.

    The keys are not validated: they must come from ``canonical_forms`` (or
    have passed ``decode_key``).
    """
    if not keys:
        return []
    n = keys[0][0]
    data = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
    matrices = np.zeros((len(keys), n, n), dtype=bool)
    matrices[:, upper_pairs(n)] = np.unpackbits(data[:, 1:], axis=1, count=n * (n - 1) // 2)
    matrices |= matrices.transpose(0, 2, 1)
    return [Graph(n, row) for row in map(tuple, matrix_rows(matrices).tolist())]
