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
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DecodeError
from .graphs import MAX_N, Graph, graph_from_pair_bits

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


def _refine(qadj: list[int], partition: list[list[int]],
            fresh: list[int] | None = None) -> list[list[int]]:
    """Split cells by neighbor counts until stable, against fresh splitters only.

    ``fresh`` lists the cell masks, in partition order, whose counts may still
    differ inside a cell; ``None`` means every cell of ``partition``.  After a
    round, the members of each cell agree on their counts into every cell that
    existed when the round began, and the last piece of a split cell has the
    count the other pieces leave over.  So the next round counts only into
    the other pieces of the cells just split: within one cell that shorter
    tuple orders exactly as the full one, and the cells come out as the
    round-based refinement against every cell lists them.
    """
    if fresh is None:
        fresh = [_mask(cell) for cell in partition]
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


def canonical_form(g: Graph) -> CanonKey:
    """Relabeling-invariant key; equal keys <=> isomorphic graphs."""
    n = g.order
    classes = twin_classes(g)
    if len(classes) == n:
        qadj = list(g.adj)
    else:
        # Twins share their row, so a class is adjacent to r iff its
        # representative is.
        index = {cell[0]: c for c, cell in enumerate(classes)}
        rep_mask = 0
        for r in index:
            rep_mask |= 1 << r
        qadj = []
        for cell in classes:
            row = g.adj[cell[0]] & rep_mask
            qrow = 0
            while row:
                low = row & -row
                qrow |= 1 << index[low.bit_length() - 1]
                row ^= low
            qadj.append(qrow)

    sizes = sorted({len(cell) for cell in classes})
    partition = [[c for c in range(len(classes)) if len(classes[c]) == s] for s in sizes]

    rows = g.adj
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

    search(_refine(qadj, partition))
    return best_key


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
    bits = int.from_bytes(key[1:], "big")
    pad = -nbits % 8
    if bits & ((1 << pad) - 1):
        raise DecodeError("nonzero trailing padding bits", offset=len(key) - 1)
    return graph_from_pair_bits(n, bits >> pad, _key_pairs(n))


@lru_cache(maxsize=None)
def _key_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair of each unpadded key bit, least significant first."""
    return tuple(reversed([(a, b) for a in range(n) for b in range(a + 1, n)]))
