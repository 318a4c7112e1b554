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
wins.  The leaves that reach that key differ exactly by automorphisms, which
``orbit_representatives`` uses to keep one vertex set per Aut(g)-orbit.
"""

from __future__ import annotations

from .errors import DecodeError
from .graphs import MAX_N, Graph, VertexSet

#: Total-order canonical encoding of a graph; byte-compare gives the order.
CanonKey = bytes


def _twin_classes(g: Graph) -> list[list[int]]:
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


def _refine(qadj: list[int], partition: list[list[int]]) -> list[list[int]]:
    """Split cells by neighbor counts into every cell until stable."""
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


def _encode(n: int, rows: tuple[int, ...], order: list[int]) -> bytes:
    bits = 0
    for a in range(n):
        row = rows[order[a]]
        for b in range(a + 1, n):
            bits = bits << 1 | row >> order[b] & 1
    nbits = n * (n - 1) // 2
    bits <<= -nbits % 8
    return bytes([n]) + bits.to_bytes((nbits + 7) // 8, "big")


def _search(g: Graph, classes: list[list[int]]) -> tuple[CanonKey, list[list[int]]]:
    """The minimum key over the search leaves, with every leaf order reaching it.

    A leaf order lists the vertices class by class, each twin class in
    ascending order.  Two leaves with the minimum key encode the same labeled
    graph, so the position-by-position map between their orders is an
    automorphism of g sending each twin class onto a twin class member by
    member.  The search tree is invariant under such automorphisms, so the
    maps from the first minimum leaf to all of them are every such
    automorphism, each once.
    """
    n = g.order
    reps = [cell[0] for cell in classes]
    qadj = []
    for r in reps:
        row = 0
        for b, rb in enumerate(reps):
            if g.adj[r] >> rb & 1:
                row |= 1 << b
        qadj.append(row)

    sizes = sorted({len(cell) for cell in classes})
    partition = [[c for c in range(len(classes)) if len(classes[c]) == s] for s in sizes]

    rows = g.adj
    best_key: bytes | None = None
    best_orders: list[list[int]] = []

    def search(part: list[list[int]]) -> None:
        nonlocal best_key, best_orders
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
                best_orders = [order]
            elif key == best_key:
                best_orders.append(order)
            return
        cell = part[target]
        for x in cell:
            rest = [y for y in cell if y != x]
            trial = part[:target] + [[x], rest] + part[target + 1:]
            search(_refine(qadj, trial))

    search(_refine(qadj, partition))
    return best_key, best_orders


def canonical_form(g: Graph) -> CanonKey:
    """Relabeling-invariant key; equal keys <=> isomorphic graphs."""
    return _search(g, _twin_classes(g))[0]


def _automorphisms(g: Graph, classes: list[list[int]]) -> list[list[int]]:
    """The automorphisms of g other than the identity that map each twin class
    onto a twin class member by member, as lists of vertex images."""
    _, orders = _search(g, classes)
    maps = []
    for order in orders[1:]:
        image = [0] * g.order
        for u, w in zip(orders[0], order):
            image[u] = w
        maps.append(image)
    return maps


def orbit_representatives(g: Graph, sets: list[VertexSet]) -> list[VertexSet]:
    """The first set of each Aut(g)-orbit among the vertex masks ``sets``, in list order.

    Twins are interchangeable, so a set is first normalized to the lowest
    members of each twin class it meets; the orbit of a normalized set is
    then its images under the automorphisms from the canonical search.  On
    an ascending list this keeps the lowest mask of every orbit.
    """
    classes = _twin_classes(g)
    maps = _automorphisms(g, classes)
    prefixes = []
    for cell in classes:
        if len(cell) > 1:
            masks = [0]
            for v in cell:
                masks.append(masks[-1] | 1 << v)
            prefixes.append((masks[-1], masks))

    seen: set[VertexSet] = set()
    kept = []
    for s in sets:
        t = s
        for members, masks in prefixes:
            inside = s & members
            if inside:
                t ^= inside ^ masks[inside.bit_count()]
        if t in seen:
            continue
        kept.append(s)
        seen.add(t)
        for image in maps:
            moved = 0
            rest = t
            while rest:
                low = rest & -rest
                moved |= 1 << image[low.bit_length() - 1]
                rest ^= low
            seen.add(moved)
    return kept


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
    bits >>= pad
    rows = [0] * n
    position = nbits - 1
    for a in range(n):
        for b in range(a + 1, n):
            if bits >> position & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
            position -= 1
    return Graph(n, tuple(rows))
