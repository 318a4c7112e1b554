"""k-sparse and k-dense vertex sets: predicates, exhaustive search, bounds.

A set is k-sparse when it induces a subgraph of maximum degree at most k
(0-sparse = independent).  A set is k-dense when every member is non-adjacent
to at most k of the others; equivalently, it is k-sparse in the complement.
Searches here are exhaustive branch-and-bound over bitmasks.  When several
witnesses exist, the one with the smallest bitmask is returned, so outputs
are reproducible.
"""

from __future__ import annotations

from .errors import ConstructionError
from .graphs import Graph, VertexSet, complement, is_triangle_free, set_members


def _check_subset(g: Graph, s: VertexSet) -> None:
    if s & ~g.full_mask():
        raise ConstructionError("vertex set has members outside the graph")


def is_k_sparse_set(g: Graph, s: VertexSet, k: int) -> bool:
    """True iff every vertex of s has at most k neighbors inside s."""
    _check_subset(g, s)
    adj = g.adj
    for v in set_members(s):
        if (adj[v] & s).bit_count() > k:
            return False
    return True


def is_k_dense_set(g: Graph, s: VertexSet, k: int) -> bool:
    """True iff every vertex of s misses at most k other vertices of s."""
    _check_subset(g, s)
    adj = g.adj
    threshold = s.bit_count() - 1 - k
    if threshold <= 0:
        return True
    for v in set_members(s):
        if (adj[v] & s).bit_count() < threshold:
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive search for a k-sparse set of an exact size.
#
# Vertices are decided from the highest index down, trying "exclude" before
# "include", so the first complete set found is the smallest bitmask.  The
# candidate mask only ever drops vertices that can never join the current
# partial set (their internal degree is already over k, or they neighbor a
# saturated chosen vertex), which is permanent because internal degrees only
# grow; the search is therefore complete.
# ---------------------------------------------------------------------------


def _narrow_candidates(adj: tuple[int, ...], k: int, chosen: int, cand: int, u: int) -> int:
    """Drop candidates made unjoinable by the addition of u to chosen."""
    if (adj[u] & chosen).bit_count() == k:
        cand &= ~adj[u]
    for w in set_members(adj[u] & chosen):
        if (adj[w] & chosen).bit_count() == k:
            cand &= ~adj[w]
    for x in set_members(cand & adj[u]):
        if (adj[x] & chosen).bit_count() > k:
            cand &= ~(1 << x)
    return cand


def _extend_smallest(adj: tuple[int, ...], k: int, chosen: int, cand: int, need: int):
    if cand.bit_count() < need:
        return None
    u = cand.bit_length() - 1
    bit = 1 << u
    # Exclude u first: completions without u have smaller bitmasks.
    found = _extend_smallest(adj, k, chosen, cand & ~bit, need)
    if found is not None:
        return found
    new_chosen = chosen | bit
    if need == 1:
        return new_chosen
    new_cand = _narrow_candidates(adj, k, new_chosen, cand & ~bit, u)
    return _extend_smallest(adj, k, new_chosen, new_cand, need - 1)


def _smallest_sparse_set(adj: tuple[int, ...], n: int, k: int, size: int,
                         v: int | None = None) -> int | None:
    """Smallest-bitmask k-sparse set of exactly ``size``, through ``v`` if given."""
    chosen = 0 if v is None else 1 << v
    have = chosen.bit_count()
    if size > n or have > size or (k < 0 and size > 0):
        return None
    if have == size:
        return chosen
    cand = (1 << n) - 1 & ~chosen
    if k == 0 and v is not None:  # a lone v is saturated only when k = 0
        cand &= ~adj[v]
    return _extend_smallest(adj, k, chosen, cand, size - have)


def has_k_sparse_set(g: Graph, k: int, j: int) -> VertexSet | None:
    """Search the whole graph for a k-sparse set of exactly size j."""
    return _smallest_sparse_set(g.adj, g.order, k, j)


def has_k_dense_set(g: Graph, k: int, i: int) -> VertexSet | None:
    """Search the whole graph for a k-dense set of exactly size i."""
    return _smallest_sparse_set(complement(g).adj, g.order, k, i)


def has_k_sparse_set_containing(g: Graph, v: int, k: int, j: int) -> VertexSet | None:
    """Like :func:`has_k_sparse_set` but only over sets containing v."""
    if v < 0 or v >= g.order:
        raise ConstructionError(f"vertex {v} outside the graph")
    return _smallest_sparse_set(g.adj, g.order, k, j, v)


def has_k_dense_set_containing(g: Graph, v: int, k: int, i: int) -> VertexSet | None:
    """Like :func:`has_k_dense_set` but only over sets containing v."""
    if v < 0 or v >= g.order:
        raise ConstructionError(f"vertex {v} outside the graph")
    return _smallest_sparse_set(complement(g).adj, g.order, k, i, v)


def alpha_k(g: Graph, k: int) -> tuple[int, VertexSet]:
    """Exact size of a largest k-sparse set, with the smallest-bitmask one.

    Every subset of a k-sparse set is k-sparse, so the sizes with a k-sparse
    set are exactly 0..alpha_k and the first size without one ends the scan.
    """
    size, witness = 0, 0
    while (found := _smallest_sparse_set(g.adj, g.order, k, size + 1)) is not None:
        size, witness = size + 1, found
    return size, witness


def sparse_bound_witness(g: Graph, k: int) -> VertexSet:
    """A k-sparse set of size >= ceil(n / ceil((max_degree+1)/(k+1))).

    Colors the vertices with c = ceil((max_degree+1)/(k+1)) colors and
    repeatedly recolors any vertex with k+1 or more same-colored neighbors
    to a color appearing at most k times in its neighborhood; the count of
    monochromatic edges strictly decreases, so this terminates.  The largest
    color class is then k-sparse.  Deterministic: start colors are v mod c,
    the lowest violating vertex and the lowest admissible color are chosen,
    and ties between largest classes go to the smallest bitmask.
    """
    if k < 0:
        raise ConstructionError(f"defect parameter {k} < 0")
    if g.order < 1:
        raise ConstructionError("graph must have at least one vertex")
    adj = g.adj
    c = -((g.max_degree() + 1) // -(k + 1))
    color = [v % c for v in range(g.order)]
    classes = [0] * c
    for v, col in enumerate(color):
        classes[col] |= 1 << v

    # Each recoloring removes at least one monochromatic edge.
    for _ in range(g.edge_count() + 1):
        violator = -1
        for v in range(g.order):
            if (adj[v] & classes[color[v]]).bit_count() >= k + 1:
                violator = v
                break
        if violator < 0:
            break
        row = adj[violator]
        for col in range(c):
            if col != color[violator] and (row & classes[col]).bit_count() <= k:
                classes[color[violator]] &= ~(1 << violator)
                classes[col] |= 1 << violator
                color[violator] = col
                break
        else:  # pragma: no cover - impossible while degrees stay <= max_degree
            raise RuntimeError("no admissible recoloring color found")
    else:  # pragma: no cover - contradicts the strict decrease argument
        raise RuntimeError("recoloring failed to terminate")

    return max(classes, key=lambda m: (m.bit_count(), -m))


def dense_cap_check(g: Graph, k: int) -> bool:
    """True iff the triangle-free graph g has no k-dense set of size 2k+3.

    Every triangle-free graph must pass; this is a cross-check of the dense
    predicate, not a filter.  Raises ValueError when g has a triangle.
    """
    if not is_triangle_free(g):
        raise ValueError("dense cap only applies to triangle-free graphs")
    return has_k_dense_set(g, k, 2 * k + 3) is None
