"""Small undirected simple graphs over fixed-width adjacency bitmasks.

A graph of order ``n`` (``n <= MAX_N``) is stored as one adjacency row per
vertex, each row an int bitmask over vertex indices ``0..n-1``.  Vertex sets
everywhere in this package are plain int bitmasks of the same kind, so all
set algebra is single-word bit arithmetic.  Graphs are immutable values:
every operation returns a new ``Graph``.  Batches of graphs of one order
travel as (graphs x n) numpy arrays of rows; ``adjacency_matrices`` and
``matrix_rows`` convert them to and from bool matrices for the codecs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, ConstructionError

#: Hard capacity: adjacency rows fit one 32-bit word (the search never needs
#: more; level enumeration runs out of memory long before order 32).
MAX_N = 32

#: A set of vertices encoded as an int bitmask (bit v <=> vertex v present).
VertexSet = int

#: Upper bound on the elements of one numpy temporary in the batch paths: the
#: (sets x n) counts and the (set, sparse set) pairs of a level-step task; in
#: ``enumeration.first_nonmember``, the (graphs x n x n) adjacency matrices of a
#: chunk and the (levels x members x subsets x words) saturating counts and
#: (members x subsets x words) edge gathers of its uint64 edge planes; and the
#: (graphs x n x n) temporaries in which levels are decoded, labeled and
#: encoded and in which ``canon.canonical_forms`` refines its search nodes.
#: The set, pair, graph, node and subset axes are chunked to respect it.
_BROADCAST_ELEMENTS = 1 << 16


def vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Build a bitmask from an iterable of vertex indices."""
    mask = 0
    for v in vertices:
        if v < 0 or v >= MAX_N:
            raise ConstructionError(f"vertex {v} outside 0..{MAX_N - 1}")
        mask |= 1 << v
    return mask


def set_members(mask: VertexSet) -> Iterator[int]:
    """Iterate the vertex indices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ``adj[u]`` is the neighbor bitmask of ``u``."""

    order: int
    adj: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in ascending order."""
        out = []
        for u in range(self.order):
            rest = self.adj[u] >> (u + 1)
            for w in set_members(rest):
                out.append((u, u + 1 + w))
        return out

    def full_mask(self) -> VertexSet:
        return (1 << self.order) - 1


def validate_graph(g: Graph) -> None:
    """Check the structural invariants; raise ConstructionError on violation.

    Used by tests after every mutation path; construction helpers below
    produce valid graphs without paying for this on the hot path.
    """
    if g.order < 0 or g.order > MAX_N:
        raise ConstructionError(f"order {g.order} outside 0..{MAX_N}")
    if len(g.adj) != g.order:
        raise ConstructionError("adjacency row count differs from order")
    full = (1 << g.order) - 1
    for u, row in enumerate(g.adj):
        if row & ~full:
            raise ConstructionError(f"row {u} has bits at positions >= order")
        if row >> u & 1:
            raise ConstructionError(f"loop at vertex {u}")
        for v in set_members(row):
            if not g.adj[v] >> u & 1:
                raise ConstructionError(f"asymmetric edge ({u}, {v})")


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, applying symmetric closure.

    Rejects loops and out-of-range endpoints, naming the offending pair.
    """
    if order < 0 or order > MAX_N:
        raise CapacityError(f"order {order} outside 0..{MAX_N}")
    rows = [0] * order
    for u, v in edges:
        if u == v:
            raise ConstructionError(f"loop edge ({u}, {v}) rejected")
        if not (0 <= u < order and 0 <= v < order):
            raise ConstructionError(f"edge ({u}, {v}) has endpoint outside 0..{order - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def _graphs_per_chunk(n: int) -> int:
    """How many graphs of order n one chunk takes, so that a (graphs x n x n)
    temporary stays within ``_BROADCAST_ELEMENTS``."""
    return max(1, _BROADCAST_ELEMENTS // max(1, n * n))


def row_array(adjacency: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """The (graphs x n) uint32 row array of the adjacency rows of graphs of
    order n (``Graph.adj`` each)."""
    return np.array(adjacency, dtype=np.uint32).reshape(len(adjacency), n)


def adjacency_matrices(rows: np.ndarray) -> np.ndarray:
    """The (graphs x n x n) bool adjacency matrices of a (graphs x n) array of
    unsigned adjacency rows (n <= 64)."""
    m, n = rows.shape
    octets = rows.astype("<u8").view(np.uint8).reshape(m, n, 8)
    return np.unpackbits(octets, axis=2, count=n, bitorder="little").view(bool)


def matrix_rows(matrices: np.ndarray) -> np.ndarray:
    """The (graphs x rows) uint64 bitmasks of the rows of (graphs x rows x n)
    bool matrices (n <= 64); ``adjacency_matrices`` inverted."""
    m, count, n = matrices.shape
    octets = np.zeros((m, count, 8), dtype=np.uint8)
    octets[:, :, :(n + 7) // 8] = np.packbits(matrices, axis=2, bitorder="little")
    return octets.view("<u8")[:, :, 0].astype(np.uint64)


def upper_pairs(n: int) -> np.ndarray:
    """The (n x n) bool mask of the vertex pairs a < b; indexing the last two
    axes with it lists them by a, then by b."""
    vertices = np.arange(n)
    return vertices[:, None] < vertices


def empty_graph(order: int) -> Graph:
    return build_graph(order, ())


def single_vertex() -> Graph:
    """K1, the seed of every level enumeration."""
    return Graph(1, (0,))


def find_triangle(g: Graph) -> VertexSet | None:
    """The first triangle u < w with lowest common neighbor x, as a mask, or None."""
    adj = g.adj
    for u in range(g.order):
        row = adj[u]
        # Only look at neighbors above u; a common neighbor closes a triangle.
        rest = row >> (u + 1)
        base = u + 1
        while rest:
            low = rest & -rest
            w = base + low.bit_length() - 1
            common = row & adj[w]
            if common:
                x = (common & -common).bit_length() - 1
                return (1 << u) | (1 << w) | (1 << x)
            rest ^= low
    return None


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    return find_triangle(g) is None


def independent_set_masks(g: Graph) -> list[VertexSet]:
    """All independent sets (including the empty set), ascending bitmask order.

    Iterative doubling over the vertices: after vertex v is processed the
    list holds every independent subset of {0..v}.
    """
    sets = [0]
    for v, row in enumerate(g.adj):
        bit = 1 << v
        sets.extend([s | bit for s in sets if not row & s])
    return sets


def add_vertex(g: Graph, s: VertexSet) -> Graph:
    """Adjoin one new vertex (index = old order) adjacent exactly to ``s``."""
    if g.order >= MAX_N:
        raise CapacityError(f"cannot grow past {MAX_N} vertices")
    if s & ~g.full_mask():
        raise ConstructionError("attachment set contains vertices outside the graph")
    bit = 1 << g.order
    rows = [row | bit if s >> u & 1 else row for u, row in enumerate(g.adj)]
    rows.append(s)
    return Graph(g.order + 1, tuple(rows))


def induced_subgraph(g: Graph, s: VertexSet) -> Graph:
    """Subgraph induced by ``s``, relabeled 0..|s|-1 in ascending old index."""
    if s & ~g.full_mask():
        raise ConstructionError("subgraph set contains vertices outside the graph")
    keep = list(set_members(s))
    position = {v: p for p, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for w in set_members(g.adj[v] & s):
            row |= 1 << position[w]
        rows.append(row)
    return Graph(len(keep), tuple(rows))


def permute(g: Graph, pi: Iterable[int]) -> Graph:
    """Relabel: vertex u becomes pi[u].  ``pi`` must be a bijection."""
    perm = list(pi)
    if sorted(perm) != list(range(g.order)):
        raise ConstructionError(f"not a permutation of 0..{g.order - 1}: {perm}")
    rows = [0] * g.order
    for u, row in enumerate(g.adj):
        new_row = 0
        for v in set_members(row):
            new_row |= 1 << perm[v]
        rows[perm[u]] = new_row
    return Graph(g.order, tuple(rows))


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    rows = tuple(full & ~row & ~(1 << u) for u, row in enumerate(g.adj))
    return Graph(g.order, rows)


def complete_bipartite(p: int, l: int) -> Graph:
    """K_{p,l}: part A = vertices 0..p-1, part B = p..p+l-1."""
    if p < 0 or l < 0:
        raise ConstructionError("part sizes must be non-negative")
    if p + l > MAX_N:
        raise CapacityError(f"K_{{{p},{l}}} exceeds {MAX_N} vertices")
    mask_a = (1 << p) - 1
    mask_b = ((1 << (p + l)) - 1) ^ mask_a
    rows = tuple(mask_b if v < p else mask_a for v in range(p + l))
    return Graph(p + l, rows)


def cycle(n: int) -> Graph:
    """C_n on vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise ConstructionError(f"cycle length {n} < 3")
    if n > MAX_N:
        raise CapacityError(f"C_{n} exceeds {MAX_N} vertices")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    """P_n on vertices 0..n-1 in path order."""
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def blow_up(g: Graph, t: int) -> Graph:
    """Lexicographic product of ``g`` with an empty graph on ``t`` vertices.

    Vertex v of g becomes the independent set {v*t .. v*t+t-1}; two such
    sets are fully joined exactly when the original vertices were adjacent.
    """
    if t < 1:
        raise ConstructionError(f"multiplicity {t} < 1")
    if t * g.order > MAX_N:
        raise CapacityError(f"blow-up order {t * g.order} exceeds {MAX_N}")
    group = (1 << t) - 1
    expanded = []
    for row in g.adj:
        wide = 0
        for w in set_members(row):
            wide |= group << (w * t)
        expanded.append(wide)
    rows = []
    for v in range(g.order):
        rows.extend([expanded[v]] * t)
    return Graph(t * g.order, tuple(rows))
