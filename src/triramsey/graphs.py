"""Small undirected simple graphs over fixed-width adjacency bitmasks.

A graph of order ``n`` (``n <= MAX_N``) is stored as one adjacency row per
vertex, each row an int bitmask over vertex indices ``0..n-1``.  Vertex sets
everywhere in this package are plain int bitmasks of the same kind, so all
set algebra is single-word bit arithmetic.  Graphs are immutable values:
every operation returns a new ``Graph``.  Batches of graphs of one order
travel as (graphs x n) numpy arrays of rows; ``adjacency_matrices`` expands
them to bool matrices for the bit-sliced kernels.

Every codec between rows and bytes is table-driven: ``_bit_tables`` turns a
bit permutation into one lookup table per source byte, and a batch is then
encoded or decoded by one gather and one add per source byte
(``_apply_tables``; the entries set disjoint bits, so their sum is their
OR).  No byte layout is defined here: each layout's tables are built by the
module that encodes and validates it.
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
#: ``enumeration._subset_counts``, which finds the k-sparse sets of the task
#: filter and the resume check, the (graphs x n x n) adjacency matrices of a
#: chunk and the (levels x members x subsets x words) saturating counts and
#: (members x subsets x words) edge gathers of its uint64 edge planes; the
#: line blocks of a level file's writer; and the (graphs x n(n-1)/2)
#: gathers in which ``canon`` encodes leaves and the (graphs x n) uint64 keys
#: it sorts to rank.  ``_spans`` chunks the set, pair, graph and subset axes
#: to respect it.  One batch of graphs of order n is ``_BROADCAST_ELEMENTS // n**2`` of
#: them: ``enumeration.level_step`` cuts a level into tasks of at most one
#: batch of parents.
_BROADCAST_ELEMENTS = 1 << 16

#: Graphs are decoded and labeled ``_LABEL_BATCHES`` batches at a time
#: (``_label_spans``; 2,166 graphs at order 11): ``canon.canonical_forms``
#: runs some fifty numpy calls per refinement round whatever its width, so
#: at one batch a call most of its time was dispatch.  Its per-vertex
#: temporaries are one byte (cells, ranks, twin counts; the (graphs x n x n)
#: twin matrices are bool) and it encodes leaves one batch at a time, so a
#: call of four batches peaks little above one batch of 64-bit temporaries
#: (0.71 against 0.62 MB at order 11; 2.35 MB when only widened).
_LABEL_BATCHES = 4


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


def _spans(count: int, width: int, batches: int = 1) -> Iterator[slice]:
    """Consecutive slices of range(count), as few as hold at most as many
    items of ``width`` elements as ``batches`` times ``_BROADCAST_ELEMENTS``
    does (at least one), and of lengths that differ by at most one, so that
    no slice is a short remainder."""
    pieces = -(-count // max(1, batches * _BROADCAST_ELEMENTS // max(1, width)))
    return (slice(x * count // pieces, (x + 1) * count // pieces) for x in range(pieces))


def _label_spans(count: int, n: int) -> Iterator[slice]:
    """The ``_spans`` of ``count`` graphs of order n in which they are decoded
    and labeled: ``_LABEL_BATCHES`` batches of graphs each."""
    return _spans(count, n * n, _LABEL_BATCHES)


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


def _bit_tables(unit: np.ndarray, shift: np.ndarray, word: np.ndarray, bit: np.ndarray,
                unit_bits: int, dtype) -> tuple[tuple[int, int, np.ndarray], ...]:
    """The lookup tables of a bit permutation: source bit s, bit ``shift[s]``
    of the ``unit_bits``-bit source unit ``unit[s]``, sets bit ``bit[s]`` of
    target word ``word[s]``.  One (unit, first word, table) per unit that
    holds a source bit, in unit order: row x of the read-only table holds
    the target words from the first word on that the unit's value x sets, so
    that ``_apply_tables`` decodes the unit with one gather and one add over
    just those words.  No two source bits set the same target bit, so sums
    of entries are their ORs."""
    tables = []
    for u in sorted(set(unit.tolist())):  # np.unique would import numpy.ma, 1.6 MB
        at = np.flatnonzero(unit == u)
        first = int(word[at].min())
        places = np.zeros((unit_bits, int(word[at].max()) + 1 - first), dtype=dtype)
        masks = np.uint32(1) << bit[at].astype(np.uint32)
        places[shift[at], word[at] - first] = masks.astype(dtype)
        # Each pass appends the next lower bit of the unit's value to the index.
        table = np.zeros((1, places.shape[1]), dtype=dtype)
        for place in places[::-1]:
            table = np.stack([table, table + place], axis=1).reshape(-1, places.shape[1])
        table.flags.writeable = False
        tables.append((u, first, table))
    return tuple(tables)


def _apply_tables(tables: tuple[tuple[int, int, np.ndarray], ...], source: np.ndarray,
                  target: np.ndarray) -> np.ndarray:
    """Add into the (items x words) ``target`` the table entries of every
    item's (items x units) uint8 ``source`` units, and return it."""
    for unit, first, table in tables:
        target[:, first:first + table.shape[1]] += table.take(source[:, unit], axis=0)
    return target


def _row_sides(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair (a, b) sets bit b of row a and bit a of row b: the rows and the
    bits of both sides of pairs with a in ``first`` and b in ``second``, a's
    side first."""
    return np.concatenate([first, second]), np.concatenate([second, first])


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
