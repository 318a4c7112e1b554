"""Level-by-level enumeration of sub-extremal triangle-free graphs.

A level holds, per isomorphism class, one triangle-free graph of a fixed
order with no k-sparse j-set and (in R mode) no k-dense i-set.  The step to
the next order attaches a new vertex to independent sets of every member
(which preserves triangle-freeness by construction), only where the new
vertex maximizes the isomorphism invariant (degree, neighbour-degree sum) in
the child and only to one set per twin-class count pattern, keeps a child
only when no forbidden set passes through the new vertex, and deduplicates
by canonical key.  Neither rule loses a class (``surviving_extension_sets``
gives the argument): pick a vertex w of a next-level class G' that
maximizes the pair; an isomorphism p maps G' - w onto a stored parent P,
and P + p(N(w)) is G' with w as the new vertex; moving that set to its
twin-prefix form is an automorphism of P, so it keeps every vertex's pair.
Members are stored canonically labeled and sorted by key, so levels are
byte-stable regardless of worker count or merge order: a child travels as
its key alone, and each class is decoded once from it.  A step cuts its
parents into runs of consecutive parents, one task each.

A task is one array pipeline over the (parents x n) row array of its run
(``_attachment_sets``): the independent sets of every parent, built by
doubling over the vertices with rule (b) applied on the way, rule (a), and
the forbidden-set filter come out as flat arrays of sets, each tagged with
the parent it belongs to.  The filter lists each parent's k-sparse
(j-1)-sets, grown one vertex at a time so that only k-sparse sets are ever
extended, together with their members whose internal degree is already k,
and joins every attachment set with its own parent's sets only.  The
children's rows are then built from the parents' rows and labeled with
``canonical_forms`` a chunk at a time, so one numpy batch spans many
parents.  Masks cover the parent's vertices only (< 2**MAX_N), so int64
arithmetic never overflows, and every temporary is chunked to stay within
``graphs._BROADCAST_ELEMENTS`` elements.

A resumed level is re-checked in full by ``first_nonmember``, 64 graphs of
one order per machine word of bit-sliced edge planes, with a saturating
count per member of every j-subset (and i-subset of the complement).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, count, islice
from typing import Iterable, Iterator

import numpy as np

from .canon import CanonKey, canonical_forms, canonical_graph, decode_keys
from .defect import (
    has_k_dense_set,
    has_k_dense_set_containing,
    has_k_sparse_set,
    has_k_sparse_set_containing,
)
from . import graphs as graph_module
from .errors import ConstructionError
from .graphs import (
    Graph,
    VertexSet,
    _graphs_per_chunk,
    add_vertex,
    adjacency_matrices,
    find_triangle,
    row_array,
    single_vertex,
)

#: How many consecutive parents make one ``level_step`` task.  A task's
#: attachment sets are found and its children labeled together, so its
#: batches span parents; the number of tasks grows with the level, whatever
#: the worker count.
_TASK_PARENTS = 32


@dataclass(frozen=True)
class ProblemSpec:
    """Search parameters: defect k, sparse size j, optional dense size i.

    ``i`` present selects R mode (both forbidden sets); absent selects
    T mode (sparse sets only).  The interesting regime has i, j >= k+2,
    but smaller j (down to 2) is accepted: for j <= k+1 every j-set is
    k-sparse and the search just bottoms out early.
    """

    k: int
    j: int
    i: int | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ConstructionError(f"defect parameter k={self.k} < 0")
        if self.j < 2:
            raise ConstructionError(f"sparse set size j={self.j} < 2")
        if self.i is not None and self.i < 2:
            raise ConstructionError(f"dense set size i={self.i} < 2")

    @property
    def mode(self) -> str:
        return "T" if self.i is None else "R"


@dataclass(frozen=True)
class LevelSet:
    """One enumeration level: key-unique members of a common order."""

    order: int
    members: tuple[tuple[CanonKey, Graph], ...]

    def __len__(self) -> int:
        return len(self.members)

    def graphs(self) -> list[Graph]:
        return [g for _, g in self.members]


class LevelCardinalityExceeded(Exception):
    """Raised when a level outgrows the configured memory guard."""

    def __init__(self, order: int, limit: int):
        super().__init__(f"level at order {order} exceeds cardinality limit {limit}")
        self.order = order
        self.limit = limit


def verify_membership(g: Graph, spec: ProblemSpec) -> bool:
    """Full unrestricted check that g belongs to the level of its order.

    Used to validate external inputs; resumed checkpoints go through the
    batched ``first_nonmember``, which tests pin to this check.  The search
    itself only ever tests sets through the newly added vertex.
    """
    return find_forbidden_set(g, spec) is None


def find_forbidden_set(g: Graph, spec: ProblemSpec):
    """Why g fails membership: ("triangle"|"sparse"|"dense", mask), or None."""
    triangle = find_triangle(g)
    if triangle is not None:
        return "triangle", triangle
    sparse = has_k_sparse_set(g, spec.k, spec.j)
    if sparse is not None:
        return "sparse", sparse
    if spec.i is not None:
        dense = has_k_dense_set(g, spec.k, spec.i)
        if dense is not None:
            return "dense", dense
    return None


def initial_level(spec: ProblemSpec) -> LevelSet:
    """The order-1 level: K1 (always a member, since ``ProblemSpec`` has j, i >= 2)."""
    return LevelSet(1, (canonical_graph(single_vertex()),))


@lru_cache(maxsize=64)
def _subset_table(n: int, size: int) -> np.ndarray:
    """Every ``size``-subset of range(n), in ``combinations`` order, as the
    (size x subsets) uint8 table of its members, one column each (read-only,
    shared)."""
    combos = list(combinations(range(n), size))
    members = np.array(list(zip(*combos)), dtype=np.uint8).reshape(size, len(combos))
    members.flags.writeable = False
    return members


def _lanes_with_sparse_set(planes: np.ndarray, k: int, size: int) -> np.ndarray:
    """The lanes of (n x n x words) edge planes whose graph has a k-sparse
    ``size``-set: a subset none of whose members has more than k neighbours
    in it.  Per subset (a column of ``_subset_table``) and member, the count
    of its neighbours in the subset is kept saturated at k + 1 as bit planes,
    ``levels[c]`` = "more than c so far"; round r adds, at every member
    position, the edge to the member r positions on, cyclically."""
    n, _, words = planes.shape
    flat = planes.reshape(n * n, words)
    members = _subset_table(n, size)
    k = min(k, size - 1)  # no member has more than size - 1 neighbours in its subset
    found = np.zeros(words, dtype=planes.dtype)
    for span in _spans(members.shape[1], (k + 1) * size * words):
        pairs = members[:, span] * np.intp(n)
        partners = np.concatenate((members[:, span],) * 2)
        levels = np.zeros((k + 1,) + pairs.shape + (words,), dtype=planes.dtype)
        for r in range(1, size):
            edge = np.take(flat, pairs + partners[r:r + size], axis=0)
            for c in range(min(k, r - 1), 0, -1):
                levels[c] |= levels[c - 1] & edge
            levels[0] |= edge
        found |= np.bitwise_or.reduce(~np.bitwise_or.reduce(levels[k], axis=0), axis=0)
    return found


def first_nonmember(graphs: Iterable[Graph], spec: ProblemSpec) -> int | None:
    """Index of the first of ``graphs``, all of one order, that fails
    membership, or None when every one passes.

    The verdicts are ``verify_membership``'s, reached without witnesses for
    64 graphs per machine word: bit g of edge plane ``planes[u, v, w]`` is
    edge uv of graph 64 w + g of a chunk.  ``_lanes_with_sparse_set`` finds
    k-sparse j-sets, k-dense i-sets in the complement planes, and triangles
    as 0-sparse 3-sets of the complement.  Lanes past the last graph (empty
    graphs) are masked; chunks of graphs and of subsets keep each temporary
    within ``graphs._BROADCAST_ELEMENTS`` elements.
    """
    graphs = iter(graphs)
    first = next(graphs, None)
    if first is None:
        return None
    n = first.order
    step = _graphs_per_chunk(n)
    graphs = chain([first], graphs)
    for lo in count(0, step):
        chunk = list(islice(graphs, step))
        if not chunk:
            return None
        matrices = adjacency_matrices(row_array([g.adj for g in chunk], n)).transpose(1, 2, 0)
        planes = np.zeros((n, n, -(-len(chunk) // 64)), dtype="<u8")
        planes.view(np.uint8)[:, :, :-(-len(chunk) // 8)] = np.packbits(
            np.ascontiguousarray(matrices), axis=2, bitorder="little")
        complement = ~planes
        complement[range(n), range(n)] = 0
        bad = _lanes_with_sparse_set(complement, 0, 3)
        bad |= _lanes_with_sparse_set(planes, spec.k, spec.j)
        if spec.i is not None:
            bad |= _lanes_with_sparse_set(complement, spec.k, spec.i)
        lanes = np.unpackbits(bad.view(np.uint8), count=len(chunk), bitorder="little")
        if lanes.any():
            return lo + int(lanes.argmax())


def _spans(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each of as many items of ``width``
    elements as ``graphs._BROADCAST_ELEMENTS`` holds (at least one)."""
    step = max(1, graph_module._BROADCAST_ELEMENTS // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _sparse_sets(rows: np.ndarray, k: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every k-sparse ``size``-set T of every graph of a (graphs x n) uint32
    row array, with its saturated members (those whose degree inside T is
    already k): flat arrays of owners (row indices), sets and saturated
    masks, sorted by owner.

    The sets are grown one vertex at a time, each by the vertices above its
    highest member that leave enough vertices above them to reach ``size``
    members.  T + v is k-sparse exactly when T is, v has at most k
    neighbours in T and none of them is saturated, so only k-sparse sets are
    ever extended.  Each set carries its members' degrees inside it as bit
    planes (plane b holds bit b of every member's degree), so that adding v
    is a binary increment of the members it sees and no (sets x n) count is
    taken.
    """
    m, n = rows.shape
    flat = rows.ravel()
    bits = np.uint32(1) << np.arange(n, dtype=np.uint32)
    depth = k.bit_length()
    starts = max(0, n - size + 1)
    # One column per set: owner, highest member, members, saturated members, planes.
    table = np.zeros((4 + depth, m * starts), dtype=np.uint32)
    table[0] = np.repeat(np.arange(m), starts)
    table[1] = np.tile(np.arange(starts), m)
    table[2] = bits[table[1]]
    if k == 0:
        table[3] = table[2]
    for members in range(1, size):
        grown = [table[:, :0]]
        # A set has at most n candidates; only those that pass are copied.
        for span in _spans(table.shape[1], n):
            top = table[1, span].astype(np.int64)
            counts = n - size + members - top
            source = np.repeat(np.arange(table.shape[1])[span], counts)
            # A set's candidates are the vertices top + 1, top + 2, ... in turn.
            vertex = np.arange(len(source)) - np.repeat(np.cumsum(counts) - counts - top - 1, counts)
            row = flat[table[0, source] * n + vertex]
            carry = row & table[2, source]
            degree = np.bitwise_count(carry)
            ok = ((row & table[3, source]) == 0) & (degree <= k)
            new = table[:, source[ok]]
            vertex, carry, degree = vertex[ok], carry[ok], degree[ok]
            bit = bits[vertex]
            new[1] = vertex
            new[2] |= bit
            new[3] = new[2]
            for b in range(depth):
                plane = new[4 + b]
                carry, new[4 + b] = plane & carry, plane ^ carry | bit * (degree >> b & 1)
                new[3] &= plane if k >> b & 1 else ~plane
            grown.append(new)
        table = np.concatenate(grown, axis=1)
    return table[0], table[2], table[3]


def _completes(rows: np.ndarray, owner: np.ndarray, sets: np.ndarray, k: int,
               size: int) -> np.ndarray:
    """True where a new vertex attached to ``sets[x]`` completes a k-sparse
    (size+1)-set through it in the graph ``rows[owner[x]]``.

    Such a set is the new vertex plus a k-sparse ``size``-set T of the
    parent, and attaching to s turns T into one exactly when s misses T's
    saturated members (none goes past degree k) and |s & T| <= k (the new
    vertex stays within degree k).  Each set meets only its own parent's
    sets T (``_sparse_sets``), in a flat join over (set, T) pairs taken a
    chunk of pairs at a time.
    """
    dead = np.zeros(len(sets), dtype=bool)
    if not len(sets):
        return dead
    table_owner, subsets, saturated = _sparse_sets(rows, k, size)
    bounds = np.searchsorted(table_owner, np.arange(len(rows) + 1))
    first, pairs = bounds[owner], bounds[owner + 1] - bounds[owner]
    ends = np.cumsum(pairs)
    total, step = int(ends[-1]), graph_module._BROADCAST_ELEMENTS
    for lo in range(0, total, step):
        pair = np.arange(lo, min(lo + step, total))
        x = np.searchsorted(ends, pair, side="right")
        t = first[x] + pair - (ends[x] - pairs[x])
        s = sets[x]
        hit = ((s & saturated[t]) == 0) & (np.bitwise_count(s & subsets[t]) <= k)
        dead[x[hit]] = True
    return dead


def _attachment_sets(rows: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The attachment sets that ``surviving_extension_sets`` returns, for
    every parent of a (parents x n) uint32 row array at once: flat arrays of
    owners (row indices) and sets, sorted by (owner, set).

    The independent sets are built by doubling over the vertices, rule (b)
    included: a set takes vertex v only if it holds v's previous twin.  Rule
    (a) reads each chunk of sets' (sets x n) counts |N(w) & s|, and the
    filter is ``_completes``, on the complement rows for the dense side.
    """
    m, n = rows.shape
    bits = np.uint32(1) << np.arange(n, dtype=np.uint32)
    deg = np.bitwise_count(rows).astype(np.int64)
    # Equal rows are twins; a stable sort puts each one after its previous twin.
    by_row = np.argsort(rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, by_row, axis=1)
    parent, at = np.nonzero(ranked[:, 1:] == ranked[:, :-1])
    twin = np.zeros((m, n), dtype=np.uint32)
    twin[parent, by_row[parent, at + 1]] = bits[by_row[parent, at]]
    owner = np.arange(m)
    sets = np.zeros(m, dtype=np.uint32)
    for v in range(n):
        earlier = twin[owner, v]
        grow = ((sets & rows[owner, v]) == 0) & ((sets & earlier) == earlier)
        owner = np.concatenate([owner, owner[grow]])
        sets = np.concatenate([sets, sets[grow] | bits[v]])
    # (a) needs |s| >= every degree of the parent; cutting smaller sets first is cheap.
    keep = np.bitwise_count(sets) >= deg.max(axis=1)[owner]
    owner, sets = owner[keep], sets[keep]
    nds = np.zeros((m, n), dtype=np.int64)
    for u in range(n):
        nds += (rows >> u & 1) * deg[:, u, None]
    scale = (n + 1) ** 2
    keep = np.zeros(len(sets), dtype=bool)
    for span in _spans(len(sets), n):
        o, s = owner[span], sets[span]
        inside = np.bitwise_count(rows[o] & s[:, None]).astype(np.int64)
        member = (s[:, None] & bits != 0).astype(np.int64)
        size = np.bitwise_count(s).astype(np.int64)
        new_key = size * scale + inside.sum(axis=1) + size
        parent_keys = (deg[o] + member) * scale + nds[o] + inside + member * size[:, None]
        keep[span] = new_key >= parent_keys.max(axis=1)
    owner, sets = owner[keep], sets[keep]
    keep = ~_completes(rows, owner, sets, spec.k, spec.j - 1)
    owner, sets = owner[keep], sets[keep]
    if spec.i is not None:
        full = np.uint32((1 << n) - 1)
        keep = ~_completes(rows ^ (full ^ bits), owner, full ^ sets, spec.k, spec.i - 1)
        owner, sets = owner[keep], sets[keep]
    order = np.lexsort((sets, owner))
    return owner[order], sets[order]


def _child_rows(rows: np.ndarray, owner: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The (sets x n+1) uint32 rows of the children: the parent
    ``rows[owner[x]]`` with a new vertex n attached to ``sets[x]``."""
    n = rows.shape[1]
    children = np.empty((len(sets), n + 1), dtype=np.uint32)
    children[:, :n] = rows[owner] | (sets[:, None] >> np.arange(n, dtype=np.uint32) & 1) << n
    children[:, n] = sets
    return children


def surviving_extension_sets(g: Graph, spec: ProblemSpec) -> list[VertexSet]:
    """The surviving independent sets of g in twin-prefix form whose new
    vertex maximizes (degree, neighbour-degree sum) in the child, in
    ascending order.

    Two rules choose the attachment sets s before the filter:

    (a) the new vertex maximizes the pair (degree, sum of its neighbours'
        degrees), compared lexicographically, over every vertex of the
        child g + s; ties count as a maximum;
    (b) s meets every twin class c0 < c1 < ... of g in a prefix:
        c_i in s implies c_(i-1) in s.

    Neither loses a class.  The pair is an isomorphism invariant of a vertex.
    Take a class G' of the next level and a vertex w of it that maximizes
    the pair.  G' - w is a member (membership is hereditary), so an
    isomorphism p maps it onto its stored parent P, and s = p(N(w)) passes
    (a): P + s is G' with w as the new vertex.  Moving s to its twin-prefix
    form is an automorphism of P, and it extends to an isomorphism of the
    two children that fixes the new vertex, so every vertex keeps its pair:
    (a) still holds and the child's class is the same.

    Rule (a) is computed for all sets at once, with no child built.  With
    deg the degrees of g, nds its neighbour-degree sums and c_w = |N(w) & s|,
    the new vertex has the pair (|s|, sum_w c_w + |s|) and a parent vertex w
    has (deg_w + [w in s], nds_w + c_w + [w in s] |s|).  No child vertex has
    a neighbour-degree sum of (n+1)**2 or more, so deg (n+1)**2 + nds
    compares as the pair does.

    A set s survives when attaching a new vertex to it creates no k-sparse
    j-set through that vertex and (in R mode) no k-dense i-set through it:
    a k-sparse j-set through the new vertex is the vertex plus a k-sparse
    (j-1)-set of g, and the dense side is the same test in the complement,
    where the new vertex sees every parent vertex outside s.

    This is ``_attachment_sets`` on a batch of one parent.
    """
    return _attachment_sets(row_array([g.adj], g.order), spec)[1].tolist()


def extend_graph(g: Graph, spec: ProblemSpec) -> list[Graph]:
    """The surviving one-vertex extensions of g on the attachment sets that
    ``surviving_extension_sets`` returns, in its order.

    Children of different sets may still be isomorphic; the level merge
    deduplicates those by key.
    """
    rows = row_array([g.adj], g.order)
    children = _child_rows(rows, *_attachment_sets(rows, spec))
    return [Graph(g.order + 1, tuple(child)) for child in children.tolist()]


def reject_extension_slow(g: Graph, spec: ProblemSpec, s: VertexSet) -> bool:
    """Reference check for one extension, via the public search API only.

    True when the child formed by attaching a new vertex to ``s`` contains
    a forbidden set through that vertex.  Tests use this to pin the filter.
    """
    child = add_vertex(g, s)
    v = g.order
    if has_k_sparse_set_containing(child, v, spec.k, spec.j) is not None:
        return True
    if spec.i is not None:
        if has_k_dense_set_containing(child, v, spec.k, spec.i) is not None:
            return True
    return False


def _extend_entries(spec: ProblemSpec, parents: list[tuple[int, ...]]) -> list[CanonKey]:
    """Worker task: the canonical keys of the surviving children of the
    parents (adjacency rows of one order).  The attachment sets of every
    parent come from one ``_attachment_sets`` pass, and the children are
    built and labeled ``_graphs_per_chunk`` at a time whichever parents they
    come from."""
    n = len(parents[0])
    rows = row_array(parents, n)
    owner, sets = _attachment_sets(rows, spec)
    step = _graphs_per_chunk(n + 1)
    keys: list[CanonKey] = []
    for lo in range(0, len(sets), step):
        keys += canonical_forms(_child_rows(rows, owner[lo:lo + step], sets[lo:lo + step]))
    return keys


def level_at(spec: ProblemSpec, order: int) -> LevelSet:
    """The level of the given order >= 1, grown in-process from K1 (empty once the search dies)."""
    if order < 1:
        raise ConstructionError(f"level order {order} < 1")
    level = initial_level(spec)
    while level.order < order and len(level) > 0:
        level = level_step(level, spec)
    if level.order < order:
        return LevelSet(order, ())
    return level


def level_step(level: LevelSet, spec: ProblemSpec, *, mapper=map,
               max_cardinality: int | None = None) -> LevelSet:
    """Extend every member by one vertex and deduplicate the next level.

    ``mapper(fn, tasks)`` runs the tasks, as the builtin ``map`` does
    in-process; the driver passes a process pool's ``map``.  A task is a run
    of ``_TASK_PARENTS`` consecutive parents.  Output is identical for any
    mapper and any cut: tasks return only the canonical keys of the
    children, the merge is a set of keys, and each class is decoded once
    from its key, in key order, at the end.  ``max_cardinality`` is checked
    after each task.
    """
    next_order = level.order + 1
    parents = [g.adj for _, g in level.members]
    tasks = [parents[lo:lo + _TASK_PARENTS] for lo in range(0, len(parents), _TASK_PARENTS)]
    merged: set[CanonKey] = set()
    for keys in mapper(partial(_extend_entries, spec), tasks):
        merged.update(keys)
        if max_cardinality is not None and len(merged) > max_cardinality:
            raise LevelCardinalityExceeded(next_order, max_cardinality)
    keys = sorted(merged)
    step = _graphs_per_chunk(next_order)
    graphs = chain.from_iterable(decode_keys(keys[lo:lo + step])
                                 for lo in range(0, len(keys), step))
    return LevelSet(next_order, tuple(zip(keys, graphs)))
