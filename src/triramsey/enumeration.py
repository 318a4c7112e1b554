"""Level-by-level enumeration of sub-extremal triangle-free graphs.

A level holds, per isomorphism class, one triangle-free graph of a fixed
order with no k-sparse j-set and (in R mode) no k-dense i-set.  The step to
the next order attaches a new vertex to independent sets of every member
(which preserves triangle-freeness by construction), only where the new
vertex maximizes the isomorphism invariant (degree, neighbour-degree sum) in
the child and only to one set per twin-class count pattern, keeps a child
only when no forbidden set passes through the new vertex, and deduplicates
by canonical key.  Neither rule loses a class (``_attachment_sets`` gives
the argument): pick a vertex w of a next-level class G' that
maximizes the pair; an isomorphism p maps G' - w onto a stored parent P,
and P + p(N(w)) is G' with w as the new vertex; moving that set to its
twin-prefix form is an automorphism of P, so it keeps every vertex's pair.
A level is the (members x n) rows of its canonically labeled members in
key order, so levels are byte-stable regardless of worker count or merge
order: a child travels as its key alone, a row of its task's (children x
``key_width``) uint8 array of keys, duplicates included; the step merges
the tasks' arrays with one ``canon.sorted_keys``, which sorts them and drops
the repeats, and ``LevelSet.from_keys`` decodes each class once from its
key, a labeling batch of keys at a time.  A step cuts
the rows into runs of consecutive parents, one task each: the fewest runs
of at most as many parents as one batch holds graphs of their order, of
near-equal lengths (``_spans(parents, n * n)``), so at most 2**16 // n**2
parents at the default ``graphs._BROADCAST_ELEMENTS`` (1,024 at order 8,
541 at order 11, 291 at order 15).  A labeling batch is wider:
``graphs._LABEL_BATCHES`` (four) batches of graphs of its order
(``graphs._label_spans``), in which children, keys and read-back members
are labeled and decoded.

A task is one array pipeline over the (parents x n) row array of its run
(``_attachment_sets``): the independent sets of every parent, built by
doubling over the vertices with rule (b) applied on the way, rule (a), and
the forbidden-set filter come out as flat arrays of sets, each tagged with
the parent it belongs to.  The filter lists each parent's k-sparse
(j-1)-sets with their members whose internal degree is already k, and
joins every attachment set with its own parent's sets only.  The
children's rows are then built from the parents' rows and labeled with
``canonical_forms`` a labeling batch at a time, so one numpy batch spans
many parents.  Masks cover the parent's vertices only (< 2**MAX_N), so int64
arithmetic never overflows.  The (sets x n) counts of rule (a), the subset
counts and the (set, sparse set) pairs of the filter are chunked to stay
within ``graphs._BROADCAST_ELEMENTS`` elements; a labeling batch holds
``graphs._LABEL_BATCHES`` times as many graphs, in narrower temporaries.
The flat arrays of independent sets and the ``_sparse_sets`` tables are not:
they hold every set of every parent of the task, so they grow with its
parents (the tracemalloc peak of one task of order-15 R_4(9,11) parents is
2.1 MB at 32 parents and 11 MB at 512).

One kernel, ``_subset_counts``, finds k-sparse sets for both the filter
and the resume check: a saturating count per member of every subset of a
size, for 64 graphs of one order per machine word of bit-sliced edge
planes.  ``_sparse_sets`` reads a task's tables from it, and
``first_nonmember`` re-checks a resumed level in full: every j-subset,
every i-subset of the complement, and every 3-subset of the complement for
triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .canon import CanonKey, canonical_forms, decode_keys, key_width, sorted_keys
from .defect import has_k_dense_set, has_k_sparse_set
from .errors import CapacityError, ConstructionError
from .graphs import (
    MAX_N,
    Graph,
    VertexSet,
    _label_spans,
    _spans,
    adjacency_matrices,
    find_triangle,
    row_array,
    single_vertex,
)


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


class LevelSet:
    """One enumeration level: the read-only (members x order) uint32 rows of
    its canonically labeled members in key order.  ``LevelSet(order, pairs)``
    reads only the graphs of ``(key, Graph)`` pairs; ``members`` labels the
    rows again into such pairs, and ``graphs()`` rebuilds the graphs."""

    def __init__(self, order: int, members: Iterable[tuple[CanonKey, Graph]] = ()):
        self.order = order
        self.rows = row_array([g.adj for _, g in members], order)
        self.rows.flags.writeable = False

    @classmethod
    def from_keys(cls, order: int, keys: np.ndarray) -> LevelSet:
        """The level of the sorted canonical keys of one order, a (keys x
        ``key_width(order)``) uint8 array, a key a row, decoded a labeling
        batch (``_label_spans``) at a time; the keys are not kept."""
        level = cls(order)
        level.rows = np.empty((len(keys), order), dtype=np.uint32)
        for span in _label_spans(len(keys), order):
            level.rows[span] = decode_keys(keys[span])
        level.rows.flags.writeable = False
        return level

    @property
    def members(self) -> tuple[tuple[CanonKey, Graph], ...]:
        return tuple(zip((key.tobytes() for key in canonical_forms(self.rows)), self.graphs()))

    def graphs(self) -> list[Graph]:
        return [Graph(self.order, tuple(row)) for row in self.rows.tolist()]

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LevelSet) and self.order == other.order
                and np.array_equal(self.rows, other.rows))


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
    return LevelSet.from_keys(1, canonical_forms(row_array([single_vertex().adj], 1)))


@lru_cache(maxsize=64)
def _subset_table(n: int, size: int) -> np.ndarray:
    """Every ``size``-subset of range(n), in ``combinations`` order, as the
    (size x subsets) uint8 table of its members, one column each (read-only,
    shared)."""
    combos = list(combinations(range(n), size))
    members = np.array(list(zip(*combos)), dtype=np.uint8).reshape(size, len(combos))
    members.flags.writeable = False
    return members


def _edge_planes(rows: np.ndarray) -> np.ndarray:
    """The (n x n x words) uint64 edge planes of a (graphs x n) uint32 row
    array: bit g of ``planes[u, v, w]`` is edge uv of graph 64 w + g.  Lanes
    past the last graph hold empty graphs."""
    n, words = rows.shape[1], -(-len(rows) // 64)
    matrices = adjacency_matrices(rows).transpose(1, 2, 0)
    planes = np.zeros((n, n, words), dtype="<u8")
    planes.view(np.uint8)[:, :, :-(-len(rows) // 8)] = np.packbits(
        np.ascontiguousarray(matrices), axis=2, bitorder="little")
    return planes


def _subset_counts(planes: np.ndarray, k: int, size: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Per chunk of the columns of ``_subset_table(n, size)``: its slice and,
    in every lane of (n x n x words) edge planes, the (levels x size x
    subsets x words) saturating counts, ``levels[c]`` = "this member has
    more than c neighbours in the subset" for c up to min(k, size - 1); a
    subset is k-sparse where ``levels[-1]`` is empty.  Round r adds, at
    every member position, the edge to the member r positions on, cyclically."""
    n, _, words = planes.shape
    flat = planes.reshape(n * n, words)
    members = _subset_table(n, size)
    top = min(k, size - 1)
    for span in _spans(members.shape[1], (top + 1) * size * words):
        pairs = members[:, span] * np.intp(n)
        partners = np.concatenate((members[:, span],) * 2)
        levels = np.zeros((top + 1,) + pairs.shape + (words,), dtype=planes.dtype)
        for r in range(1, size):
            edge = np.take(flat, pairs + partners[r:r + size], axis=0)
            for c in range(min(top, r - 1), 0, -1):
                levels[c] |= levels[c - 1] & edge
            levels[0] |= edge
        yield span, levels


def first_nonmember(rows: np.ndarray, spec: ProblemSpec) -> int | None:
    """Index of the first graph of a (graphs x n) uint32 row array that
    fails membership, or None when every one passes.

    The verdicts are ``verify_membership``'s, reached without witnesses for
    64 graphs per machine word of ``_edge_planes``: ``_subset_counts`` finds
    k-sparse j-sets, k-dense i-sets in the complement planes, and triangles
    as 0-sparse 3-sets of the complement.  Lanes past the last graph are
    masked; chunks of graphs and of subsets keep each temporary within
    ``graphs._BROADCAST_ELEMENTS`` elements, and the check stops at the
    first chunk of graphs with a nonmember.
    """
    n = rows.shape[1]
    for span in _spans(len(rows), n * n):
        planes = _edge_planes(rows[span])
        complement = ~planes
        complement[range(n), range(n)] = 0
        checks = [(complement, 0, 3), (planes, spec.k, spec.j)]
        if spec.i is not None:
            checks.append((complement, spec.k, spec.i))
        bad = np.zeros(planes.shape[2], dtype=planes.dtype)
        for edges, k, size in checks:
            for _, levels in _subset_counts(edges, k, size):
                bad |= np.bitwise_or.reduce(~np.bitwise_or.reduce(levels[-1], axis=0), axis=0)
        lanes = np.unpackbits(bad.view(np.uint8), count=span.stop - span.start, bitorder="little")
        if lanes.any():
            return span.start + int(lanes.argmax())
    return None


def _sparse_sets(rows: np.ndarray, k: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every k-sparse ``size``-set T of every graph of a (graphs x n) uint32
    row array, with its saturated members (those whose degree inside T is
    already k): flat arrays of owners (row indices), sets and saturated
    masks, sorted by owner.

    Read from ``_subset_counts`` over the ``_edge_planes`` of a chunk of
    graphs at a time: T is k-sparse where ``levels[-1]`` is empty, and then
    a member is saturated where it has more than k - 1 neighbours in T
    (every member when k = 0, none when k >= size).
    """
    n = rows.shape[1]
    members = _subset_table(n, size)
    found = [np.zeros((3, 0), dtype=np.uint32)]
    for chunk in _spans(len(rows), n * n):
        for span, levels in _subset_counts(_edge_planes(rows[chunk]), k, size):
            sparse = ~np.bitwise_or.reduce(levels[-1], axis=0)
            # Every set of the empty graphs past the last lane is sparse.
            sparse[:, -1] &= np.uint64((1 << (chunk.stop - chunk.start - 1) % 64 + 1) - 1)
            # Sparse sets are usually few, so only the words holding one are unpacked.
            column, word = np.nonzero(sparse)
            hit, lane = np.nonzero(np.unpackbits(sparse[column, word, None].view(np.uint8), axis=1,
                                                 bitorder="little"))
            column, word = column[hit], word[hit]
            at = members[:, span][:, column]
            sets = np.bitwise_or.reduce(np.uint32(1) << at, axis=0)
            saturated = sets if k == 0 else np.zeros_like(sets)
            if 0 < k < size:
                bit = levels[k - 1][:, column, word] >> lane.astype(np.uint64) & 1
                saturated = np.bitwise_or.reduce(bit.astype(np.uint32) << at, axis=0)
            found.append(np.array([chunk.start + 64 * word + lane, sets, saturated], dtype=np.uint32))
    # The table is a task's largest array: free the pieces, and sort it a row at a time.
    table = np.concatenate(found, axis=1)
    found.clear()
    order = np.argsort(table[0], kind="stable")
    for row in table:
        row[:] = row[order]
    return tuple(table)


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
    total = int(ends[-1])
    for span in _spans(total, 1):
        pair = np.arange(*span.indices(total))
        x = np.searchsorted(ends, pair, side="right")
        t = first[x] + pair - (ends[x] - pairs[x])
        s = sets[x]
        hit = ((s & saturated[t]) == 0) & (np.bitwise_count(s & subsets[t]) <= k)
        dead[x[hit]] = True
    return dead


def _attachment_sets(rows: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The surviving attachment sets of every parent of a (parents x n)
    uint32 row array, in twin-prefix form, whose new vertex maximizes
    (degree, neighbour-degree sum) in the child: flat arrays of owners (row
    indices) and sets, in no fixed order.

    Two rules choose the attachment sets s of each parent g before the filter:

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

    The independent sets are built by doubling over the vertices, rule (b)
    included: a set takes vertex v only if it holds v's previous twin.  Rule
    (a) is computed for all sets at once, a chunk of sets' (sets x n) counts
    at a time, with no child built.  With deg the degrees of g, nds its
    neighbour-degree sums and c_w = |N(w) & s|, the new vertex has the pair
    (|s|, sum_w c_w + |s|) and a parent vertex w has (deg_w + [w in s],
    nds_w + c_w + [w in s] |s|).  No child vertex has a neighbour-degree sum
    of (n+1)**2 or more, so deg (n+1)**2 + nds compares as the pair does.

    A set s survives the filter (``_completes``) when attaching a new vertex
    to it creates no k-sparse j-set through that vertex and (in R mode) no
    k-dense i-set through it: a k-sparse j-set through the new vertex is the
    vertex plus a k-sparse (j-1)-set of g, and the dense side is the same
    test on the complement rows, where the new vertex sees every parent
    vertex outside s.
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
    return owner, sets


def _child_rows(rows: np.ndarray, owner: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The (sets x n+1) uint32 rows of the children: the parent
    ``rows[owner[x]]`` with a new vertex n attached to ``sets[x]``."""
    n = rows.shape[1]
    children = np.empty((len(sets), n + 1), dtype=np.uint32)
    children[:, :n] = rows[owner] | (sets[:, None] >> np.arange(n, dtype=np.uint32) & 1) << n
    children[:, n] = sets
    return children


def surviving_extension_sets(g: Graph, spec: ProblemSpec) -> list[VertexSet]:
    """``_attachment_sets`` of one parent g, sorted (``perfbench/tracing.py`` replays steps with it)."""
    return np.sort(_attachment_sets(row_array([g.adj], g.order), spec)[1]).tolist()


def _extend_entries(spec: ProblemSpec, rows: np.ndarray) -> np.ndarray:
    """Worker task: the canonical keys of the surviving children of the
    parents of a (parents x n) uint32 row array, as one C-contiguous
    (children x ``key_width(n + 1)``) uint8 array, a key a row, in no fixed
    order and duplicates included (``level_step``'s merge drops them).  The
    attachment sets of every parent come from one ``_attachment_sets`` pass,
    and the children are built and labeled a labeling batch
    (``_label_spans``) at a time whichever parents they come from."""
    owner, sets = _attachment_sets(rows, spec)
    n = rows.shape[1] + 1
    keys = np.empty((len(sets), key_width(n)), dtype=np.uint8)
    for span in _label_spans(len(sets), n):
        keys[span] = canonical_forms(_child_rows(rows, owner[span], sets[span]))
    return keys


def _distinct(held: list[np.ndarray]) -> np.ndarray:
    """The distinct rows of a list of arrays of keys of one order, in key
    order (``sorted_keys``); the list is emptied once they are joined, so
    that the sort holds one copy of the rows."""
    keys = np.concatenate(held)
    held.clear()
    return sorted_keys(keys)


def level_at(spec: ProblemSpec, order: int) -> LevelSet:
    """The level of the given order in 1..MAX_N, grown in-process from K1
    (empty once the search dies)."""
    if order < 1:
        raise ConstructionError(f"level order {order} < 1")
    if order > MAX_N:
        raise CapacityError(f"level order {order} exceeds capacity {MAX_N}")
    level = initial_level(spec)
    while level.order < order and len(level) > 0:
        level = level_step(level, spec)
    if level.order < order:
        return LevelSet(order)
    return level


def level_step(level: LevelSet, spec: ProblemSpec, *, mapper=map,
               max_cardinality: int | None = None) -> LevelSet:
    """Extend every member by one vertex and deduplicate the next level.

    ``mapper(fn, tasks)`` runs the tasks, as the builtin ``map`` does
    in-process; the driver's mapper also runs them in helper processes, in
    no fixed order.  A task is the rows of a run of consecutive parents, at
    most as many as one batch holds graphs of the level's order, and the
    runs are as few as that allows and of near-equal lengths
    (``_spans(len(level), order ** 2)``), so a task's calls pay their fixed
    cost once per batch rather than once per few parents, and no worker
    waits on a long task while another has a short remainder.  Output is
    identical for any mapper and any cut: tasks return only the canonical
    keys of the children, as (children x ``key_width``) uint8 arrays that
    may repeat a key, within a task or across tasks; the merge holds the
    arrays, and one ``sorted_keys`` over all of them gives the distinct keys
    in key order, from which ``LevelSet.from_keys`` decodes each class once.

    ``max_cardinality`` bounds the distinct keys after each task.  The held
    rows bound them from above, so only once the rows pass the bound are
    they compacted to their ``sorted_keys``, and the step raises if the
    distinct keys still pass it.  A level of order MAX_N has no next order.
    """
    if level.order >= MAX_N:
        raise CapacityError(f"cannot grow a level of order {level.order} past {MAX_N} vertices")
    next_order = level.order + 1
    tasks = [level.rows[span] for span in _spans(len(level), level.order ** 2)]
    held = [np.zeros((0, key_width(next_order)), dtype=np.uint8)]
    count = 0
    for keys in mapper(partial(_extend_entries, spec), tasks):
        held.append(keys)
        count += len(keys)
        if max_cardinality is not None and count > max_cardinality:
            held = [_distinct(held)]
            count = len(held[0])
            if count > max_cardinality:
                raise LevelCardinalityExceeded(next_order, max_cardinality)
    return LevelSet.from_keys(next_order, _distinct(held))
