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
parents into runs of consecutive parents, one task each; a task extends its
run and labels the children with ``canonical_forms`` a chunk at a time, so
one numpy batch spans many parents.

The forbidden-set test runs once per parent over all its remaining
attachment sets at once: a table of the parent's k-sparse (j-1)-sets, each
with its members whose internal degree is already k, is built in one numpy
broadcast and decides every attachment set through a second one.  Masks
cover the parent's vertices only (< 2**MAX_N), so int64 arithmetic never
overflows.

A resumed level is re-checked in full by ``first_nonmember``, which decides
many graphs of one order at a time over uint32 adjacency rows, with the same
per-order subset table and bounded temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, count, islice
from typing import Iterable

import numpy as np

from .canon import CanonKey, canonical_forms, canonical_graph, decode_keys, twin_classes
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
    complement,
    find_triangle,
    independent_set_masks,
    row_array,
    single_vertex,
)

#: How many consecutive parents make one ``level_step`` task.  A task's
#: children are labeled together, so its batches span parents; the number of
#: tasks grows with the level, whatever the worker count.
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
def _subset_table(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ``size``-subset of range(n), in ``combinations`` order: its member
    indices (size x subsets, one column per subset; uint8 keeps the cached
    table small) and its int64 mask (read-only, shared)."""
    combos = list(combinations(range(n), size))
    members = np.array(list(zip(*combos)), dtype=np.uint8).reshape(size, len(combos))
    masks = np.array([sum(1 << u for u in c) for c in combos], dtype=np.int64)
    members.flags.writeable = masks.flags.writeable = False
    return members, masks


def _completes(attach: np.ndarray, rows: tuple[int, ...], k: int, size: int) -> np.ndarray:
    """True where a new vertex attached to ``attach`` completes a k-sparse
    (size+1)-set through it in the graph with adjacency ``rows``.

    The table holds every k-sparse ``size``-set T with A_T, its members whose
    degree inside T is already k, built in one (subsets x vertices) broadcast.
    Attaching to s turns T into the k-sparse set {v} + T exactly when s misses
    A_T (no member of T goes past degree k) and |s & T| <= k (the new vertex
    itself stays within degree k).
    """
    dead = np.zeros(len(attach), dtype=bool)
    if not len(attach):
        return dead
    subsets = _subset_table(len(rows), size)[1]
    bits = 1 << np.arange(len(rows), dtype=np.int64)
    member = (subsets[:, None] & bits) != 0
    degree = np.bitwise_count(subsets[:, None] & np.array(rows, dtype=np.int64))
    keep = ~(member & (degree > k)).any(axis=1)
    saturated = np.where(member[keep] & (degree[keep] == k), bits, 0).sum(axis=1)
    subsets = subsets[keep]
    col = attach[:, None]
    step = max(1, graph_module._BROADCAST_ELEMENTS // len(attach))
    for lo in range(0, len(subsets), step):
        hit = ((col & saturated[lo:lo + step]) == 0) & (
            np.bitwise_count(col & subsets[lo:lo + step]) <= k)
        dead |= hit.any(axis=1)
    return dead


def _has_sparse_set(rows: np.ndarray, k: int, size: int) -> np.ndarray:
    """True for each graph (a row of uint32 adjacency rows) with a k-sparse
    ``size``-set: a subset none of whose members has more than k neighbours
    inside it.

    Subsets are decided one member position at a time, gathering that
    member's row for every subset, so each temporary is (graphs x subsets)
    and stays within ``graphs._BROADCAST_ELEMENTS``: as many graphs as fit, or a
    single graph over chunks of the subset axis once C(n, size) alone passes
    the bound.
    """
    members, masks = _subset_table(rows.shape[1], size)
    masks = masks.astype(np.uint32)
    found = np.zeros(len(rows), dtype=bool)
    bound = graph_module._BROADCAST_ELEMENTS
    graphs = max(1, bound // max(1, len(masks)))
    for at in range(0, len(rows), graphs):
        chunk = rows[at:at + graphs]
        for lo in range(0, len(masks), bound):
            subsets = masks[lo:lo + bound]
            sparse = np.ones((len(chunk), len(subsets)), dtype=bool)
            for position in members[:, lo:lo + bound]:
                rows_in = np.take(chunk, position, axis=1)
                rows_in &= subsets
                sparse &= np.bitwise_count(rows_in) <= k
            found[at:at + graphs] |= sparse.any(axis=1)
    return found


def first_nonmember(graphs: Iterable[Graph], spec: ProblemSpec) -> int | None:
    """Index of the first of ``graphs``, all of one order, that fails
    membership, or None when every one passes.

    The verdicts are ``verify_membership``'s, reached without witnesses in
    numpy passes over chunks of graphs, each temporary within
    ``graphs._BROADCAST_ELEMENTS`` elements: a triangle is an edge u~w whose rows
    share a bit, a k-sparse j-set is a j-subset whose members all have at
    most k neighbours in it, and a k-dense i-set is the same in the
    complement rows.
    """
    graphs = iter(graphs)
    first = next(graphs, None)
    if first is None:
        return None
    n = first.order
    bits = np.uint32(1) << np.arange(n, dtype=np.uint32)
    others = np.uint32((1 << n) - 1) ^ bits
    step = _graphs_per_chunk(n)
    graphs = chain([first], graphs)
    for lo in count(0, step):
        chunk = list(islice(graphs, step))
        if not chunk:
            return None
        rows = row_array([g.adj for g in chunk], n)
        cols = rows[:, :, None]
        bad = (((cols & bits) != 0) & ((cols & rows[:, None, :]) != 0)).any(axis=(1, 2))
        bad |= _has_sparse_set(rows, spec.k, spec.j)
        if spec.i is not None:
            bad |= _has_sparse_set(others & ~rows, spec.k, spec.i)
        if bad.any():
            return lo + int(bad.argmax())


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

    Rule (a) is computed for all sets at once, with no child built.  With B
    the sets x n bit matrix, A the adjacency matrix of g, deg = A.1 and
    nds = A.deg, the new vertex has the pair (|s|, B.(deg + 1)) and a parent
    vertex w has (deg_w + B_w, nds_w + (B.A)_w + B_w |s|).  No child vertex
    has a neighbour-degree sum of (n+1)**2 or more, so deg (n+1)**2 + nds
    compares as the pair does.

    A set s survives when attaching a new vertex to it creates no k-sparse
    j-set through that vertex and (in R mode) no k-dense i-set through it:
    a k-sparse j-set through the new vertex is the vertex plus a k-sparse
    (j-1)-set of g, and the dense side is the same test in the complement,
    where the new vertex sees every parent vertex outside s.
    """
    sets = np.array(independent_set_masks(g), dtype=np.int64)
    # (a) needs |s| >= every degree of g; cutting smaller sets first is cheap.
    keep = np.bitwise_count(sets) >= g.max_degree()
    for cell in twin_classes(g):
        for earlier, later in zip(cell, cell[1:]):
            keep &= (sets >> later & 1) <= (sets >> earlier & 1)
    sets = sets[keep]
    vertices = np.arange(g.order)
    adjacency = np.array(g.adj, dtype=np.int64)[:, None] >> vertices & 1
    bits = sets[:, None] >> vertices & 1
    deg = adjacency.sum(axis=1)
    size = bits.sum(axis=1)
    scale = (g.order + 1) ** 2
    new_key = size * scale + bits @ (deg + 1)
    parent_keys = ((deg + bits) * scale + adjacency @ deg + bits @ adjacency
                   + bits * size[:, None])
    sets = sets[new_key >= parent_keys.max(axis=1, initial=0)]
    sets = sets[~_completes(sets, g.adj, spec.k, spec.j - 1)]
    if spec.i is not None:
        sets = sets[~_completes(g.full_mask() ^ sets, complement(g).adj, spec.k, spec.i - 1)]
    return sets.tolist()


def extend_graph(g: Graph, spec: ProblemSpec) -> list[Graph]:
    """The surviving one-vertex extensions of g on the attachment sets that
    ``surviving_extension_sets`` returns, in its order.

    Children of different sets may still be isomorphic; the level merge
    deduplicates those by key.
    """
    return [add_vertex(g, s) for s in surviving_extension_sets(g, spec)]


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
    parents (adjacency rows of one order), labeled ``_graphs_per_chunk``
    children at a time whichever parents they come from."""
    n = len(parents[0]) + 1
    children = (c.adj for adj in parents for c in extend_graph(Graph(n - 1, adj), spec))
    step = _graphs_per_chunk(n)
    keys: list[CanonKey] = []
    while chunk := list(islice(children, step)):
        keys += canonical_forms(row_array(chunk, n))
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
