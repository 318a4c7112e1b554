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
its key alone, and each class is decoded once from it.

The forbidden-set test runs once per parent over all its remaining
attachment sets at once: a table of the parent's k-sparse (j-1)-sets, each
with its members whose internal degree is already k, is built in one numpy
broadcast and decides every attachment set through a second one.  Masks
cover the parent's vertices only (< 2**MAX_N), so int64 arithmetic never
overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .canon import CanonKey, canonical_form, canonical_graph, decode_key, twin_classes
from .defect import (
    has_k_dense_set,
    has_k_dense_set_containing,
    has_k_sparse_set,
    has_k_sparse_set_containing,
)
from .errors import ConstructionError
from .graphs import (
    Graph,
    VertexSet,
    add_vertex,
    complement,
    find_triangle,
    independent_set_masks,
    single_vertex,
)

#: Upper bound on the elements of one (attachment sets x patterns) broadcast
#: in the forbidden-set filter; the pattern axis is chunked to respect it.
_BROADCAST_ELEMENTS = 1 << 16


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

    Used to validate external inputs and resumed checkpoints; the search
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
def _subset_masks(n: int, size: int) -> np.ndarray:
    """Every ``size``-subset of range(n) as an int64 mask (read-only, shared)."""
    masks = np.array([sum(1 << u for u in c) for c in combinations(range(n), size)],
                     dtype=np.int64)
    masks.flags.writeable = False
    return masks


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
    subsets = _subset_masks(len(rows), size)
    bits = 1 << np.arange(len(rows), dtype=np.int64)
    member = (subsets[:, None] & bits) != 0
    degree = np.bitwise_count(subsets[:, None] & np.array(rows, dtype=np.int64))
    keep = ~(member & (degree > k)).any(axis=1)
    saturated = np.where(member[keep] & (degree[keep] == k), bits, 0).sum(axis=1)
    subsets = subsets[keep]
    col = attach[:, None]
    step = max(1, _BROADCAST_ELEMENTS // len(attach))
    for lo in range(0, len(subsets), step):
        hit = ((col & saturated[lo:lo + step]) == 0) & (
            np.bitwise_count(col & subsets[lo:lo + step]) <= k)
        dead |= hit.any(axis=1)
    return dead


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


def _extend_entries(spec: ProblemSpec, adj: tuple[int, ...]) -> list[CanonKey]:
    """Worker task: the canonical keys of the surviving children of the parent ``adj``."""
    return [canonical_form(c) for c in extend_graph(Graph(len(adj), adj), spec)]


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

    ``mapper(fn, tasks)`` runs the per-parent task, as the builtin ``map``
    does in-process; the driver passes a process pool's ``map``.  Output is
    identical for any mapper: tasks return only the canonical keys of the
    children, the merge is a set of keys, and each class is decoded once
    from its key, in key order, at the end.
    """
    next_order = level.order + 1
    merged: set[CanonKey] = set()
    for keys in mapper(partial(_extend_entries, spec), [g.adj for _, g in level.members]):
        merged.update(keys)
        if max_cardinality is not None and len(merged) > max_cardinality:
            raise LevelCardinalityExceeded(next_order, max_cardinality)
    members = tuple((key, decode_key(key)) for key in sorted(merged))
    return LevelSet(next_order, members)
