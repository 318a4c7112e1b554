"""Level-by-level enumeration of sub-extremal triangle-free graphs.

A level holds, per isomorphism class, one triangle-free graph of a fixed
order with no k-sparse j-set and (in R mode) no k-dense i-set.  The step to
the next order attaches a new vertex to independent sets of every member
(which preserves triangle-freeness by construction), only where the new
vertex has maximum degree in the child and only to one set per twin-class
count pattern (neither rule loses a class; see
``surviving_extension_sets``), keeps a child only when no forbidden set
passes through the new vertex, and deduplicates by canonical key.  Members
are stored canonically labeled and sorted by key, so levels are byte-stable
regardless of worker count or merge order: a child travels as its key
alone, and each class is decoded once from it.

The forbidden-set test runs once per parent over all its remaining
attachment sets at once: a table of the parent's k-sparse (j-1)-sets, each
with its members whose internal degree is already k, decides every
attachment set through a numpy broadcast.  Masks cover the parent's
vertices only (< 2**MAX_N), so int64 arithmetic never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def _sparse_patterns(rows: tuple[int, ...], k: int, size: int):
    """(T, A_T) arrays over the k-sparse ``size``-sets T of the graph ``rows``.

    A_T holds the members of T whose degree inside T is already k.
    """
    subs = _subset_masks(len(rows), size)
    keep = np.ones(len(subs), dtype=bool)
    saturated = np.zeros(len(subs), dtype=np.int64)
    for u, row in enumerate(rows):
        member = (subs & (1 << u)) != 0
        deg = np.bitwise_count(subs & row)
        keep &= ~member | (deg <= k)
        saturated[member & (deg == k)] |= 1 << u
    return subs[keep], saturated[keep]


def _rejected(attach: np.ndarray, patterns, k: int) -> np.ndarray:
    """True where the new vertex, attached to ``attach``, completes a pattern.

    Attaching to s turns T into the k-sparse set {v} + T exactly when s
    misses A_T (no member of T goes past degree k) and |s & T| <= k (the
    new vertex itself stays within degree k).
    """
    subsets, saturated = patterns
    dead = np.zeros(len(attach), dtype=bool)
    if not len(attach):
        return dead
    col = attach[:, None]
    step = max(1, _BROADCAST_ELEMENTS // len(attach))
    for lo in range(0, len(subsets), step):
        hit = ((col & saturated[lo:lo + step]) == 0) & (
            np.bitwise_count(col & subsets[lo:lo + step]) <= k)
        dead |= hit.any(axis=1)
    return dead


def surviving_extension_sets(g: Graph, spec: ProblemSpec) -> list[VertexSet]:
    """The surviving independent sets of g in twin-prefix form whose new
    vertex has maximum degree in the child, in ascending order.

    Two rules choose the attachment sets s before the filter:

    (a) the new vertex, of degree |s|, has maximum degree in the child:
        |s| > D, or |s| == D and s holds no vertex of degree D, where D is
        the maximum degree of g;
    (b) s meets every twin class c0 < c1 < ... of g in a prefix:
        c_i in s implies c_(i-1) in s.

    Neither loses a class.  Take a class G' of the next level and a
    maximum-degree vertex w of it.  G' - w is a member (membership is
    hereditary), so an isomorphism p maps it onto its stored parent P, and
    s = p(N(w)) passes (a): P + s is G' with w as the new vertex.  Moving s
    to its twin-prefix form is an automorphism of P; it keeps |s|, and it
    keeps whether s holds a vertex of degree D, since twins have equal
    degrees, so (a) still holds and the child's class is the same.

    A set s survives when attaching a new vertex to it creates no k-sparse
    j-set through that vertex and (in R mode) no k-dense i-set through it:
    a k-sparse j-set through the new vertex is the vertex plus a k-sparse
    (j-1)-set of g, and the dense side is the same test in the complement,
    where the new vertex sees every parent vertex outside s.
    """
    sets = np.array(independent_set_masks(g), dtype=np.int64)
    degrees = [row.bit_count() for row in g.adj]
    top_degree = max(degrees, default=0)
    top = sum(1 << u for u, d in enumerate(degrees) if d == top_degree)
    size = np.bitwise_count(sets)
    keep = (size > top_degree) | ((size == top_degree) & ((sets & top) == 0))
    for cell in twin_classes(g):
        for earlier, later in zip(cell, cell[1:]):
            keep &= (sets >> later & 1) <= (sets >> earlier & 1)
    sets = sets[keep]
    sets = sets[~_rejected(sets, _sparse_patterns(g.adj, spec.k, spec.j - 1), spec.k)]
    if spec.i is not None:
        dense = _sparse_patterns(complement(g).adj, spec.k, spec.i - 1)
        sets = sets[~_rejected(g.full_mask() ^ sets, dense, spec.k)]
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


def _extend_entries(args) -> list[CanonKey]:
    """Worker task: the canonical keys of all surviving children."""
    adj, order, k, j, i = args
    parent = Graph(order, adj)
    return [canonical_form(add_vertex(parent, s))
            for s in surviving_extension_sets(parent, ProblemSpec(k=k, j=j, i=i))]


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
    tasks = [(g.adj, g.order, spec.k, spec.j, spec.i) for _, g in level.members]
    merged: set[CanonKey] = set()
    for keys in mapper(_extend_entries, tasks):
        merged.update(keys)
        if max_cardinality is not None and len(merged) > max_cardinality:
            raise LevelCardinalityExceeded(next_order, max_cardinality)
    members = tuple((key, decode_key(key)) for key in sorted(merged))
    return LevelSet(next_order, members)
