"""The forbidden-set filter, the attachment rules and independent-set
enumeration against references, for one parent and for a whole task.

Both references share no code with the fast paths: membership comes from the
``defect`` predicates and branch-and-bound searches, degrees and
neighbour-degree sums from the child graph's rows, and twins from pairwise
row equality.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from triramsey import (
    ProblemSpec,
    add_vertex,
    canonical_form,
    independent_set_masks,
    is_k_sparse_set,
)
from triramsey.enumeration import (
    _extend_entries,
    _sparse_sets,
    surviving_extension_sets,
)
from triramsey.graphs import row_array

from .conftest import random_triangle_free, reject_extension_slow


@pytest.mark.parametrize("seed", range(10))
def test_independent_set_paths_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = random_triangle_free(rng, n, tries=rng.randint(0, 3 * n * n))
    assert independent_set_masks(g) == [s for s in range(1 << n) if is_k_sparse_set(g, s, 0)]


def reference_attachment_sets(g, spec):
    """Every independent set, kept when the new vertex maximizes (degree,
    neighbour-degree sum) over the vertices of the child, read from the
    child's rows alone, when every twin pair u < w has u in the set whenever
    w is, and when ``reject_extension_slow`` passes the child."""
    n = g.order
    twins = [(u, w) for u in range(n) for w in range(u + 1, n) if g.adj[u] == g.adj[w]]
    kept = []
    for s in independent_set_masks(g):
        child = add_vertex(g, s)
        degree = [row.bit_count() for row in child.adj]
        pairs = [(degree[v], sum(degree[u] for u in range(n + 1) if row >> u & 1))
                 for v, row in enumerate(child.adj)]
        if pairs[n] < max(pairs):
            continue
        if any(s >> w & 1 and not s >> u & 1 for u, w in twins):
            continue
        if not reject_extension_slow(g, spec, s):
            kept.append(s)
    return kept


@pytest.mark.parametrize("seed", range(15))
def test_surviving_sets_match_reference_checks(seed, monkeypatch):
    if seed % 2:
        # Many small chunks along the pattern axis of the broadcast.
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", seed)
    rng = random.Random(100 + seed)
    n = 1 + seed % 11
    k = seed % 4
    # j - 1 exceeds n for the small orders; i ranges down to 2.
    specs = [ProblemSpec(k=k, j=j) for j in range(2, k + 6)]
    specs += [ProblemSpec(k=k, j=rng.randint(k + 2, k + 5), i=i) for i in range(2, k + 5)]
    for tries in (0, n, n * n, 3 * 32 * 32):
        g = random_triangle_free(rng, n, tries=tries)
        for spec in specs:
            assert surviving_extension_sets(g, spec) == reference_attachment_sets(g, spec), spec


@pytest.mark.parametrize("seed", range(12))
def test_task_keys_match_reference(seed, monkeypatch):
    """A whole task gives, as a multiset, the keys of the reference children
    of every one of its parents: mixed triangle-free parents of one order,
    and the first of them alone as a task of one; T and R specs with
    k = seed % 4.  Odd seeds shrink the broadcast bound, so chunks split one
    parent's sets."""
    rng = random.Random(300 + seed)
    if seed % 2:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", rng.choice([1, 7, 40]))
    n = rng.randint(1, 10)
    k = seed % 4
    parents = [random_triangle_free(rng, n, tries=rng.randint(0, 3 * n * n))
               for _ in range(rng.randint(2, 12))]
    # j = n + 2 leaves the filter nothing to find, so only the rules cut.
    specs = [ProblemSpec(k=k, j=j) for j in [*range(k + 2, k + 6), n + 2]]
    specs += [ProblemSpec(k=k, j=rng.randint(k + 2, k + 5), i=i) for i in range(2, k + 5)]
    sizes = set()
    for spec in specs:
        reference = [reference_attachment_sets(g, spec) for g in parents]
        sizes.update(len(sets) for sets in reference)
        for count in (len(parents), 1):
            expected = Counter(canonical_form(add_vertex(g, s))
                               for g, sets in zip(parents[:count], reference) for s in sets)
            task = row_array([g.adj for g in parents[:count]], n)
            assert Counter(_extend_entries(spec, task)) == expected, (spec, count)
    # Some parent keeps sets under some spec, and some parent keeps none.
    assert 0 in sizes and max(sizes) > 0


def reference_sparse_sets(graphs, k, size):
    """Sorted (owner, set, saturated) triples: every ``size``-set of every
    graph that ``is_k_sparse_set`` accepts, with the members whose degree
    inside it is exactly k."""
    triples = []
    for owner, g in enumerate(graphs):
        for members in combinations(range(g.order), size):
            s = sum(1 << v for v in members)
            if is_k_sparse_set(g, s, k):
                saturated = sum(1 << v for v in members if (g.adj[v] & s).bit_count() == k)
                triples.append((owner, s, saturated))
    return sorted(triples)


@pytest.mark.parametrize("batch", [1, 63, 64, 65, 129, 200])
def test_sparse_sets_match_reference(batch, monkeypatch):
    """The filter's table of k-sparse sets over batches that fill, cross and
    span 64-lane words, for k 0-5 and every size up to n + 1 (so size > n
    and k >= size both occur), owners in order; then again with chunks of
    three graphs and a few subsets each."""
    rng = random.Random(500 + batch)
    n = rng.randint(3, 7)
    graphs = [random_triangle_free(rng, n, tries=rng.randint(0, 3 * n * n)) for _ in range(batch)]
    rows = row_array([g.adj for g in graphs], n)
    cases = [(k, size, reference_sparse_sets(graphs, k, size))
             for k in range(6) for size in range(1, n + 2)]
    for bound in (None, 3 * n * n):
        if bound is not None:
            monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", bound)
        for k, size, expected in cases:
            owner, sets, saturated = _sparse_sets(rows, k, size)
            assert list(owner) == sorted(owner), (k, size, bound)
            assert sorted(zip(owner.tolist(), sets.tolist(), saturated.tolist())) == expected, (k, size, bound)
