"""The forbidden-set filter and independent-set enumeration against references.

Both references share no code with the fast paths: membership comes from the
``defect`` predicates and branch-and-bound searches, degrees from the child
graph, and twins from pairwise row equality.
"""

from __future__ import annotations

import random

import pytest

from triramsey import ProblemSpec, add_vertex, independent_set_masks, is_k_sparse_set
from triramsey import enumeration
from triramsey.enumeration import reject_extension_slow, surviving_extension_sets

from .conftest import random_triangle_free


@pytest.mark.parametrize("seed", range(10))
def test_independent_set_paths_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = random_triangle_free(rng, n, tries=rng.randint(0, 3 * n * n))
    assert independent_set_masks(g) == [s for s in range(1 << n) if is_k_sparse_set(g, s, 0)]


def reference_attachment_sets(g, spec):
    """Every independent set, kept when the new vertex has maximum degree in
    the child and every twin pair u < w has u in the set whenever w is, and
    when ``reject_extension_slow`` passes the child."""
    n = g.order
    twins = [(u, w) for u in range(n) for w in range(u + 1, n) if g.adj[u] == g.adj[w]]
    kept = []
    for s in independent_set_masks(g):
        child = add_vertex(g, s)
        if child.adj[n].bit_count() < max(row.bit_count() for row in child.adj):
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
        monkeypatch.setattr(enumeration, "_BROADCAST_ELEMENTS", seed)
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
