"""The forbidden-set filter and independent-set enumeration against references.

Both references share no code with the fast paths: membership comes from the
``defect`` predicates and branch-and-bound searches, and orbits of
attachment sets from automorphisms found by trying every permutation.
"""

from __future__ import annotations

import itertools
import random

import pytest

from triramsey import (
    ProblemSpec,
    add_vertex,
    canonical_form,
    independent_set_masks,
    is_k_sparse_set,
    permute,
    set_members,
)
from triramsey import enumeration
from triramsey.enumeration import reject_extension_slow, surviving_extension_sets

from .conftest import random_triangle_free


@pytest.mark.parametrize("seed", range(10))
def test_independent_set_paths_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = random_triangle_free(rng, n, tries=rng.randint(0, 3 * n * n))
    assert independent_set_masks(g) == [s for s in range(1 << n) if is_k_sparse_set(g, s, 0)]


def brute_automorphisms(g):
    return [p for p in itertools.permutations(range(g.order)) if permute(g, p) == g]


def brute_orbit(automorphisms, s):
    return {sum(1 << p[u] for u in set_members(s)) for p in automorphisms}


@pytest.mark.parametrize("seed", range(15))
def test_surviving_sets_match_reference_checks(seed, monkeypatch):
    """One surviving set per orbit, the lowest of each, checked against
    ``reject_extension_slow`` and brute-force automorphisms (n <= 7), or
    child keys above that."""
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
        automorphisms = brute_automorphisms(g) if n <= 7 else None
        for spec in specs:
            fast = surviving_extension_sets(g, spec)
            slow = [s for s in independent_set_masks(g)
                    if not reject_extension_slow(g, spec, s)]
            assert fast == sorted(set(fast)), spec
            assert set(fast) <= set(slow), spec
            if automorphisms is not None:
                for s in slow:
                    orbit = brute_orbit(automorphisms, s)
                    assert orbit & set(fast) == {min(orbit)}, (spec, s)
            else:
                kept = {canonical_form(add_vertex(g, s)) for s in fast}
                assert all(canonical_form(add_vertex(g, s)) in kept for s in slow), spec
