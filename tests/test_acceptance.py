"""Acceptance suite: one test per criterion, exact equality everywhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Expensive table cells are computed once and shared through a
module-level report cache.  The stretch reproductions (T_1(7), R_4(9,11))
carry the ``stretch`` marker and are excluded from the default run; see the
README for their expected runtimes.
"""

from __future__ import annotations

import os
import random
import warnings
from collections import defaultdict
from pathlib import Path

import networkx as nx
import pytest

from triramsey import (
    CAPPED,
    ProblemSpec,
    RunLimits,
    RunReport,
    are_isomorphic,
    blow_up,
    build_graph,
    canonical_form,
    complete_bipartite,
    compute_number,
    cycle,
    dense_cap_check,
    graph6_decode,
    graph6_encode,
    is_k_sparse_set,
    is_triangle_free,
    level_at,
    permute,
    probe_conjecture,
    read_level,
    sparse_bound_witness,
    verify_membership,
)
from triramsey.formats import level_filename
from triramsey.oracle import (
    brute_membership,
    enumerate_all_triangle_free,
    matches_up_to_isomorphism,
)

from .conftest import (
    FIGURE_12A_EDGES,
    FIGURE_12B_EDGES,
    FIGURE_9_EDGES,
    random_graph,
    random_permutation,
    random_triangle_free,
)

WORKERS = int(os.environ.get("ACCEPTANCE_WORKERS", min(2, os.cpu_count() or 1)))

_REPORTS: dict[ProblemSpec, RunReport] = {}


def run_spec(k: int, j: int, i: int | None = None) -> RunReport:
    spec = ProblemSpec(k=k, j=j, i=i)
    if spec not in _REPORTS:
        _REPORTS[spec] = compute_number(spec, RunLimits(worker_count=WORKERS))
    return _REPORTS[spec]


def announce(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# -- criterion 1: fast table cells -------------------------------------------

FAST_CELLS = [
    (1, 3, 5, 1), (1, 4, 7, 2), (1, 5, 11, 1),
    (2, 4, 5, 1), (2, 5, 9, 2), (2, 6, 11, 6),
    (3, 5, 6, 1), (3, 6, 8, 2),
    (4, 6, 7, 1), (4, 7, 9, 2),
    (5, 7, 8, 1),
] + [(k, 3, 3, 2) for k in range(2, 8)]


def test_criterion_1_fast_cells():
    ok = True
    for k, j, value, count in FAST_CELLS:
        report = run_spec(k, j)
        cell_ok = (report.value, report.extremal_count) == (value, count)
        if not cell_ok:
            print(f"  T_{k}({j}) = {report.value} ({report.extremal_count}), "
                  f"expected {value} ({count})")
        ok = ok and cell_ok
    announce("1 fast cells", ok)


# -- criterion 2: moderate table cells ---------------------------------------

MODERATE_CELLS = [
    (1, 6, 13, 16), (2, 7, 13, 288), (3, 7, 13, 5), (4, 8, 11, 7), (5, 10, 14, 46),
]


@pytest.mark.moderate
def test_criterion_2_moderate_cells():
    ok = True
    for k, j, value, count in MODERATE_CELLS:
        report = run_spec(k, j)
        cell_ok = (report.value, report.extremal_count) == (value, count)
        if not cell_ok:
            print(f"  T_{k}({j}) = {report.value} ({report.extremal_count}), "
                  f"expected {value} ({count})")
        ok = ok and cell_ok
    announce("2 moderate cells", ok)


def _networkx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def isomorphic_pair(graphs) -> bool:
    """True when two of ``graphs`` are isomorphic.

    Beyond the oracle's order 9: bucket by Weisfeiler-Lehman hash, then VF2
    within each bucket; networkx shares no code with the canonical labeling.
    """
    buckets = defaultdict(list)
    with warnings.catch_warnings():
        # networkx >= 3.5 warns that its hashes changed in that release.
        warnings.filterwarnings("ignore", "The hashes produced", UserWarning)
        for g in graphs:
            h = _networkx(g)
            buckets[nx.weisfeiler_lehman_graph_hash(h, iterations=3)].append(h)
    return any(nx.is_isomorphic(a, b)
               for bucket in buckets.values()
               for x, a in enumerate(bucket) for b in bucket[x + 1:])


@pytest.mark.moderate
def test_criterion_2_extremals_pairwise_non_isomorphic():
    ok = True
    for k, j in [(2, 7), (5, 10), (1, 6)]:
        clash = isomorphic_pair(run_spec(k, j).extremals)
        if clash:
            print(f"  T_{k}({j}): two extremals are isomorphic")
        ok = ok and not clash
    announce("2b moderate-cell extremals pairwise non-isomorphic (VF2)", ok)


# -- criterion 3: R_1(4, j) row and figure extremals -------------------------


def test_criterion_3_r1_row_and_figures():
    expectations = [(4, 6, 1), (5, 8, 1), (6, 10, 1), (7, 13, 2)]
    ok = all((run_spec(1, j, 4).value, run_spec(1, j, 4).extremal_count) == (v, c)
             for j, v, c in expectations)

    figure_9 = build_graph(9, FIGURE_9_EDGES)
    report = run_spec(1, 6, 4)
    ok = ok and are_isomorphic(report.extremals[0], figure_9)

    figure_a = build_graph(12, FIGURE_12A_EDGES)
    figure_b = build_graph(12, FIGURE_12B_EDGES)
    report = run_spec(1, 7, 4)
    got = sorted(canonical_form(g) for g in report.extremals)
    want = sorted((canonical_form(figure_a), canonical_form(figure_b)))
    ok = ok and got == want
    announce("3 R_1(4,j) row with figure extremals", ok)


# -- criterion 4: R_k(k+2, j) = j sweep --------------------------------------

SWEEP_COUNTS = {
    1: {3: 2, 4: 2, 5: 3, 6: 3, 7: 4},
    2: {4: 3, 5: 3, 6: 3, 7: 3, 8: 3},
    3: {5: 7, 6: 7, 7: 8, 8: 8, 9: 9},
}


def test_criterion_4_remark_sweep():
    ok = True
    for k, row in SWEEP_COUNTS.items():
        for j, count in row.items():
            report = run_spec(k, j, k + 2)
            ok = ok and (report.value, report.extremal_count) == (j, count)
    announce("4 R_k(k+2,j)=j sweep", ok)


# -- criterion 5: extremal structure -----------------------------------------


def test_criterion_5_extremal_structure():
    ok = True
    for k in range(2, 6):
        report = run_spec(k, k + 2)
        ok = ok and report.extremal_count == 1
        ok = ok and are_isomorphic(report.extremals[0], complete_bipartite(1, k + 1))
    for k in range(3, 6):
        report = run_spec(k, k + 3)
        whole = complete_bipartite(2, k + 2)
        minus = build_graph(k + 4, [e for e in whole.edges() if e != (0, 2)])
        got = sorted(canonical_form(g) for g in report.extremals)
        ok = ok and got == sorted((canonical_form(whole), canonical_form(minus)))
    for k in (4, 5):
        report = run_spec(k, k + 4)
        ok = ok and any(are_isomorphic(g, complete_bipartite(3, k + 3))
                        for g in report.extremals)
    announce("5 extremal structure", ok)


# -- criterion 6: conjecture probe cells -------------------------------------


@pytest.mark.moderate
def test_criterion_6_conjecture_cells():
    cells = probe_conjecture(5, RunLimits(worker_count=WORKERS), reports=_REPORTS)
    ok = all(c.agrees for c in cells)
    for c in cells:
        if not c.agrees:
            print(f"  k={c.k} i={c.i}: value {c.value} expected {c.expected} "
                  f"witness {c.bipartite_witness_found}")
    announce("6 conjecture probe (2 <= i <= k <= 5)", ok)


# -- criterion 7: oracle equivalence -----------------------------------------

ORACLE_SPECS = [
    ProblemSpec(k=1, j=3),
    ProblemSpec(k=1, j=4),
    ProblemSpec(k=1, j=4, i=4),
    ProblemSpec(k=2, j=4),
]


def test_criterion_7_oracle_equivalence():
    ok = True
    for n in range(1, 8):
        pool = enumerate_all_triangle_free(n)
        for spec in ORACLE_SPECS:
            produced = level_at(spec, n).graphs()
            expected = [g for g in pool if brute_membership(g, spec.k, spec.j, spec.i)]
            same = matches_up_to_isomorphism(produced, expected)
            if not same:
                print(f"  n={n} spec={spec}: enumerator {len(produced)}, "
                      f"oracle {len(expected)}")
            ok = ok and same
    announce("7 oracle equivalence (n <= 7)", ok)


# -- criterion 8: property suites --------------------------------------------


def test_criterion_8_canonical_invariance():
    rng = random.Random(80)
    ok = True
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 12), p=rng.choice([0.2, 0.5, 0.8]))
        h = permute(g, random_permutation(rng, g.order))
        ok = ok and canonical_form(g) == canonical_form(h)
    announce("8a canonical relabeling invariance (1000 pairs)", ok)


def test_criterion_8_graph6_round_trip():
    rng = random.Random(81)
    ok = True
    for _ in range(10000):
        g = random_graph(rng, rng.randint(0, 20), p=rng.choice([0.1, 0.3, 0.5, 0.9]))
        ok = ok and graph6_decode(graph6_encode(g)) == g
    announce("8b graph6 round trip (10000 graphs)", ok)


def test_criterion_8_recoloring_bound():
    rng = random.Random(82)
    ok = True
    for trial in range(500):
        g = random_triangle_free(rng, rng.randint(1, 10))
        k = trial % 4
        witness = sparse_bound_witness(g, k)
        colors = -((g.max_degree() + 1) // -(k + 1))
        ok = ok and is_k_sparse_set(g, witness, k)
        ok = ok and witness.bit_count() >= -(g.order // -colors)
    announce("8c recoloring lower bound (500 graphs)", ok)


def test_criterion_8_dense_cap():
    rng = random.Random(83)
    ok = True
    for trial in range(300):
        g = random_triangle_free(rng, rng.randint(1, 10))
        ok = ok and dense_cap_check(g, trial % 3)
    for g in run_spec(1, 5).extremals + run_spec(2, 5).extremals:
        ok = ok and is_triangle_free(g) and dense_cap_check(g, 1) and dense_cap_check(g, 2)
    announce("8d dense-set cap on generated graphs", ok)


def test_criterion_8_worker_determinism(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    outputs = {}
    for workers in (1, 2, 8):
        directory = tmp_path / f"w{workers}"
        compute_number(spec, RunLimits(worker_count=workers, checkpoint_dir=directory))
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    ok = outputs[1] == outputs[2] == outputs[8] and len(outputs[1]) == 7
    announce("8e worker-count determinism (1, 2, 8)", ok)


# -- blank cells: clean capped checkpoint ------------------------------------


def test_blank_cell_caps_cleanly(tmp_path):
    # A cell too large at desk scale must stop on the memory guard with a
    # valid, resumable checkpoint rather than die.
    spec = ProblemSpec(k=1, j=8)
    limits = RunLimits(max_level_cardinality=400, worker_count=WORKERS,
                       checkpoint_dir=tmp_path)
    report = compute_number(spec, limits)
    ok = report.status == CAPPED and report.value is None
    last = max(report.per_level_counts)
    level, file_spec = read_level(tmp_path / level_filename(last))
    ok = ok and file_spec == spec and len(level) == report.per_level_counts[last]
    rng = random.Random(84)
    sample = rng.sample(level.members, min(20, len(level)))
    ok = ok and all(verify_membership(g, spec) for _, g in sample)
    announce("capped checkpoint on an out-of-reach cell", ok)


# -- criterion 9: stretch reproductions (CI jobs stretch-t17, stretch-r4911) -

T_1_7_LEVEL_11 = Path(__file__).resolve().parents[1] / "perfbench/fixtures/t1_7-level-11.lvl"


@pytest.mark.moderate
def test_t_1_7_level_11_matches_fixture(tmp_path):
    # The pinned 31,011-member order-11 level of T_1(7), byte for byte.
    compute_number(ProblemSpec(k=1, j=7),
                   RunLimits(max_order=11, worker_count=2, checkpoint_dir=tmp_path))
    ok = (tmp_path / level_filename(11)).read_bytes() == T_1_7_LEVEL_11.read_bytes()
    announce("9c T_1(7) order-11 level matches the pinned level file", ok)


@pytest.mark.stretch
def test_stretch_t_1_7():
    report = run_spec(1, 7)
    ok = (report.value, report.extremal_count) == (18, 1)
    ok = ok and report.per_level_counts[13] == 108243
    announce("9a stretch T_1(7)=18 with order-13 level 108243", ok)


R_4_9_11_COUNTS = {11: 58435, 12: 174902, 13: 320766, 14: 335626,
                   15: 138836, 16: 24196, 17: 255, 18: 0}


@pytest.mark.stretch
def test_stretch_r_4_9_11():
    report = run_spec(4, 11, 9)
    ok = (report.value, report.extremal_count) == (18, 255)
    ok = ok and all(report.per_level_counts[o] == c for o, c in R_4_9_11_COUNTS.items())
    ok = ok and not isomorphic_pair(report.extremals)
    announce("9b stretch R_4(9,11)=18 with orders 11-18 pinned, extremals "
             "pairwise non-isomorphic (VF2)", ok)


# -- known lower-bound constructions -----------------------------------------


def test_construction_witnesses():
    # the blow-up and complete-bipartite lower-bound witnesses behave as stated
    ok = verify_membership(blow_up(cycle(5), 2), ProblemSpec(k=1, j=5))
    ok = ok and verify_membership(complete_bipartite(6, 6), ProblemSpec(k=2, j=7))
    ok = ok and verify_membership(cycle(7), ProblemSpec(k=1, j=5, i=4))
    announce("construction witnesses", ok)
