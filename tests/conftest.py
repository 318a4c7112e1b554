from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import triramsey
from triramsey import Graph, build_graph, validate_graph

# Reference extremal graphs pinning isomorphism classes for the R-mode cells
# (k=1, i=4): the unique order-9 extremal for j=6 and the two order-12
# extremals for j=7.
FIGURE_9_EDGES = [(0, 1), (1, 2), (2, 7), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                  (0, 3), (3, 8), (1, 5)]
# Cubic: outer hexagon 0..5, spokes to 6..11, inner hexagon 6,9,7,11,8,10.
FIGURE_12A_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), (1, 7),
                    (2, 8), (3, 9), (4, 10), (5, 11), (11, 8), (8, 10), (10, 6),
                    (6, 9), (9, 7), (7, 11)]
# Inner pentagon 7..11, outer hexagon 1,6,2,3,4,5, four spokes, plus vertex 0
# adjacent to 1 and 8; vertices 0 and 3 both have degree 2.
FIGURE_12B_EDGES = [(0, 1), (0, 8), (1, 6), (1, 5), (2, 3), (2, 6), (2, 7), (3, 4),
                    (4, 9), (4, 5), (10, 11), (7, 8), (8, 9), (9, 10), (7, 11),
                    (6, 10), (5, 11)]


@pytest.fixture(scope="session")
def figure_9() -> Graph:
    return build_graph(9, FIGURE_9_EDGES)


@pytest.fixture(scope="session")
def figure_12a() -> Graph:
    return build_graph(12, FIGURE_12A_EDGES)


@pytest.fixture(scope="session")
def figure_12b() -> Graph:
    return build_graph(12, FIGURE_12B_EDGES)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = build_graph(n, edges)
    validate_graph(g)
    return g


def random_triangle_free(rng: random.Random, n: int, tries: int = 3 * 32 * 32) -> Graph:
    """Random triangle-free graph: insert random edges, skipping any that
    would close a triangle."""
    rows = [0] * n
    for _ in range(tries):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or rows[u] >> v & 1 or rows[u] & rows[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = Graph(n, tuple(rows))
    validate_graph(g)
    return g


def random_permutation(rng: random.Random, n: int) -> list[int]:
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def run_script(tmp_path: Path, source: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``source`` with ``args`` in a child interpreter that imports this
    checkout's package, capturing its output; the 60 s timeout turns a hang
    into a failure."""
    script = tmp_path / "child.py"
    script.write_text(source)
    src = str(Path(triramsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          env=env, timeout=60)
