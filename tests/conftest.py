"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_cora_like, make_wikipedia_like
from repro.graph import DirectedGraph, UndirectedGraph
from repro.graph.generators import figure1_graph


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def triangle_digraph() -> DirectedGraph:
    """3-cycle: 0 -> 1 -> 2 -> 0."""
    return DirectedGraph.from_edges([(0, 1), (1, 2), (2, 0)], n_nodes=3)


@pytest.fixture
def two_fans_digraph() -> DirectedGraph:
    """Two 'fans': {0,1} -> 2 and {3,4} -> 5, plus a weak bridge 2 -> 5.

    Nodes 0,1 (and 3,4) share an out-link without interlinking — a
    minimal Figure-1-style instance.
    """
    return DirectedGraph.from_edges(
        [(0, 2), (1, 2), (3, 5), (4, 5), (2, 5)], n_nodes=6
    )


@pytest.fixture
def figure1():
    """The paper's Figure-1 idealized graph with its role map."""
    return figure1_graph()


@pytest.fixture
def small_weighted_ugraph() -> UndirectedGraph:
    """Two weighted triangles joined by one light edge."""
    return UndirectedGraph.from_edges(
        [
            (0, 1, 2.0),
            (1, 2, 2.0),
            (0, 2, 2.0),
            (3, 4, 2.0),
            (4, 5, 2.0),
            (3, 5, 2.0),
            (2, 3, 0.1),
        ],
        n_nodes=6,
    )


@pytest.fixture(scope="session")
def cora_small():
    """A small cora-like dataset shared across the session (read-only)."""
    return make_cora_like(n_nodes=600, n_categories=12, seed=0)


@pytest.fixture(scope="session")
def wiki_small():
    """A small wikipedia-like dataset shared across the session."""
    return make_wikipedia_like(n_nodes=1200, n_categories=12, seed=0,
                              n_list_clusters=3)


def planted_two_cluster_ugraph(
    n_per_side: int = 20, seed: int = 7
) -> UndirectedGraph:
    """Two dense blobs with a few cross edges — used by clusterer tests."""
    rng = np.random.default_rng(seed)
    edges = []
    for offset in (0, n_per_side):
        nodes = range(offset, offset + n_per_side)
        for i in nodes:
            for j in nodes:
                if i < j and rng.random() < 0.5:
                    edges.append((i, j, 1.0))
    for _ in range(3):
        i = int(rng.integers(0, n_per_side))
        j = int(rng.integers(n_per_side, 2 * n_per_side))
        edges.append((i, j, 0.5))
    return UndirectedGraph.from_edges(edges, n_nodes=2 * n_per_side)


@pytest.fixture
def two_blob_ugraph() -> UndirectedGraph:
    """Fixture wrapper around :func:`planted_two_cluster_ugraph`."""
    return planted_two_cluster_ugraph()


#: Subprocess preamble defining ``peak_kb()``: the process's own peak
#: RSS in kB. ``ru_maxrss`` is no good here: Linux carries the
#: spawning process's high-water mark across ``exec``, so under a
#: large pytest process a child reads the parent's peak.
PEAK_KB = (
    "import resource\n"
    "def peak_kb():\n"
    "    try:\n"
    "        with open('/proc/self/status') as status:\n"
    "            for line in status:\n"
    "                if line.startswith('VmHWM:'):\n"
    "                    return int(line.split()[1])\n"
    "    except OSError:\n"
    "        pass\n"
    "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
)
