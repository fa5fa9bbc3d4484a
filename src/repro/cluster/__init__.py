"""Undirected graph clustering algorithms (stage 2 of the framework).

The paper's framework deliberately reuses *existing* undirected graph
clustering algorithms after symmetrization. The three it evaluates are
implemented here from scratch:

- :class:`MLRMCL` — Multi-Level Regularized Markov CLustering
  (Satuluri & Parthasarathy, KDD'09), the authors' own algorithm.
- :class:`MetisClusterer` — METIS-style multilevel k-way partitioning
  via recursive bisection (Karypis & Kumar).
- :class:`GraclusClusterer` — Graclus-style multilevel weighted kernel
  k-means normalized-cut minimization (Dhillon et al.).
- :class:`SpectralClusterer` — Shi–Malik normalized spectral
  clustering, used as an additional reference method.

All algorithms consume an :class:`~repro.graph.UndirectedGraph` and
return a :class:`~repro.cluster.common.Clustering`.
"""

from repro.cluster.common import (
    Clustering,
    GraphClusterer,
    available_clusterers,
    get_clusterer,
    register_clusterer,
)
from repro.cluster.graclus import GraclusClusterer
from repro.cluster.metis import MetisClusterer
from repro.cluster.mlrmcl import MLRMCL
from repro.cluster.spectral import SpectralClusterer

__all__ = [
    "Clustering",
    "GraphClusterer",
    "get_clusterer",
    "register_clusterer",
    "available_clusterers",
    "MLRMCL",
    "MetisClusterer",
    "GraclusClusterer",
    "SpectralClusterer",
]
