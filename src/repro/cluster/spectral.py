"""Normalized-cut spectral clustering (Shi & Malik, 2000).

Used as an additional reference stage-2 algorithm and as the shared
machinery for the directed spectral baselines in :mod:`repro.directed`:
embed the nodes with the top eigenvectors of the normalized adjacency
``D^{-1/2} W D^{-1/2}`` and discretize with k-means on the
row-normalized embedding (the Ng–Jordan–Weiss variant of the
discretization step).

Spectral methods are quality-competitive but scale poorly — the
eigensolve dominates — which is exactly the scalability argument the
paper makes against directed spectral clustering (§2.1, §5.2).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.cluster.common import (
    Clustering,
    GraphClusterer,
    register_clusterer,
)
from repro.cluster.kmeans import kmeans
from repro.exceptions import ClusteringError
from repro.graph.ugraph import UndirectedGraph
from repro.obs.metrics import metric_set
from repro.obs.trace import span

__all__ = ["SpectralClusterer", "spectral_embedding", "discretize_embedding"]


def spectral_embedding(
    matrix: sp.csr_array,
    n_components: int,
    dense_cutoff: int = 1500,
    seed: int = 0,
) -> np.ndarray:
    """Top eigenvectors of a symmetric matrix.

    Uses a dense ``eigh`` below ``dense_cutoff`` nodes (sparse Lanczos
    is unreliable for tiny or disconnected problems) and ARPACK's
    ``eigsh`` above it. Returns an ``(n, n_components)`` array of the
    eigenvectors with the ``n_components`` largest eigenvalues.
    """
    n = matrix.shape[0]
    if n_components < 1:
        raise ClusteringError("n_components must be >= 1")
    n_components = min(n_components, n)
    if n <= dense_cutoff or n_components >= n - 1:
        dense = np.asarray(matrix.todense())
        dense = (dense + dense.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(dense)
        return eigvecs[:, -n_components:]
    from scipy.sparse.linalg import eigsh

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    eigvals, eigvecs = eigsh(
        matrix, k=n_components, which="LA", v0=v0
    )
    order = np.argsort(eigvals)
    return eigvecs[:, order]


def discretize_embedding(
    embedding: np.ndarray,
    k: int,
    seed: int = 0,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Row-normalize an embedding and cluster rows with k-means."""
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    points = embedding / norms
    rng = np.random.default_rng(seed)
    return kmeans(points, k, rng=rng, weights=weights)


@register_clusterer("spectral")
class SpectralClusterer(GraphClusterer):
    """Shi–Malik normalized spectral clustering.

    Parameters
    ----------
    dense_cutoff:
        Below this node count the eigenproblem is solved densely.
    seed:
        Seed for the eigensolver starting vector and k-means.
    """

    def __init__(self, dense_cutoff: int = 1500, seed: int = 0) -> None:
        self.dense_cutoff = int(dense_cutoff)
        self.seed = int(seed)

    def _cluster(
        self, graph: UndirectedGraph, n_clusters: int | None
    ) -> Clustering:
        if n_clusters is None:
            raise ClusteringError("SpectralClusterer requires n_clusters")
        adj = graph.adjacency.tocsr()
        degrees = np.asarray(adj.sum(axis=1)).ravel()
        inv_sqrt = np.divide(
            1.0,
            np.sqrt(degrees),
            out=np.zeros_like(degrees),
            where=degrees > 0,
        )
        D = sp.diags_array(inv_sqrt)
        normalized = (D @ adj @ D).tocsr()
        with span("spectral:embedding") as sp_:
            embedding = spectral_embedding(
                normalized,
                n_clusters,
                dense_cutoff=self.dense_cutoff,
                seed=self.seed,
            )
            sp_.set(
                n_nodes=normalized.shape[0],
                n_components=embedding.shape[1],
            )
        metric_set("spectral_n_components", embedding.shape[1])
        with span("spectral:discretize"):
            labels = discretize_embedding(
                embedding, n_clusters, seed=self.seed
            )
        return Clustering(labels)
