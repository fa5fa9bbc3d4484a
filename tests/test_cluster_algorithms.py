"""Behavioural tests for the four clustering algorithms.

Each algorithm must (a) recover planted structure, (b) respect its
cluster-count contract, (c) behave sensibly on degenerate inputs.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import (
    GraclusClusterer,
    MetisClusterer,
    MLRMCL,
    SpectralClusterer,
)
from repro.datasets import make_wikipedia_like
from repro.exceptions import ClusteringError
from repro.graph import UndirectedGraph
from repro.graph.generators import power_law_digraph
from repro.symmetrize import DegreeDiscountedSymmetrization
from tests.conftest import planted_two_cluster_ugraph


def _ring_of_cliques(n_cliques=4, clique_size=8, seed=0):
    """Cliques joined in a ring by single light edges."""
    edges = []
    n = n_cliques * clique_size
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j, 1.0))
        nxt = ((c + 1) % n_cliques) * clique_size
        edges.append((base, nxt, 0.1))
    return UndirectedGraph.from_edges(edges, n_nodes=n)


def _planted_labels_match(labels, n_cliques, clique_size):
    """Every clique is uniform and cliques are pairwise distinct."""
    for c in range(n_cliques):
        block = labels[c * clique_size: (c + 1) * clique_size]
        if len(set(block.tolist())) != 1:
            return False
    firsts = [labels[c * clique_size] for c in range(n_cliques)]
    return len(set(firsts)) == n_cliques


@pytest.fixture(scope="module")
def wikipedia_like_symmetrized():
    ds = make_wikipedia_like(n_nodes=1000, n_categories=16, seed=0)
    return DegreeDiscountedSymmetrization().apply(ds.graph, threshold=0.05)


class TestMetis:
    def test_two_blobs(self, two_blob_ugraph):
        c = MetisClusterer().cluster(two_blob_ugraph, 2)
        assert c.n_clusters == 2
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = MetisClusterer().cluster(g, 4)
        assert _planted_labels_match(c.labels, 4, 8)

    def test_exact_cluster_count(self):
        g = _ring_of_cliques(6, 6)
        c = MetisClusterer().cluster(g, 6)
        assert c.n_clusters == 6

    def test_balance(self):
        g = _ring_of_cliques(4, 10)
        c = MetisClusterer(imbalance=1.05).cluster(g, 4)
        assert c.sizes.max() <= 1.3 * c.sizes.min()

    def test_k_one(self, two_blob_ugraph):
        c = MetisClusterer().cluster(two_blob_ugraph, 1)
        assert c.n_clusters == 1

    def test_k_equals_n(self):
        g = _ring_of_cliques(2, 3)
        c = MetisClusterer().cluster(g, 6)
        assert c.n_clusters == 6

    def test_odd_k(self):
        g = _ring_of_cliques(6, 6)
        c = MetisClusterer().cluster(g, 3)
        assert c.n_clusters == 3

    def test_disconnected_graph(self):
        g = UndirectedGraph.from_edges(
            [(0, 1), (2, 3)], n_nodes=4
        )
        c = MetisClusterer().cluster(g, 2)
        assert c.n_clusters == 2

    def test_deterministic_given_seed(self, two_blob_ugraph):
        c1 = MetisClusterer(seed=7).cluster(two_blob_ugraph, 2)
        c2 = MetisClusterer(seed=7).cluster(two_blob_ugraph, 2)
        assert c1 == c2

    def test_rejects_bad_imbalance(self):
        with pytest.raises(ClusteringError):
            MetisClusterer(imbalance=0.9)

    def test_requires_n_clusters(self, two_blob_ugraph):
        with pytest.raises(ClusteringError, match="n_clusters"):
            MetisClusterer().cluster(two_blob_ugraph, None)


class TestGraclus:
    def test_two_blobs(self, two_blob_ugraph):
        c = GraclusClusterer().cluster(two_blob_ugraph, 2)
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = GraclusClusterer().cluster(g, 4)
        assert _planted_labels_match(c.labels, 4, 8)

    def test_improves_ncut_over_random(self):
        from repro.directed.objectives import clustering_ncut

        g = _ring_of_cliques(4, 8)
        c = GraclusClusterer().cluster(g, 4)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 4, size=g.n_nodes)
        assert clustering_ncut(g, c.labels) < clustering_ncut(
            g, random_labels
        )

    def test_k_one(self, two_blob_ugraph):
        c = GraclusClusterer().cluster(two_blob_ugraph, 1)
        assert c.n_clusters == 1

    def test_handles_isolated_nodes(self):
        g = UndirectedGraph.from_edges([(0, 1), (1, 2)], n_nodes=5)
        c = GraclusClusterer().cluster(g, 2)
        assert c.n_nodes == 5

    def test_rejects_bad_coarsen_factor(self):
        with pytest.raises(ClusteringError):
            GraclusClusterer(coarsen_factor=0)

    def test_requires_n_clusters(self, two_blob_ugraph):
        with pytest.raises(ClusteringError, match="n_clusters"):
            GraclusClusterer().cluster(two_blob_ugraph, None)


class TestSpectral:
    def test_two_blobs(self, two_blob_ugraph):
        c = SpectralClusterer().cluster(two_blob_ugraph, 2)
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = SpectralClusterer().cluster(g, 4)
        assert _planted_labels_match(c.labels, 4, 8)

    def test_k_one(self, two_blob_ugraph):
        c = SpectralClusterer().cluster(two_blob_ugraph, 1)
        assert c.n_clusters == 1

    def test_sparse_path_used_above_cutoff(self):
        g = planted_two_cluster_ugraph(n_per_side=30)
        c = SpectralClusterer(dense_cutoff=10).cluster(g, 2)
        assert _planted_labels_match(c.labels, 2, 30)


class TestMLRMCL:
    def test_two_blobs_autodetects_k(self, two_blob_ugraph):
        c = MLRMCL(inflation=2.0).cluster(two_blob_ugraph)
        assert c.n_clusters == 2
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = MLRMCL(inflation=2.0).cluster(g)
        assert c.n_clusters == 4
        assert _planted_labels_match(c.labels, 4, 8)

    def test_higher_inflation_more_clusters(self):
        g = _ring_of_cliques(8, 6)
        low = MLRMCL(inflation=1.3).cluster(g)
        high = MLRMCL(inflation=5.0).cluster(g)
        assert high.n_clusters >= low.n_clusters

    def test_k_target_curtailment(self):
        g = _ring_of_cliques(8, 6)
        c = MLRMCL(inflation=1.5).cluster(g, 8)
        assert 4 <= c.n_clusters <= 16  # indirect control, close-ish

    def test_isolated_nodes_are_singletons(self):
        g = UndirectedGraph.from_edges([(0, 1)], n_nodes=4)
        c = MLRMCL().cluster(g)
        assert c.labels[0] == c.labels[1]
        assert c.labels[2] != c.labels[3]

    def test_multilevel_path_used_on_larger_graph(self):
        g = _ring_of_cliques(10, 12)  # 120 nodes
        c = MLRMCL(inflation=2.0, coarsen_to=30).cluster(g)
        assert c.n_clusters == 10

    def test_rejects_bad_inflation(self):
        with pytest.raises(ClusteringError):
            MLRMCL(inflation=1.0)

    def test_rejects_bad_prune_fraction(self):
        with pytest.raises(ClusteringError):
            MLRMCL(prune_fraction=1.5)

    def test_repr(self):
        assert "2.0" in repr(MLRMCL(inflation=2.0))

    def test_labels_pinned_on_power_law_graph(self):
        """sha256 of the labels on a paper-prune-family graph (2k
        nodes, both degree tails capped at 100, §3.6 kernel at
        ``t = 0.2``), recorded before the per-iteration cluster count
        came from ``connected_components``: a change to how MLR-MCL
        iterates or stops may not move a label."""
        graph = power_law_digraph(2000, np.random.default_rng(0), d_max=100)
        symmetrized = DegreeDiscountedSymmetrization().apply_pruned(
            graph, 0.2
        )
        labels = MLRMCL().cluster(symmetrized, 50).labels
        assert hashlib.sha256(labels.tobytes()).hexdigest() == (
            "7cf6c43d9c14d07c98b9451d33a37f9e"
            "72782877a785a7d474a893e69fdc04ac"
        )

    @pytest.mark.parametrize(
        "n_clusters,digest",
        [
            (
                10,
                "7e52b65c7da26b01c518597cabc5bd5c"
                "1773002e485eb7445d57c6c8a738d3d5",
            ),
            (
                25,
                "cd02dc531fbf2bcd0bfc29d95b22fdbc"
                "90196692601a634ed50dc9a67f3e91bc",
            ),
            (
                None,
                "b4818b8a7f39e38bf8bfbf2f62aa4989"
                "3f29912433553862401cdab009a72308",
            ),
        ],
    )
    def test_labels_pinned_on_wikipedia_like_graph(
        self, wikipedia_like_symmetrized, n_clusters, digest
    ):
        """Same pin on a serve-jobs-family graph (hubs, full ``U_d``
        pruned at 0.05), curtailed at two targets and run to the
        plateau."""
        clustering = MLRMCL().cluster(wikipedia_like_symmetrized, n_clusters)
        assert hashlib.sha256(clustering.labels.tobytes()).hexdigest() == (
            digest
        )

