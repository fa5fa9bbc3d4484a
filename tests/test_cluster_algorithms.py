"""Behavioural tests for the four clustering algorithms.

Each algorithm must (a) recover planted structure, (b) respect its
cluster-count contract, (c) behave sensibly on degenerate inputs.
"""

import hashlib

import numpy as np
import pytest

import repro.cluster.mlrmcl as mlrmcl
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
from repro.obs.metrics import metrics_active
from repro.obs.trace import tracing
from repro.symmetrize import DegreeDiscountedSymmetrization
from tests.conftest import planted_two_cluster_ugraph


def _ring_of_cliques(n_cliques=4, clique_size=8, seed=0, n_isolated=0):
    """Cliques joined in a ring by single light edges, then
    ``n_isolated`` nodes without edges."""
    edges = []
    n = n_cliques * clique_size
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j, 1.0))
        nxt = ((c + 1) % n_cliques) * clique_size
        edges.append((base, nxt, 0.1))
    return UndirectedGraph.from_edges(edges, n_nodes=n + n_isolated)


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


@pytest.fixture(scope="module")
def power_law_symmetrized():
    """A paper-prune-family graph: 2k nodes, both degree tails capped at
    100, §3.6 kernel at ``t = 0.2`` (most nodes left without an edge)."""
    graph = power_law_digraph(2000, np.random.default_rng(0), d_max=100)
    return DegreeDiscountedSymmetrization().apply_pruned(graph, 0.2)


@pytest.fixture
def ring_with_isolated():
    return _ring_of_cliques(10, 12, n_isolated=10)


#: sha256 of MLR-MCL labels on the Wikipedia-like graph, by target.
WIKIPEDIA_LIKE_PINS = [
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
]
POWER_LAW_PIN = (
    "9e95c52f9d0765e860d6c247e48781b4"
    "d197286e349c45a73caf37fd8cac0f8e"
)
#: Labels and the four ``mcl_*`` metrics (iterations, entries pruned,
#: final flow nnz, prune fraction) off the default parameters, recorded
#: before inert nodes were kept out of the product (``self_loop_0``
#: since the stability test's tie rule): graph fixture, target,
#: parameters, labels sha256, metrics.
OFF_DEFAULT_PINS = [
    pytest.param(
        "power_law_symmetrized",
        None,
        {"self_loop": 0.0},
        "f33e6c6704bc55fa0bbe65734f72bd65"
        "5760b97b9bd2f47f394f8ab50be19b6a",
        (19, 882, 1522, 0.019529342837613515),
        id="self_loop_0",
    ),
    pytest.param(
        "ring_with_isolated",
        None,
        {"inflation": 3.0, "coarsen_to": 30},
        "97cc09d03162373cdf27bdbb60088d0f"
        "9c08f6ad98b95a10fcb0e4dc58124dad",
        (8, 720, 970, 0.1415929203539823),
        id="inflation_3_coarsen_to_30",
    ),
    pytest.param(
        "wikipedia_like_symmetrized",
        25,
        {"prune_fraction": 0.0},
        "7fa30a67f6860a7b94248783f5dd3e60"
        "5d4dd011c006da5034dd2e7e8586187e",
        (10, 0, 1024144, 0.0),
        id="prune_fraction_0",
    ),
]


def _labels_digest(clustering):
    return hashlib.sha256(clustering.labels.tobytes()).hexdigest()


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

    def test_labels_pinned_on_power_law_graph(self, power_law_symmetrized):
        """sha256 of the labels on a paper-prune-family graph. The pin
        moves only with a change to which flow a level ends on: it was
        re-recorded once, when the two-round stability test began to
        read each column's lowest row among tied maxima, so the finest
        level stops after 2 steps instead of alternating for 25 (1,554
        clusters instead of 1,544). How a step is computed may not move
        a label."""
        clustering = MLRMCL().cluster(power_law_symmetrized, 50)
        assert _labels_digest(clustering) == POWER_LAW_PIN

    @pytest.mark.parametrize("n_clusters,digest", WIKIPEDIA_LIKE_PINS)
    def test_labels_pinned_on_wikipedia_like_graph(
        self, wikipedia_like_symmetrized, n_clusters, digest
    ):
        """Same pin on a serve-jobs-family graph (hubs, full ``U_d``
        pruned at 0.05), curtailed at two targets and run to the
        plateau."""
        clustering = MLRMCL().cluster(wikipedia_like_symmetrized, n_clusters)
        assert _labels_digest(clustering) == digest

    @pytest.mark.parametrize(
        "fixture,n_clusters,digest",
        [("power_law_symmetrized", 50, POWER_LAW_PIN)]
        + [
            ("wikipedia_like_symmetrized", *pin)
            for pin in WIKIPEDIA_LIKE_PINS
        ],
    )
    def test_label_pins_hold_in_one_entry_blocks(
        self, request, monkeypatch, fixture, n_clusters, digest
    ):
        """With the block budget at one entry, every R-MCL product runs
        about one column at a time; a column's product depends only on
        its own column of ``M_G``, so no label may move."""
        monkeypatch.setattr(mlrmcl, "_FLOW_BLOCK_ENTRIES", 1)
        graph = request.getfixturevalue(fixture)
        with tracing() as tracer:
            clustering = MLRMCL().cluster(graph, n_clusters)
        assert _labels_digest(clustering) == digest
        blocks = [
            s.attributes["flow_blocks"]
            for s in tracer.walk()
            if s.name.startswith("rmcl:")
        ]
        assert max(blocks) > 100

    @pytest.mark.parametrize(
        "fixture,n_clusters,params,digest,metrics", OFF_DEFAULT_PINS
    )
    def test_labels_and_metrics_pinned_off_defaults(
        self, request, fixture, n_clusters, params, digest, metrics
    ):
        """Off-default pins for the cases inert nodes touch: degree-1
        nodes without self-loops (their only entry is off-diagonal, so
        they are not inert), isolated nodes through a multi-level run,
        and no pruning at all (the flow fills in, several column
        blocks per step)."""
        graph = request.getfixturevalue(fixture)
        with metrics_active() as registry:
            clustering = MLRMCL(**params).cluster(graph, n_clusters)
        assert _labels_digest(clustering) == digest
        flat = registry.flat()
        assert (
            flat["mcl_iterations"],
            flat["mcl_entries_pruned_total"],
            flat["mcl_final_flow_nnz"],
            flat["mcl_prune_fraction"],
        ) == metrics

    def test_self_loop_pin_graph_has_degree_one_nodes(
        self, power_law_symmetrized
    ):
        degrees = np.diff(power_law_symmetrized.adjacency.tocsr().indptr)
        assert (degrees == 1).sum() > 100
        assert (degrees == 0).sum() > 1000

    def test_spans_report_inert_nodes_and_blocks(self, power_law_symmetrized):
        with tracing() as tracer:
            MLRMCL().cluster(power_law_symmetrized, 50)
        rmcl = [s for s in tracer.walk() if s.name.startswith("rmcl:")]
        assert rmcl
        for s in rmcl:
            assert 0 < s.attributes["inert_nodes"] < s.attributes["n_nodes"]
            assert s.attributes["flow_blocks"] == 1

    def test_spans_report_why_each_level_stopped(
        self, power_law_symmetrized, wikipedia_like_symmetrized
    ):
        """The power-law graph's finest level settles on tied maxima
        whose stored order flips every step; it stops as stable within
        a few steps, not at the 40-step cap. Every level of the
        Wikipedia-like graph reaches its target of 25 (at 10 its finest
        level settles at 19 clusters)."""
        with tracing() as tracer, metrics_active() as registry:
            MLRMCL().cluster(power_law_symmetrized, 50)
        rmcl = [s for s in tracer.walk() if s.name.startswith("rmcl:")]
        finest = rmcl[-1]
        assert finest.name == "rmcl:level[0]"
        assert finest.attributes["stop"] == "stable"
        assert finest.attributes["iterations"] <= 5
        assert sum(s.attributes["iterations"] for s in rmcl) == (
            registry.flat()["mcl_iterations"]
        )
        with tracing() as tracer:
            MLRMCL().cluster(wikipedia_like_symmetrized, 25)
        stops = [
            s.attributes["stop"]
            for s in tracer.walk()
            if s.name.startswith("rmcl:")
        ]
        assert stops and set(stops) == {"target"}

    @pytest.mark.parametrize(
        "params",
        [
            {"inflation": float("nan")},
            {"inflation": float("inf")},
            {"self_loop": float("nan")},
            {"self_loop": float("inf")},
            {"self_loop": -1.0},
            {"iterations_coarse": -1},
            {"iterations_per_level": -1},
            {"iterations_finest": -1},
            {"coarsen_to": 0},
        ],
        ids=lambda params: "-".join(f"{k}={v}" for k, v in params.items()),
    )
    def test_rejects_parameters_that_return_garbage(self, params):
        """Each used to be accepted: non-finite inflation or self-loop
        returned all singletons, a negative self-loop one cluster,
        negative iteration counts meant 0, and ``coarsen_to < 1``
        failed only at cluster time."""
        with pytest.raises(ClusteringError):
            MLRMCL(**params)

    def test_zero_iterations_are_legal(self):
        g = _ring_of_cliques()
        with tracing() as tracer:
            c = MLRMCL(
                iterations_coarse=0,
                iterations_per_level=0,
                iterations_finest=0,
            ).cluster(g)
        assert c.labels.shape == (32,)
        (level,) = [s for s in tracer.walk() if s.name.startswith("rmcl:")]
        assert (level.attributes["iterations"], level.attributes["stop"]) == (
            0,
            "cap",
        )
