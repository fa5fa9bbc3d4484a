"""Property-based tests (hypothesis) for core invariants.

These cover the mathematical guarantees the library's correctness
rests on: symmetry/non-negativity of every symmetrization, degree
monotonicity of discounting, pruning monotonicity, F-measure bounds,
sign-test bounds, coarsening conservation laws and clustering label
invariants — on randomly generated directed graphs.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.linalg.allpairs as allpairs
from repro.cluster.coarsen import build_hierarchy, contract, heavy_edge_matching
from repro.cluster.common import Clustering
from repro.eval.fmeasure import average_f_score
from repro.eval.groundtruth import GroundTruth
from repro.eval.significance import sign_test
from repro.graph import DirectedGraph, UndirectedGraph
from repro.graph.generators import power_law_digraph
from repro.linalg import thresholded_gram_matrix
from repro.linalg.sparse_utils import prune_matrix
from repro.symmetrize import get_symmetrization
from repro.validate import lenient

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def directed_graphs(draw, min_nodes=2, max_nodes=12):
    """A random small directed graph (possibly with isolated nodes)."""
    n = draw(st.integers(min_nodes, max_nodes))
    n_edges = draw(st.integers(0, n * (n - 1)))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 10.0, allow_nan=False),
            ),
            min_size=0,
            max_size=n_edges,
        )
    )
    edges = [(i, j, w) for i, j, w in edges if i != j]
    return DirectedGraph.from_edges(edges, n_nodes=n)


@st.composite
def undirected_graphs(draw, min_nodes=2, max_nodes=12):
    """A random small undirected weighted graph."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 5.0, allow_nan=False),
            ),
            min_size=0,
            max_size=3 * n,
        )
    )
    edges = [(i, j, w) for i, j, w in edges if i != j]
    return UndirectedGraph.from_edges(edges, n_nodes=n)


@st.composite
def power_law_digraphs(draw, min_nodes=10, max_nodes=40):
    """A random power-law digraph — the degree structure the paper's
    datasets share (hubs, dangling tails, reciprocity)."""
    n = draw(st.integers(min_nodes, max_nodes))
    seed = draw(st.integers(0, 2**32 - 1))
    return power_law_digraph(n, np.random.default_rng(seed))


@st.composite
def tied_gram_inputs(draw):
    """A sparse non-negative ``(n, d)`` matrix, a threshold equal to
    some pair's similarity, and that pair.

    Either every value is a multiple of 1/8, so every dot product is
    exact in any summation order and many pairs tie, or the values are
    arbitrary floats and the tied pair shares exactly one feature, so
    its similarity is a single product every engine rounds alike.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 30))
    rows = sp.random_array(
        (n, d), density=draw(st.floats(0.05, 0.5)), rng=rng, format="csr"
    )
    dyadic = draw(st.booleans())
    if dyadic:
        rows.data = np.ceil(rows.data * 8) / 8
    else:
        rows.data = rows.data + 0.01
    dense = rows.toarray()
    present = (dense > 0).astype(np.int64)
    shared = present @ present.T
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    pairs = np.argwhere(upper & (shared > 0 if dyadic else shared == 1))
    assume(len(pairs))
    i, j = pairs[draw(st.integers(0, len(pairs) - 1))]
    return rows, float((dense @ dense.T)[i, j]), int(i), int(j)


SYM_NAMES = ["naive", "bibliometric", "degree_discounted"]

#: All four paper symmetrizations; random_walk runs pagerank so it is
#: kept out of the tiny-graph strategies above but exercised on the
#: power-law graphs below.
ALL_SYM_NAMES = SYM_NAMES + ["random_walk"]

# ---------------------------------------------------------------------------
# Symmetrization invariants
# ---------------------------------------------------------------------------


@given(power_law_digraphs(), st.sampled_from(ALL_SYM_NAMES))
@settings(max_examples=30, deadline=None)
def test_symmetrization_contract_on_power_law(graph, name):
    """Every symmetrization output on a power-law digraph is square,
    symmetric, finite, non-negative and zero-diagonal — the
    validate_symmetrization_output contract."""
    assume(graph.n_edges > 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u = get_symmetrization(name).apply(graph)
    adj = u.adjacency
    assert adj.shape == (graph.n_nodes, graph.n_nodes)
    if adj.nnz:
        assert np.all(np.isfinite(adj.data))
        assert adj.data.min() >= 0.0
        asym = abs(adj - adj.T)
        assert (asym.max() if asym.nnz else 0.0) == 0.0
        assert adj.diagonal().max() == 0.0


@given(directed_graphs(), st.sampled_from(ALL_SYM_NAMES))
@settings(max_examples=40, deadline=None)
def test_lenient_apply_is_total(graph, name):
    """In lenient mode no symmetrization raises on any random graph —
    degenerate shapes downgrade to warnings."""
    with lenient(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u = get_symmetrization(name).apply(graph)
    assert u.n_nodes == graph.n_nodes


@given(directed_graphs(), st.floats(0.01, 1.0))
@settings(max_examples=30, deadline=None)
def test_degree_discounted_pruned_matches_exact(graph, threshold):
    """The §3.6 pruned fast path agrees with the exact path
    edge-for-edge at arbitrary thresholds."""
    dd = get_symmetrization("degree_discounted")
    exact = dd.apply(graph, threshold=threshold).adjacency
    fast = dd.apply_pruned(graph, threshold=threshold).adjacency
    assert exact.indptr.tolist() == fast.indptr.tolist()
    assert exact.indices.tolist() == fast.indices.tolist()
    if exact.nnz:
        np.testing.assert_allclose(
            fast.data, exact.data, rtol=1e-12, atol=0.0
        )


@given(
    tied_gram_inputs(),
    st.integers(1, 64),
    st.integers(1, 256),
    st.sampled_from([None, 2]),
)
@settings(max_examples=100, deadline=None)
def test_allpairs_knobs_exact_at_ties(inputs, block_size, cap, n_jobs):
    """Block size, the per-span candidate cap and sharding only change
    how the vectorized kernel runs: it keeps exactly the oracle's
    pairs, ties at the threshold included, and its bytes match a run
    at default settings."""
    rows, threshold, i, j = inputs
    oracle = thresholded_gram_matrix(rows, threshold, backend="python")
    default = thresholded_gram_matrix(rows, threshold)
    with mock.patch.object(allpairs, "_MAX_BLOCK_CANDIDATES", cap):
        varied = thresholded_gram_matrix(
            rows, threshold, block_size=block_size, n_jobs=n_jobs
        )
    assert varied[i, j] == threshold
    assert varied.indptr.tolist() == oracle.indptr.tolist()
    assert varied.indices.tolist() == oracle.indices.tolist()
    np.testing.assert_allclose(
        varied.data, oracle.data, rtol=1e-12, atol=0.0
    )
    for part in ("indptr", "indices", "data"):
        assert (
            getattr(varied, part).tobytes()
            == getattr(default, part).tobytes()
        )


@given(directed_graphs(), st.sampled_from(SYM_NAMES))
@settings(max_examples=60, deadline=None)
def test_symmetrization_output_symmetric_nonnegative(graph, name):
    u = get_symmetrization(name).apply(graph)
    adj = u.adjacency
    asym = abs(adj - adj.T)
    assert (asym.max() if asym.nnz else 0.0) == 0.0
    if adj.nnz:
        assert adj.data.min() >= 0.0


@given(directed_graphs())
@settings(max_examples=40, deadline=None)
def test_naive_preserves_total_weight(graph):
    """Total weight of A + Aᵀ (off-diagonal) equals total input weight
    of non-loop edges — direction dropping loses nothing."""
    u = get_symmetrization("naive").apply(graph)
    input_weight = sum(
        w for i, j, w in graph.edges() if i != j
    )
    assert u.total_weight() == np.float64(input_weight) or abs(
        u.total_weight() - input_weight
    ) < 1e-9


@given(directed_graphs())
@settings(max_examples=40, deadline=None)
def test_degree_discounted_bounded_by_one_at_half(graph):
    """With alpha=beta=0.5 each similarity is a normalized dot product
    bounded by sqrt(d_o(i) d_o(j)) / (sqrt(d_o(i)) sqrt(d_o(j))) <= 2
    (1 from coupling + 1 from co-citation) for 0/1 graphs."""
    pattern = graph.adjacency.copy()
    if pattern.nnz == 0:
        return
    pattern.data[:] = 1.0
    binary = DirectedGraph(pattern)
    u = get_symmetrization("degree_discounted").apply(binary)
    if u.adjacency.nnz:
        assert u.adjacency.data.max() <= 2.0 + 1e-9


@given(directed_graphs(), st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_prune_monotone(graph, threshold):
    u = get_symmetrization("bibliometric").apply(graph)
    pruned = prune_matrix(u.adjacency, threshold)
    assert pruned.nnz <= u.adjacency.nnz
    if pruned.nnz:
        assert pruned.data.min() >= threshold


# ---------------------------------------------------------------------------
# Coarsening conservation laws
# ---------------------------------------------------------------------------


@given(undirected_graphs())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_contract_preserves_total_weight_and_node_weight(graph):
    rng = np.random.default_rng(0)
    adj = graph.adjacency
    match = heavy_edge_matching(adj, rng)
    node_weights = np.ones(graph.n_nodes)
    coarse, coarse_weights, mapping = contract(adj, match, node_weights)
    assert coarse_weights.sum() == graph.n_nodes
    assert abs(coarse.sum() - adj.sum()) < 1e-9
    assert mapping.shape == (graph.n_nodes,)
    assert mapping.max() < coarse.shape[0] if graph.n_nodes else True


@given(undirected_graphs(min_nodes=4, max_nodes=20))
@settings(max_examples=30, deadline=None)
def test_hierarchy_levels_shrink(graph):
    rng = np.random.default_rng(1)
    hierarchy = build_hierarchy(graph.adjacency, rng, min_nodes=2)
    sizes = [g.shape[0] for g in hierarchy.graphs]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


@given(undirected_graphs(min_nodes=4, max_nodes=20))
@settings(max_examples=30, deadline=None)
def test_matching_is_involution(graph):
    rng = np.random.default_rng(2)
    match = heavy_edge_matching(graph.adjacency, rng)
    assert np.array_equal(match[match], np.arange(graph.n_nodes))


# ---------------------------------------------------------------------------
# Evaluation invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(0, 4), min_size=5, max_size=40),
    st.lists(st.integers(-1, 4), min_size=5, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_f_score_bounds(cluster_labels, truth_labels):
    n = min(len(cluster_labels), len(truth_labels))
    clustering = Clustering(cluster_labels[:n])
    gt = GroundTruth.from_labels(truth_labels[:n])
    if gt.n_categories == 0:
        return
    score = average_f_score(clustering, gt)
    assert 0.0 <= score <= 100.0


@given(st.lists(st.integers(0, 6), min_size=4, max_size=50))
@settings(max_examples=60, deadline=None)
def test_perfect_clustering_scores_100(labels):
    clustering = Clustering(labels)
    gt = GroundTruth.from_labels(np.asarray(labels))
    assert average_f_score(clustering, gt) == 100.0


@given(
    st.lists(st.booleans(), min_size=1, max_size=200),
    st.lists(st.booleans(), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_sign_test_p_value_bounds(a, b):
    n = min(len(a), len(b))
    result = sign_test(np.array(a[:n]), np.array(b[:n]))
    assert 0.0 <= result.p_value <= 1.0
    assert result.log10_p <= 0.0 + 1e-12


def test_sign_test_self_comparison_tie():
    a = np.array([True, False, True, True])
    result = sign_test(a, a)
    assert result.winner == "tie"
    assert result.p_value == 1.0


# ---------------------------------------------------------------------------
# Clustering label invariants
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_clustering_labels_compacted(labels):
    c = Clustering(labels)
    assert c.labels.min() == 0
    assert c.labels.max() == c.n_clusters - 1
    assert c.sizes.sum() == c.n_nodes
    assert all(size > 0 for size in c.sizes)


@given(st.lists(st.integers(0, 10), min_size=2, max_size=40))
@settings(max_examples=40, deadline=None)
def test_clustering_members_partition(labels):
    c = Clustering(labels)
    all_members = np.concatenate(c.clusters())
    assert sorted(all_members.tolist()) == list(range(c.n_nodes))


@given(st.lists(st.integers(0, 10), min_size=2, max_size=40))
@settings(max_examples=40, deadline=None)
def test_clustering_invariant_under_relabeling(labels):
    """Renaming cluster ids consistently yields the same Clustering."""
    arr = np.asarray(labels)
    shifted = (arr + 100).tolist()
    assert Clustering(labels) == Clustering(shifted)


# ---------------------------------------------------------------------------
# Agreement metric invariants
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(0, 5), min_size=2, max_size=60))
@settings(max_examples=50, deadline=None)
def test_agreement_metrics_perfect_on_identity(labels):
    from repro.eval.agreement import (
        adjusted_rand_index,
        normalized_mutual_information,
        purity,
    )

    arr = np.asarray(labels)
    # A consistent relabeling of the same partition.
    permuted = (arr.max() - arr).astype(np.int64)
    assert purity(arr, permuted) == 1.0
    assert normalized_mutual_information(arr, permuted) == (
        1.0 if np.unique(arr).size == 1 else
        pytest.approx(1.0)
    )
    assert adjusted_rand_index(arr, permuted) == pytest.approx(1.0)


@given(
    st.lists(st.integers(0, 4), min_size=4, max_size=60),
    st.lists(st.integers(0, 4), min_size=4, max_size=60),
)
@settings(max_examples=50, deadline=None)
def test_agreement_metrics_bounded(a, b):
    from repro.eval.agreement import (
        adjusted_rand_index,
        normalized_mutual_information,
        purity,
    )

    n = min(len(a), len(b))
    la, lb = np.asarray(a[:n]), np.asarray(b[:n])
    assert 0.0 <= purity(la, lb) <= 1.0
    assert 0.0 <= normalized_mutual_information(la, lb) <= 1.0 + 1e-12
    assert -1.0 <= adjusted_rand_index(la, lb) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Variant symmetrizations
# ---------------------------------------------------------------------------


@given(directed_graphs())
@settings(max_examples=40, deadline=None)
def test_jaccard_bounded_by_two(graph):
    u = get_symmetrization("jaccard").apply(graph)
    if u.adjacency.nnz:
        assert u.adjacency.data.max() <= 2.0 + 1e-12


@given(directed_graphs(), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_hybrid_bounded_by_normalized_parts(graph, lam):
    u = get_symmetrization("hybrid", lam=lam).apply(graph)
    # Each normalized part has max 1, so the mixture is <= 1.
    if u.adjacency.nnz:
        assert u.adjacency.data.max() <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Louvain modularity invariant
# ---------------------------------------------------------------------------


@given(undirected_graphs(min_nodes=4, max_nodes=16))
@settings(max_examples=30, deadline=None)
def test_louvain_never_worse_than_singletons(graph):
    from repro.cluster import LouvainClusterer
    from repro.cluster.louvain import modularity

    clustering = LouvainClusterer().cluster(graph)
    adj = graph.adjacency
    assert modularity(adj, clustering.labels) >= modularity(
        adj, np.arange(graph.n_nodes)
    ) - 1e-9
