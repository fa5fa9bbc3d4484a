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
from hypothesis import HealthCheck, assume, example, given, settings
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
from repro.linalg.allpairs import BACKENDS
from repro.linalg.sparse_utils import drop_diagonal, prune_matrix
from repro.symmetrize import (
    BibliometricSymmetrization,
    DegreeDiscountedSymmetrization,
    get_symmetrization,
)
from repro.symmetrize import base as symmetrize_base
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


@st.composite
def tied_pruning_inputs(draw):
    """A directed graph, a threshold equal to one of its own
    degree-discounted similarities (so it ties a pair exactly), and
    that pair."""
    graph = draw(st.one_of(directed_graphs(min_nodes=3), power_law_digraphs()))
    exact = get_symmetrization("degree_discounted").apply(graph).adjacency
    upper = sp.triu(exact, k=1).tocoo()
    assume(upper.nnz)
    k = draw(st.integers(0, upper.nnz - 1))
    return graph, float(upper.data[k]), int(upper.row[k]), int(upper.col[k])


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
    """The §3.6 pruned fast path returns the exact path's bytes at
    arbitrary thresholds."""
    dd = get_symmetrization("degree_discounted")
    exact = dd.apply(graph, threshold=threshold).adjacency
    fast = dd.apply_pruned(graph, threshold=threshold).adjacency
    _assert_same_bytes(fast, exact)


@given(tied_pruning_inputs())
@settings(max_examples=60, deadline=None)
def test_degree_discounted_pruned_keeps_exact_ties(inputs):
    """At a threshold that *is* one of the graph's similarities, the
    pruned path's search level, prefix bounds and partial-score bound
    all keep the tied pair, and the kept pattern equals apply()'s."""
    graph, threshold, i, j = inputs
    dd = get_symmetrization("degree_discounted")
    exact = dd.apply(graph, threshold=threshold).adjacency
    fast = dd.apply_pruned(graph, threshold=threshold).adjacency
    assert fast[i, j] > 0
    assert exact.indptr.tolist() == fast.indptr.tolist()
    assert exact.indices.tolist() == fast.indices.tolist()


@given(
    tied_gram_inputs(),
    st.integers(1, 64),
    st.integers(1, 256),
    st.integers(1, 128),
)
@settings(max_examples=100, deadline=None)
def test_allpairs_knobs_exact_at_ties(inputs, block_size, cap, gather_budget):
    """Block size, the per-span candidate cap and the per-batch gather
    budget only change how the vectorized kernel runs: it keeps
    exactly the oracle's pairs, ties at the threshold included, and
    its bytes match a run at default settings."""
    rows, threshold, i, j = inputs
    oracle = thresholded_gram_matrix(rows, threshold, backend="python")
    default = thresholded_gram_matrix(rows, threshold)
    with mock.patch.object(
        allpairs, "_MAX_BLOCK_CANDIDATES", cap
    ), mock.patch.object(allpairs, "_GATHER_BUDGET", gather_budget):
        varied = thresholded_gram_matrix(
            rows, threshold, block_size=block_size
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


def _reference_verify(csr, left, right, threshold):
    """The kernel's scoring before the prefix gate, kept as the oracle:
    every verified pair's whole rows multiplied and row-summed
    (``_verify_pairs``), kept at ``threshold``."""
    scores = np.asarray(csr[left].multiply(csr[right]).sum(axis=1)).ravel()
    keep = scores >= threshold
    return left[keep], right[keep], scores[keep]


@st.composite
def gate_inputs(draw):
    """A non-negative ``(n, d)`` matrix with hub columns and empty
    rows, a threshold (often one of its own pair similarities, so
    pairs tie it exactly), a gather budget, a gate table size and a
    block size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 70))
    d = draw(st.integers(2, 24))
    density = draw(st.floats(0.05, 0.4))
    dense = rng.random((n, d)) * (rng.random((n, d)) < density)
    hubs = rng.choice(d, size=draw(st.integers(0, min(3, d))), replace=False)
    hub_mask = rng.random((n, hubs.size)) < 0.9
    dense[:, hubs] = rng.random((n, hubs.size)) * hub_mask
    dense[rng.random(n) < draw(st.floats(0.0, 0.3))] = 0.0
    if draw(st.booleans()):
        dense = np.ceil(dense * 8) / 8  # exact in any summation order
    rows = sp.csr_array(dense)
    gram = np.triu(dense @ dense.T, k=1)
    similarities = gram[gram > 0]
    if similarities.size and draw(st.booleans()):
        threshold = float(draw(st.sampled_from(sorted(set(similarities)))))
    else:
        threshold = draw(st.floats(0.05, 2.0))
    budget = draw(st.sampled_from([1, 3, 17, 1 << 21]))
    cells = draw(st.sampled_from([1, 30, 1 << 16]))
    return rows, threshold, budget, cells, draw(st.integers(1, n))


@given(gate_inputs())
@settings(max_examples=150, deadline=None)
def test_gate_and_exact_score_equal_full_row_verification(inputs):
    """The prefix gate drops no pair the whole-row score keeps, and the
    exact score keeps exactly the oracle's pairs with the oracle's
    bytes, at the threshold and at ``apply_pruned``'s lower search
    level."""
    rows, threshold, budget, cells, block_size = inputs
    csr = allpairs._validated_csr(rows, threshold)
    for search in (threshold, threshold * (1 - 2e-12)):
        index = allpairs._suffix_index(
            csr, allpairs._column_maxima(csr), search
        )
        colcount = allpairs._suffix_column_counts(index.suffix)
        verified = [
            (left, right)
            for _, left, right, _ in allpairs._candidate_pairs(
                csr, index.suffix, 0, colcount, index.bounds, search
            )
        ]
        left = np.concatenate([v[0] for v in verified])
        right = np.concatenate([v[1] for v in verified])
        want = _reference_verify(csr, left, right, search)
        with mock.patch.object(
            allpairs, "_GATHER_BUDGET", budget
        ), mock.patch.object(allpairs, "_TABLE_CELLS", cells):
            found = allpairs._process_blocks(csr, index, search, block_size)
            got = allpairs._score_and_keep(
                csr, found.left, found.right, search
            )
        assert found.verified == left.size
        order_got = np.lexsort((got[1], got[0]))
        order_want = np.lexsort((want[1], want[0]))
        for g, w in zip(got, want):
            assert g[order_got].tobytes() == w[order_want].tobytes()


@st.composite
def factor_inputs(draw):
    """A weighted digraph (isolated nodes give zero in- and out-degrees)
    with 32- or 64-bit indices, and degree-discounted settings."""
    graph = draw(st.one_of(directed_graphs(), power_law_digraphs()))
    if draw(st.booleans()):
        adj = graph.adjacency
        graph = DirectedGraph(
            sp.csr_array(
                (
                    adj.data,
                    adj.indices.astype(np.int32),
                    adj.indptr.astype(np.int32),
                ),
                shape=adj.shape,
            )
        )
    coupling, cocitation = draw(
        st.sampled_from([(True, True), (True, False), (False, True)])
    )
    params = dict(
        alpha=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.7])),
        beta=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.7])),
        include_coupling=coupling,
        include_cocitation=cocitation,
        weighted_degrees=draw(st.booleans()),
    )
    return graph, params


@given(factor_inputs())
@settings(max_examples=120, deadline=None)
def test_stacked_factor_equals_diagonal_products(inputs):
    """The one-pass factor build reproduces SciPy's diagonal products
    ``Do^-α A Di^-β/2`` and ``Di^-β Aᵀ Do^-α/2`` and their ``hstack``
    byte for byte, index dtypes included."""
    graph, params = inputs
    sym = get_symmetrization("degree_discounted", **params)
    adj = graph.adjacency.tocsr()
    d_out = graph.out_degrees(weighted=sym.weighted_degrees)
    d_in = graph.in_degrees(weighted=sym.weighted_degrees)

    def diag(degrees, exponent):
        return sp.diags_array(sym._discount(degrees, exponent)).tocsr()

    alpha, beta = float(sym.alpha), float(sym.beta)
    reference = []
    if sym.include_coupling:
        reference.append(
            (diag(d_out, alpha) @ adj @ diag(d_in, beta / 2)).tocsr()
        )
    if sym.include_cocitation:
        reference.append(
            (diag(d_in, beta) @ adj.T.tocsr() @ diag(d_out, alpha / 2)).tocsr()
        )
    factors = sym.pruning_factors(graph)
    _, stacked = sym._stacked_factor(graph)
    for got, want in zip(
        factors + [stacked], reference + [sp.hstack(reference, format="csr")]
    ):
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            g, w = getattr(got, part), getattr(want, part)
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


def _assert_same_bytes(got, want):
    """Equal CSR arrays, byte for byte, index dtypes included."""
    for part in ("indptr", "indices", "data"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype, part
        assert g.tobytes() == w.tobytes(), part


@st.composite
def hub_digraphs(draw):
    """A digraph of 1,001–1,040 nodes where node 0 links to every other
    node and every other node links to node 1, so both degree tails
    hold a row of over 1,000 entries, plus a sparse random rest."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1001, 1040))
    extra = rng.integers(0, n, (2, 3 * n))
    hub = np.zeros(n - 2, dtype=np.int64)
    rows = np.concatenate((hub, [0], np.arange(2, n), extra[0]))
    cols = np.concatenate((np.arange(2, n), [1], hub + 1, extra[1]))
    keep = rows != cols
    adjacency = sp.csr_array(
        (np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n, n)
    )
    adjacency.data[:] = 1.0  # duplicate draws are one edge
    return DirectedGraph(adjacency)


@st.composite
def pruned_route_inputs(draw):
    """A weighted, unweighted (power-law) or hub-bearing digraph, a
    degree-discounted symmetrization (α, β from {0, 0.25, 0.5, 1},
    every ablation switch), a threshold (often one of ``U``'s own
    finite values, so pairs tie it), the kernel's knobs, whether the
    weights are huge (1e150 to 1e300, so sums of their products can
    overflow) and whether one weight is NaN."""
    kind = draw(st.sampled_from(["weighted", "unweighted", "hub"]))
    graph = draw(
        {
            "weighted": directed_graphs(min_nodes=3, max_nodes=30),
            "unweighted": power_law_digraphs(),
            "hub": hub_digraphs(),
        }[kind]
    )
    if kind != "hub" and graph.n_edges and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        adjacency = graph.adjacency.copy()
        adjacency.data = 10.0 ** rng.uniform(150, 300, adjacency.nnz)
        graph = DirectedGraph(adjacency)
    exponent = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    coupling, cocitation = draw(
        st.sampled_from([(True, True), (True, False), (False, True)])
    )
    sym = DegreeDiscountedSymmetrization(
        alpha=draw(exponent),
        beta=draw(exponent),
        include_coupling=coupling,
        include_cocitation=cocitation,
        weighted_degrees=draw(st.booleans()),
    )
    # Low thresholds keep most of a hub graph's 500k pairs.
    lowest = 0.05 if kind == "hub" else 0.01
    values = sym.compute_matrix(graph).data
    values = values[np.isfinite(values) & (values >= lowest)]
    if values.size and draw(st.booleans()):
        threshold = float(draw(st.sampled_from(sorted(set(values.tolist())))))
    else:
        threshold = draw(st.floats(lowest, 1.0))
    knobs = dict(
        backend=draw(
            st.sampled_from(["vectorized"] if kind == "hub" else BACKENDS)
        ),
        block_size=draw(st.integers(1, 64)),
    )
    nan_weight = kind != "hub" and graph.n_edges and draw(st.booleans())
    if nan_weight:
        adjacency = graph.adjacency.copy()
        adjacency.data[draw(st.integers(0, adjacency.nnz - 1))] = np.nan
        graph = DirectedGraph(adjacency, validate=False)
    # A 1-entry budget scores one pair per batch, too slow for a hub
    # graph; 2,048 entries still make each hub pair a batch alone.
    budget = draw(st.sampled_from([2048 if kind == "hub" else 1, 1 << 21]))
    return graph, sym, threshold, knobs, budget


@given(pruned_route_inputs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_apply_pruned_equals_apply_bytes(inputs):
    """``apply_pruned`` is ``apply(threshold)`` through the §3.6
    kernel: its indptr, indices and data bytes and index dtypes equal
    ``apply``'s for every backend, block size and gather budget (down
    to one pair per batch), on weighted and unweighted graphs, hub
    rows of over 1,000 entries, thresholds that tie one of ``U``'s
    values, and (in lenient mode, where both repair them) huge weights
    whose product sums overflow and a NaN weight."""
    graph, sym, threshold, knobs, budget = inputs
    with lenient(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = sym.apply(graph, threshold=threshold).adjacency
        with mock.patch.object(allpairs, "_GATHER_BUDGET", budget):
            got = sym.apply_pruned(graph, threshold, **knobs).adjacency
    _assert_same_bytes(got, want)


def _whole_matrix_apply(sym, graph, threshold, drop_self_loops):
    """``apply``'s route before it pruned row spans, kept as the
    oracle: build all of ``U``, prune it, then the shared tail."""
    matrix = sym.compute_matrix(graph).tocsr()
    if threshold > 0:
        matrix = prune_matrix(matrix, threshold)
    if drop_self_loops:
        matrix = drop_diagonal(matrix)
    return ((matrix + matrix.T) * 0.5).tocsr()


@st.composite
def product_term_symmetrizations(draw):
    """Degree-discounted or bibliometric, with every ablation switch
    and (for degree-discounted) α, β from the paper's Table 4 grid."""
    both = st.sampled_from([(True, True), (True, False), (False, True)])
    coupling, cocitation = draw(both)
    if draw(st.booleans()):
        exponent = st.sampled_from([0.0, 0.25, 0.5, 1.0, "log"])
        return DegreeDiscountedSymmetrization(
            alpha=draw(exponent),
            beta=draw(exponent),
            include_coupling=coupling,
            include_cocitation=cocitation,
            weighted_degrees=draw(st.booleans()),
        )
    return BibliometricSymmetrization(
        add_self_loops=draw(st.booleans()),
        include_coupling=coupling,
        include_cocitation=cocitation,
    )


@given(
    st.one_of(directed_graphs(), power_law_digraphs()),
    product_term_symmetrizations(),
    st.booleans(),
    st.data(),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_row_span_route_equals_whole_matrix_prune(
    graph, sym, drop_self_loops, data
):
    """``apply(threshold > 0)`` prunes ``Σ L[a:b] @ R`` one row span
    at a time; with the span budget at one product term (about one
    row per span) its bytes and index dtypes equal pruning the whole
    ``U``, at thresholds that tie one of ``U``'s values exactly."""
    values = sym.compute_matrix(graph).data
    threshold = data.draw(
        st.sampled_from(sorted(set(values[values > 0].tolist())))
        if (values > 0).any()
        else st.floats(0.01, 2.0),
        label="threshold",
    )
    want = _whole_matrix_apply(sym, graph, threshold, drop_self_loops)
    with mock.patch.object(symmetrize_base, "_SPAN_TERMS", 1):
        got = sym.apply(
            graph, threshold=threshold, drop_self_loops=drop_self_loops
        ).adjacency
    for part in ("indptr", "indices", "data"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype, part
        assert g.tobytes() == w.tobytes(), part


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


def _reference_matching(
    adjacency, rng, node_weights=None, max_node_weight=None
):
    """The heavy-edge matching loop as it was over NumPy scalars, kept
    as the oracle for the list-based walk."""
    n = adjacency.shape[0]
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    order = rng.permutation(n)
    indptr, indices, data = (
        adjacency.indptr,
        adjacency.indices,
        adjacency.data,
    )
    for v in order:
        if matched[v]:
            continue
        start, end = indptr[v], indptr[v + 1]
        best = -1
        best_weight = 0.0
        for idx in range(start, end):
            u = indices[idx]
            if u == v or matched[u]:
                continue
            if max_node_weight is not None and node_weights is not None:
                if node_weights[v] + node_weights[u] > max_node_weight:
                    continue
            w = data[idx]
            if w > best_weight:
                best_weight = w
                best = u
        if best >= 0:
            match[v] = best
            match[best] = v
            matched[v] = True
            matched[best] = True
    return match


@st.composite
def matching_inputs(draw):
    """A symmetric weighted adjacency with isolated nodes, self-loops
    and tied weights, plus node weights and an optional cap."""
    n = draw(st.integers(1, 40))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.25]),
            ),
            max_size=3 * n,
        )
    )
    rows, cols, vals = (list(part) for part in zip(*edges)) if edges else (
        [], [], []
    )
    upper = sp.coo_array((vals, (rows, cols)), shape=(n, n))
    adjacency = sp.csr_array(upper + upper.T)
    node_weights = np.array(
        draw(
            st.lists(
                st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n
            )
        )
    )
    cap = draw(st.one_of(st.none(), st.sampled_from([2.0, 3.0, 4.5])))
    return adjacency, node_weights, cap, draw(st.integers(0, 2**32 - 1))


@given(matching_inputs())
@settings(max_examples=150, deadline=None)
def test_heavy_edge_matching_equals_reference_loop(inputs):
    adjacency, node_weights, cap, seed = inputs
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    match = heavy_edge_matching(
        adjacency, rng, node_weights=node_weights, max_node_weight=cap
    )
    expected = _reference_matching(
        adjacency, reference_rng, node_weights=node_weights,
        max_node_weight=cap,
    )
    assert match.dtype == expected.dtype
    np.testing.assert_array_equal(match, expected)
    # The visit order is still drawn over every node.
    assert rng.random() == reference_rng.random()


@st.composite
def attractor_maps(draw):
    """Maps ``v -> f[v]`` of up to a few thousand nodes: random maps,
    permutations, long chains into long cycles, 2-cycles with trees,
    and forests of fixed points (a converged flow's shape)."""
    n = draw(st.integers(1, 3000))
    kind = draw(
        st.sampled_from(["random", "permutation", "chains", "pairs", "forest"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    f = np.empty(n, dtype=np.int64)
    if kind == "random":
        f = rng.integers(0, n, size=n)
    elif kind == "permutation":
        f = perm
    elif kind == "chains":
        cycle, tail = np.split(perm, [draw(st.integers(1, n))])
        f[cycle] = np.roll(cycle, -1)
        f[tail] = np.concatenate((cycle[:1], tail[:-1]))
    elif kind == "pairs":
        k = draw(st.integers(0, n // 2))
        a, b, rest = perm[:k], perm[k: 2 * k], perm[2 * k:]
        f[a], f[b] = b, a
        f[rest] = rest if k == 0 else rng.choice(perm[: 2 * k], rest.size)
    else:
        roots = perm[: draw(st.integers(1, n))]
        f = rng.choice(roots, n)
        f[roots] = roots
    return f


@given(attractor_maps())
@settings(max_examples=120, deadline=None)
def test_attractor_components_match_scipy(f):
    from scipy.sparse.csgraph import connected_components

    from repro.cluster.mlrmcl import _attractor_components

    n = f.size
    graph = sp.coo_array((np.ones(n), (np.arange(n), f)), shape=(n, n))
    count, labels = connected_components(
        graph, directed=True, connection="weak"
    )
    got_count, got_labels = _attractor_components(f)
    assert got_count == count
    assert got_labels.dtype == labels.dtype
    np.testing.assert_array_equal(got_labels, labels)


@given(attractor_maps(), st.data())
@settings(max_examples=120, deadline=None)
def test_attractor_count_bounds_after_re_pointing(f, data):
    """Re-pointing ``m`` nodes of ``f`` raises the component count by at
    most ``m``, and lowers it by at most the number re-pointed out of
    their component of ``f``: the bounds R-MCL's ``stop_at_k`` test
    relies on to skip a second count. Half the draws re-point inside
    components only (ties within one cluster)."""
    from repro.cluster.mlrmcl import _attractor_components

    n = f.size
    count, labels = _attractor_components(f)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    moved = rng.choice(n, data.draw(st.integers(0, n)), replace=False)
    g = f.copy()
    g[moved] = rng.integers(0, n, moved.size)
    if data.draw(st.booleans()):
        inside = labels[g[moved]] == labels[moved]
        g[moved[~inside]] = f[moved[~inside]]
    changed = np.flatnonzero(g != f)
    leaving = np.count_nonzero(labels[g[changed]] != labels[changed])
    got = _attractor_components(g)[0]
    assert count - leaving <= got <= count + changed.size


def _reference_rmcl(flow, m_g, inflation, n_iter, prune_fraction, stop_at_k):
    """R-MCL as whole-matrix SciPy passes — the implementation before
    the fused, column-blocked step — kept as the oracle. The ``stop_at_k``
    count reads each column's first maximum in stored order
    (``np.argmax``), the two-round stability test its lowest row among
    exact maxima. Returns the flow and (iterations, entries pruned,
    entries seen)."""
    from scipy.sparse.csgraph import connected_components

    def components(attractor):
        return connected_components(
            sp.coo_array((np.ones(n), (np.arange(n), attractor)), (n, n)),
            directed=True,
            connection="weak",
        )

    def normalize(matrix):
        sums = np.asarray(matrix.sum(axis=0)).ravel()
        inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
        matrix.data *= np.repeat(inv, np.diff(matrix.indptr))

    n = m_g.shape[1]
    prev_labels = None
    performed = pruned = seen = 0
    for _ in range(n_iter):
        flow = (flow @ m_g).tocsc().copy()
        flow.data **= inflation
        normalize(flow)
        counts = np.diff(flow.indptr)
        col_max = np.zeros(n)
        nonempty = np.flatnonzero(counts)
        if nonempty.size:
            col_max[nonempty] = np.maximum.reduceat(
                flow.data, flow.indptr[nonempty]
            )
        keep = flow.data >= np.repeat(col_max * prune_fraction, counts)
        seen += flow.nnz
        pruned += int((~keep).sum())
        if not keep.all():
            kept = np.bincount(
                np.repeat(np.arange(n), counts)[keep], minlength=n
            )
            flow = sp.csc_array(
                (
                    flow.data[keep],
                    flow.indices[keep],
                    np.concatenate(([0], np.cumsum(kept))),
                ),
                shape=flow.shape,
            )
        normalize(flow)
        performed += 1
        attractor, settled = np.arange(n), np.arange(n)
        for j in range(n):
            lo, hi = flow.indptr[j], flow.indptr[j + 1]
            if hi > lo:
                column = flow.data[lo:hi]
                attractor[j] = flow.indices[lo + np.argmax(column)]
                settled[j] = flow.indices[lo:hi][column == column.max()].min()
        if stop_at_k is not None and components(attractor)[0] <= stop_at_k:
            break
        labels = components(settled)[1]
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
    return flow, (performed, pruned, seen)


@st.composite
def rmcl_inputs(draw):
    """A symmetric weighted adjacency with isolated nodes and
    self-loops, a flow with arbitrary positive column weights on
    ``M_G``'s pattern, R-MCL parameters and a block budget. Half the
    draws are tie-heavy: disjoint paths of unit weight on shuffled
    labels and an unscaled flow. The middle node of a five-node path
    settles on two exactly tied maxima in different basins."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cuts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        edges = [
            (a, b, 1.0) for a, b, cut in zip(order, order[1:], cuts) if not cut
        ]
        scale = np.ones(n)
    else:
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.floats(0.1, 50.0, allow_nan=False),
                ),
                max_size=2 * n,
            )
        )
        scale = np.array(
            draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
        )
    rows, cols, vals = (list(part) for part in zip(*edges)) if edges else (
        [], [], []
    )
    upper = sp.coo_array((vals, (rows, cols)), shape=(n, n))
    adjacency = sp.csr_array(upper + upper.T)
    return (
        adjacency,
        scale,
        draw(st.sampled_from([0.0, 0.3, 1.0])),  # self_loop
        draw(st.sampled_from([1.5, 2.0, 3.0])),  # inflation
        draw(st.sampled_from([0.0, 0.01, 0.2])),  # prune_fraction
        draw(st.integers(1, 40)),  # n_iter
        draw(st.one_of(st.none(), st.integers(1, 10))),  # stop_at_k
        draw(st.sampled_from([1, 16, 1 << 21])),  # block budget
    )


#: ``rmcl_inputs`` of the path 0-2-1-4-3 at self-loop 1, inflation 3 and
#: prune fraction 0.2: the index-sorted flow of step 5 repeats step 4's,
#: with node 1's column on its neighbours 2 and 4 exactly tied and
#: SciPy's product swapping their stored order every step.
TIED_PATH = (
    sp.csr_array(
        sp.coo_array(
            (np.ones(8), ([0, 2, 2, 1, 1, 4, 4, 3], [2, 0, 1, 2, 4, 1, 3, 4])),
            shape=(5, 5),
        )
    ),
    np.ones(5),
    1.0,
    3.0,
    0.2,
    40,
    None,
    1 << 21,
)


@given(rmcl_inputs())
@example(TIED_PATH)
@settings(max_examples=80, deadline=None)
def test_rmcl_iterations_equal_whole_matrix_reference(inputs):
    """The fused, column-blocked step with inert nodes kept out of the
    product returns the reference's flow byte for byte, and the same
    ``mcl_*`` metrics, whatever the inert diagonals hold."""
    from repro.cluster import mlrmcl
    from repro.obs.metrics import metrics_active

    adjacency, scale, self_loop, inflation, prune, n_iter, stop, budget = (
        inputs
    )
    m_g = mlrmcl._canonical_flow(adjacency, self_loop)
    flow = m_g.copy()
    flow.data *= np.repeat(scale, np.diff(flow.indptr))
    expected, (performed, pruned, seen) = _reference_rmcl(
        flow.copy(), m_g, inflation, n_iter, prune, stop
    )
    with mock.patch.object(
        mlrmcl, "_FLOW_BLOCK_ENTRIES", budget
    ), metrics_active() as registry:
        got = mlrmcl._rmcl_iterations(
            flow, m_g, inflation, n_iter, prune, stop_at_k=stop
        )
    for a, b in (
        (got.indptr, expected.indptr),
        (got.indices, expected.indices),
        (got.data, expected.data),
    ):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert registry.counters["mcl_iterations"] == performed
    assert registry.counters["mcl_entries_pruned_total"] == pruned
    assert registry.gauges["mcl_final_flow_nnz"] == expected.nnz
    assert registry.gauges["mcl_prune_fraction"] == (
        pruned / seen if seen else 0.0
    )


@given(rmcl_inputs())
@example(TIED_PATH)
@settings(max_examples=80, deadline=None)
def test_rmcl_stops_once_the_flow_repeats(inputs):
    """Once every column's index-sorted entries repeat from one step to
    the next, no attractor can move, so the level stops at that step at
    the latest (``stop_at_k`` or settled labels may stop it earlier)
    and does not report the cap. The trajectory comes from the
    whole-matrix oracle, one step per call."""
    from repro.cluster import mlrmcl
    from repro.obs.metrics import metrics_active
    from repro.obs.trace import tracing

    adjacency, scale, self_loop, inflation, prune, n_iter, stop, budget = (
        inputs
    )
    m_g = mlrmcl._canonical_flow(adjacency, self_loop)
    flow = m_g.copy()
    flow.data *= np.repeat(scale, np.diff(flow.indptr))
    step, previous, repeats_at = flow, None, None
    for t in range(1, n_iter + 1):
        step = _reference_rmcl(step, m_g, inflation, 1, prune, None)[0]
        ordered = step.sorted_indices()
        entries = (ordered.indptr.tolist(), ordered.indices.tolist())
        entries += (ordered.data.tobytes(),)
        if entries == previous:
            repeats_at = t
            break
        previous = entries
    with mock.patch.object(
        mlrmcl, "_FLOW_BLOCK_ENTRIES", budget
    ), metrics_active() as registry, tracing() as tracer:
        mlrmcl._rmcl_iterations(
            flow, m_g, inflation, n_iter, prune, stop_at_k=stop
        )
    (level,) = [s for s in tracer.walk() if s.name == "rmcl"]
    performed = registry.counters["mcl_iterations"]
    assert level.attributes["iterations"] == performed
    if repeats_at is not None:
        assert performed <= repeats_at
        assert level.attributes["stop"] in ("target", "stable")


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

