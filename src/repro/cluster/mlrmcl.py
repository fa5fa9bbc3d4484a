"""Multi-Level Regularized Markov CLustering (MLR-MCL).

A from-scratch implementation of Satuluri & Parthasarathy's KDD'09
algorithm — the primary stage-2 clusterer of the paper (it produced the
best peak F-scores on both Cora and Wikipedia, Figures 5–8).

R-MCL iterates a column-stochastic *flow matrix* ``M`` (column ``j`` is
node ``j``'s out-flow distribution), initialized to the canonical
transition matrix ``M_G`` of the graph (with self-loops added for
stability):

1. **Regularize**: ``M := M @ M_G`` — each node's new flow is the
   average of its neighbours' current flows, weighted by ``M_G``. This
   replaces plain MCL's expansion ``M := M**2`` and prevents the
   massive-cluster / fragmentation pathologies of MCL.
2. **Inflate**: raise entries to the power ``r`` column-wise and
   re-normalize, strengthening strong flows. Larger ``r`` yields more,
   smaller clusters — which is why the paper can only *indirectly*
   control MLR-MCL's cluster count (§4.2).
3. **Prune**: drop tiny entries per column to retain sparsity.

At convergence each column is (nearly) concentrated on one *attractor*
row; nodes sharing an attractor (transitively) form a cluster.

The multi-level wrapper coarsens the graph by heavy-edge matching,
runs R-MCL on the coarsest graph, and projects the flow values to each
finer level as the initialization for further R-MCL iterations there —
which is both faster and better-quality than flat R-MCL.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.cluster.coarsen import build_hierarchy
from repro.cluster.common import (
    Clustering,
    GraphClusterer,
    register_clusterer,
)
from repro.exceptions import ClusteringError
from repro.graph.ugraph import UndirectedGraph
from repro.obs.metrics import metric_inc, metric_set
from repro.obs.trace import span
from repro.perf.stopwatch import add_counters

__all__ = ["MLRMCL"]


def _column_scale(matrix: sp.csc_array, factors: np.ndarray) -> None:
    """In-place multiply each column's data by ``factors[col]``."""
    counts = np.diff(matrix.indptr)
    matrix.data *= np.repeat(factors, counts)


def _column_normalize(matrix: sp.csc_array) -> sp.csc_array:
    """Make every non-empty column sum to 1 (in place; returns input)."""
    sums = np.asarray(matrix.sum(axis=0)).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    _column_scale(matrix, inv)
    return matrix


def _column_max(matrix: sp.csc_array) -> np.ndarray:
    """Per-column maximum entry (0 for empty columns)."""
    n = matrix.shape[1]
    out = np.zeros(n)
    counts = np.diff(matrix.indptr)
    nonempty = np.flatnonzero(counts)
    if nonempty.size == 0:
        return out
    out[nonempty] = np.maximum.reduceat(
        matrix.data, matrix.indptr[nonempty]
    )
    return out


def _prune_columns(
    matrix: sp.csc_array, keep_fraction: float
) -> sp.csc_array:
    """Drop entries below ``keep_fraction`` of their column maximum.

    Assembles the pruned CSC directly from the kept entries — they
    stay in column-major, row-sorted order, so no COO round-trip (and
    its re-sort) is needed.
    """
    if matrix.nnz == 0:
        return matrix
    col_max = _column_max(matrix)
    n_cols = matrix.shape[1]
    counts = np.diff(matrix.indptr)
    thresholds = np.repeat(col_max * keep_fraction, counts)
    keep = matrix.data >= thresholds
    if keep.all():
        return matrix
    kept_counts = np.bincount(
        np.repeat(np.arange(n_cols), counts)[keep], minlength=n_cols
    )
    indptr = np.concatenate(([0], np.cumsum(kept_counts)))
    return sp.csc_array(
        (matrix.data[keep], matrix.indices[keep], indptr),
        shape=matrix.shape,
    )


def _inflate(matrix: sp.csc_array, inflation: float) -> sp.csc_array:
    """Column-wise entry-power then re-normalization."""
    matrix = matrix.copy()
    matrix.data **= inflation
    return _column_normalize(matrix)


def _canonical_flow(
    adjacency: sp.csr_array, self_loop: float
) -> sp.csc_array:
    """Column-stochastic transition matrix ``M_G`` with self-loops.

    The self-loop of each node is ``self_loop`` times its maximum
    incident edge weight (at least a small epsilon for isolated
    nodes), keeping flow retention scale-invariant under edge-weight
    scaling.
    """
    adj = adjacency.tocsr()
    row_max = np.zeros(adj.shape[0])
    counts = np.diff(adj.indptr)
    nonempty = np.flatnonzero(counts)
    if nonempty.size:
        row_max[nonempty] = np.maximum.reduceat(
            adj.data, adj.indptr[nonempty]
        )
    loops = self_loop * np.maximum(row_max, 1e-12)
    with_loops = (adj + sp.diags_array(loops)).tocsc()
    return _column_normalize(with_loops)


def _attractor_labels(matrix: sp.csc_array) -> tuple[int, np.ndarray]:
    """Cluster count and labels from a converged flow matrix.

    Node ``j`` is attached to its attractor ``argmax_i M[i, j]``; the
    clusters are the weakly connected components of the resulting
    attachment graph (so chains of attractors merge, the standard MCL
    interpretation). Labels run from 0 to count - 1.
    """
    n = matrix.shape[1]
    attractor = np.arange(n, dtype=np.int64)
    counts = np.diff(matrix.indptr)
    nonempty = np.flatnonzero(counts)
    if nonempty.size:
        # Segmented argmax, matching np.argmax's first-max tie rule:
        # flag every in-column maximum, then take the first flagged
        # position at or after each column start.
        starts = matrix.indptr[nonempty]
        col_max = np.maximum.reduceat(matrix.data, starts)
        at_max = matrix.data == np.repeat(col_max, counts[nonempty])
        max_positions = np.flatnonzero(at_max)
        firsts = max_positions[
            np.searchsorted(max_positions, starts)
        ]
        attractor[nonempty] = matrix.indices[firsts]
    attach = sp.coo_array(
        (np.ones(n), (np.arange(n), attractor)), shape=(n, n)
    )
    return sp.csgraph.connected_components(
        attach, directed=True, connection="weak"
    )


def _rmcl_iterations(
    flow: sp.csc_array,
    m_g: sp.csc_array,
    inflation: float,
    n_iter: int,
    prune_fraction: float,
    stop_at_k: int | None = None,
) -> sp.csc_array:
    """Run up to ``n_iter`` R-MCL iterations.

    The regularized flow coarsens monotonically as it iterates (each
    round merges attractor basins), so iteration count doubles as a
    granularity knob. Iterations stop early when

    - the attractor labelling is stable across two rounds (the flow's
      natural plateau — structure boundaries the walk cannot cross), or
    - ``stop_at_k`` is given and the attractor count has decayed to at
      most that many clusters (*curtailed* R-MCL: the caller wants
      that granularity, so further coarsening only loses clusters).
    """
    prev_labels = None
    performed = 0
    entries_seen = 0
    entries_pruned = 0
    for _ in range(n_iter):
        flow = (flow @ m_g).tocsc()  # regularize
        flow = _inflate(flow, inflation)
        nnz_pre_prune = flow.nnz
        flow = _prune_columns(flow, prune_fraction)
        entries_seen += nnz_pre_prune
        entries_pruned += nnz_pre_prune - flow.nnz
        flow = _column_normalize(flow)
        performed += 1
        n_clusters, labels = _attractor_labels(flow)
        if stop_at_k is not None and n_clusters <= stop_at_k:
            break
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
    add_counters(
        "cluster:mlrmcl", rmcl_iterations=performed, flow_nnz=flow.nnz
    )
    metric_inc("mcl_iterations", performed)
    metric_inc("mcl_entries_pruned_total", entries_pruned)
    metric_set("mcl_final_flow_nnz", flow.nnz)
    # Gauge semantics (last write wins) make this the *finest-level*
    # prune fraction once the multi-level wrapper finishes — the
    # figure that explains per-iteration cost in the bench output.
    metric_set(
        "mcl_prune_fraction",
        entries_pruned / entries_seen if entries_seen else 0.0,
    )
    return flow


@register_clusterer("mlrmcl")
class MLRMCL(GraphClusterer):
    """Multi-Level Regularized Markov CLustering.

    Parameters
    ----------
    inflation:
        Inflation exponent ``r``; larger gives more, smaller clusters.
        The paper's experiments sweep this to vary the cluster count.
    coarsen_to:
        Coarsen the graph to at most this many nodes before running
        R-MCL at the coarsest level.
    iterations_coarse:
        R-MCL iterations at the coarsest level.
    iterations_per_level:
        R-MCL iterations at each intermediate level while uncoarsening.
    iterations_finest:
        Iteration budget at the finest (input) level.
    prune_fraction:
        Per-column pruning: entries below this fraction of the column
        maximum are dropped each iteration.
    self_loop:
        Self-loop strength in the canonical transition matrix.
    seed:
        Seed of the coarsening random generator.

    Notes
    -----
    Cluster-count control: the regularized flow coarsens monotonically
    as it iterates, so when ``cluster()`` is called *with* a target
    ``n_clusters``, iterations are curtailed once the attractor count
    decays to the target — the granularity remains only indirectly
    controlled (the result can overshoot in either direction, §4.2 of
    the paper), but lands near the request on graphs with real
    structure. Without a target, iterations run to the flow's natural
    plateau.
    """

    def __init__(
        self,
        inflation: float = 2.0,
        coarsen_to: int = 1000,
        iterations_coarse: int = 30,
        iterations_per_level: int = 5,
        iterations_finest: int = 40,
        prune_fraction: float = 0.01,
        self_loop: float = 1.0,
        seed: int = 0,
    ) -> None:
        if inflation <= 1.0:
            raise ClusteringError("inflation must be > 1")
        if not 0 <= prune_fraction < 1:
            raise ClusteringError("prune_fraction must lie in [0, 1)")
        self.inflation = float(inflation)
        self.coarsen_to = int(coarsen_to)
        self.iterations_coarse = int(iterations_coarse)
        self.iterations_per_level = int(iterations_per_level)
        self.iterations_finest = int(iterations_finest)
        self.prune_fraction = float(prune_fraction)
        self.self_loop = float(self_loop)
        self.seed = int(seed)

    def _cluster(
        self, graph: UndirectedGraph, n_clusters: int | None
    ) -> Clustering:
        rng = np.random.default_rng(self.seed)
        adj = graph.adjacency.tocsr()
        with span("coarsen") as sp_:
            hierarchy = build_hierarchy(
                adj, rng, min_nodes=self.coarsen_to
            )
            sp_.set(levels=len(hierarchy.graphs))
        # Coarsest level: start from the canonical flow itself. The
        # coarse run is curtailed well above the target granularity so
        # the fine levels keep room to refine *and* coarsen.
        coarse_stop = None if n_clusters is None else 4 * n_clusters
        m_g = _canonical_flow(hierarchy.graphs[-1], self.self_loop)
        with span("rmcl:coarsest") as sp_:
            flow = _rmcl_iterations(
                m_g.copy(),
                m_g,
                self.inflation,
                self.iterations_coarse,
                self.prune_fraction,
                stop_at_k=coarse_stop,
            )
            sp_.set(n_nodes=m_g.shape[0], flow_nnz=flow.nnz)
        for level in range(len(hierarchy.mappings) - 1, -1, -1):
            mapping = hierarchy.mappings[level]
            n_fine = mapping.size
            # Project flow: fine node inherits its super-node's column
            # and rows expand to all fine members of each coarse row.
            S = sp.csr_array(
                (
                    np.ones(n_fine),
                    (np.arange(n_fine), mapping),
                ),
                shape=(n_fine, flow.shape[0]),
            )
            flow = (S @ flow @ S.T).tocsc()
            flow = _column_normalize(flow)
            m_g = _canonical_flow(hierarchy.graphs[level], self.self_loop)
            n_iter = (
                self.iterations_finest
                if level == 0
                else self.iterations_per_level
            )
            stop = n_clusters if level == 0 else coarse_stop
            with span(f"rmcl:level[{level}]") as sp_:
                flow = _rmcl_iterations(
                    flow,
                    m_g,
                    self.inflation,
                    n_iter,
                    self.prune_fraction,
                    stop_at_k=stop,
                )
                sp_.set(n_nodes=n_fine, flow_nnz=flow.nnz)
        return Clustering(_attractor_labels(flow)[1])

    def __repr__(self) -> str:
        return f"MLRMCL(inflation={self.inflation})"
