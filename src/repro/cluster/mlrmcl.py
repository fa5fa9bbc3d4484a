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

import math

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
from repro.linalg.allpairs import _budget_spans
from repro.obs.metrics import metric_inc, metric_set
from repro.obs.trace import span

__all__ = ["MLRMCL"]


#: Estimated entries one column block of an R-MCL product may hold.
#: Wider steps multiply ``flow @ m_g[:, a:b]`` block by block: an output
#: column depends only on its own column of ``m_g``, so blocks change no
#: byte and only bound memory. 2**20 to 2**22 measured the same on a
#: 20k-node graph of average degree 53.
_FLOW_BLOCK_ENTRIES = 1 << 21


def _segments(indptr: np.ndarray) -> tuple[np.ndarray, ...]:
    """A CSC's non-empty columns, their first entries and their sizes."""
    counts = np.diff(indptr)
    cols = np.flatnonzero(counts)
    return cols, indptr[cols], counts[cols]


def _scale(data: np.ndarray, sums: np.ndarray, counts=1) -> None:
    """``data *= 1 / sum`` per column of ``counts`` entries, in place
    (0 where a sum is 0)."""
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    data *= np.repeat(inv, counts)


def _column_normalize(matrix: sp.csc_array) -> sp.csc_array:
    """Make every non-empty column sum to 1 (in place; returns input)."""
    _, starts, counts = _segments(matrix.indptr)
    _scale(matrix.data, np.add.reduceat(matrix.data, starts), counts)
    return matrix


def _column_argmax(indices, data, starts, counts):
    """Row of each non-empty column's maximum, twice: the first in
    stored order (as ``np.argmax``) and the lowest row among exact
    ties, which no entry order can flip.

    Flags every in-column maximum, then takes the first flagged
    position at or after each column start and the smallest flagged
    row of each column. Without a tie both are one array.
    """
    col_max = np.maximum.reduceat(data, starts)
    flagged = np.flatnonzero(data == np.repeat(col_max, counts))
    firsts = np.searchsorted(flagged, starts)
    stored = indices[flagged[firsts]]
    if flagged.size == starts.size:
        return stored, stored
    return stored, np.minimum.reduceat(indices[flagged], firsts)


def _inflate_prune(indptr, indices, data, inflation, prune_fraction):
    """The rest of one R-MCL step, on a fresh product's CSC arrays.

    Inflates ``data`` in place, normalizes each column, drops entries
    below ``prune_fraction`` of their column maximum and normalizes
    again. Sums and maxima are ``np.add.reduceat`` and
    ``np.maximum.reduceat`` over the non-empty columns' starts — what
    ``csc.sum(axis=0)`` runs — so the bytes are those of whole-matrix
    passes. Returns the pruned ``(indptr, indices, data)``, the
    non-empty columns and each one's attractor rows (both readings of
    :func:`_column_argmax`).
    """
    cols, starts, counts = _segments(indptr)
    data **= inflation
    _scale(data, np.add.reduceat(data, starts), counts)
    threshold = np.maximum.reduceat(data, starts) * prune_fraction
    kept = np.flatnonzero(data >= np.repeat(threshold, counts))
    if kept.size < data.size:
        data, indices = data[kept], indices[kept]
        indptr = np.searchsorted(kept, indptr)
        cols, starts, counts = _segments(indptr)
    _scale(data, np.add.reduceat(data, starts), counts)
    return indptr, indices, data, cols, _column_argmax(
        indices, data, starts, counts
    )


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


def _attractor_components(attractor: np.ndarray) -> tuple[int, np.ndarray]:
    """Count and labels of the weak components of ``v -> attractor[v]``.

    Every node has one out-edge, so each component is the basin of one
    cycle. Pointer doubling reaches every node's cycle, and the
    cycle's smallest node, within ``ceil(log2 n)`` rounds, and stops
    once every node has reached a fixed point of the map. Components
    are numbered by their smallest node, in ``int32``, as
    ``connected_components(directed=True, connection="weak")`` does.
    """
    n = attractor.size
    hop, low = attractor, np.arange(n)
    for _ in range((n - 1).bit_length()):
        if np.array_equal(attractor[hop], hop):
            break  # each cycle is the fixed point its members reached
        low = np.minimum(low, low[hop])
        hop = hop[hop]
    else:
        hop = low[hop]  # the smallest node of each node's cycle
    first = np.full(n, n)
    np.minimum.at(first, hop, np.arange(n))
    root = first[hop]
    is_root = root == np.arange(n)
    labels = (np.cumsum(is_root) - 1)[root]
    return int(is_root.sum()), labels.astype(np.int32)


def _attractor_labels(matrix: sp.csc_array) -> tuple[int, np.ndarray]:
    """Cluster count and labels from a converged flow matrix.

    Node ``j`` is attached to its attractor ``argmax_i M[i, j]`` (itself
    for an empty column); the clusters are the weakly connected
    components of the resulting attachment graph (so chains of
    attractors merge, the standard MCL interpretation). Labels run from
    0 to count - 1.
    """
    attractor = np.arange(matrix.shape[1])
    cols, starts, counts = _segments(matrix.indptr)
    attractor[cols] = _column_argmax(
        matrix.indices, matrix.data, starts, counts
    )[0]
    return _attractor_components(attractor)


def _restrict(matrix: sp.csc_array, keep: np.ndarray) -> sp.csc_array:
    """``matrix[keep][:, keep]`` when the kept columns have entries in
    kept rows only; the relabelling is monotone, so entry order holds."""
    if keep.all():
        return matrix
    counts = np.diff(matrix.indptr)
    entries = np.repeat(keep, counts)
    indptr = np.concatenate(([0], np.cumsum(counts[keep])))
    rows = (np.cumsum(keep) - 1)[matrix.indices[entries]]
    shape = (indptr.size - 1,) * 2
    return sp.csc_array((matrix.data[entries], rows, indptr), shape=shape)


def _embed(sub, active, idle, idle_flow, n, dtype) -> sp.csc_array:
    """The ``n``-node flow, indexed in ``dtype``, from the flow ``sub``
    among the nodes ``active`` and the lone diagonal entries
    ``idle_flow`` of the nodes ``idle``."""
    indptr, indices, data = sub.indptr, sub.indices, sub.data
    if active.size < n:
        counts = np.diff(indptr)
        full = np.zeros(n + 1, dtype=np.int64)
        full[active + 1] = counts
        full[idle + 1] = 1
        np.cumsum(full, out=full)
        dest = np.repeat(full[active] - indptr[:-1], counts)
        dest += np.arange(sub.nnz)
        indptr = full
        indices, data = np.empty(full[-1], dtype), np.empty(full[-1])
        indices[dest], data[dest] = active[sub.indices], sub.data
        indices[full[idle]], data[full[idle]] = idle, idle_flow
    indices = indices.astype(dtype, copy=False)
    indptr = indptr.astype(dtype, copy=False)
    return sp.csc_array((data, indices, indptr), shape=(n, n))


def _rmcl_iterations(
    flow: sp.csc_array,
    m_g: sp.csc_array,
    inflation: float,
    n_iter: int,
    prune_fraction: float,
    stop_at_k: int | None = None,
    name: str = "rmcl",
) -> sp.csc_array:
    """Run up to ``n_iter`` R-MCL iterations inside span ``name``.

    The regularized flow coarsens monotonically as it iterates (each
    round merges attractor basins), so iteration count doubles as a
    granularity knob. Iterations stop early when

    - the attractor labelling is stable across two rounds (the flow's
      natural plateau — structure boundaries the walk cannot cross), or
    - ``stop_at_k`` is given and the attractor count has decayed to at
      most that many clusters (*curtailed* R-MCL: the caller wants
      that granularity, so further coarsening only loses clusters).

    The stability test reads each column's attractor as the lowest row
    among its exact maxima. SciPy's product can store a column's
    entries in an order that alternates from step to step, so the
    first stored maximum of a column settled on tied maxima can flip
    every step, and a test on it would run a settled level to
    ``n_iter``. The count ``stop_at_k`` curtails on, like
    :func:`_attractor_labels`, reads the first maximum in stored order.
    It is computed on its own only when the lowest-row count does not
    decide the test: re-pointing a node moves the count by at most one,
    and only a node re-pointed out of its lowest-row component can
    lower it. The span records the steps run (``iterations``) and why
    they ended (``stop``: ``"target"``, ``"stable"`` or ``"cap"``).

    A step is one SciPy product per column block (see
    :data:`_FLOW_BLOCK_ENTRIES`) and one :func:`_inflate_prune` pass.
    *Inert* nodes — at most one entry in their column of ``m_g`` and of
    ``flow``, none off the diagonal in their row or column of either —
    exchange no flow, so they stay out of the product: their diagonals
    take the same arithmetic as a vector, they count as singletons and
    they are re-embedded on return. Neither changes a byte.
    """
    with span(name) as sp_:
        n = m_g.shape[1]
        inert = np.ones(n, dtype=bool)
        for matrix in (m_g, flow):
            counts = np.diff(matrix.indptr)
            entry_cols = np.repeat(np.arange(n), counts)
            off = matrix.indices != entry_cols
            inert[matrix.indices[off]] = inert[entry_cols[off]] = False
            inert &= counts <= 1
        # The inert nodes whose entry enters the first product.
        idle = np.flatnonzero(
            inert & (np.diff(m_g.indptr) == 1) & (np.diff(flow.indptr) == 1)
        )
        idle_m = m_g.data[m_g.indptr[idle]]
        idle_flow = flow.data[flow.indptr[idle]]
        active = np.flatnonzero(~inert)
        sub, m_sub = _restrict(flow, ~inert), _restrict(m_g, ~inert)
        m_rows = np.bincount(m_sub.indices, minlength=active.size)
        # The flow returned keeps the index dtype SciPy gives the
        # whole-matrix step: a product is int64 if an operand is, a
        # pruned step is rebuilt in int64, an empty product is int32.
        m_wide = np.int64 in (m_g.indptr.dtype, m_g.indices.dtype)
        wide = np.int64 in (flow.indptr.dtype, flow.indices.dtype)
        prev_labels = None
        performed = entries_seen = entries_pruned = flow_blocks = 0
        stop = "cap"
        for _ in range(n_iter):
            # A column's product has at most the summed flow column
            # sizes over its rows of m_g.
            f_counts = np.diff(sub.indptr).astype(np.int64)
            spans = [(0, active.size)]
            if f_counts @ m_rows > _FLOW_BLOCK_ENTRIES:
                cum = np.concatenate(([0], np.cumsum(f_counts[m_sub.indices])))
                spans = _budget_spans(cum[m_sub.indptr], _FLOW_BLOCK_ENTRIES)
            flow_blocks = max(flow_blocks, len(spans))
            attractor = np.arange(active.size)
            settled = np.arange(active.size)
            parts = []
            seen = 0
            for a, b in spans:
                product = sub @ (m_sub if len(spans) == 1 else m_sub[:, a:b])
                seen += product.nnz
                *part, cols, (rows, lowest) = _inflate_prune(
                    product.indptr,
                    product.indices,
                    product.data,
                    inflation,
                    prune_fraction,
                )
                attractor[a + cols] = rows
                settled[a + cols] = lowest
                parts.append(part)
            indptr, indices, data = parts[0]
            if len(parts) > 1:
                counts = np.concatenate([np.diff(p[0]) for p in parts])
                indptr = np.concatenate(([0], np.cumsum(counts)))
                indices = np.concatenate([p[1] for p in parts])
                data = np.concatenate([p[2] for p in parts])
            sub = sp.csc_array((data, indices, indptr), shape=m_sub.shape)
            # Inert diagonals: the product's one term (a zero sum leaves
            # the product), then the power, both normalizations and the
            # prune, elementwise. Normalizing need not give 1.0:
            # 49 * (1/49) is 0.9999999999999999.
            idle_flow *= idle_m
            entered = idle_flow != 0
            idle_flow **= inflation
            _scale(idle_flow, idle_flow)
            keep = entered & (idle_flow >= idle_flow * prune_fraction)
            _scale(idle_flow, idle_flow)
            idle, idle_m, idle_flow = idle[keep], idle_m[keep], idle_flow[keep]
            seen += int(entered.sum())
            pruned = seen - data.size - idle.size
            entries_seen += seen
            entries_pruned += pruned
            wide = pruned > 0 or (seen > 0 and (wide or m_wide))
            performed += 1
            n_clusters, labels = _attractor_components(settled)
            if stop_at_k is not None:
                target = stop_at_k - (n - active.size)
                # The stored-order count lies in [low, n_clusters + moved].
                moved = np.flatnonzero(attractor != settled)
                leaving = labels[attractor[moved]] != labels[moved]
                low = n_clusters - np.count_nonzero(leaving)
                if low <= target < n_clusters + moved.size:
                    n_clusters = _attractor_components(attractor)[0]
                if n_clusters <= target:
                    stop = "target"
                    break
            if prev_labels is not None and np.array_equal(labels, prev_labels):
                stop = "stable"
                break
            prev_labels = labels
        if performed:
            dtype = np.int64 if wide else np.int32
            flow = _embed(sub, active, idle, idle_flow, n, dtype)
        sp_.set(
            n_nodes=n,
            flow_nnz=flow.nnz,
            inert_nodes=n - active.size,
            flow_blocks=flow_blocks,
            iterations=performed,
            stop=stop,
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
        Inflation exponent ``r`` (finite, > 1); larger gives more,
        smaller clusters. The paper's experiments sweep this to vary
        the cluster count.
    coarsen_to:
        Coarsen the graph to at most this many nodes (>= 1) before
        running R-MCL at the coarsest level.
    iterations_coarse:
        R-MCL iterations at the coarsest level. All three iteration
        counts must be >= 0.
    iterations_per_level:
        R-MCL iterations at each intermediate level while uncoarsening.
    iterations_finest:
        Iteration budget at the finest (input) level.
    prune_fraction:
        Per-column pruning: entries below this fraction of the column
        maximum are dropped each iteration.
    self_loop:
        Self-loop strength in the canonical transition matrix (finite,
        >= 0).
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
        if not (inflation > 1.0 and math.isfinite(inflation)):
            raise ClusteringError("inflation must be finite and > 1")
        if not 0 <= prune_fraction < 1:
            raise ClusteringError("prune_fraction must lie in [0, 1)")
        if not (self_loop >= 0 and math.isfinite(self_loop)):
            raise ClusteringError("self_loop must be finite and >= 0")
        if min(iterations_coarse, iterations_per_level, iterations_finest) < 0:
            raise ClusteringError("iteration counts must be >= 0")
        if coarsen_to < 1:
            raise ClusteringError("coarsen_to must be >= 1")
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
        flow = _rmcl_iterations(
            m_g,
            m_g,
            self.inflation,
            self.iterations_coarse,
            self.prune_fraction,
            stop_at_k=coarse_stop,
            name="rmcl:coarsest",
        )
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
            flow = _rmcl_iterations(
                flow,
                m_g,
                self.inflation,
                n_iter,
                self.prune_fraction,
                stop_at_k=stop,
                name=f"rmcl:level[{level}]",
            )
        return Clustering(_attractor_labels(flow)[1])

    def __repr__(self) -> str:
        return f"MLRMCL(inflation={self.inflation})"
