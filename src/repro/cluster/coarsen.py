"""Multilevel graph coarsening via heavy-edge matching.

All three multilevel clustering algorithms in this library (MLR-MCL,
METIS-style partitioning, Graclus-style kernel k-means) share the same
coarsening phase: repeatedly contract a heavy-edge matching until the
graph is small, keeping for each level the fine-to-coarse node mapping
so partitions/flows can be projected back up the hierarchy.

Contracted edge weight is summed; internal (contracted) edge weight is
accumulated on the coarse node's self-loop so that volumes — and hence
normalized cuts — are preserved across levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ClusteringError

__all__ = [
    "heavy_edge_matching",
    "contract",
    "CoarseningHierarchy",
    "build_hierarchy",
]


def heavy_edge_matching(
    adjacency: sp.csr_array,
    rng: np.random.Generator,
    node_weights: np.ndarray | None = None,
    max_node_weight: float | None = None,
) -> np.ndarray:
    """Greedy heavy-edge matching.

    Visits nodes in random order; each unmatched node is matched to the
    unmatched neighbour reachable through its heaviest edge (ties broken
    by first occurrence). Returns ``match`` with ``match[v]`` the mate
    of ``v`` (``match[v] == v`` for unmatched nodes).

    Parameters
    ----------
    adjacency:
        Symmetric CSR adjacency.
    rng:
        Random generator for the visit order.
    node_weights, max_node_weight:
        When given, a match is skipped if the combined node weight
        would exceed ``max_node_weight`` — METIS's guard against
        runaway super-nodes that would make balancing impossible.
    """
    n = adjacency.shape[0]
    order = rng.permutation(n)
    # The walk runs on Python lists, which index far faster than NumPy
    # scalars. A node without entries can neither match nor be matched,
    # so its visit is skipped; the permutation still covers all n
    # nodes, so the generator's later draws do not move.
    order = order[np.diff(adjacency.indptr)[order] > 0].tolist()
    indptr = adjacency.indptr.tolist()
    indices = adjacency.indices.tolist()
    data = adjacency.data.tolist()
    capped = max_node_weight is not None and node_weights is not None
    weights = np.asarray(node_weights).tolist() if capped else None
    match = list(range(n))
    matched = [False] * n
    for v in order:
        if matched[v]:
            continue
        best = -1
        best_weight = 0.0
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if u == v or matched[u]:
                continue
            if capped and weights[v] + weights[u] > max_node_weight:
                continue
            w = data[idx]
            if w > best_weight:
                best_weight = w
                best = u
        if best >= 0:
            match[v] = best
            match[best] = v
            matched[v] = matched[best] = True
    return np.array(match, dtype=np.int64)


def contract(
    adjacency: sp.csr_array,
    match: np.ndarray,
    node_weights: np.ndarray | None = None,
) -> tuple[sp.csr_array, np.ndarray, np.ndarray]:
    """Contract a matching into a coarse graph.

    Returns
    -------
    (coarse_adjacency, coarse_node_weights, mapping):
        ``mapping[v]`` is the coarse index of fine node ``v``. Parallel
        edges are summed; intra-pair edge weight lands on the coarse
        self-loop so total weight and node volumes are preserved.
    """
    n = adjacency.shape[0]
    if match.shape != (n,):
        raise ClusteringError("match must have one entry per node")
    if node_weights is None:
        node_weights = np.ones(n)
    # Assign coarse ids: the lower index of each matched pair owns the id.
    representative = np.minimum(np.arange(n), match)
    unique_reps, mapping = np.unique(representative, return_inverse=True)
    n_coarse = unique_reps.size
    # Coarse adjacency = S^T A S with S the (n x n_coarse) indicator.
    rows = mapping[np.repeat(np.arange(n), np.diff(adjacency.indptr))]
    cols = mapping[adjacency.indices]
    coarse = sp.coo_array(
        (adjacency.data, (rows, cols)), shape=(n_coarse, n_coarse)
    ).tocsr()
    coarse.sum_duplicates()
    coarse_weights = np.zeros(n_coarse)
    np.add.at(coarse_weights, mapping, node_weights)
    return coarse, coarse_weights, mapping


@dataclass
class CoarseningHierarchy:
    """A stack of coarsened graphs, finest level first.

    Attributes
    ----------
    graphs:
        ``graphs[0]`` is the input adjacency; ``graphs[-1]`` the
        coarsest.
    node_weights:
        Node weights per level (level 0 is all-ones unless supplied).
    mappings:
        ``mappings[l][v]`` maps a node of level ``l`` to its super-node
        at level ``l+1`` — there are ``len(graphs) - 1`` mappings.
    """

    graphs: list[sp.csr_array] = field(default_factory=list)
    node_weights: list[np.ndarray] = field(default_factory=list)
    mappings: list[np.ndarray] = field(default_factory=list)

    @property
    def n_levels(self) -> int:
        """Number of levels (1 = no coarsening happened)."""
        return len(self.graphs)

    def project_labels(self, labels: np.ndarray, to_level: int = 0) -> np.ndarray:
        """Expand coarsest-level labels down to ``to_level``.

        ``labels`` must be indexed by coarsest-level nodes; each fine
        node inherits its super-node's label.
        """
        current = np.asarray(labels)
        for level in range(len(self.mappings) - 1, to_level - 1, -1):
            current = current[self.mappings[level]]
        return current


def build_hierarchy(
    adjacency: sp.csr_array,
    rng: np.random.Generator,
    min_nodes: int = 100,
    max_levels: int = 20,
    node_weights: np.ndarray | None = None,
    balance_node_weights: bool = False,
) -> CoarseningHierarchy:
    """Coarsen ``adjacency`` until it has at most ``min_nodes`` nodes.

    Coarsening stops early if a matching pass shrinks the graph by less
    than 10% (star-like graphs cannot be matched much) or after
    ``max_levels`` levels.

    With ``balance_node_weights=True``, matches that would create a
    super-node heavier than ``3 * total / min_nodes`` are skipped, which
    keeps coarsest-level nodes balanced enough for partitioning.
    """
    if min_nodes < 1:
        raise ClusteringError("min_nodes must be >= 1")
    adj = adjacency.tocsr()
    weights = (
        np.ones(adj.shape[0]) if node_weights is None
        else np.asarray(node_weights, dtype=np.float64)
    )
    hierarchy = CoarseningHierarchy(
        graphs=[adj], node_weights=[weights], mappings=[]
    )
    max_node_weight = (
        3.0 * weights.sum() / max(min_nodes, 1)
        if balance_node_weights
        else None
    )
    for _ in range(max_levels):
        current = hierarchy.graphs[-1]
        current_weights = hierarchy.node_weights[-1]
        if current.shape[0] <= min_nodes:
            break
        match = heavy_edge_matching(
            current,
            rng,
            node_weights=current_weights,
            max_node_weight=max_node_weight,
        )
        coarse, coarse_weights, mapping = contract(
            current, match, current_weights
        )
        if coarse.shape[0] > 0.9 * current.shape[0]:
            break  # diminishing returns: nearly nothing matched
        hierarchy.graphs.append(coarse)
        hierarchy.node_weights.append(coarse_weights)
        hierarchy.mappings.append(mapping)
    return hierarchy
