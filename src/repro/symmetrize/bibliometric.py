"""Bibliometric symmetrization ``U = AAᵀ + AᵀA`` (§3.3).

``AAᵀ`` is Kessler's *bibliographic coupling* matrix — entry ``(i, j)``
counts the nodes both ``i`` and ``j`` point to (shared out-links).
``AᵀA`` is Small's *co-citation* matrix — entry ``(i, j)`` counts the
nodes that point to both ``i`` and ``j`` (shared in-links). The paper's
novelty here is taking their *sum*, accounting for both kinds of link
similarity at once.

Setting ``A := A + I`` first (``add_self_loops=True``) ensures that
edges of the input graph survive into the symmetrized graph: a node and
its target then share the target as a common out-link.

The known weakness (§3.4–3.5, the motivation for degree-discounting):
hub nodes of power-law graphs share links with almost everyone purely
by virtue of their degree, so the matrix both (a) places its largest
values on hub pairs (Table 5) and (b) cannot be pruned to a sparse,
well-covered graph — thresholds that keep the matrix sparse strand
roughly half the nodes as singletons (§5.3).
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.graph.digraph import DirectedGraph
from repro.symmetrize.base import (
    Symmetrization,
    register_symmetrization,
    sum_of_parts,
)

__all__ = ["BibliometricSymmetrization"]


@register_symmetrization("bibliometric")
class BibliometricSymmetrization(Symmetrization):
    """``U = AAᵀ + AᵀA`` with optional ``A := A + I`` augmentation.

    Parameters
    ----------
    add_self_loops:
        Apply the §3.3 trick ``A := A + I`` before symmetrizing, which
        guarantees every original edge appears in the output. Default
        true, as in the paper.
    include_coupling, include_cocitation:
        Allow ablation to the pure bibliographic-coupling (``AAᵀ``) or
        pure co-citation (``AᵀA``) matrices. Meila & Pentney compared
        against ``AᵀA`` alone; the paper's contribution is the sum.

    Examples
    --------
    >>> from repro.graph import DirectedGraph
    >>> g = DirectedGraph.from_edges([(0, 2), (1, 2)], n_nodes=3)
    >>> sym = BibliometricSymmetrization(add_self_loops=False)
    >>> sym.apply(g).edge_weight(0, 1)  # share one out-link (node 2)
    1.0
    """

    def __init__(
        self,
        add_self_loops: bool = True,
        include_coupling: bool = True,
        include_cocitation: bool = True,
    ) -> None:
        if not (include_coupling or include_cocitation):
            from repro.exceptions import SymmetrizationError

            raise SymmetrizationError(
                "at least one of coupling/co-citation must be included"
            )
        self.add_self_loops = bool(add_self_loops)
        self.include_coupling = bool(include_coupling)
        self.include_cocitation = bool(include_cocitation)

    def compute_matrix(self, graph: DirectedGraph) -> sp.csr_array:
        return sum_of_parts(
            [
                (left @ right).tocsr()
                for left, right in self.product_terms(graph)
            ]
        )

    def product_terms(
        self, graph: DirectedGraph
    ) -> list[tuple[sp.csr_array, sp.csr_array]]:
        """``(A', A'ᵀ)`` for coupling and ``(A'ᵀ, A')`` for
        co-citation, as included, with ``A' = A + I`` when
        ``add_self_loops`` is set and ``A`` otherwise."""
        if self.add_self_loops:
            graph = graph.with_self_loops()
        adj = graph.adjacency
        at = adj.T.tocsr()
        terms = []
        if self.include_coupling:
            terms.append((adj, at))
        if self.include_cocitation:
            terms.append((at, adj))
        return terms

    def __repr__(self) -> str:
        return (
            f"BibliometricSymmetrization("
            f"add_self_loops={self.add_self_loops}, "
            f"include_coupling={self.include_coupling}, "
            f"include_cocitation={self.include_cocitation})"
        )
