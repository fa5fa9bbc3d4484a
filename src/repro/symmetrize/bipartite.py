"""Degree-discounted similarity for bipartite graphs (§6 future work).

The paper's conclusion names "extending our approaches to bi-partite
and multi-partite graphs" as a promising avenue. The extension is
natural: in a bipartite graph with biadjacency ``B`` (rows = left
nodes, columns = right nodes, ``B[i, j] > 0`` meaning the left node
``i`` links to right node ``j``), two left nodes are similar when they
link to the same right nodes, and vice versa — exactly bibliographic
coupling / co-citation restricted to one side, with the same
hub-discounting correction:

``S_left  = Dl^-alpha B  Dr^-beta  Bᵀ Dl^-alpha``
``S_right = Dr^-beta  Bᵀ Dl^-alpha B  Dr^-beta``

where ``Dl`` holds left-node out-degrees and ``Dr`` right-node
in-degrees. Each side can then be clustered independently with any
stage-2 algorithm (one-mode projection co-clustering).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SymmetrizationError
from repro.graph.ugraph import UndirectedGraph
from repro.linalg.sparse_utils import degree_power, drop_diagonal
from repro.symmetrize.base import pruned_product_sum

__all__ = ["BipartiteDegreeDiscounted", "bipartite_symmetrize"]


def _as_biadjacency(matrix: object) -> sp.csr_array:
    if sp.issparse(matrix):
        csr = sp.csr_array(matrix)
    else:
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise SymmetrizationError(
                f"biadjacency must be 2-D, got shape {arr.shape}"
            )
        csr = sp.csr_array(arr)
    csr = csr.astype(np.float64)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    if csr.nnz and csr.data.min() < 0:
        raise SymmetrizationError("biadjacency weights must be >= 0")
    return csr


class BipartiteDegreeDiscounted:
    """Degree-discounted one-mode projections of a bipartite graph.

    Parameters
    ----------
    alpha:
        Discount exponent on the degrees of the side being projected
        (the analogue of the out-degree discount of Eq. 6).
    beta:
        Discount exponent on the degrees of the *other* side — the
        shared-neighbour side (the analogue of the in-degree discount).

    Examples
    --------
    >>> import numpy as np
    >>> B = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    >>> sym = BipartiteDegreeDiscounted()
    >>> left = sym.left_similarity(B)
    >>> left.has_edge(0, 1), left.has_edge(0, 2)
    (True, False)
    """

    def __init__(self, alpha: float = 0.5, beta: float = 0.5) -> None:
        if alpha < 0 or beta < 0:
            raise SymmetrizationError("alpha and beta must be >= 0")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _project(
        self, B: sp.csr_array, threshold: float, drop_self_loops: bool
    ) -> UndirectedGraph:
        """Similarity among the rows of ``B``."""
        left_degrees = np.asarray(B.sum(axis=1)).ravel()
        right_degrees = np.asarray(B.sum(axis=0)).ravel()
        Dl = sp.diags_array(degree_power(left_degrees, self.alpha))
        Dr = sp.diags_array(degree_power(right_degrees, self.beta))
        scaled = (Dl @ B @ Dr).tocsr()
        left_scaled = (Dl @ B).tocsr()
        if threshold > 0:
            similarity = pruned_product_sum(
                lambda: [(scaled, left_scaled.T.tocsr())], threshold
            )[0]
        else:
            similarity = (scaled @ left_scaled.T).tocsr()
        if drop_self_loops:
            similarity = drop_diagonal(similarity)
        similarity = ((similarity + similarity.T) * 0.5).tocsr()
        return UndirectedGraph(similarity, validate=False)

    def left_similarity(
        self,
        biadjacency: object,
        threshold: float = 0.0,
        drop_self_loops: bool = True,
    ) -> UndirectedGraph:
        """Similarity graph among the left (row) nodes."""
        B = _as_biadjacency(biadjacency)
        return self._project(B, threshold, drop_self_loops)

    def right_similarity(
        self,
        biadjacency: object,
        threshold: float = 0.0,
        drop_self_loops: bool = True,
    ) -> UndirectedGraph:
        """Similarity graph among the right (column) nodes."""
        B = _as_biadjacency(biadjacency)
        return self._project(B.T.tocsr(), threshold, drop_self_loops)

    def __repr__(self) -> str:
        return (
            f"BipartiteDegreeDiscounted(alpha={self.alpha}, "
            f"beta={self.beta})"
        )


def bipartite_symmetrize(
    biadjacency: object,
    side: str = "left",
    alpha: float = 0.5,
    beta: float = 0.5,
    threshold: float = 0.0,
) -> UndirectedGraph:
    """Functional façade over :class:`BipartiteDegreeDiscounted`.

    Parameters
    ----------
    biadjacency:
        Rectangular (sparse or dense) matrix; rows are left nodes.
    side:
        ``"left"`` or ``"right"`` — which one-mode projection to build.
    alpha, beta, threshold:
        See :class:`BipartiteDegreeDiscounted`.
    """
    if side not in ("left", "right"):
        raise SymmetrizationError("side must be 'left' or 'right'")
    sym = BipartiteDegreeDiscounted(alpha=alpha, beta=beta)
    if side == "left":
        return sym.left_similarity(biadjacency, threshold=threshold)
    return sym.right_similarity(biadjacency, threshold=threshold)
