"""A symmetric CSR-backed weighted undirected graph.

:class:`UndirectedGraph` is the output type of every symmetrization and
the input type of every clustering algorithm in :mod:`repro.cluster`.
Its adjacency matrix is stored fully (both triangles) so that sparse
matrix-vector products and row slicing behave naturally; symmetry is
validated at construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.digraph import (
    _as_csr,
    _edge_arrays,
    _edge_columns,
    _edges_csr,
)

__all__ = ["UndirectedGraph"]


class UndirectedGraph:
    """A weighted undirected graph stored as a symmetric CSR matrix.

    Parameters
    ----------
    adjacency:
        Square symmetric matrix-like. ``adjacency[i, j]`` is the weight
        of the undirected edge ``{i, j}``. The diagonal may carry
        self-loop weight.
    node_names:
        Optional node names carried over from the directed graph.
    validate:
        Validation level. ``True`` (default, same as ``"basic"``)
        checks squareness, finiteness, non-negativity and symmetry
        (up to a small numerical tolerance); ``"full"`` additionally
        emits :class:`~repro.exceptions.ValidationWarning` for
        self-loops and isolated nodes; ``False`` (``"none"``) skips
        all checks.

    Notes
    -----
    ``n_edges`` counts *undirected* edges: off-diagonal non-zeros divided
    by two, plus the number of self-loops. This matches the edge counts
    reported in Table 2 of the paper.
    """

    __slots__ = ("_adj", "_names")

    def __init__(
        self,
        adjacency: object,
        node_names: Sequence[object] | None = None,
        validate: bool | str = True,
    ) -> None:
        from repro.validate.invariants import (
            coerce_level,
            validate_undirected_graph,
        )

        csr = _as_csr(adjacency)
        level = coerce_level(validate)
        if level != "none":
            report = validate_undirected_graph(csr, level=level)
            report.raise_errors()
            report.emit_warnings(stacklevel=3)
            # Remove any numerical asymmetry so downstream algebra is exact.
            csr = ((csr + csr.T) * 0.5).tocsr()
            csr.sort_indices()
        self._adj = csr
        if node_names is not None:
            names = list(node_names)
            if len(names) != csr.shape[0]:
                raise GraphError(
                    f"{len(names)} node names for {csr.shape[0]} nodes"
                )
            self._names: list[object] | None = names
        else:
            self._names = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
        n_nodes: int | None = None,
        node_names: Sequence[object] | None = None,
    ) -> "UndirectedGraph":
        """Build from ``(i, j[, w])`` tuples; each edge is stored in both
        directions. Duplicates are summed."""
        rows, cols, vals = _edge_columns(edges)
        return cls.from_edge_arrays(
            rows, cols, vals, n_nodes=n_nodes, node_names=node_names
        )

    @classmethod
    def from_edge_arrays(
        cls,
        src: object,
        dst: object,
        weights: object,
        n_nodes: int | None = None,
        node_names: Sequence[object] | None = None,
    ) -> "UndirectedGraph":
        """The columnar form of :meth:`from_edges`: equal-length
        integer ``src``/``dst`` and float ``weights``, one entry per
        edge, each stored in both directions."""
        src, dst, weights = _edge_arrays(src, dst, weights)
        # Interleave each edge with its mirror (self-loops once), the
        # COO order that fixes how duplicates are summed.
        keep = np.ones(2 * src.size, dtype=bool)
        keep[1::2] = src != dst
        rows = np.column_stack([src, dst]).ravel()[keep]
        cols = np.column_stack([dst, src]).ravel()[keep]
        vals = np.repeat(weights, 2)[keep]
        return cls(
            _edges_csr(rows, cols, vals, n_nodes), node_names=node_names
        )

    @classmethod
    def empty(cls, n_nodes: int) -> "UndirectedGraph":
        """An edgeless undirected graph."""
        if n_nodes < 0:
            raise GraphError("n_nodes must be non-negative")
        return cls(sp.csr_array((n_nodes, n_nodes), dtype=np.float64))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> sp.csr_array:
        """The symmetric CSR adjacency matrix."""
        return self._adj

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._adj.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (self-loops count once)."""
        n_selfloops = int(np.count_nonzero(self._adj.diagonal()))
        return (self._adj.nnz - n_selfloops) // 2 + n_selfloops

    @property
    def node_names(self) -> list[object] | None:
        """Node names, or ``None`` if the graph is unnamed."""
        return None if self._names is None else list(self._names)

    def name_of(self, index: int) -> object:
        """The name of node ``index`` (the index itself if unnamed)."""
        if self._names is None:
            return index
        return self._names[index]

    def degrees(self, weighted: bool = True) -> np.ndarray:
        """Weighted (default) or unweighted degree of every node.

        Self-loops contribute their weight once (their row-sum value),
        consistent with the normalized-cut volume definition used by the
        clustering algorithms.
        """
        if weighted:
            return np.asarray(self._adj.sum(axis=1)).ravel()
        return np.diff(self._adj.indptr).astype(np.float64)

    def total_weight(self) -> float:
        """Sum of all edge weights, counting each undirected edge once."""
        full = float(self._adj.sum())
        diag = float(self._adj.diagonal().sum())
        return (full - diag) / 2.0 + diag

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the undirected edge ``{i, j}`` exists."""
        return self.edge_weight(i, j) != 0.0

    def edge_weight(self, i: int, j: int) -> float:
        """Weight of the undirected edge ``{i, j}`` (0.0 if absent)."""
        start, end = self._adj.indptr[i], self._adj.indptr[i + 1]
        pos = np.searchsorted(self._adj.indices[start:end], j)
        if pos < end - start and self._adj.indices[start + pos] == j:
            return float(self._adj.data[start + pos])
        return 0.0

    def neighbors(self, i: int) -> np.ndarray:
        """Indices adjacent to node ``i`` (possibly including ``i``)."""
        start, end = self._adj.indptr[i], self._adj.indptr[i + 1]
        return self._adj.indices[start:end].copy()

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Iterate over each undirected edge once as ``(i, j, w)``, i<=j."""
        coo = self._adj.tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            if i <= j:
                yield int(i), int(j), float(w)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def without_self_loops(self) -> "UndirectedGraph":
        """A copy with the diagonal removed."""
        from repro.linalg.sparse_utils import drop_diagonal

        return UndirectedGraph(
            drop_diagonal(self._adj), node_names=self._names, validate=False
        )

    def subgraph(self, nodes: Sequence[int]) -> "UndirectedGraph":
        """The induced subgraph on ``nodes`` (order preserved)."""
        idx = np.asarray(nodes, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_nodes):
            raise GraphError("subgraph node index out of range")
        sub = self._adj[idx][:, idx]
        names = None if self._names is None else [self._names[i] for i in idx]
        return UndirectedGraph(sub, node_names=names, validate=False)

    def connected_components(self) -> tuple[int, np.ndarray]:
        """``(n_components, labels)`` of the graph."""
        return sp.csgraph.connected_components(self._adj, directed=False)

    def isolated_nodes(self) -> np.ndarray:
        """Indices of nodes with no incident edges (degree zero)."""
        return np.flatnonzero(self.degrees(weighted=True) == 0)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        named = "" if self._names is None else ", named"
        return (
            f"UndirectedGraph(n_nodes={self.n_nodes}, "
            f"n_edges={self.n_edges}{named})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        if self.n_nodes != other.n_nodes:
            return False
        diff = (self._adj - other._adj).tocsr()
        diff.eliminate_zeros()
        return diff.nnz == 0 and self._names == other._names

    def __hash__(self) -> int:
        raise TypeError("UndirectedGraph is not hashable")
