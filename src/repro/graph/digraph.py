"""A CSR-backed directed graph.

:class:`DirectedGraph` is the input type of every symmetrization in
:mod:`repro.symmetrize`. It is a thin, validated wrapper around a
``scipy.sparse.csr_array`` adjacency matrix ``A`` where ``A[i, j] > 0``
means there is a directed edge ``i -> j`` with that weight — the same
convention the paper uses (in a citation graph, paper *i* cites paper
*j*).

Design notes
------------
- The wrapper is immutable by convention: operations return new graphs.
- Node names are optional; algorithms work on integer indices, names are
  for reporting (e.g. the "top weighted edges" table of the paper).
- Validation is on by default and checked once at construction so the
  rest of the library can assume a canonical, non-negative CSR matrix.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError

__all__ = ["DirectedGraph"]


def _as_csr(matrix: object) -> sp.csr_array:
    """Convert any scipy-sparse / dense 2-D input to a canonical csr_array."""
    if isinstance(matrix, sp.csr_array):
        csr = matrix.copy()
    elif sp.issparse(matrix):
        csr = sp.csr_array(matrix)
    else:
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise GraphError(f"adjacency must be 2-D, got shape {arr.shape}")
        csr = sp.csr_array(arr)
    csr = csr.astype(np.float64)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def _edge_columns(
    edges: Iterable[tuple[int, int] | tuple[int, int, float]],
) -> tuple[list[int], list[int], list[float]]:
    """Split ``(src, dst)`` / ``(src, dst, weight)`` tuples into columns."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for edge in edges:
        if len(edge) == 2:
            i, j = edge  # type: ignore[misc]
            w = 1.0
        elif len(edge) == 3:
            i, j, w = edge  # type: ignore[misc]
        else:
            raise GraphError(f"edge must have 2 or 3 entries, got {edge!r}")
        rows.append(int(i))
        cols.append(int(j))
        vals.append(float(w))
    return rows, cols, vals


def _edge_arrays(
    src: object, dst: object, weights: object
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(int64, int64, float64)`` 1-D views or copies of edge columns."""
    ids = []
    for column in (src, dst):
        arr = np.asarray(column)
        if arr.size and arr.dtype.kind not in "iu":
            raise GraphError(
                f"edge endpoints must be integers, got dtype {arr.dtype}"
            )
        ids.append(arr.astype(np.int64, copy=False).ravel())
    vals = np.asarray(weights, dtype=np.float64).ravel()
    if not ids[0].size == ids[1].size == vals.size:
        raise GraphError(
            "edge columns differ in length: "
            f"{ids[0].size}/{ids[1].size}/{vals.size}"
        )
    return ids[0], ids[1], vals


def _first_bad_endpoint(
    rows: np.ndarray, cols: np.ndarray, n_nodes: int
) -> int:
    """Index of the first edge with an endpoint outside
    ``[0, n_nodes)``, or -1 when every edge is in range."""
    bad = (rows < 0) | (rows >= n_nodes) | (cols < 0) | (cols >= n_nodes)
    return int(bad.argmax()) if bad.any() else -1


def _endpoint_error(src: int, dst: int, n_nodes: int) -> str:
    """The message for an edge that :func:`_first_bad_endpoint` found."""
    if src < 0 or dst < 0:
        return (
            f"edge endpoints must be non-negative, got ({src}, {dst})"
        )
    return (
        f"edge endpoint out of range for n_nodes={n_nodes}: "
        f"({src}, {dst})"
    )


def _edges_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_nodes: int | None,
) -> sp.csr_array:
    """The one edge-arrays -> CSR step every edge-built graph takes.

    Checks every endpoint against ``n_nodes`` (inferred as the largest
    id + 1 when ``None``) and converts the COO triples, in the order
    given, with SciPy; duplicate edges are summed in that order, so
    equal input arrays give equal CSR bytes.
    """
    if n_nodes is None:
        if not rows.size:
            raise GraphError(
                "cannot infer n_nodes from an empty edge list; "
                "pass n_nodes explicitly"
            )
        n_nodes = int(max(rows.max(), cols.max())) + 1
    elif n_nodes < 0:
        raise GraphError(f"n_nodes must be non-negative, got {n_nodes}")
    bad = _first_bad_endpoint(rows, cols, n_nodes)
    if bad >= 0:
        raise GraphError(
            _endpoint_error(int(rows[bad]), int(cols[bad]), n_nodes)
        )
    return sp.coo_array(
        (vals, (rows, cols)), shape=(n_nodes, n_nodes)
    ).tocsr()


class DirectedGraph:
    """A weighted directed graph stored as a CSR adjacency matrix.

    Parameters
    ----------
    adjacency:
        Square matrix-like (scipy sparse or dense). ``adjacency[i, j]``
        is the weight of the directed edge ``i -> j``; zero means no edge.
    node_names:
        Optional sequence of ``n`` hashable names (usually strings) used
        in reports. Defaults to ``None`` (integer indices are used).
    validate:
        Validation level. ``True`` (default, same as ``"basic"``)
        rejects non-square matrices, negative and non-finite weights;
        ``"full"`` additionally emits
        :class:`~repro.exceptions.ValidationWarning` for structural
        oddities (self-loops, dangling and isolated nodes); ``False``
        (same as ``"none"``) skips all checks.

    Examples
    --------
    >>> g = DirectedGraph.from_edges([(0, 1), (1, 2)], n_nodes=3)
    >>> g.n_nodes, g.n_edges
    (3, 2)
    >>> g.has_edge(0, 1), g.has_edge(1, 0)
    (True, False)
    """

    __slots__ = ("_adj", "_names", "_name_index", "_store")

    def __init__(
        self,
        adjacency: object,
        node_names: Sequence[object] | None = None,
        validate: bool | str = True,
    ) -> None:
        from repro.validate.invariants import (
            coerce_level,
            validate_directed_graph,
        )

        csr = _as_csr(adjacency)
        level = coerce_level(validate)
        if level != "none":
            report = validate_directed_graph(csr, level=level)
            report.raise_errors()
            report.emit_warnings(stacklevel=3)
        self._adj = csr
        self._store = None
        if node_names is not None:
            names = list(node_names)
            if len(names) != csr.shape[0]:
                raise GraphError(
                    f"{len(names)} node names for {csr.shape[0]} nodes"
                )
            self._names: list[object] | None = names
        else:
            self._names = None
        self._name_index: dict[object, int] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
        n_nodes: int | None = None,
        node_names: Sequence[object] | None = None,
    ) -> "DirectedGraph":
        """Build a graph from an iterable of ``(src, dst)`` or
        ``(src, dst, weight)`` tuples.

        Duplicate edges have their weights summed. ``n_nodes`` defaults
        to ``max(index) + 1``.
        """
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
    ) -> "DirectedGraph":
        """Build a graph from equal-length integer ``src``/``dst`` and
        float ``weights`` columns, one entry per edge.

        The columnar form of :meth:`from_edges`, with the same checks
        and the same CSR bytes for the same edges in the same order.
        """
        rows, cols, vals = _edge_arrays(src, dst, weights)
        return cls(
            _edges_csr(rows, cols, vals, n_nodes), node_names=node_names
        )

    @classmethod
    def from_mmcsr(
        cls,
        store: object,
        node_names: Sequence[object] | None = None,
        validate: bool | str = True,
    ) -> "DirectedGraph":
        """Wrap an out-of-core :class:`~repro.linalg.mmcsr.MmapCSR`
        store (or its directory path) without copying the matrix.

        The adjacency becomes a ``csr_array`` of views over the
        store's memory-mapped buffers: the normal constructor's
        canonicalizing copy (:func:`_as_csr`) is bypassed, which is
        sound because finalized stores are canonical by construction
        — rows sorted by column, duplicates summed, no explicit zeros,
        float64 data.
        Validation (on by default) streams through the mapped data
        once without materializing it.

        The store handle is kept on the graph (:attr:`mmap_store`),
        so callers can reach the backing files (their directory and
        size).
        """
        from repro.linalg.mmcsr import MmapCSR
        from repro.validate.invariants import (
            coerce_level,
            validate_directed_graph,
        )

        if not isinstance(store, MmapCSR):
            store = MmapCSR.open(store)  # type: ignore[arg-type]
        n_rows, n_cols = store.shape
        if n_rows != n_cols:
            raise GraphError(
                f"adjacency store must be square, got {store.shape}"
            )
        csr = store.to_scipy()
        level = coerce_level(validate)
        if level != "none":
            report = validate_directed_graph(csr, level=level)
            report.raise_errors()
            report.emit_warnings(stacklevel=3)
        graph = cls.__new__(cls)
        graph._adj = csr
        graph._store = store
        if node_names is not None:
            names = list(node_names)
            if len(names) != n_rows:
                raise GraphError(
                    f"{len(names)} node names for {n_rows} nodes"
                )
            graph._names = names
        else:
            graph._names = None
        graph._name_index = None
        return graph

    @classmethod
    def empty(cls, n_nodes: int) -> "DirectedGraph":
        """An edgeless directed graph on ``n_nodes`` nodes."""
        if n_nodes < 0:
            raise GraphError("n_nodes must be non-negative")
        return cls(sp.csr_array((n_nodes, n_nodes), dtype=np.float64))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> sp.csr_array:
        """The CSR adjacency matrix ``A`` (``A[i, j]`` = weight of i->j)."""
        return self._adj

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._adj.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of stored directed edges (non-zero entries of ``A``)."""
        return int(self._adj.nnz)

    @property
    def mmap_store(self) -> object | None:
        """The backing :class:`~repro.linalg.mmcsr.MmapCSR` store when
        this graph was built with :meth:`from_mmcsr`, else ``None``."""
        return self._store

    @property
    def node_names(self) -> list[object] | None:
        """Node names as supplied at construction, or ``None``."""
        return None if self._names is None else list(self._names)

    def name_of(self, index: int) -> object:
        """The name of node ``index`` (the index itself if unnamed)."""
        if self._names is None:
            return index
        return self._names[index]

    def index_of(self, name: object) -> int:
        """The index of the node called ``name``.

        Raises :class:`~repro.exceptions.GraphError` for unknown names
        or when the graph is unnamed.
        """
        if self._names is None:
            raise GraphError("graph has no node names")
        if self._name_index is None:
            self._name_index = {n: i for i, n in enumerate(self._names)}
        try:
            return self._name_index[name]
        except KeyError:
            raise GraphError(f"unknown node name: {name!r}") from None

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the directed edge ``i -> j`` exists."""
        return self.edge_weight(i, j) != 0.0

    def edge_weight(self, i: int, j: int) -> float:
        """Weight of the edge ``i -> j`` (0.0 if absent)."""
        start, end = self._adj.indptr[i], self._adj.indptr[i + 1]
        pos = np.searchsorted(self._adj.indices[start:end], j)
        if pos < end - start and self._adj.indices[start + pos] == j:
            return float(self._adj.data[start + pos])
        return 0.0

    def successors(self, i: int) -> np.ndarray:
        """Indices ``j`` with an edge ``i -> j``."""
        start, end = self._adj.indptr[i], self._adj.indptr[i + 1]
        return self._adj.indices[start:end].copy()

    def predecessors(self, i: int) -> np.ndarray:
        """Indices ``j`` with an edge ``j -> i``."""
        csc = self._adj.tocsc()
        start, end = csc.indptr[i], csc.indptr[i + 1]
        return np.sort(csc.indices[start:end])

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Iterate over ``(src, dst, weight)`` for every stored edge."""
        coo = self._adj.tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            yield int(i), int(j), float(w)

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def out_degrees(self, weighted: bool = False) -> np.ndarray:
        """Out-degree of every node.

        With ``weighted=True`` this is the sum of outgoing edge weights;
        otherwise the count of outgoing edges.
        """
        if weighted:
            return np.asarray(self._adj.sum(axis=1)).ravel()
        return np.diff(self._adj.indptr).astype(np.float64)

    def in_degrees(self, weighted: bool = False) -> np.ndarray:
        """In-degree of every node (count or weighted sum of in-edges)."""
        if weighted:
            return np.asarray(self._adj.sum(axis=0)).ravel()
        counts = np.zeros(self.n_nodes, dtype=np.float64)
        np.add.at(counts, self._adj.indices, 1.0)
        return counts

    def total_degrees(self, weighted: bool = False) -> np.ndarray:
        """Sum of in- and out-degree per node."""
        return self.out_degrees(weighted) + self.in_degrees(weighted)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "DirectedGraph":
        """The graph with every edge reversed."""
        return DirectedGraph(
            self._adj.T.tocsr(), node_names=self._names, validate=False
        )

    def with_self_loops(self, weight: float = 1.0) -> "DirectedGraph":
        """Return ``A + weight * I`` — the paper's §3.3 trick of setting
        ``A := A + I`` before Bibliometric symmetrization so original
        edges survive into the symmetrized graph."""
        eye = sp.eye_array(self.n_nodes, format="csr") * float(weight)
        return DirectedGraph(
            (self._adj + eye).tocsr(), node_names=self._names, validate=False
        )

    def without_self_loops(self) -> "DirectedGraph":
        """Return a copy with the diagonal removed."""
        from repro.linalg.sparse_utils import drop_diagonal

        return DirectedGraph(
            drop_diagonal(self._adj), node_names=self._names, validate=False
        )

    def subgraph(self, nodes: Sequence[int]) -> "DirectedGraph":
        """The induced subgraph on ``nodes`` (order preserved)."""
        idx = np.asarray(nodes, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_nodes):
            raise GraphError("subgraph node index out of range")
        sub = self._adj[idx][:, idx]
        names = None if self._names is None else [self._names[i] for i in idx]
        return DirectedGraph(sub, node_names=names, validate=False)

    def largest_weakly_connected_component(self) -> "DirectedGraph":
        """The induced subgraph on the largest weakly connected component."""
        n_comp, labels = sp.csgraph.connected_components(
            self._adj, directed=True, connection="weak"
        )
        if n_comp <= 1:
            return self
        sizes = np.bincount(labels)
        keep = np.flatnonzero(labels == sizes.argmax())
        return self.subgraph(keep)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        named = "" if self._names is None else ", named"
        return (
            f"DirectedGraph(n_nodes={self.n_nodes}, "
            f"n_edges={self.n_edges}{named})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        if self.n_nodes != other.n_nodes:
            return False
        diff = (self._adj - other._adj).tocsr()
        diff.eliminate_zeros()
        return diff.nnz == 0 and self._names == other._names

    def __hash__(self) -> int:  # graphs are mutable-ish containers
        raise TypeError("DirectedGraph is not hashable")
