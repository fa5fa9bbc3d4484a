"""Clustering result type, clusterer base class and registry."""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ClusteringError
from repro.graph.ugraph import UndirectedGraph

__all__ = [
    "Clustering",
    "GraphClusterer",
    "register_clusterer",
    "get_clusterer",
    "available_clusterers",
]

_REGISTRY: dict[str, type["GraphClusterer"]] = {}


class Clustering:
    """A hard assignment of nodes to clusters.

    Parameters
    ----------
    labels:
        Integer array of length ``n_nodes``; ``labels[v]`` is the
        cluster id of node ``v``. Labels are compacted at construction
        to ``0 .. n_clusters-1`` preserving order of first appearance.

    Notes
    -----
    Singleton clusters matter in this library: the paper diagnoses the
    pruned Bibliometric symmetrization by its ~50% singleton nodes
    (§5.3), so :meth:`singleton_count` and :attr:`sizes` are first-class.
    """

    __slots__ = ("_labels", "_sizes")

    def __init__(self, labels: np.ndarray | list[int]) -> None:
        arr = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 1:
            raise ClusteringError("labels must be one-dimensional")
        if arr.size and arr.min() < 0:
            raise ClusteringError("labels must be non-negative")
        # Compact to 0..k-1 in order of first appearance.
        _, first_index, inverse = np.unique(
            arr, return_index=True, return_inverse=True
        )
        order = np.argsort(np.argsort(first_index))
        self._labels = order[inverse]
        self._sizes = np.bincount(self._labels) if arr.size else np.array(
            [], dtype=np.int64
        )

    @property
    def labels(self) -> np.ndarray:
        """Compacted label array (read-only view)."""
        view = self._labels.view()
        view.flags.writeable = False
        return view

    @property
    def n_nodes(self) -> int:
        """Number of clustered nodes."""
        return self._labels.size

    @property
    def n_clusters(self) -> int:
        """Number of distinct clusters."""
        return self._sizes.size

    @property
    def sizes(self) -> np.ndarray:
        """Size of each cluster, indexed by cluster id."""
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the nodes in ``cluster``."""
        if not 0 <= cluster < self.n_clusters:
            raise ClusteringError(f"no such cluster: {cluster}")
        return np.flatnonzero(self._labels == cluster)

    def clusters(self) -> list[np.ndarray]:
        """All clusters as a list of index arrays, ordered by id."""
        order = np.argsort(self._labels, kind="stable")
        boundaries = np.cumsum(self._sizes)[:-1]
        return np.split(order, boundaries)

    def singleton_count(self) -> int:
        """Number of clusters of size 1."""
        return int(np.count_nonzero(self._sizes == 1))

    def singleton_fraction(self) -> float:
        """Fraction of *nodes* that sit in singleton clusters."""
        if self.n_nodes == 0:
            return 0.0
        return self.singleton_count() / self.n_nodes

    def indicator_matrix(self):
        """Sparse ``n_nodes x n_clusters`` 0/1 assignment matrix."""
        import scipy.sparse as sp

        n = self.n_nodes
        return sp.csr_array(
            (
                np.ones(n),
                (np.arange(n), self._labels),
            ),
            shape=(n, self.n_clusters),
        )

    def __repr__(self) -> str:
        return (
            f"Clustering(n_nodes={self.n_nodes}, "
            f"n_clusters={self.n_clusters})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return np.array_equal(self._labels, other._labels)

    def __hash__(self) -> int:
        raise TypeError("Clustering is not hashable")


def _check_input(graph: UndirectedGraph, n_clusters: int | None) -> None:
    """Shared input validation for clusterers."""
    if not isinstance(graph, UndirectedGraph):
        raise ClusteringError(
            f"expected an UndirectedGraph, got {type(graph).__name__}"
        )
    if graph.n_nodes == 0:
        raise ClusteringError("cannot cluster an empty graph")
    if n_clusters is not None:
        if n_clusters < 1:
            raise ClusteringError("n_clusters must be >= 1")
        if n_clusters > graph.n_nodes:
            raise ClusteringError(
                f"n_clusters={n_clusters} exceeds n_nodes={graph.n_nodes}"
            )


class GraphClusterer(abc.ABC):
    """Base class for undirected graph clustering algorithms.

    Subclasses implement :meth:`_cluster`; the public :meth:`cluster`
    adds input validation. ``n_clusters`` is a *request*: algorithms
    like MLR-MCL control cluster counts only indirectly (the paper
    notes this in §4.2) and may return a different number.
    """

    #: Registry name, set by :func:`register_clusterer`.
    name: str = "abstract"

    def cluster(
        self, graph: UndirectedGraph, n_clusters: int | None = None
    ) -> Clustering:
        """Cluster ``graph`` into (approximately) ``n_clusters`` parts.

        An edgeless graph short-circuits to the all-singletons
        clustering (the only consistent answer) with a
        :class:`~repro.exceptions.DegenerateGraphWarning` rather than
        feeding an all-zero matrix into algorithm internals.
        """
        import warnings

        from repro.exceptions import DegenerateGraphWarning
        from repro.obs.metrics import metric_set
        from repro.obs.trace import span

        _check_input(graph, n_clusters)
        if graph.adjacency.nnz == 0:
            warnings.warn(
                DegenerateGraphWarning(
                    f"clusterer {self.name!r} got a graph with no "
                    "edges; every node becomes a singleton cluster",
                    code="edgeless_clustering",
                ),
                stacklevel=2,
            )
            return Clustering(np.arange(graph.n_nodes))
        with span(f"cluster:{self.name}") as sp_:
            result = self._cluster(graph, n_clusters)
            sp_.set(
                n_nodes=graph.n_nodes,
                nnz_in=graph.adjacency.nnz,
                n_clusters=result.n_clusters,
            )
            metric_set("n_clusters_found", result.n_clusters)
            metric_set(
                "singleton_fraction", result.singleton_fraction()
            )
        return result

    @abc.abstractmethod
    def _cluster(
        self, graph: UndirectedGraph, n_clusters: int | None
    ) -> Clustering:
        """Algorithm body (input already validated)."""

    def config(self) -> dict[str, object]:
        """Identifying parameters (algorithm name + constructor args).

        Mirrors :meth:`repro.symmetrize.Symmetrization.config`: the
        execution engine folds this into stage fingerprints, so it
        must cover every attribute that affects :meth:`_cluster`.
        """
        params = {
            key: value
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
        }
        return {"algorithm": self.name, **params}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def register_clusterer(name: str):
    """Class decorator registering a clusterer under ``name``."""

    def decorator(cls: type[GraphClusterer]) -> type[GraphClusterer]:
        if not issubclass(cls, GraphClusterer):
            raise TypeError(f"{cls!r} is not a GraphClusterer subclass")
        key = name.lower()
        if key in _REGISTRY and _REGISTRY[key] is not cls:
            raise ClusteringError(
                f"clusterer name {name!r} already registered"
            )
        _REGISTRY[key] = cls
        cls.name = key
        return cls

    return decorator


def get_clusterer(name: str, **params: object) -> GraphClusterer:
    """Instantiate a registered clusterer by name.

    Known names: ``"mlrmcl"``, ``"metis"``, ``"graclus"``,
    ``"spectral"``.
    """
    key = name.lower()
    try:
        cls = _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ClusteringError(
            f"unknown clusterer {name!r}; known: {known}"
        ) from None
    return cls(**params)  # type: ignore[call-arg]


def available_clusterers() -> list[str]:
    """Names of all registered clusterers, sorted."""
    return sorted(_REGISTRY)
