"""Symmetrization base class, registry and façade function.

Every symmetrization maps a :class:`~repro.graph.DirectedGraph` to an
:class:`~repro.graph.UndirectedGraph`. Concrete methods subclass
:class:`Symmetrization` and register themselves under a string name so
experiment sweeps can be configured by name.
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SymmetrizationError
from repro.graph.digraph import DirectedGraph
from repro.graph.ugraph import UndirectedGraph
from repro.linalg.sparse_utils import drop_diagonal, prune_matrix
from repro.obs.metrics import metric_inc, metric_set
from repro.obs.trace import span
from repro.perf.stopwatch import Stopwatch
from repro.validate.invariants import (
    degenerate_event,
    repair_graph,
    repair_matrix,
    validate_directed_graph,
)

__all__ = [
    "Symmetrization",
    "register_symmetrization",
    "get_symmetrization",
    "available_symmetrizations",
    "symmetrize",
]

_REGISTRY: dict[str, type["Symmetrization"]] = {}


def register_symmetrization(name: str):
    """Class decorator registering a symmetrization under ``name``."""

    def decorator(cls: type["Symmetrization"]) -> type["Symmetrization"]:
        if not issubclass(cls, Symmetrization):
            raise TypeError(f"{cls!r} is not a Symmetrization subclass")
        key = name.lower()
        if key in _REGISTRY and _REGISTRY[key] is not cls:
            raise SymmetrizationError(
                f"symmetrization name {name!r} already registered"
            )
        _REGISTRY[key] = cls
        cls.name = key
        return cls

    return decorator


def get_symmetrization(name: str, **params: object) -> "Symmetrization":
    """Instantiate a registered symmetrization by name.

    Common aliases are accepted: ``"a+at"``/``"naive"``,
    ``"random_walk"``/``"rw"``, ``"bibliometric"``/``"bib"``,
    ``"degree_discounted"``/``"dd"``.
    """
    aliases = {
        "a+at": "naive",
        "a_plus_at": "naive",
        "rw": "random_walk",
        "bib": "bibliometric",
        "dd": "degree_discounted",
    }
    key = aliases.get(name.lower(), name.lower())
    try:
        cls = _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SymmetrizationError(
            f"unknown symmetrization {name!r}; known: {known}"
        ) from None
    return cls(**params)  # type: ignore[call-arg]


def available_symmetrizations() -> list[str]:
    """Names of all registered symmetrizations, sorted."""
    return sorted(_REGISTRY)


class Symmetrization(abc.ABC):
    """Base class: a directed-to-undirected graph transformation.

    Subclasses implement :meth:`compute_matrix`, returning the raw
    symmetric similarity matrix ``U``. The public :meth:`apply` wraps it
    with validation, optional pruning (§3.5) and optional self-loop
    removal, and packages the result as an
    :class:`~repro.graph.UndirectedGraph`.
    """

    #: Registry name, set by :func:`register_symmetrization`.
    name: str = "abstract"

    @abc.abstractmethod
    def compute_matrix(self, graph: DirectedGraph) -> sp.csr_array:
        """The raw symmetric similarity matrix for ``graph``."""

    def config(self) -> dict[str, object]:
        """Identifying parameters (method name + constructor args).

        Used by the execution engine to fingerprint symmetrize stages
        for the content-addressed artifact cache, so it must cover
        every attribute that affects :meth:`compute_matrix`. The
        default returns all public instance attributes, which holds
        for every built-in symmetrization; subclasses with
        non-identifying state should override.
        """
        params = {
            key: value
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
        }
        return {"method": self.name, **params}

    def apply(
        self,
        graph: DirectedGraph,
        threshold: float = 0.0,
        drop_self_loops: bool = True,
    ) -> UndirectedGraph:
        """Symmetrize ``graph``.

        Parameters
        ----------
        graph:
            The directed input graph.
        threshold:
            Prune-threshold (§3.5): entries of ``U`` strictly below it
            are dropped. 0 keeps everything.
        drop_self_loops:
            Self-similarities (the diagonal of ``U``) carry no
            clustering information and are dropped by default.
        """
        if not isinstance(graph, DirectedGraph):
            raise SymmetrizationError(
                f"expected a DirectedGraph, got {type(graph).__name__}"
            )
        graph = self._validated_input(graph)
        with span(f"symmetrize:{self.name}") as sp_, Stopwatch(
            f"symmetrize:{self.name}"
        ) as sw:
            with span("compute_matrix"):
                matrix = self._validated_output(
                    self.compute_matrix(graph).tocsr(), graph
                )
            nnz_raw = matrix.nnz
            if threshold > 0:
                with span("prune"):
                    matrix = prune_matrix(matrix, threshold)
                metric_inc(
                    "edges_pruned_total", nnz_raw - matrix.nnz
                )
            if drop_self_loops:
                matrix = drop_diagonal(matrix)
            # Clean tiny asymmetries from floating-point products.
            matrix = ((matrix + matrix.T) * 0.5).tocsr()
            sw.count(
                n_nodes=graph.n_nodes,
                nnz_in=graph.adjacency.nnz,
                nnz_raw=nnz_raw,
                nnz_out=matrix.nnz,
            )
            sp_.set(
                n_nodes=graph.n_nodes,
                nnz_in=graph.adjacency.nnz,
                nnz_raw=nnz_raw,
                nnz_out=matrix.nnz,
                threshold=threshold,
            )
            metric_set("symmetrize_nnz_raw", nnz_raw)
            metric_set("symmetrize_nnz_out", matrix.nnz)
        return UndirectedGraph(
            matrix, node_names=graph.node_names, validate=False
        )

    def _validated_input(self, graph: DirectedGraph) -> DirectedGraph:
        """Reject (strict) or repair (lenient) malformed input weights.

        Graphs built through the validated constructors never trip
        this; it protects against ``validate=False`` construction and
        matrices mutated after the fact.
        """
        report = validate_directed_graph(graph.adjacency, level="basic")
        if report.ok:
            return graph
        degenerate_event(
            f"symmetrization {self.name!r} got an invalid input graph: "
            + report.summary(),
            SymmetrizationError,
            code="invalid_input",
        )
        graph, repair_report = repair_graph(graph)
        repair_report.emit_warnings(stacklevel=4)
        return graph

    def _validated_output(
        self, matrix: sp.csr_array, graph: DirectedGraph
    ) -> sp.csr_array:
        """Enforce the output invariants of every symmetrization.

        The similarity matrix must be finite and non-negative; an
        all-zero matrix for an input that has edges means the method
        silently collapsed (the random-walk P = 0 pathology).
        """
        bad_weights = matrix.nnz and not bool(
            np.all(np.isfinite(matrix.data))
        )
        if not bad_weights and matrix.nnz:
            bad_weights = bool((matrix.data < 0).any())
        if bad_weights:
            degenerate_event(
                f"symmetrization {self.name!r} produced non-finite or "
                "negative similarities",
                SymmetrizationError,
                code="invalid_output",
            )
            matrix, repair_report = repair_matrix(matrix)
            repair_report.emit_warnings(stacklevel=4)
        if graph.n_edges and matrix.nnz == 0:
            degenerate_event(
                f"symmetrization {self.name!r} produced an all-zero "
                f"matrix for a graph with {graph.n_edges} edges; "
                "clustering it would silently return singletons",
                SymmetrizationError,
                code="all_zero_output",
            )
        return matrix

    def __call__(
        self, graph: DirectedGraph, threshold: float = 0.0
    ) -> UndirectedGraph:
        """Shorthand for :meth:`apply`."""
        return self.apply(graph, threshold=threshold)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def symmetrize(
    graph: DirectedGraph,
    method: str | Symmetrization = "degree_discounted",
    threshold: float = 0.0,
    **params: object,
) -> UndirectedGraph:
    """Symmetrize a directed graph (the library's main façade).

    Parameters
    ----------
    graph:
        The directed input graph.
    method:
        Either a :class:`Symmetrization` instance or a registered name
        (``"naive"``/``"a+at"``, ``"random_walk"``, ``"bibliometric"``,
        ``"degree_discounted"``).
    threshold:
        Prune threshold applied to the similarity matrix (§3.5).
    **params:
        Extra constructor arguments when ``method`` is a name (e.g.
        ``alpha=0.5, beta=0.5`` for degree-discounted).

    Examples
    --------
    >>> from repro.graph.generators import figure1_graph
    >>> g, roles = figure1_graph()
    >>> u = symmetrize(g, "bibliometric")
    >>> u.has_edge(roles["pair"][0], roles["pair"][1])
    True
    """
    if isinstance(method, Symmetrization):
        if params:
            raise SymmetrizationError(
                "cannot pass parameters together with an instance"
            )
        sym = method
    else:
        sym = get_symmetrization(method, **params)
    return sym.apply(graph, threshold=threshold)
