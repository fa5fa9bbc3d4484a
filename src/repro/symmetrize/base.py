"""Symmetrization base class, registry and façade function.

Every symmetrization maps a :class:`~repro.graph.DirectedGraph` to an
:class:`~repro.graph.UndirectedGraph`. Concrete methods subclass
:class:`Symmetrization` and register themselves under a string name so
experiment sweeps can be configured by name.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SymmetrizationError
from repro.graph.digraph import DirectedGraph
from repro.graph.ugraph import UndirectedGraph
from repro.linalg.sparse_utils import prune_matrix, symmetric_average
from repro.obs.metrics import metric_inc, metric_set
from repro.obs.trace import span
from repro.validate.invariants import (
    degenerate_event,
    repair_graph,
    repair_matrix,
    repaired_weights_report,
    validate_directed_graph,
)

__all__ = [
    "Symmetrization",
    "register_symmetrization",
    "get_symmetrization",
    "available_symmetrizations",
    "symmetrize",
    "pruned_product_sum",
    "sum_of_parts",
]

#: Estimated product terms (one multiply-add of ``L[i, k] · R[k, j]``)
#: per row span when :meth:`Symmetrization.apply` prunes ``Σ L @ R``
#: span by span. On the 8 serve-jobs graphs of seed 5 (1,000 nodes,
#: 1.0M entries of ``U`` each) 2²⁰ makes 4 spans and took 50.7 ms per
#: graph against 51.1 ms as one span, with a 12.5 MB allocation peak
#: per call against 41.7 MB; 2¹⁸ (16 spans) took 57.3 ms. See
#: docs/performance.md.
_SPAN_TERMS = 1 << 20

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
    :class:`~repro.graph.UndirectedGraph`. Methods whose ``U`` is a sum
    of sparse products also implement :meth:`product_terms`; ``apply``
    then prunes ``U`` one row span at a time and never holds all of it.
    """

    #: Registry name, set by :func:`register_symmetrization`.
    name: str = "abstract"

    @abc.abstractmethod
    def compute_matrix(self, graph: DirectedGraph) -> sp.csr_array:
        """The raw symmetric similarity matrix for ``graph``."""

    def product_terms(
        self, graph: DirectedGraph
    ) -> list[tuple[sp.csr_array, sp.csr_array]] | None:
        """CSR pairs ``(L, R)`` whose products ``L @ R``, summed in
        order, are :meth:`compute_matrix`'s ``U`` in its arithmetic;
        ``None`` (the default) for methods that are not such a sum.

        Row ``i`` of ``L @ R`` depends only on row ``i`` of ``L``, so
        ``Σ L[a:b] @ R`` holds exactly rows ``a:b`` of ``U``.
        """
        return None

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
        with span(f"symmetrize:{self.name}") as sp_:
            if threshold > 0 and type(self).product_terms is not (
                Symmetrization.product_terms
            ):
                matrix, nnz_raw, n_spans, widest = self._pruned_spans(
                    graph, threshold
                )
            else:
                with span("compute_matrix"):
                    matrix = self._validated_output(
                        self.compute_matrix(graph).tocsr(), graph
                    )
                nnz_raw = widest = matrix.nnz
                n_spans = 1
                if threshold > 0:
                    with span("prune"):
                        matrix = prune_matrix(matrix, threshold)
            if threshold > 0:
                metric_inc(
                    "edges_pruned_total", nnz_raw - matrix.nnz
                )
            matrix = self._averaged(matrix, drop_self_loops)
            sp_.set(
                n_nodes=graph.n_nodes,
                nnz_in=graph.adjacency.nnz,
                nnz_raw=nnz_raw,
                nnz_out=matrix.nnz,
                threshold=threshold,
                row_spans=n_spans,
                row_span_nnz_max=widest,
            )
            metric_set("symmetrize_nnz_raw", nnz_raw)
            metric_set("symmetrize_nnz_out", matrix.nnz)
        return UndirectedGraph(
            matrix, node_names=graph.node_names, validate=False
        )

    def _pruned_spans(
        self, graph: DirectedGraph, threshold: float
    ) -> tuple[sp.csr_array, int, int, int]:
        """:func:`pruned_product_sum` of :meth:`product_terms`, each
        span validated like :meth:`_validated_output`: a strict run
        raises at the first bad span, a lenient one warns once per
        call and reports every repaired entry in one warning."""
        repaired: list[int] = []

        def check(raw: sp.csr_array) -> sp.csr_array:
            raw, n_bad = self._repaired_weights(raw, announce=not repaired)
            if n_bad:
                repaired.append(n_bad)
            return raw

        pruned, nnz_raw, n_spans, widest = pruned_product_sum(
            lambda: self.product_terms(graph), threshold, check
        )
        if repaired:
            repaired_weights_report(sum(repaired)).emit_warnings(
                stacklevel=4
            )
        self._check_nonzero(nnz_raw, graph)
        return pruned, nnz_raw, n_spans, widest

    def _averaged(
        self, matrix: sp.csr_array, drop_self_loops: bool
    ) -> sp.csr_array:
        """:func:`symmetric_average` of the finite, pruned ``matrix``.
        Its sum overflows only where an entry exceeds ``finfo.max /
        2``; only then is the output checked like a span, so a strict
        run raises ``invalid_output`` and a lenient one drops the inf
        entries and warns."""
        may_overflow = matrix.nnz and (
            matrix.data.max() > np.finfo(np.float64).max / 2
        )
        matrix = symmetric_average(matrix, drop_self_loops)
        if may_overflow:
            matrix, n_bad = self._repaired_weights(matrix, announce=True)
            if n_bad:
                repaired_weights_report(n_bad).emit_warnings(stacklevel=4)
        return matrix

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
        matrix, n_bad = self._repaired_weights(matrix, announce=True)
        if n_bad:
            repaired_weights_report(n_bad).emit_warnings(stacklevel=4)
        self._check_nonzero(matrix.nnz, graph)
        return matrix

    def _repaired_weights(
        self, matrix: sp.csr_array, announce: bool
    ) -> tuple[sp.csr_array, int]:
        """``matrix`` without non-finite or negative similarities, and
        how many were dropped. Finding one raises in a strict context;
        in a lenient one it warns when ``announce`` is set."""
        bad_weights = matrix.nnz and not bool(
            np.all(np.isfinite(matrix.data))
        )
        if not bad_weights and matrix.nnz:
            bad_weights = bool((matrix.data < 0).any())
        if not bad_weights:
            return matrix, 0
        if announce:
            degenerate_event(
                f"symmetrization {self.name!r} produced non-finite or "
                "negative similarities",
                SymmetrizationError,
                code="invalid_output",
                stacklevel=4,
            )
        repaired, report = repair_matrix(matrix)
        return repaired, report.issues[0].count

    def _check_nonzero(self, nnz: int, graph: DirectedGraph) -> None:
        if graph.n_edges and nnz == 0:
            degenerate_event(
                f"symmetrization {self.name!r} produced an all-zero "
                f"matrix for a graph with {graph.n_edges} edges; "
                "clustering it would silently return singletons",
                SymmetrizationError,
                code="all_zero_output",
            )

    def __call__(
        self, graph: DirectedGraph, threshold: float = 0.0
    ) -> UndirectedGraph:
        """Shorthand for :meth:`apply`."""
        return self.apply(graph, threshold=threshold)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def sum_of_parts(parts: list[sp.csr_array]) -> sp.csr_array:
    """``parts[0] + parts[1] + …`` as CSR, added left to right."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total.tocsr()


def pruned_product_sum(
    make_terms: Callable[[], list[tuple[sp.csr_array, sp.csr_array]]],
    threshold: float,
    check: Callable[[sp.csr_array], sp.csr_array] | None = None,
) -> tuple[sp.csr_array, int, int, int]:
    """``prune_matrix(Σ L @ R, threshold)`` over the ``(L, R)`` pairs
    ``make_terms()`` returns, one row span at a time.

    Each span ``Σ L[a:b] @ R`` is computed in a ``compute_matrix``
    trace span (the first also builds the factors), passed through
    ``check`` and pruned in a ``prune`` span at once, so only one
    span's raw entries are alive at a time. Spans hold about
    :data:`_SPAN_TERMS` estimated product terms each. SciPy computes
    each row of a product on its own, so the pruned spans stacked are
    the bytes and index dtype of pruning the whole sum. Returns the
    pruned matrix, the raw entries summed over the spans, the number
    of spans and the most raw entries one span held.
    """
    pieces: list[sp.csr_array] = []
    nnz_raw = widest = 0
    with span("compute_matrix") as trace:
        terms = make_terms()
        bounds = _row_spans(terms)
        raw = _span_sum(terms, *bounds[0], check, trace)
    for index, (a, b) in enumerate(bounds):
        if index:
            with span("compute_matrix") as trace:
                raw = _span_sum(terms, a, b, check, trace)
        nnz_raw += raw.nnz
        widest = max(widest, raw.nnz)
        with span("prune") as trace:
            pieces.append(prune_matrix(raw, threshold))
            trace.set(nnz_out=pieces[-1].nnz)
        del raw  # the next span is computed without this one alive
    return _stacked_rows(pieces), nnz_raw, len(bounds), widest


def _row_spans(
    terms: list[tuple[sp.csr_array, sp.csr_array]],
) -> list[tuple[int, int]]:
    """Consecutive row spans of ``Σ L @ R`` under :data:`_SPAN_TERMS`
    product terms each (row ``i`` of ``L @ R`` takes one term per
    entry of ``R[k]`` for each ``k`` in ``L[i]``); a row above the
    budget is a span alone, and a matrix without rows is one empty
    span."""
    from repro.linalg.allpairs import _budget_spans

    cum = 0
    for left, right in terms:
        per_entry = np.diff(right.indptr)[left.indices]
        running = np.zeros(per_entry.size + 1, dtype=np.int64)
        np.cumsum(per_entry, out=running[1:])
        cum = cum + running[left.indptr]
    return _budget_spans(cum, _SPAN_TERMS) or [(0, 0)]


def _span_sum(
    terms: list[tuple[sp.csr_array, sp.csr_array]],
    a: int,
    b: int,
    check: Callable[[sp.csr_array], sp.csr_array] | None,
    trace: object,
) -> sp.csr_array:
    """Rows ``a:b`` of ``Σ L @ R``, summed in the order of ``terms``
    and passed through ``check``."""
    total = None
    for left, right in terms:
        part = left[a:b] @ right
        total = part if total is None else total + part
    if check is not None:
        total = check(total)
    trace.set(rows=b - a, nnz_raw=total.nnz)
    return total


def _stacked_rows(pieces: list[sp.csr_array]) -> sp.csr_array:
    """The canonical row spans ``pieces`` stacked into one CSR, with
    the index dtype pruning the whole matrix gives: 64-bit when a
    span kept 64-bit indices or the shape or entry count needs it."""
    nnz = sum(piece.nnz for piece in pieces)
    shape = (sum(piece.shape[0] for piece in pieces), pieces[0].shape[1])
    if nnz == 0:
        return sp.csr_array(shape, dtype=pieces[0].dtype)
    dtype = np.int32
    if any(p.nnz and p.indices.dtype != np.int32 for p in pieces) or (
        max(*shape, nnz) > np.iinfo(np.int32).max
    ):
        dtype = np.int64
    indptr = np.zeros(shape[0] + 1, dtype=dtype)
    np.cumsum(
        np.concatenate([np.diff(piece.indptr) for piece in pieces]),
        out=indptr[1:],
    )
    return sp.csr_array(
        (
            np.concatenate([piece.data for piece in pieces]),
            np.concatenate([piece.indices for piece in pieces]).astype(
                dtype, copy=False
            ),
            indptr,
        ),
        shape=shape,
    )


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
