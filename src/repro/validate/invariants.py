"""Composable structural invariant checks for graphs and matrices.

Real directed graphs — Cora, Wikipedia, the Mislove et al. social
networks — arrive with dangling nodes, self-loops, duplicate edges,
isolated vertices and occasionally malformed weights, and degenerate
structure is exactly where directed clustering methods break silently
(Malliaros & Vazirgiannis survey, §5). This module turns those failure
modes into first-class, *inspectable* objects:

- Each ``check_*`` function examines one invariant on a sparse matrix
  and returns a list of :class:`ValidationIssue` (usually zero or one).
- :class:`ValidationReport` aggregates issues with severities, can
  raise a typed :class:`~repro.exceptions.ValidationError` (strict) or
  emit :class:`~repro.exceptions.ValidationWarning` (lenient).
- :func:`validate_directed_graph`, :func:`validate_edge_list` and
  :func:`validate_symmetrization_output` compose the checks for the
  three pipeline boundaries: input construction, file ingestion and
  symmetrization output.
- :func:`repair_graph` implements the lenient repairs-and-warns path:
  non-finite and negative weights are dropped, everything else is kept.

Strictness is ambient: :func:`strictness` / :func:`lenient` install a
context-local flag that :func:`degenerate_event` and the symmetrize /
pagerank / pipeline layers consult to decide between raising a typed
error and warning-and-continuing. The pipeline's ``mode="lenient"``
is implemented on top of this context.
"""

from __future__ import annotations

import contextlib
import warnings
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.exceptions import (
    DegenerateGraphWarning,
    RepairWarning,
    ReproError,
    ValidationError,
    ValidationWarning,
)

__all__ = [
    "ValidationIssue",
    "ValidationReport",
    "check_square",
    "check_finite_weights",
    "check_non_negative_weights",
    "check_self_loops",
    "check_dangling_nodes",
    "check_isolated_nodes",
    "check_symmetric",
    "check_zero_diagonal",
    "check_all_zero",
    "validate_directed_graph",
    "validate_undirected_graph",
    "validate_symmetrization_output",
    "validate_edge_list",
    "repair_matrix",
    "repair_graph",
    "strictness",
    "lenient",
    "is_strict",
    "degenerate_event",
    "repair_event",
    "coerce_level",
    "VALIDATION_LEVELS",
]

#: Recognized construction-time validation levels (graph classes map
#: ``validate=True`` to ``"basic"`` and ``validate=False`` to ``"none"``).
VALIDATION_LEVELS = ("none", "basic", "full")

#: How many offending node indices a ValidationIssue samples at most.
_SAMPLE = 8


def coerce_level(validate: bool | str) -> str:
    """Map the graph classes' ``validate=`` argument to a level name.

    ``True`` (the historical default) means ``"basic"``, ``False``
    means ``"none"``; strings must be one of
    :data:`VALIDATION_LEVELS`.
    """
    if validate is True:
        return "basic"
    if validate is False:
        return "none"
    if validate in VALIDATION_LEVELS:
        return str(validate)
    raise ValidationError(
        f"validate must be a bool or one of {VALIDATION_LEVELS}, "
        f"got {validate!r}"
    )


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found by a check.

    Attributes
    ----------
    code:
        Machine-readable identifier, e.g. ``"non_finite_weights"``.
    severity:
        ``"error"`` for violations that make downstream results
        meaningless (NaN weights, asymmetry) or ``"warning"`` for
        structure that is legal but degrades clustering quality
        (dangling nodes, self-loops, isolated vertices).
    message:
        Human-readable description.
    count:
        Number of offending entries/nodes, when meaningful.
    nodes:
        A small sample (up to 8) of offending node indices.
    """

    code: str
    severity: str
    message: str
    count: int = 0
    nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in ("error", "warning"):
            raise ValueError(f"bad severity {self.severity!r}")


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of running a set of invariant checks.

    Reports compose with ``+`` so per-stage reports can be merged into
    a pipeline-level one.
    """

    issues: tuple[ValidationIssue, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity issue was found."""
        return not self.errors

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")

    def __add__(self, other: "ValidationReport") -> "ValidationReport":
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return ValidationReport(self.issues + other.issues)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """One line per issue, errors first."""
        ordered = list(self.errors) + list(self.warnings)
        if not ordered:
            return "ok"
        return "; ".join(
            f"[{i.severity}] {i.code}: {i.message}" for i in ordered
        )

    def raise_errors(
        self, exc_type: type[ReproError] = ValidationError
    ) -> None:
        """Raise ``exc_type`` summarizing all error-severity issues."""
        if not self.errors:
            return
        message = "; ".join(i.message for i in self.errors)
        try:
            raise exc_type(message, report=self)  # type: ignore[call-arg]
        except TypeError:
            raise exc_type(message) from None

    def emit_warnings(
        self,
        category: type[Warning] = ValidationWarning,
        stacklevel: int = 2,
    ) -> None:
        """Emit every warning-severity issue as a python warning."""
        for issue in self.warnings:
            warnings.warn(
                category(f"{issue.code}: {issue.message}", code=issue.code)
                if issubclass(category, ValidationWarning)
                else category(f"{issue.code}: {issue.message}"),
                stacklevel=stacklevel,
            )


# ---------------------------------------------------------------------------
# Individual checks (matrix-level)
# ---------------------------------------------------------------------------


def _sample(indices: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in indices[:_SAMPLE])


def check_square(matrix: sp.sparray) -> list[ValidationIssue]:
    """An adjacency matrix must be square."""
    if matrix.shape[0] != matrix.shape[1]:
        return [
            ValidationIssue(
                "non_square",
                "error",
                f"adjacency must be square, got shape {matrix.shape}",
            )
        ]
    return []


def check_finite_weights(matrix: sp.sparray) -> list[ValidationIssue]:
    """No NaN or +-inf edge weights."""
    csr = matrix.tocsr()
    if csr.nnz == 0:
        return []
    bad = ~np.isfinite(csr.data)
    n_bad = int(bad.sum())
    if n_bad == 0:
        return []
    rows = np.repeat(
        np.arange(csr.shape[0]), np.diff(csr.indptr)
    )[bad]
    return [
        ValidationIssue(
            "non_finite_weights",
            "error",
            f"edge weights must be finite: {n_bad} NaN/inf entrie(s)",
            count=n_bad,
            nodes=_sample(np.unique(rows)),
        )
    ]


def check_non_negative_weights(matrix: sp.sparray) -> list[ValidationIssue]:
    """No negative edge weights (similarities are non-negative)."""
    csr = matrix.tocsr()
    if csr.nnz == 0:
        return []
    with np.errstate(invalid="ignore"):
        bad = csr.data < 0
    n_bad = int(bad.sum())
    if n_bad == 0:
        return []
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))[bad]
    return [
        ValidationIssue(
            "negative_weights",
            "error",
            f"edge weights must be non-negative: {n_bad} negative "
            "entrie(s)",
            count=n_bad,
            nodes=_sample(np.unique(rows)),
        )
    ]


def check_self_loops(
    matrix: sp.sparray, severity: str = "warning"
) -> list[ValidationIssue]:
    """Self-loops carry no link-similarity information."""
    diag = matrix.tocsr().diagonal()
    loops = np.flatnonzero(diag != 0)
    if loops.size == 0:
        return []
    return [
        ValidationIssue(
            "self_loops",
            severity,
            f"{loops.size} node(s) have self-loops",
            count=int(loops.size),
            nodes=_sample(loops),
        )
    ]


def check_dangling_nodes(matrix: sp.sparray) -> list[ValidationIssue]:
    """Nodes with zero out-degree (random-walk rows are all-zero)."""
    csr = matrix.tocsr()
    out_deg = np.diff(csr.indptr)
    dangling = np.flatnonzero(out_deg == 0)
    if dangling.size == 0:
        return []
    severity = "warning"
    message = f"{dangling.size} node(s) are dangling (no out-links)"
    if dangling.size == csr.shape[0] and csr.shape[0] > 0:
        message = (
            "every node is dangling (no edges at all); random-walk "
            "symmetrization would be identically zero"
        )
    return [
        ValidationIssue(
            "dangling_nodes",
            severity,
            message,
            count=int(dangling.size),
            nodes=_sample(dangling),
        )
    ]


def check_isolated_nodes(matrix: sp.sparray) -> list[ValidationIssue]:
    """Nodes with neither in- nor out-links; they cluster as singletons."""
    csr = matrix.tocsr()
    out_deg = np.diff(csr.indptr)
    in_deg = np.zeros(csr.shape[1], dtype=np.int64)
    np.add.at(in_deg, csr.indices, 1)
    isolated = np.flatnonzero((out_deg == 0) & (in_deg == 0))
    if isolated.size == 0:
        return []
    return [
        ValidationIssue(
            "isolated_nodes",
            "warning",
            f"{isolated.size} node(s) are isolated (no links at all)",
            count=int(isolated.size),
            nodes=_sample(isolated),
        )
    ]


def check_symmetric(
    matrix: sp.sparray, rtol: float = 1e-8
) -> list[ValidationIssue]:
    """Symmetrization outputs must be symmetric up to round-off."""
    csr = matrix.tocsr()
    if csr.shape[0] != csr.shape[1]:
        return []  # reported by check_square
    asym = abs(csr - csr.T)
    max_asym = float(asym.max()) if asym.nnz else 0.0
    scale = float(abs(csr).max()) if csr.nnz else 1.0
    if max_asym <= rtol * max(scale, 1.0):
        return []
    return [
        ValidationIssue(
            "asymmetric",
            "error",
            f"adjacency is not symmetric (max asymmetry {max_asym:.3e})",
        )
    ]


def check_zero_diagonal(matrix: sp.sparray) -> list[ValidationIssue]:
    """Self-similarities should have been dropped from the output."""
    return [
        ValidationIssue(
            i.code.replace("self_loops", "nonzero_diagonal"),
            i.severity,
            i.message.replace("self-loops", "non-zero diagonal entries"),
            count=i.count,
            nodes=i.nodes,
        )
        for i in check_self_loops(matrix)
    ]


def check_all_zero(
    matrix: sp.sparray, had_input_edges: bool = True
) -> list[ValidationIssue]:
    """An all-zero similarity matrix for a non-empty input means the
    symmetrization silently collapsed (the random-walk P = 0 case)."""
    csr = matrix.tocsr()
    csr_nnz = csr.nnz
    if csr_nnz or not had_input_edges:
        return []
    return [
        ValidationIssue(
            "all_zero_output",
            "error",
            "symmetrization produced an all-zero matrix for a graph "
            "that has edges; downstream clustering would silently "
            "return singletons",
        )
    ]


# ---------------------------------------------------------------------------
# Composed validators
# ---------------------------------------------------------------------------


def validate_directed_graph(
    graph_or_matrix: object, level: str = "full"
) -> ValidationReport:
    """Run the input-side invariant suite on a directed adjacency.

    ``level="basic"`` checks only what makes a graph unusable (square,
    finite, non-negative); ``"full"`` adds the structural warnings
    (self-loops, dangling and isolated nodes). ``"none"`` returns an
    empty (passing) report.
    """
    if level not in VALIDATION_LEVELS:
        raise ValidationError(
            f"unknown validation level {level!r}; "
            f"expected one of {VALIDATION_LEVELS}"
        )
    if level == "none":
        return ValidationReport()
    matrix = getattr(graph_or_matrix, "adjacency", graph_or_matrix)
    issues = list(check_square(matrix))
    if not issues:  # remaining checks assume a square matrix
        issues += check_finite_weights(matrix)
        issues += check_non_negative_weights(matrix)
        if level == "full":
            issues += check_self_loops(matrix)
            issues += check_dangling_nodes(matrix)
            issues += check_isolated_nodes(matrix)
    return ValidationReport(tuple(issues))


def validate_undirected_graph(
    graph_or_matrix: object, level: str = "full"
) -> ValidationReport:
    """Input-side suite for undirected adjacencies (adds symmetry)."""
    if level not in VALIDATION_LEVELS:
        raise ValidationError(
            f"unknown validation level {level!r}; "
            f"expected one of {VALIDATION_LEVELS}"
        )
    if level == "none":
        return ValidationReport()
    matrix = getattr(graph_or_matrix, "adjacency", graph_or_matrix)
    issues = list(check_square(matrix))
    if not issues:
        issues += check_finite_weights(matrix)
        issues += check_non_negative_weights(matrix)
        issues += check_symmetric(matrix)
        if level == "full":
            issues += check_self_loops(matrix)
            issues += check_isolated_nodes(matrix)
    return ValidationReport(tuple(issues))


def validate_symmetrization_output(
    matrix: sp.sparray, had_input_edges: bool = True
) -> ValidationReport:
    """Output-side invariants every symmetrization must satisfy:
    symmetric, finite, non-negative, zero diagonal, not silently zero."""
    issues = list(check_square(matrix))
    if not issues:
        issues += check_finite_weights(matrix)
        issues += check_non_negative_weights(matrix)
        issues += check_symmetric(matrix)
        issues += check_zero_diagonal(matrix)
        issues += check_all_zero(matrix, had_input_edges=had_input_edges)
    return ValidationReport(tuple(issues))


def validate_edge_list(
    edges: Iterable[tuple[int, int] | tuple[int, int, float]],
) -> ValidationReport:
    """Pre-construction checks on raw ``(src, dst[, weight])`` tuples.

    Detects negative node ids, non-finite weights and duplicate edges
    *before* CSR conversion silently sums the duplicates away.
    """
    issues: list[ValidationIssue] = []
    seen: set[tuple[int, int]] = set()
    duplicates: set[tuple[int, int]] = set()
    n_negative_ids = 0
    n_bad_weights = 0
    bad_nodes: list[int] = []
    for edge in edges:
        if len(edge) == 2:
            i, j = edge  # type: ignore[misc]
            w = 1.0
        else:
            i, j, w = edge  # type: ignore[misc]
        i, j = int(i), int(j)
        if i < 0 or j < 0:
            n_negative_ids += 1
            bad_nodes.append(min(i, j))
        if not np.isfinite(w):
            n_bad_weights += 1
        key = (i, j)
        if key in seen:
            duplicates.add(key)
        seen.add(key)
    if n_negative_ids:
        issues.append(
            ValidationIssue(
                "negative_node_ids",
                "error",
                f"{n_negative_ids} edge(s) have negative node ids",
                count=n_negative_ids,
                nodes=tuple(bad_nodes[:_SAMPLE]),
            )
        )
    if n_bad_weights:
        issues.append(
            ValidationIssue(
                "non_finite_weights",
                "error",
                f"{n_bad_weights} edge weight(s) are NaN or infinite",
                count=n_bad_weights,
            )
        )
    if duplicates:
        issues.append(
            ValidationIssue(
                "duplicate_edges",
                "warning",
                f"{len(duplicates)} edge(s) appear more than once "
                "(weights will be summed)",
                count=len(duplicates),
                nodes=tuple(i for i, _ in sorted(duplicates))[:_SAMPLE],
            )
        )
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# Repair (the lenient path)
# ---------------------------------------------------------------------------


def repair_matrix(
    matrix: sp.sparray,
) -> tuple[sp.csr_array, ValidationReport]:
    """Drop non-finite and negative entries from a sparse matrix.

    Returns the repaired CSR matrix and a report (warning severity)
    describing what was removed. Entries are *dropped*, not clamped:
    a NaN similarity carries no information, and a negative weight has
    no interpretation in any of the paper's symmetrizations.
    """
    csr = matrix.tocsr().copy()
    report = ValidationReport()
    if csr.nnz:
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(csr.data) | (csr.data < 0)
        n_bad = int(bad.sum())
        if n_bad:
            csr.data[bad] = 0.0
            csr.eliminate_zeros()
            report = repaired_weights_report(n_bad)
    return csr, report


def repaired_weights_report(n_bad: int) -> ValidationReport:
    """The report :func:`repair_matrix` gives for ``n_bad`` dropped
    entries (also used to report a repair made piece by piece)."""
    return ValidationReport(
        (
            ValidationIssue(
                "repaired_weights",
                "warning",
                f"dropped {n_bad} non-finite or negative edge weight(s)",
                count=n_bad,
            ),
        )
    )


def repair_graph(graph: object) -> tuple[object, ValidationReport]:
    """Lenient repair of a :class:`~repro.graph.DirectedGraph` (or
    undirected): drop unusable entries, keep the rest.

    Non-square adjacencies cannot be repaired and raise
    :class:`~repro.exceptions.ValidationError`.
    """
    from repro.graph.digraph import DirectedGraph
    from repro.graph.ugraph import UndirectedGraph

    matrix = getattr(graph, "adjacency", graph)
    ValidationReport(tuple(check_square(matrix))).raise_errors()
    fixed, report = repair_matrix(matrix)
    if not report.issues:
        return graph, report
    if isinstance(graph, UndirectedGraph):
        # Dropping entries can break symmetry when only one triangle
        # held the bad value; re-symmetrize by max to keep good weights.
        fixed = fixed.maximum(fixed.T).tocsr()
        repaired = UndirectedGraph(
            fixed, node_names=graph.node_names, validate=False
        )
    elif isinstance(graph, DirectedGraph):
        repaired = DirectedGraph(
            fixed, node_names=graph.node_names, validate=False
        )
    else:
        repaired = fixed
    return repaired, report


# ---------------------------------------------------------------------------
# Ambient strictness
# ---------------------------------------------------------------------------

_STRICT: ContextVar[bool] = ContextVar("repro_validation_strict",
                                       default=True)


def is_strict() -> bool:
    """Whether the current context treats degenerate events as errors."""
    return _STRICT.get()


@contextlib.contextmanager
def strictness(strict: bool) -> Iterator[None]:
    """Set the ambient strict/lenient flag for the enclosed block."""
    token = _STRICT.set(bool(strict))
    try:
        yield
    finally:
        _STRICT.reset(token)


def lenient() -> contextlib.AbstractContextManager[None]:
    """Shorthand for ``strictness(False)`` — the repairs-and-warns mode."""
    return strictness(False)


def degenerate_event(
    message: str,
    exc_type: type[ReproError],
    code: str = "degenerate",
    stacklevel: int = 3,
) -> None:
    """Raise ``exc_type`` (strict context) or warn and continue
    (lenient context). The single switch point every hardened stage
    routes its degenerate-input decisions through."""
    if is_strict():
        raise exc_type(message)
    warnings.warn(
        DegenerateGraphWarning(message, code=code), stacklevel=stacklevel
    )


def repair_event(message: str, code: str = "repaired",
                 stacklevel: int = 3) -> None:
    """Emit a :class:`RepairWarning` describing an applied repair."""
    warnings.warn(RepairWarning(message, code=code), stacklevel=stacklevel)
