"""Exception and warning hierarchy for the :mod:`repro` library.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library-level failures with a
single ``except ReproError`` clause while letting programming errors
(``TypeError`` from misuse of numpy, etc.) propagate.

Warnings emitted by the library — the *lenient* channel of the
validation subsystem (:mod:`repro.validate`) — derive from
:class:`ReproWarning` so they can be filtered, promoted to errors with
``warnings.simplefilter("error", ReproWarning)``, or collected by the
pipeline's structured warnings channel without touching third-party
warnings.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "ValidationError",
    "SymmetrizationError",
    "ClusteringError",
    "ConvergenceError",
    "EvaluationError",
    "DatasetError",
    "StorageError",
    "PipelineError",
    "TransientError",
    "FaultInjected",
    "BudgetExceeded",
    "ServiceOverloaded",
    "ReproWarning",
    "ValidationWarning",
    "DegenerateGraphWarning",
    "RepairWarning",
    "ConvergenceWarning",
    "ExecutionWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph construction or operation (e.g. non-square matrix)."""


class GraphFormatError(GraphError):
    """A graph file could not be parsed (bad edge list, bad METIS header)."""


class ValidationError(GraphError):
    """A graph failed the invariant checks of :mod:`repro.validate`.

    Carries the offending :class:`repro.validate.ValidationReport` on
    the ``report`` attribute when raised by the validation subsystem.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class SymmetrizationError(ReproError):
    """A symmetrization could not be computed or was misconfigured."""


class ClusteringError(ReproError):
    """A clustering algorithm received invalid input (e.g. k > n)."""


class ConvergenceError(ClusteringError):
    """An iterative method failed to converge within its iteration budget."""


class EvaluationError(ReproError):
    """Evaluation was asked to compare incompatible clusterings/labels."""


class DatasetError(ReproError):
    """A synthetic dataset generator was given unsatisfiable parameters."""


class StorageError(ReproError):
    """An out-of-core store (:mod:`repro.linalg.mmcsr`) is missing,
    incomplete, or inconsistent — e.g. opening the scratch directory
    left behind by a crashed build, or a row window out of range."""


class PipelineError(ReproError):
    """The symmetrize-cluster pipeline was misconfigured or could not
    recover from a degenerate input, even in lenient mode."""


class TransientError(ReproError):
    """A failure that may succeed on re-execution (a flaky worker, a
    saturated resource, an injected chaos fault).

    The default :class:`repro.engine.RetryPolicy` retries exactly this
    class; deterministic failures (bad input, misconfiguration) derive
    from other :class:`ReproError` branches and are never retried.
    """


class FaultInjected(TransientError):
    """An artificial failure raised by the chaos harness
    (:mod:`repro.engine.chaos`). Transient by design so retry and
    recovery paths can be exercised deterministically in tests."""


class BudgetExceeded(ReproError):
    """A stage or plan overran its :class:`repro.engine.Budget`.

    Structured: ``scope`` names what overran (a stage name or
    ``"plan"``), ``resource`` is ``"wall_s"`` or ``"mem_bytes"``, and
    ``limit``/``spent`` quantify the overrun. Budget overruns are
    deterministic with respect to the work attempted, so they are
    *not* retried; lenient sweep drivers degrade them to a skipped
    point with a structured warning instead.
    """

    def __init__(
        self,
        scope: str,
        resource: str,
        limit: float,
        spent: float,
    ) -> None:
        unit = "s" if resource == "wall_s" else " bytes"
        super().__init__(
            f"{scope} exceeded its {resource} budget: spent "
            f"{spent:.6g}{unit} of {limit:.6g}{unit}"
        )
        self.scope = scope
        self.resource = resource
        self.limit = limit
        self.spent = spent


class ServiceOverloaded(ReproError):
    """The service shed a request under overload (HTTP 503).

    Raised by the job manager's admission control when the queue is
    at its bound, and re-raised client-side from the structured 503
    body. ``retry_after_s`` is the server's suggested backoff — the
    hardened :class:`~repro.service.ServiceClient` honours it.
    """

    def __init__(
        self,
        message: str = "service overloaded; retry later",
        retry_after_s: float = 1.0,
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


# ---------------------------------------------------------------------------
# Warnings (the lenient channel)
# ---------------------------------------------------------------------------


class ReproWarning(UserWarning):
    """Base class for all warnings emitted by the repro library.

    Subclasses carry a machine-readable ``code`` so the pipeline's
    structured warnings channel can aggregate them without parsing
    messages.
    """

    #: Machine-readable identifier, e.g. ``"all_dangling"``.
    code: str = "generic"

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


class ValidationWarning(ReproWarning):
    """A non-fatal invariant violation (dangling nodes, self-loops...)."""

    code = "validation"


class DegenerateGraphWarning(ReproWarning):
    """A stage received or produced a degenerate graph (e.g. the
    all-dangling random-walk case) and continued in lenient mode."""

    code = "degenerate"


class RepairWarning(ReproWarning):
    """A malformed input was repaired (entries dropped or clamped)."""

    code = "repaired"


class ConvergenceWarning(ReproWarning):
    """An iterative method stopped short of its tolerance and returned
    its best iterate instead of raising :class:`ConvergenceError`."""

    code = "no_convergence"


class ExecutionWarning(ReproWarning):
    """The fault-tolerant execution runtime degraded gracefully.

    Codes in use: ``stage_retried`` (a transient stage failure was
    retried), ``point_failed`` (a lenient sweep skipped a failed grid
    point), ``journal_write_failed`` (journaling was disabled after an
    unwritable append, e.g. ENOSPC), ``journal_truncated`` (a partial
    trailing record from a crash mid-append was skipped on read),
    ``cache_orphan`` (a meta-without-artifact cache entry from a crash
    mid-put was dropped), ``resume_mismatch`` (a journal record did not
    match the plan being resumed and was ignored), ``store_degraded`` (the
    service store flipped read-only after a write failure or the
    disk-space watchdog tripped), ``job_rerun`` (a recovering service
    daemon re-submitted an incomplete job from its tombstone).
    """

    code = "execution"
