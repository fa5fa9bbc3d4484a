"""Execution budgets and retry policies for the fault-tolerant runtime.

The paper's headline grids (Tables 3–4, Figures 5–9) run the same
stage pipeline over many parameter points; one hub-heavy point — a
bibliometric product on a power-law graph can densify quadratically —
must not stall or OOM an entire sweep. This module provides the two
policy objects the :class:`~repro.engine.executor.Executor` enforces:

- :class:`Budget` — whole-plan ceilings on wall-clock time and
  allocated memory. Overruns raise a structured
  :class:`~repro.exceptions.BudgetExceeded` (strict mode); lenient
  sweep drivers degrade the point instead (``SweepPoint.failed``).
  Python cannot preempt a running stage, so wall budgets are enforced
  at the first check *after* the overrun — the guarantee is that no
  *further* work starts once a budget is spent.
- :class:`RetryPolicy` — bounded re-execution of transiently failed
  stages with exponential backoff and *deterministic* jitter: the
  jitter fraction is a hash of the retry token and attempt number, so
  two runs of the same plan sleep identically (reproducible traces)
  while different stages desynchronize.

Memory budgets are metered with :mod:`tracemalloc` (allocation peak
during the attempt), which tracks Python-level allocations including
NumPy buffers; it is started per-attempt only when a memory budget is
actually set, so unbudgeted runs pay nothing.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from dataclasses import dataclass

from repro.exceptions import BudgetExceeded, TransientError

__all__ = ["Budget", "RetryPolicy", "BudgetMeter"]


@dataclass(frozen=True)
class Budget:
    """Resource ceilings for one scope (a whole plan, a job, a client).

    Attributes
    ----------
    wall_s:
        Wall-clock ceiling in seconds; ``None`` means unlimited.
    mem_bytes:
        Ceiling on the peak Python-level allocation delta during the
        scope, in bytes; ``None`` means unlimited (and disables the
        tracemalloc meter entirely).
    """

    wall_s: float | None = None
    mem_bytes: int | None = None

    @property
    def unlimited(self) -> bool:
        """Whether this budget constrains nothing."""
        return self.wall_s is None and self.mem_bytes is None

    def check_wall(self, scope: str, spent: float) -> None:
        """Raise :class:`BudgetExceeded` if ``spent`` overran the
        wall-clock ceiling."""
        if self.wall_s is not None and spent > self.wall_s:
            raise BudgetExceeded(scope, "wall_s", self.wall_s, spent)

    def check_mem(self, scope: str, peak_bytes: int) -> None:
        """Raise :class:`BudgetExceeded` if the allocation peak
        overran the memory ceiling."""
        if self.mem_bytes is not None and peak_bytes > self.mem_bytes:
            raise BudgetExceeded(
                scope, "mem_bytes", float(self.mem_bytes),
                float(peak_bytes),
            )


class BudgetMeter:
    """Meters one attempt of one scope against a :class:`Budget`.

    Usage::

        meter = BudgetMeter(budget, scope="symmetrize")
        with meter:
            ...  # the attempt
        meter.enforce()   # raises BudgetExceeded on overrun

    The memory meter uses :func:`tracemalloc.get_traced_memory`
    deltas when tracemalloc is already tracing (e.g. under the
    tracing layer's opt-in memory spans) and starts/stops its own
    trace otherwise.
    """

    def __init__(self, budget: Budget, scope: str) -> None:
        self.budget = budget
        self.scope = scope
        self.seconds = 0.0
        self.peak_bytes = 0
        self._t0 = 0.0
        self._own_trace = False
        self._baseline = 0

    def __enter__(self) -> "BudgetMeter":
        if self.budget.mem_bytes is not None:
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                self._baseline = tracemalloc.get_traced_memory()[0]
            else:
                tracemalloc.start()
                self._own_trace = True
                self._baseline = 0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self.budget.mem_bytes is not None:
            _, peak = tracemalloc.get_traced_memory()
            self.peak_bytes = max(0, peak - self._baseline)
            if self._own_trace:
                tracemalloc.stop()

    def enforce(self) -> None:
        """Raise :class:`BudgetExceeded` if the metered attempt
        overran either ceiling (wall checked first)."""
        self.budget.check_wall(self.scope, self.seconds)
        self.budget.check_mem(self.scope, self.peak_bytes)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-execution of transiently failed stages.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (``1`` disables retries).
    backoff_s:
        Base delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per further retry (exponential backoff).
    max_backoff_s:
        Ceiling on any single delay.
    jitter:
        Fractional jitter band: the delay is scaled by a
        deterministic factor in ``[1 - jitter, 1 + jitter]`` derived
        from the retry token and attempt number (no global RNG state
        is consumed, and re-runs sleep identically).
    retryable:
        Exception classes worth retrying. Defaults to
        :class:`~repro.exceptions.TransientError` — deterministic
        failures (bad input, budget overruns) are never retried.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.1
    retryable: tuple[type[BaseException], ...] = (TransientError,)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether to re-execute after ``exc`` on attempt ``attempt``
        (1-based)."""
        return attempt < self.max_attempts and isinstance(
            exc, self.retryable
        )

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before the retry following attempt ``attempt``.

        Exponential in the attempt number, capped at
        ``max_backoff_s``, with deterministic jitter: the fraction is
        the leading 32 bits of ``sha256(token:attempt)``, so the same
        (token, attempt) pair always sleeps the same amount while
        distinct stages spread out.
        """
        base = min(
            self.backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter <= 0:
            return base
        digest = hashlib.sha256(
            f"{token}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
        return base * (1.0 + self.jitter * (2.0 * fraction - 1.0))
