"""Chaos harness: deterministic fault injection for recovery testing.

A production claim like "a crashed stage cannot cost the sweep" is
only as good as the test that crashes a stage. This module makes every
failure the fault-tolerance layer recovers from *injectable*:

>>> from repro.engine.chaos import Fault, FaultPlan, inject_faults
>>> plan = FaultPlan([Fault(site="stage:symmetrize", at=1)])
>>> with inject_faults(plan):                       # doctest: +SKIP
...     executor.execute(...)   # first symmetrize attempt raises
>>> plan.triggered_count("stage:symmetrize")        # doctest: +SKIP
1

Production code declares *chaos sites* by calling :func:`chaos` at the
point where a real fault would surface (``stage:<name>`` around stage
execution, ``journal.append`` before a journal write,
``cache.disk_put`` before persisting an artifact, ``sweep.point``
after each grid point, ``service.store_put`` before the service store
persists a graph or result, ``service.accept`` at job admission in
the HTTP layer).
With no plan installed the call is a single contextvar read — the
harness costs nothing in normal runs and is invisible outside tests.

Fault kinds
-----------
- ``"raise"`` — raise ``exc`` (default
  :class:`~repro.exceptions.FaultInjected`, a transient error, so the
  retry path engages) on the ``at``-th matching call.
- ``"sleep"`` — delay ``sleep_s`` seconds (budget-overrun testing).
- ``"enospc"`` — raise ``OSError(ENOSPC)`` as a full disk would.
- ``"kill_process"`` — SIGKILL the current process (crash/resume
  testing from a parent process).
- ``"corrupt"`` — a *flag* fault: :func:`chaos` returns the
  triggered :class:`Fault` instead of raising, and the call site
  garbles its entry itself, because only it can.
"""

from __future__ import annotations

import contextlib
import contextvars
import errno
import os
import signal
import time
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import FaultInjected, ReproError

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "inject_faults",
    "current_faults",
    "chaos",
]

#: Recognized fault kinds (see the module docstring).
FAULT_KINDS = (
    "raise",
    "sleep",
    "enospc",
    "kill_process",
    "corrupt",
)


@dataclass
class Fault:
    """One injectable failure at one chaos site.

    Attributes
    ----------
    site:
        The chaos-site name this fault arms (exact match).
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        1-based index of the first matching call that triggers.
    times:
        How many consecutive matching calls trigger (calls
        ``at .. at + times - 1``); bound it so retry loops terminate.
    exc:
        Exception class for ``kind="raise"``.
    message:
        Message for the raised exception.
    sleep_s:
        Delay for ``kind="sleep"``.
    """

    site: str
    kind: str = "raise"
    at: int = 1
    times: int = 1
    exc: type[BaseException] = FaultInjected
    message: str | None = None
    sleep_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.at < 1 or self.times < 1:
            raise ReproError(
                "Fault.at and Fault.times must be >= 1 "
                f"(got at={self.at}, times={self.times})"
            )

    def armed_for(self, call_index: int) -> bool:
        """Whether the fault triggers on the given 1-based call."""
        return self.at <= call_index < self.at + self.times


class FaultPlan:
    """An armed set of faults plus per-site call/trigger accounting.

    The plan is the unit tests assert against: after the run,
    :meth:`triggered_count` says how many faults actually fired, so a
    recovery test can prove both that the failure happened *and* that
    the run survived it.
    """

    def __init__(self, faults: list[Fault] | None = None) -> None:
        self.faults = list(faults or [])
        self.calls: dict[str, int] = {}
        self.triggered: list[dict] = []

    def add(self, fault: Fault) -> "FaultPlan":
        """Arm one more fault; returns self for chaining."""
        self.faults.append(fault)
        return self

    def seen(self, site: str) -> int:
        """How many times ``site`` has been reached so far."""
        return self.calls.get(site, 0)

    def triggered_count(self, site: str | None = None) -> int:
        """Faults fired so far, optionally filtered by site."""
        return sum(
            1
            for record in self.triggered
            if site is None or record["site"] == site
        )

    def hit(self, site: str) -> Fault | None:
        """Register one call at ``site`` and apply any armed fault.

        Raising/sleeping/killing kinds are executed here; the flag
        kind ``corrupt`` is returned to the caller.
        """
        count = self.calls.get(site, 0) + 1
        self.calls[site] = count
        for fault in self.faults:
            if fault.site != site or not fault.armed_for(count):
                continue
            self.triggered.append(
                {"site": site, "kind": fault.kind, "call": count}
            )
            message = fault.message or (
                f"chaos: injected {fault.kind} at {site} "
                f"(call {count})"
            )
            if fault.kind == "raise":
                raise fault.exc(message)
            if fault.kind == "sleep":
                time.sleep(fault.sleep_s)
                return None
            if fault.kind == "enospc":
                raise OSError(
                    errno.ENOSPC, f"chaos: no space left ({site})"
                )
            if fault.kind == "kill_process":
                os.kill(os.getpid(), signal.SIGKILL)
            return fault  # corrupt: the caller implements it
        return None

    def __repr__(self) -> str:
        return (
            f"FaultPlan({len(self.faults)} faults, "
            f"{self.triggered_count()} triggered)"
        )


_FAULTS: contextvars.ContextVar[FaultPlan | None] = (
    contextvars.ContextVar("repro_fault_plan", default=None)
)


def current_faults() -> FaultPlan | None:
    """The ambient fault plan, or ``None`` outside chaos tests."""
    return _FAULTS.get()


@contextlib.contextmanager
def inject_faults(
    plan: FaultPlan | list[Fault],
) -> Iterator[FaultPlan]:
    """Install ``plan`` (or build one from a fault list) as ambient."""
    installed = plan if isinstance(plan, FaultPlan) else FaultPlan(plan)
    token = _FAULTS.set(installed)
    try:
        yield installed
    finally:
        _FAULTS.reset(token)


def chaos(site: str) -> Fault | None:
    """Declare a chaos site; a no-op unless a fault plan is ambient.

    Returns a triggered flag-kind :class:`Fault` (``corrupt``) for
    the call site to act on, and ``None`` otherwise.
    """
    plan = _FAULTS.get()
    if plan is None:
        return None
    return plan.hit(site)
