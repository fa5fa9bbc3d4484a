"""A crash-tolerant process pool for the sharded kernel.

The sharded all-pairs kernel (:mod:`repro.linalg.allpairs`) creates
one :class:`WorkerPool` per fanned-out call and closes it when the
call returns.

The pool carries the crash-recovery contract the kernels rely on:

- payloads are submitted as individual futures, so a worker that dies
  (OOM kill, segfault, injected ``kill_worker`` chaos fault) loses
  only its own payloads;
- lost payloads are re-executed *in-process* via the caller-supplied
  fallback (tasks are pure functions of their payload, so re-execution
  is exact), counted in the ``worker_crashes_total`` metric and
  surfaced as an :class:`~repro.exceptions.ExecutionWarning` with code
  ``worker_crash``;
- a broken executor is discarded and lazily rebuilt, so one crash does
  not poison the pool's later runs;
- environments that cannot fork/spawn at all (sandboxes) make
  :meth:`WorkerPool.run` return ``None`` and callers fall back to
  their serial path.
"""

from __future__ import annotations

import atexit
import contextlib
import time
import warnings
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.exceptions import ExecutionWarning
from repro.obs.metrics import metric_inc

__all__ = ["WorkerPool"]

#: Every pool that ever created an executor, so the atexit guard can
#: close stragglers their owner failed to close explicitly. Weak
#: references: a garbage-collected pool has already shut its executor
#: down via ProcessPoolExecutor's finalizer.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _close_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        with contextlib.suppress(Exception):
            pool.close(timeout=2.0)


class WorkerPool:
    """A lazily-created process pool with in-process crash recovery.

    Parameters
    ----------
    max_workers:
        Upper bound on concurrent worker processes. Individual
        :meth:`run` calls may use fewer (one future per payload).
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self._executor: ProcessPoolExecutor | None = None
        self._unavailable = False

    # -- lifecycle -------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        if self._unavailable:
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            except (OSError, PermissionError, ValueError):
                # Sandboxed environment: no fork/spawn. Remember, so
                # later run() calls short-circuit to serial.
                self._unavailable = True
                return None
            global _ATEXIT_REGISTERED
            _LIVE_POOLS.add(self)
            if not _ATEXIT_REGISTERED:
                atexit.register(_close_live_pools)
                _ATEXIT_REGISTERED = True
        return self._executor

    def _discard_executor(self) -> None:
        # Crash path (broken pool): the workers are already dead or
        # dying, so a short drain window is enough to reap them.
        self._shutdown(timeout=1.0)

    def _shutdown(self, timeout: float) -> None:
        executor = self._executor
        if executor is None:
            return
        self._executor = None
        # Grab the worker processes before shutdown() forgets them:
        # shutdown(wait=False) only signals the workers, and a worker
        # mid-task keeps running past interpreter exit unless someone
        # reaps it. Drain gracefully within the timeout, then kill.
        processes = list(
            getattr(executor, "_processes", {}).values()
        )
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + max(0.0, timeout)
        for process in processes:
            remaining = deadline - time.monotonic()
            if remaining > 0 and process.is_alive():
                with contextlib.suppress(Exception):
                    process.join(remaining)
        leaked = [p for p in processes if p.is_alive()]
        for process in leaked:
            with contextlib.suppress(Exception):
                process.kill()
                process.join(1.0)
        if leaked:
            metric_inc("worker_kills_total", len(leaked))

    def close(self, timeout: float = 10.0) -> None:
        """Shut the executor down (idempotent).

        Waits up to ``timeout`` seconds for the worker processes to
        drain gracefully, then kills whatever is still alive — a
        long-lived server must never leak live workers past exit.
        """
        self._shutdown(timeout=timeout)
        _LIVE_POOLS.discard(self)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -------------------------------------------------

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        fallback: Callable[[Any], Any] | None = None,
    ) -> list[Any] | None:
        """``[fn(p) for p in payloads]`` across the pool.

        Each payload is one future; results come back in payload
        order. Payloads lost to a dead worker are re-executed
        in-process through ``fallback`` (default: ``fn`` itself) after
        emitting the ``worker_crash`` warning + metric. Returns
        ``None`` when no pool can be created in this environment —
        callers run their serial path instead.
        """
        executor = self._ensure_executor()
        if executor is None:
            return None
        results: list[Any] = [None] * len(payloads)
        lost: list[int] = []
        try:
            futures = {
                index: executor.submit(fn, payload)
                for index, payload in enumerate(payloads)
            }
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    # One dead worker breaks the executor: every
                    # unfinished payload surfaces here and is re-run
                    # in-process below.
                    lost.append(index)
        except (OSError, PermissionError):
            self._unavailable = True
            self._discard_executor()
            return None
        if lost:
            # The executor is unusable after a break; rebuild lazily
            # on the next run() so one crash does not disable the pool.
            self._discard_executor()
            metric_inc("worker_crashes_total")
            warnings.warn(
                ExecutionWarning(
                    f"a pool worker died; re-executing {len(lost)} "
                    "lost payload(s) in-process",
                    code="worker_crash",
                ),
                stacklevel=2,
            )
            rerun = fallback if fallback is not None else fn
            for index in lost:
                results[index] = rerun(payloads[index])
        return results

    def __repr__(self) -> str:
        state = (
            "unavailable"
            if self._unavailable
            else ("live" if self._executor is not None else "idle")
        )
        return f"WorkerPool(max_workers={self.max_workers}, {state})"

