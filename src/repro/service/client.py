"""Stdlib-only hardened client for the clustering service daemon.

One :class:`http.client.HTTPConnection` per request (the server is
``Connection: close``), JSON in/out (graph uploads go out as binary
edge columns), typed errors re-raised from the server's structured
error bodies. Thread-safe by construction — every call opens its own
connection — which is exactly what the multi-client integration test
leans on.

Hardening (the PR 10 contract):

- **Split timeouts.** ``connect_timeout`` bounds the TCP handshake,
  ``timeout`` the read — a daemon mid-restart fails fast instead of
  eating the whole read budget.
- **Retry with deterministic backoff.** Connection failures and 503
  overload responses are retried under an
  :class:`~repro.engine.RetryPolicy` (exponential, deterministic
  jitter keyed by ``method path``), honouring the server's
  ``Retry-After`` when it is longer than the computed backoff. Only
  idempotent requests retry — every endpoint here is, *including*
  ``POST /jobs``: the job's content address makes resubmission a
  dedup hit, so a lost response costs a cheap rider join, never a
  duplicate execution. ``POST /shutdown`` is the one exception.
- **Typed errors.** The server's machine-readable ``code`` field maps
  back to the real exceptions — ``budget_exceeded`` →
  :class:`~repro.exceptions.BudgetExceeded` (structured fields
  intact), ``overloaded`` →
  :class:`~repro.exceptions.ServiceOverloaded`, ``transient`` →
  :class:`~repro.exceptions.TransientError` — with
  :class:`ServiceHTTPError` only for anything unmapped.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Iterator
from urllib.parse import urlencode

import numpy as np

from repro.engine.policy import RetryPolicy
from repro.exceptions import (
    BudgetExceeded,
    ReproError,
    ServiceOverloaded,
    TransientError,
)
from repro.graph.digraph import DirectedGraph
from repro.service.jobs import ServiceError

__all__ = ["ServiceClient", "ServiceHTTPError"]

#: Default retry policy for the hardened transport: 5 attempts,
#: 0.2 s base backoff doubling to a 5 s ceiling, 25% jitter.
_DEFAULT_RETRY = RetryPolicy(
    max_attempts=5,
    backoff_s=0.2,
    backoff_factor=2.0,
    max_backoff_s=5.0,
    jitter=0.25,
)


class ServiceHTTPError(ReproError):
    """A non-2xx response that doesn't map to a typed library error."""

    def __init__(self, status: int, message: str, error_type: str) -> None:
        super().__init__(f"HTTP {status} ({error_type}): {message}")
        self.status = status
        self.error_type = error_type


def _raise_for(status: int, payload: dict[str, Any]) -> None:
    message = str(payload.get("error", "unknown error"))
    error_type = str(payload.get("error_type", ""))
    code = str(payload.get("code", ""))
    if code == "budget_exceeded" or error_type == "BudgetExceeded":
        if {"scope", "resource", "limit", "spent"} <= payload.keys():
            raise BudgetExceeded(
                str(payload["scope"]),
                str(payload["resource"]),
                float(payload["limit"]),
                float(payload["spent"]),
            )
        raise ServiceHTTPError(status, message, error_type or "BudgetExceeded")
    if code == "overloaded":
        raise ServiceOverloaded(
            message,
            retry_after_s=float(payload.get("retry_after_s", 1.0)),
        )
    if code == "transient":
        raise TransientError(message)
    if (
        code in ("invalid_request", "not_found", "conflict")
        or error_type == "ServiceError"
        or status in (400, 404, 409)
    ):
        raise ServiceError(message)
    raise ServiceHTTPError(status, message, error_type or "HTTPError")


class ServiceClient:
    """Talk to a :class:`~repro.service.server.ServiceServer`.

    Parameters
    ----------
    host, port:
        The daemon's listen address.
    client:
        Tenant identity sent with every job submission — the unit of
        the server's per-client wall-clock budget.
    timeout:
        Read timeout per request, seconds.
    connect_timeout:
        TCP connect timeout, seconds (defaults to ``min(timeout,
        5)``).
    retry:
        Backoff policy for connection failures and 503 sheds. Pass
        ``RetryPolicy(max_attempts=1)`` to disable retries.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client: str = "anonymous",
        timeout: float = 60.0,
        connect_timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client = client
        self.timeout = timeout
        self.connect_timeout = (
            connect_timeout
            if connect_timeout is not None
            else min(timeout, 5.0)
        )
        self.retry = retry if retry is not None else _DEFAULT_RETRY

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _once(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | bytes | memoryview | None,
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        """One connect / request / read cycle; returns
        ``(status, lowercase headers, parsed body)``. A dict payload
        goes out as JSON, bytes as ``application/octet-stream``."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout
        )
        try:
            conn.connect()
            if conn.sock is not None:
                # Connected: the remaining budget is the read one.
                conn.sock.settimeout(self.timeout)
            body: bytes | memoryview | None = None
            headers = {"X-Repro-Client": self.client}
            if isinstance(payload, dict):
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            elif payload is not None:
                body = payload
                headers["Content-Type"] = "application/octet-stream"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            response_headers = {
                name.lower(): value
                for name, value in response.getheaders()
            }
        finally:
            conn.close()
        try:
            parsed = json.loads(raw.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceHTTPError(
                response.status, f"unparseable body: {exc}", "BadBody"
            ) from exc
        return response.status, response_headers, parsed

    def _backoff(
        self,
        attempt: int,
        token: str,
        retry_after: str | None,
    ) -> None:
        delay = self.retry.delay(attempt, token=token)
        if retry_after:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        time.sleep(delay)

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | bytes | memoryview | None = None,
        idempotent: bool = True,
    ) -> dict[str, Any]:
        token = f"{method} {path}"
        attempt = 0
        while True:
            attempt += 1
            retryable = (
                idempotent and attempt < self.retry.max_attempts
            )
            try:
                status, headers, parsed = self._once(
                    method, path, payload
                )
            except (OSError, http.client.HTTPException) as exc:
                # Refused / reset / timed out: the daemon may be
                # mid-restart. Idempotent requests back off and
                # resubmit (content addressing dedups job posts).
                if retryable:
                    self._backoff(attempt, token, None)
                    continue
                raise TransientError(
                    f"{token} to {self.host}:{self.port} failed "
                    f"after {attempt} attempt(s): {exc}"
                ) from exc
            if status == 503 and retryable:
                self._backoff(
                    attempt, token, headers.get("retry-after")
                )
                continue
            if status >= 400:
                _raise_for(status, parsed)
            return parsed

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self._request("GET", "/health")

    def ready(self) -> dict[str, Any]:
        """``GET /readyz`` — raises while the daemon is draining."""
        return self._request("GET", "/readyz", idempotent=False)

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def register_graph(
        self, name: str, graph: DirectedGraph
    ) -> dict[str, Any]:
        """Upload ``graph`` under ``name`` (idempotent per content) as
        its CSR-ordered edges in three little-endian columns: ``m``
        int64 sources, ``m`` int64 targets, ``m`` float64 weights."""
        adjacency = graph.adjacency
        m = adjacency.data.size
        columns = np.empty(3 * m, dtype="<i8")
        columns[:m] = np.repeat(
            np.arange(graph.n_nodes), np.diff(adjacency.indptr)
        )
        columns[m : 2 * m] = adjacency.indices
        columns[2 * m :].view("<f8")[:] = adjacency.data
        query = urlencode({"name": name, "n_nodes": graph.n_nodes})
        return self._request(
            "POST", f"/graphs?{query}", memoryview(columns)
        )

    def graphs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/graphs")["graphs"]

    def submit(self, **spec: Any) -> dict[str, Any]:
        """Submit a job; keyword arguments are the JobSpec fields
        (``kind``, ``graph``, ``method``, ``clusterer``, ...).

        Returns ``{"job_id", "key", "state", "deduped"}``. Raises
        :class:`~repro.exceptions.BudgetExceeded` when this client's
        budget is exhausted and
        :class:`~repro.exceptions.ServiceOverloaded` when the server
        sheds and retries are exhausted. Safe to retry: the job's
        content address makes an identical resubmission join the
        existing job instead of spawning a duplicate.
        """
        return self._request("POST", "/jobs", spec)

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str, wait: float | None = None) -> dict[str, Any]:
        """Fetch one job; ``wait`` blocks server-side until it
        finishes (or the wait elapses)."""
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait}"
        return self._request("GET", path)

    def result(
        self, job_id: str, timeout: float = 60.0
    ) -> dict[str, Any]:
        """Block until ``job_id`` finishes and return its result.

        Raises :class:`~repro.exceptions.ReproError` subclasses
        reconstructed from the job's recorded failure code.
        """
        job = self.job(job_id, wait=timeout)
        if job["state"] in ("queued", "running"):
            raise ServiceHTTPError(
                504,
                f"job {job_id} still {job['state']} after {timeout}s",
                "Timeout",
            )
        if job["state"] == "failed":
            raise self._job_failure(job_id, job)
        return job["result"]

    @staticmethod
    def _job_failure(job_id: str, job: dict[str, Any]) -> ReproError:
        """Typed exception for a terminally failed job record."""
        code = job.get("error_code") or ""
        error_type = job.get("error_type")
        message = (
            f"job {job_id} {job['state']} "
            f"({error_type}): {job.get('error')}"
        )
        if code == "budget_exceeded" or error_type == "BudgetExceeded":
            return ServiceHTTPError(429, message, "BudgetExceeded")
        if code == "transient":
            return TransientError(message)
        return ServiceError(message)

    def events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Stream the job's journal records as they are written.

        Yields parsed NDJSON records, ending with the synthetic
        ``{"type": "job_end", ...}`` sentinel.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(
                "GET",
                f"/jobs/{job_id}/events",
                headers={"X-Repro-Client": self.client},
            )
            response = conn.getresponse()
            if response.status >= 400:
                _raise_for(
                    response.status,
                    json.loads(response.read().decode() or "{}"),
                )
            for raw_line in response:
                line = raw_line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            conn.close()

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and exit. Never retried — a lost
        response is indistinguishable from a completed shutdown."""
        return self._request("POST", "/shutdown", idempotent=False)
