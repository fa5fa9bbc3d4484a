"""Asyncio HTTP/JSON front end of the clustering service.

Stdlib only: a hand-rolled HTTP/1.1 server on ``asyncio.start_server``
(one request per connection, ``Connection: close``), translating the
wire protocol into :class:`~repro.service.jobs.JobManager` calls. Job
execution happens on the manager's worker threads; the event loop only
parses requests, serializes responses and tails journals, so slow jobs
never block health checks or event streams.

Endpoints
---------
- ``GET  /health``            liveness + identity
- ``GET  /livez``             bare liveness probe (always 200)
- ``GET  /readyz``            readiness probe (503 while draining)
- ``GET  /stats``             job/client/cache/metrics counters
- ``POST /graphs``            register a graph (binary edge columns)
- ``GET  /graphs``            list registered graphs
- ``POST /jobs``              submit a job (dedup-aware)
- ``GET  /jobs``              list jobs
- ``GET  /jobs/<id>``         one job; ``?wait=<s>`` blocks until done
- ``GET  /jobs/<id>/events``  NDJSON stream of the job's journal
- ``POST /shutdown``          drain and stop

Error bodies are structured: ``{"error", "error_type", "code"}`` with
``code`` from the failure taxonomy (``budget_exceeded``,
``overloaded``, ``transient``, ``invalid_request``, ``internal``),
plus the structured budget fields for
:class:`~repro.exceptions.BudgetExceeded` and ``retry_after_s``
(mirrored in a ``Retry-After`` header) for 503/429s. Status mapping:
"no graph"/"no job" :class:`~repro.service.jobs.ServiceError` → 404,
name conflicts → 409, other validation failures → 400, budget
denials → 429, overload shedding and shutdown → 503, anything
unexpected → 500.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from typing import Any
from urllib.parse import parse_qs, unquote, urlsplit

import numpy as np

from repro.engine import ArtifactCache, Budget, JournalTailer, RetryPolicy
from repro.engine.chaos import chaos
from repro.exceptions import (
    BudgetExceeded,
    ReproError,
    ServiceOverloaded,
)
from repro.graph.digraph import DirectedGraph
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import (
    JobManager,
    JobSpec,
    RegisteredGraph,
    ServiceError,
    error_code_for,
)
from repro.service.store import ServiceStore

__all__ = ["ServiceServer", "serve"]

#: Protocol marker returned by ``/health``.
SERVICE_SCHEMA = "repro-service/v2"

_MAX_BODY = 256 * 1024 * 1024  # uploads are edge lists; be generous
_EDGE_BYTES = 24  # per upload edge: int64 source and target, float64 weight
_EVENTS_POLL_S = 0.05


class _HttpError(Exception):
    """Internal: carries an HTTP status to the response writer. Its
    bodies name the public :class:`ServiceError` as their
    ``error_type``, as the manager's own refusals do."""

    error_type = ServiceError.__name__

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _json_bytes(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _status_for(exc: Exception) -> int:
    if isinstance(exc, BudgetExceeded):
        return 429
    if isinstance(exc, ServiceOverloaded):
        return 503
    if isinstance(exc, ServiceError):
        message = str(exc)
        if message.startswith(("no graph", "no job")):
            return 404
        if "already registered" in message:
            return 409
        if "shutting down" in message:
            return 503
        return 400
    if isinstance(exc, ReproError):
        return 400
    return 500


def _uploaded_graph(body: bytes, declared: str | None) -> DirectedGraph:
    """The graph a ``POST /graphs`` body describes: ``m`` little-endian
    int64 sources, ``m`` int64 targets, ``m`` float64 weights, on the
    query's ``n_nodes`` (``declared``) or the largest id + 1 nodes.
    A bad ``n_nodes`` or length (400) or a row pointer over
    :data:`_MAX_BODY` (413) is refused before anything is built."""
    if declared is not None and not declared.isdecimal():
        raise _HttpError(
            400, f"'n_nodes' must be a non-negative integer, got {declared!r}"
        )
    m, ragged = divmod(len(body), _EDGE_BYTES)
    if ragged:
        raise _HttpError(
            400,
            f"upload body of {len(body)} bytes is not a whole number of "
            f"{_EDGE_BYTES}-byte edges",
        )
    ids = np.frombuffer(body, dtype="<i8", count=2 * m)
    weights = np.frombuffer(body, dtype="<f8", offset=16 * m)
    # float() reads any digit string (int() refuses 4,300+ digits).
    nodes = ids.max(initial=-1) + 1.0 if declared is None else float(declared)
    if 8 * nodes > _MAX_BODY:
        raise _HttpError(
            413,
            f"{nodes:.0f} nodes need a {8 * nodes:.0f}-byte row pointer, "
            f"over the {_MAX_BODY}-byte limit",
        )
    return DirectedGraph.from_edge_arrays(
        ids[:m],
        ids[m:],
        weights,
        n_nodes=None if declared is None else int(nodes),
    )


class ServiceServer:
    """The daemon: owns a :class:`JobManager` and an asyncio server.

    Parameters mirror :class:`~repro.service.jobs.JobManager`, plus
    the listen address. ``port=0`` binds an ephemeral port — read the
    bound one from :attr:`port` after :meth:`start` (the integration
    tests rely on this to avoid collisions).
    """

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: ArtifactCache | None = None,
        max_workers: int = 2,
        job_budget: Budget | None = None,
        client_wall_s: float | None = None,
        retry: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        store: ServiceStore | None = None,
        max_queue_depth: int | None = None,
        shed_retry_after_s: float = 1.0,
        max_jobs: int | None = None,
        max_job_age_s: float | None = None,
        stream_drain_s: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = JobManager(
            data_dir,
            cache=cache,
            max_workers=max_workers,
            job_budget=job_budget,
            client_wall_s=client_wall_s,
            retry=retry,
            metrics=metrics,
            store=store,
            max_queue_depth=max_queue_depth,
            shed_retry_after_s=shed_retry_after_s,
            max_jobs=max_jobs,
            max_job_age_s=max_job_age_s,
        )
        self.started_unix = time.time()
        self.stream_drain_s = stream_drain_s
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._streams: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> bool:
        """Serve until ``POST /shutdown`` (or :meth:`request_shutdown`).

        Returns ``True`` when the job manager drained cleanly.

        Shutdown ordering matters: the listening socket closes first
        (no new connections), then the manager drains its jobs, and
        only then do we wait on the server's connection handlers —
        open NDJSON event streams keep tailing until their job
        finishes and the ``job_end`` sentinel is written, so a slow
        reader attached at ``/shutdown`` time still sees the full
        stream (bounded by ``stream_drain_s``). Waiting on handlers
        *before* the drain would deadlock: streams poll until their
        jobs complete, and ``Server.wait_closed`` (3.12.1+) waits
        for the handlers.
        """
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._shutdown.wait()
        self._server.close()
        # Drain jobs off-loop: close() blocks on running futures.
        clean = await asyncio.get_running_loop().run_in_executor(
            None, self.manager.close
        )
        streams = {t for t in self._streams if not t.done()}
        if streams:
            _done, pending = await asyncio.wait(
                streams, timeout=self.stream_drain_s
            )
            for task in pending:  # reader never drained; cut it off
                task.cancel()
        with contextlib.suppress(Exception):
            await asyncio.wait_for(
                self._server.wait_closed(), timeout=5.0
            )
        return clean

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, target, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
                await self._dispatch(method, target, headers, body, writer)
            except _HttpError as exc:
                await self._respond_error(writer, exc.status, exc)
            except Exception as exc:  # noqa: BLE001 - connection boundary
                await self._respond_error(writer, _status_for(exc), exc)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str]]:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(431, "request head too large") from exc
        lines = raw.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> bytes:
        length = int(headers.get("content-length", "0") or "0")
        if length <= 0:
            return b""
        if length > _MAX_BODY:
            raise _HttpError(413, f"body of {length} bytes exceeds limit")
        return await reader.readexactly(length)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        split = urlsplit(target)
        path = unquote(split.path).rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in parse_qs(
                split.query, keep_blank_values=True
            ).items()
        }
        route = (method, path)
        if route == ("GET", "/health"):
            return await self._respond(writer, 200, self._health())
        if route == ("GET", "/livez"):
            return await self._respond(
                writer, 200, {"status": "alive"}
            )
        if route == ("GET", "/readyz"):
            return await self._readyz(writer)
        if route == ("GET", "/stats"):
            return await self._respond(writer, 200, self.manager.stats())
        if route == ("GET", "/graphs"):
            return await self._respond(
                writer, 200, {"graphs": self.manager.graphs()}
            )
        if route == ("POST", "/graphs"):
            return await self._post_graph(writer, headers, query, body)
        if route == ("GET", "/jobs"):
            return await self._respond(
                writer, 200, {"jobs": self.manager.jobs()}
            )
        if route == ("POST", "/jobs"):
            return await self._post_job(writer, headers, body)
        if route == ("POST", "/shutdown"):
            await self._respond(writer, 200, {"shutdown": "draining"})
            self.request_shutdown()
            return None
        if method == "GET" and path.startswith("/jobs/"):
            tail = path[len("/jobs/") :]
            if tail.endswith("/events"):
                return await self._stream_events(
                    writer, tail[: -len("/events")].rstrip("/")
                )
            return await self._get_job(writer, tail, query)
        raise _HttpError(404, f"no route for {method} {path}")

    def _health(self) -> dict[str, Any]:
        return {
            "schema": SERVICE_SCHEMA,
            "status": "ok",
            "uptime_seconds": time.time() - self.started_unix,
        }

    async def _readyz(self, writer: asyncio.StreamWriter) -> None:
        """Readiness: 503 while shutting down, 200 otherwise.

        The probe doubles as the disk-space watchdog's poll point —
        deployments hit it periodically, which is exactly the cadence
        the store's free-space check wants.
        """
        store = self.manager.store
        if store is not None:
            store.check_disk()
        if self._shutdown.is_set():
            return await self._respond(
                writer,
                503,
                {"ready": False, "reason": "shutting_down"},
                headers={"Retry-After": "1"},
            )
        payload: dict[str, Any] = {
            "ready": True,
            "queue_depth": self.manager.queue_depth(),
        }
        if store is not None:
            payload["store"] = store.status()
        return await self._respond(writer, 200, payload)

    @staticmethod
    def _parse_json(body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        return payload

    async def _post_graph(
        self,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
        query: dict[str, str],
        body: bytes,
    ) -> None:
        content_type = headers.get("content-type", "").partition(";")[0]
        if content_type.strip().lower() != "application/octet-stream":
            raise _HttpError(
                400,
                "graph uploads are POST /graphs?name=<name>[&n_nodes=<n>] "
                "with an application/octet-stream body of m int64 "
                "sources, m int64 targets and m float64 weights, "
                f"little-endian; got Content-Type {content_type!r}",
            )

        def build_and_register() -> RegisteredGraph:
            graph = _uploaded_graph(body, query.get("n_nodes"))
            return self.manager.register_graph(query.get("name", ""), graph)

        # Off-loop: the checks, the CSR build, the content hash and the
        # store's publish would stall every other connection.
        registered = await asyncio.get_running_loop().run_in_executor(
            None, build_and_register
        )
        await self._respond(writer, 201, registered.summary())

    async def _post_job(
        self,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        chaos("service.accept")
        payload = self._parse_json(body)
        client = str(
            payload.pop("client", None)
            or headers.get("x-repro-client")
            or "anonymous"
        )
        spec = JobSpec.from_dict(payload)
        job, deduped = self.manager.submit(spec, client)
        await self._respond(
            writer,
            202,
            {
                "job_id": job.job_id,
                "key": job.key,
                "state": job.state,
                "deduped": deduped,
            },
        )

    async def _get_job(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        query: dict[str, str],
    ) -> None:
        job = self.manager.job(job_id)
        wait_s = float(query.get("wait", "0") or "0")
        if wait_s > 0 and not job.done.is_set():
            # Block off-loop on the job's Event, not the event loop.
            await asyncio.get_running_loop().run_in_executor(
                None, job.done.wait, wait_s
            )
        await self._respond(writer, 200, job.as_dict())

    # ------------------------------------------------------------------
    # Event streaming
    # ------------------------------------------------------------------
    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        job = self.manager.job(job_id)
        # Register this handler so shutdown lets it drain to the
        # job_end sentinel before the server stops waiting on it.
        task = asyncio.current_task()
        if task is not None:
            self._streams.add(task)
            task.add_done_callback(self._streams.discard)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        tailer = JournalTailer(job.journal_path, run_id=job.job_id)
        while True:
            finished = job.done.is_set()
            for record in tailer.poll():
                writer.write(_json_bytes(record))
            await writer.drain()
            if finished:
                # One poll ran *after* observing completion, so the
                # journal tail has been flushed into the stream.
                break
            await asyncio.sleep(_EVENTS_POLL_S)
        writer.write(
            _json_bytes(
                {
                    "type": "job_end",
                    "job_id": job.job_id,
                    "state": job.state,
                    "error": job.error,
                }
            )
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Response writers
    # ------------------------------------------------------------------
    _REASONS = {
        200: "OK",
        201: "Created",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        409: "Conflict",
        413: "Payload Too Large",
        429: "Too Many Requests",
        431: "Request Header Fields Too Large",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = _json_bytes(payload)
        reason = self._REASONS.get(status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, status: int, exc: Exception
    ) -> None:
        """Structured error body: message, exception type, and a
        machine-readable ``code`` from the failure taxonomy; budget
        overruns keep their structured fields and 503/429s carry
        ``Retry-After``."""
        error_type = getattr(exc, "error_type", "") or type(exc).__name__
        code = error_code_for(exc)
        if status == 404:
            code = "not_found"
        elif status == 409:
            code = "conflict"
        elif status == 503 and not isinstance(exc, ServiceOverloaded):
            code = "shutting_down"
        elif code == "internal" and 400 <= status < 500:
            code = "invalid_request"
        body: dict[str, Any] = {
            "error": str(exc),
            "error_type": error_type,
            "code": code,
        }
        headers: dict[str, str] = {}
        if isinstance(exc, BudgetExceeded):
            body.update(
                scope=exc.scope,
                resource=exc.resource,
                limit=exc.limit,
                spent=exc.spent,
            )
            headers["Retry-After"] = "1"
        if isinstance(exc, ServiceOverloaded):
            body["retry_after_s"] = exc.retry_after_s
            headers["Retry-After"] = str(
                max(1, int(round(exc.retry_after_s)))
            )
        if status == 503 and "Retry-After" not in headers:
            headers["Retry-After"] = "1"
        await self._respond(writer, status, body, headers=headers)


async def _serve_async(server: ServiceServer) -> bool:
    await server.start()
    print(
        f"repro service listening on "
        f"http://{server.host}:{server.port}",
        flush=True,
    )
    return await server.serve_until_shutdown()


def serve(server: ServiceServer) -> bool:
    """Run ``server`` until shutdown; returns ``True`` on clean drain."""
    try:
        return asyncio.run(_serve_async(server))
    except KeyboardInterrupt:
        return server.manager.close(timeout=10.0)
