"""Clustering-as-a-service: a durable, crash-safe daemon over the library.

The CLI runs one pipeline per process, which re-pays graph loading and
stage-1 symmetrization on every invocation. ``repro serve`` instead
keeps registered graphs and one shared
:class:`~repro.engine.ArtifactCache` resident in a single process and
accepts ``symmetrize`` / ``cluster`` / ``sweep`` jobs over HTTP/JSON
from many concurrent clients:

- identical requests are deduplicated through the same
  content-addressed :func:`~repro.engine.point_key` lineage the sweep
  journal uses — N clients posting the same job share one execution;
- per-client wall-clock budgets reuse the PR 5
  :class:`~repro.engine.Budget` machinery (429 on exhaustion);
- every job runs on a bounded worker pool under its own tracer and
  metrics registry, handed the shared cache and its own write-ahead
  :class:`~repro.engine.RunJournal` as arguments; the journal is what
  ``GET /jobs/<id>/events`` streams live as NDJSON;
- with ``--state-dir``, a :class:`~repro.service.store.ServiceStore`
  persists graphs (MmapCSR), results (content-addressed JSON) and
  job tombstones (a write-ahead service journal), so a SIGKILLed
  daemon recovers its state byte-identically and re-runs exactly the
  incomplete jobs;
- admission control sheds load (503 + ``Retry-After``) at a bounded
  queue depth, and the hardened :class:`ServiceClient` rides it out
  with deterministic exponential backoff.

:class:`~repro.service.jobs.JobManager` is the HTTP-free core,
:class:`~repro.service.server.ServiceServer` the asyncio front end,
:class:`~repro.service.store.ServiceStore` the durability layer, and
:class:`~repro.service.client.ServiceClient` a stdlib-only client.
See ``docs/service.md`` for the protocol and deployment notes.
"""

from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.jobs import (
    JOB_KINDS,
    JOB_STATES,
    Job,
    JobManager,
    JobSpec,
    RegisteredGraph,
    ServiceError,
    error_code_for,
    execute_spec,
)
from repro.service.server import ServiceServer, serve
from repro.service.store import ServiceStore

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobSpec",
    "RegisteredGraph",
    "ServiceError",
    "ServiceHTTPError",
    "ServiceServer",
    "ServiceClient",
    "ServiceStore",
    "error_code_for",
    "execute_spec",
    "serve",
]
