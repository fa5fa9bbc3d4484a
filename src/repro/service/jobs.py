"""Graph registry and job manager for the clustering service daemon.

This module is the daemon's brain, independent of HTTP: it owns the
registered graphs, the shared :class:`~repro.engine.ArtifactCache`, a
bounded thread pool executing jobs, and the bookkeeping that makes
many concurrent clients cheap:

- **Content-addressed dedup.** A job's identity is the same
  :func:`~repro.engine.point_key` lineage the sweep journal uses:
  sha256 of (dataset fingerprint, stage-lineage fingerprints, request
  parameters, mode). Two clients posting byte-identical requests get
  the *same* job — one execution, both receive the result — and a
  request identical to an already-finished job is served from that
  job's recorded result without recomputing anything.
- **Per-client budgets.** PR 5's :class:`~repro.engine.Budget`
  machinery, applied per tenant: each client has a cumulative
  wall-clock allowance; a submission from an exhausted client raises
  :class:`~repro.exceptions.BudgetExceeded` (the HTTP layer maps it
  to 429). Deduplicated riders are not charged — shared computation
  is the point of the content addressing.
- **Admission control.** A bounded queue: once ``max_queue_depth``
  jobs are waiting, further *new* submissions are shed with
  :class:`~repro.exceptions.ServiceOverloaded` (HTTP 503 +
  ``Retry-After``; ``service_shed_total`` counts them). Dedup riders
  always board — they cost nothing.
- **Durability.** With a :class:`~repro.service.store.ServiceStore`
  attached, graphs persist as MmapCSR stores, finished results as
  content-addressed JSON, and submissions as write-ahead tombstones.
  A manager constructed over the same state dir after a SIGKILL
  recovers all of it and re-runs exactly the incomplete jobs.
- **Per-job isolation and provenance.** Every job executes inside an
  isolated :func:`~repro.engine.ambient_scope` carrying the shared
  cache, a fresh tracer + metrics registry, and the job's own
  write-ahead journal (``<data_dir>/jobs/<job_id>/journal.jsonl``) —
  the journal the ``/jobs/<id>/events`` endpoint tails — and appends
  a :class:`~repro.obs.RunManifest` to ``<data_dir>/manifests.jsonl``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import hashlib
import math
import threading
import time
import warnings as _warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster.common import get_clusterer
from repro.engine import (
    ArtifactCache,
    Budget,
    ClusterStage,
    Executor,
    Plan,
    RetryPolicy,
    RunJournal,
    SymmetrizeStage,
    ValidateInputStage,
    ambient_scope,
    point_key,
)
from repro.exceptions import (
    BudgetExceeded,
    ExecutionWarning,
    ReproError,
    ServiceOverloaded,
    TransientError,
)
from repro.graph.digraph import DirectedGraph
from repro.obs.manifest import (
    RunManifest,
    append_manifest,
    collect_environment,
    fingerprint_graph,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.pipeline.sweep import aggregate_average_f, sweep_n_clusters
from repro.service.store import ServiceStore
from repro.symmetrize.base import get_symmetrization

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "ServiceError",
    "JobSpec",
    "RegisteredGraph",
    "Job",
    "JobManager",
    "check_bounds",
    "error_code_for",
    "execute_spec",
]

#: Request kinds the daemon executes.
JOB_KINDS = ("symmetrize", "cluster", "sweep")

#: Lifecycle of a job: ``queued -> running -> done | failed``. A
#: ``failed`` job never dedup-caches: a retry gets a fresh job.
JOB_STATES = ("queued", "running", "done", "failed")


class ServiceError(ReproError):
    """A malformed or unserviceable request (HTTP 400/404/409)."""


def check_bounds(
    max_workers: int,
    max_queue_depth: int | None,
    max_jobs: int | None,
    max_job_age_s: float | None,
) -> None:
    """Raise :class:`ServiceError` for a bound :class:`JobManager`
    cannot honour: fewer than one worker, or a negative (or NaN) queue
    depth, job count or job age. ``None`` means unbounded."""
    if max_workers < 1:
        raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
    for name, value in (
        ("max_queue_depth", max_queue_depth),
        ("max_jobs", max_jobs),
        ("max_job_age_s", max_job_age_s),
    ):
        if value is not None and not value >= 0:
            raise ServiceError(f"{name} must be >= 0, got {value}")


def error_code_for(exc: BaseException) -> str:
    """Machine-readable error code for the failure taxonomy.

    These are the ``code`` values the HTTP layer puts in structured
    error bodies and :class:`~repro.service.ServiceClient` maps back
    to typed exceptions.
    """
    if isinstance(exc, BudgetExceeded):
        return "budget_exceeded"
    if isinstance(exc, ServiceOverloaded):
        return "overloaded"
    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, ServiceError):
        return "invalid_request"
    if isinstance(exc, ReproError):
        return "invalid_request"
    return "internal"


def _labels_sha(labels: np.ndarray) -> str:
    """Content hash of a labels vector, for byte-identity checks."""
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


@dataclass(frozen=True)
class JobSpec:
    """One validated job request.

    ``counts`` applies to ``kind="sweep"`` only; ``n_clusters`` to
    ``cluster`` and ``sweep``-less kinds. The spec is hashable into
    the job's content address, so every field must stay
    JSON-canonical.
    """

    kind: str
    graph: str
    method: str = "degree_discounted"
    clusterer: str = "mlrmcl"
    threshold: float = 0.0
    n_clusters: int | None = None
    counts: tuple[int, ...] | None = None
    mode: str = "strict"

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        """Validate a request body into a spec (raises 400-shaped
        :class:`ServiceError` on anything malformed)."""
        if not isinstance(payload, dict):
            raise ServiceError("job request body must be an object")
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {kind!r}; expected one of "
                f"{JOB_KINDS}"
            )
        graph = payload.get("graph")
        if not isinstance(graph, str) or not graph:
            raise ServiceError(
                "job request needs 'graph': a registered graph name"
            )
        mode = payload.get("mode", "strict")
        if mode not in ("strict", "lenient"):
            raise ServiceError(f"unknown mode {mode!r}")
        counts = payload.get("counts")
        if kind == "sweep":
            if not counts or not isinstance(counts, (list, tuple)):
                raise ServiceError(
                    "sweep jobs need 'counts': a list of cluster "
                    "counts"
                )
        elif counts is not None:
            raise ServiceError(
                f"'counts' is only valid for sweep jobs, not {kind!r}"
            )
        # "auto" named the cost-model autotuner, since removed; such
        # requests still validate and run as the untuned job.
        tuning = payload.get("tuning")
        if tuning not in (None, "auto"):
            raise ServiceError(
                f"unknown tuning {tuning!r}; expected 'auto' or null"
            )
        n_clusters = payload.get("n_clusters")
        try:
            spec = cls(
                kind=kind,
                graph=graph,
                method=str(payload.get("method", "degree_discounted")),
                clusterer=str(payload.get("clusterer", "mlrmcl")),
                threshold=float(payload.get("threshold", 0.0)),
                n_clusters=(
                    int(n_clusters) if n_clusters is not None else None
                ),
                counts=(
                    tuple(int(k) for k in counts) if counts else None
                ),
                mode=mode,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"malformed job request: {exc}") from exc
        if not math.isfinite(spec.threshold) or spec.threshold < 0:
            raise ServiceError(
                f"'threshold' must be finite and >= 0, not "
                f"{spec.threshold!r}"
            )
        requested = (spec.n_clusters, *(spec.counts or ()))
        if any(k is not None and k < 1 for k in requested):
            raise ServiceError("cluster counts must be >= 1")
        return spec

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "graph": self.graph,
            "method": self.method,
            "clusterer": self.clusterer,
            "threshold": self.threshold,
            "n_clusters": self.n_clusters,
            "counts": list(self.counts) if self.counts else None,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class RegisteredGraph:
    """A directed graph the daemon holds in memory for jobs.

    ``store_path`` points at the persisted MmapCSR directory when a
    :class:`ServiceStore` backs the graph.
    """

    name: str
    graph: DirectedGraph
    sha: str
    created_unix: float
    store_path: str | None = None

    def summary(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "sha": self.sha,
            "n_nodes": self.graph.n_nodes,
            "n_edges": self.graph.n_edges,
            "created_unix": self.created_unix,
            "persisted": self.store_path is not None,
        }


class Job:
    """One submitted (possibly shared) unit of work."""

    def __init__(
        self,
        job_id: str,
        key: str,
        spec: JobSpec,
        client: str,
        journal_path: Path,
    ) -> None:
        self.job_id = job_id
        self.key = key
        self.spec = spec
        self.clients = [client]
        self.journal_path = journal_path
        self.state = "queued"
        self.created_unix = time.time()
        self.started_unix: float | None = None
        self.finished_unix: float | None = None
        self.result: dict[str, Any] | None = None
        self.error: str | None = None
        self.error_type: str | None = None
        self.error_code: str | None = None
        self.warnings: list[dict[str, str]] = []
        self.recovered = False
        self.done = threading.Event()

    @property
    def seconds(self) -> float | None:
        if self.started_unix is None or self.finished_unix is None:
            return None
        return self.finished_unix - self.started_unix

    def summary(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "key": self.key,
            "kind": self.spec.kind,
            "graph": self.spec.graph,
            "state": self.state,
            "clients": list(self.clients),
            "created_unix": self.created_unix,
            "seconds": self.seconds,
            "error": self.error,
            "error_type": self.error_type,
            "error_code": self.error_code,
            "recovered": self.recovered,
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            **self.summary(),
            "spec": self.spec.as_dict(),
            "journal": str(self.journal_path),
            "warnings": self.warnings,
            "result": self.result,
        }


# ---------------------------------------------------------------------------
# Spec execution
# ---------------------------------------------------------------------------


def execute_spec(
    spec: JobSpec,
    graph: DirectedGraph,
    *,
    dataset_sha: str,
    cache: ArtifactCache | None = None,
    budget: Budget | None = None,
    retry: RetryPolicy | None = None,
    tracer: Tracer | None = None,
    job_metrics: MetricsRegistry | None = None,
) -> tuple[dict[str, Any], list[dict[str, str]], RunManifest | None]:
    """Run one job spec against ``graph``.

    Returns ``(result_payload, warnings, manifest)``. The caller is
    responsible for installing the ambient scope (cache / tracer /
    metrics / journal) around this call.
    """
    tracer = tracer if tracer is not None else Tracer()
    job_metrics = (
        job_metrics if job_metrics is not None else MetricsRegistry()
    )
    if spec.kind == "cluster":
        return _execute_cluster(spec, graph, budget, retry)
    if spec.kind == "symmetrize":
        return _execute_symmetrize(
            spec, graph, dataset_sha, cache, budget, retry,
            tracer, job_metrics,
        )
    return _execute_sweep(
        spec, graph, cache, budget, retry, tracer, job_metrics
    )


def _execute_cluster(
    spec: JobSpec,
    graph: DirectedGraph,
    budget: Budget | None,
    retry: RetryPolicy | None,
) -> tuple[dict[str, Any], list[dict[str, str]], RunManifest | None]:
    pipe = SymmetrizeClusterPipeline(
        spec.method,
        spec.clusterer,
        threshold=spec.threshold,
        mode=spec.mode,
    )
    result = pipe.run(
        graph,
        n_clusters=spec.n_clusters,
        plan_budget=budget,
        retry=retry,
    )
    recorded = [
        {"stage": w.stage, "code": w.code, "message": w.message}
        for w in result.warnings
    ]
    labels = result.clustering.labels
    payload = {
        "kind": "cluster",
        "labels": [int(v) for v in labels],
        "labels_sha256": _labels_sha(labels),
        "n_clusters": int(result.clustering.n_clusters),
        "n_edges": int(result.symmetrized.n_edges),
        "symmetrize_seconds": result.symmetrize_seconds,
        "cluster_seconds": result.cluster_seconds,
        "cache": result.cache,
    }
    return payload, recorded, result.manifest


def _execute_symmetrize(
    spec: JobSpec,
    graph: DirectedGraph,
    dataset_sha: str,
    cache: ArtifactCache | None,
    budget: Budget | None,
    retry: RetryPolicy | None,
    tracer: Tracer,
    job_metrics: MetricsRegistry,
) -> tuple[dict[str, Any], list[dict[str, str]], RunManifest | None]:
    stages = [
        ValidateInputStage(),
        SymmetrizeStage(
            get_symmetrization(spec.method),
            threshold=spec.threshold,
        ),
    ]
    plan = Plan(
        stages,
        initial=("graph",),
        name=f"service.symmetrize.{spec.method}",
    )
    executor = Executor(
        mode=spec.mode,
        cache=cache,
        plan_budget=budget,
        retry=retry,
    )
    execution = executor.execute(
        plan, {"graph": graph}, dataset_sha=dataset_sha
    )
    recorded = [
        {"stage": w.stage, "code": w.code, "message": w.message}
        for w in execution.warnings
    ]
    symmetrized = execution.values["symmetrized"]
    payload = {
        "kind": "symmetrize",
        "n_nodes": int(symmetrized.n_nodes),
        "n_edges": int(symmetrized.n_edges),
        "result_sha": fingerprint_graph(symmetrized)["sha256"],
        "seconds": execution.seconds("symmetrize"),
        "cache": execution.cache_summary(),
    }
    manifest = _spec_manifest(
        spec, graph, recorded, tracer, job_metrics,
        timings={
            "symmetrize_seconds": execution.seconds("symmetrize")
        },
        cache=execution.cache_summary(),
    )
    return payload, recorded, manifest


def _execute_sweep(
    spec: JobSpec,
    graph: DirectedGraph,
    cache: ArtifactCache | None,
    budget: Budget | None,
    retry: RetryPolicy | None,
    tracer: Tracer,
    job_metrics: MetricsRegistry,
) -> tuple[dict[str, Any], list[dict[str, str]], RunManifest | None]:
    points = sweep_n_clusters(
        graph,
        spec.method,
        spec.clusterer,
        list(spec.counts or ()),
        threshold=spec.threshold,
        cache=cache,
        mode=spec.mode,
        retry=retry,
        plan_budget=budget,
    )
    payload = {
        "kind": "sweep",
        "points": [
            {
                "parameter": point.parameter,
                "n_clusters": int(point.n_clusters),
                "average_f": point.average_f,
                "n_edges": int(point.n_edges),
                "cluster_seconds": point.cluster_seconds,
                "cache_hit": point.cache_hit,
                "failed": point.failed,
                "error": point.error,
            }
            for point in points
        ],
        "mean_average_f": aggregate_average_f(points),
    }
    manifest = _spec_manifest(
        spec, graph, [], tracer, job_metrics,
        timings={
            "sweep_seconds": sum(
                p.cluster_seconds for p in points
            )
        },
        cache={
            "hits": sum(1 for p in points if p.cache_hit),
            "misses": sum(
                1 for p in points if p.cache_hit is False
            ),
        },
    )
    return payload, [], manifest


def _spec_manifest(
    spec: JobSpec,
    graph: DirectedGraph,
    recorded_warnings: list[dict[str, str]],
    tracer: Tracer,
    job_metrics: MetricsRegistry,
    timings: dict[str, float],
    cache: dict[str, Any],
) -> RunManifest:
    return RunManifest(
        kind="service",
        name=f"{spec.kind}.{spec.method}",
        config=spec.as_dict(),
        dataset=fingerprint_graph(graph),
        environment=collect_environment(),
        warnings=recorded_warnings,
        trace=tracer.as_dict().get("spans", []),
        metrics=job_metrics.as_dict(),
        cache=cache,
        timings=timings,
    )


class JobManager:
    """Owns graphs, the cache, and a bounded pool of job workers.

    Parameters
    ----------
    data_dir:
        Daemon state root: graph uploads, per-job journals and the
        manifest run log all live under it.
    cache:
        The shared artifact cache (memory-only by default; pass one
        with a ``directory`` for a persistent disk tier).
    max_workers:
        Bound on concurrently *executing* jobs; further submissions
        queue (up to ``max_queue_depth``).
    job_budget:
        Per-job :class:`Budget` ceiling (wall / memory), enforced by
        the engine as the plan budget of every execution.
    client_wall_s:
        Cumulative per-client wall-clock allowance across all their
        completed jobs; ``None`` disables tenant budgeting. Clients
        over the allowance are denied with
        :class:`~repro.exceptions.BudgetExceeded`.
    retry:
        :class:`RetryPolicy` applied to every job's stages.
    metrics:
        Server-level registry for service counters (jobs, dedup
        hits, denials, sheds, evictions). A private one is created
        when omitted.
    store:
        A :class:`~repro.service.store.ServiceStore` for durable
        state. When given, the manager recovers graphs, results and
        incomplete jobs from it at construction, and persists new
        ones as it goes. ``data_dir`` should be the store's state
        dir so journals and manifests live under the same root.
    max_queue_depth:
        Admission bound: new submissions beyond this many *queued*
        jobs are shed with :class:`ServiceOverloaded` (HTTP 503).
        ``None`` disables shedding.
    shed_retry_after_s:
        ``Retry-After`` hint attached to shed responses.
    max_jobs / max_job_age_s:
        Retention bounds for finished jobs: after every completion
        (and on :meth:`evict_jobs`) terminal jobs beyond the count /
        older than the age are evicted — journals, persisted results
        and in-memory records alike (``service_jobs_evicted_total``).
    """

    def __init__(
        self,
        data_dir: str | Path,
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
    ) -> None:
        check_bounds(max_workers, max_queue_depth, max_jobs, max_job_age_s)
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.cache = cache if cache is not None else ArtifactCache()
        self.job_budget = job_budget
        self.client_wall_s = client_wall_s
        self.retry = retry
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.store = store
        if store is not None:
            store.metrics = self.metrics
        self.max_queue_depth = max_queue_depth
        self.shed_retry_after_s = shed_retry_after_s
        self.max_jobs = max_jobs
        self.max_job_age_s = max_job_age_s
        self.manifest_log = self.data_dir / "manifests.jsonl"
        self._graphs: dict[str, RegisteredGraph] = {}
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}
        self._client_spent: dict[str, float] = {}
        self._futures: dict[str, concurrent.futures.Future] = {}
        self._lock = threading.RLock()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="repro-job",
        )
        self._closed = False
        if store is not None:
            self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild state from the store: graphs, finished results,
        then re-submit exactly the incomplete jobs."""
        assert self.store is not None
        for name, graph, sha, created in self.store.load_graphs():
            self._graphs[name] = RegisteredGraph(
                name=name,
                graph=graph,
                sha=sha,
                created_unix=created or time.time(),
                store_path=str(self.store.graph_dir(name)),
            )
            self.metrics.inc("service_graphs_recovered_total")
        for key, payload in self.store.load_results().items():
            job = self._rebuild_job(key, payload)
            if job is None:
                continue
            self._jobs[job.job_id] = job
            self._by_key[key] = job
            self.metrics.inc("service_results_recovered_total")
        for record in self.store.incomplete_jobs():
            try:
                spec = JobSpec.from_dict(dict(record.get("spec") or {}))
            except ServiceError:
                continue
            if spec.graph not in self._graphs:
                continue  # its graph never made it to disk
            client = str(record.get("client") or "recovered")
            with contextlib.suppress(ReproError):
                job, deduped = self.submit(
                    spec, client, admission=False
                )
                if not deduped:
                    self.metrics.inc("service_jobs_rerun_total")
                    _warnings.warn(
                        ExecutionWarning(
                            f"re-running incomplete job "
                            f"{job.job_id} from its tombstone",
                            code="job_rerun",
                        ),
                        stacklevel=2,
                    )

    def _rebuild_job(
        self, key: str, payload: dict[str, Any]
    ) -> Job | None:
        try:
            spec = JobSpec.from_dict(dict(payload.get("spec") or {}))
        except ServiceError:
            return None
        job_id = str(payload.get("job_id") or f"job-{key[:16]}")
        clients = payload.get("clients") or ["recovered"]
        job = Job(
            job_id=job_id,
            key=key,
            spec=spec,
            client=str(clients[0]),
            journal_path=(
                self.data_dir / "jobs" / job_id / "journal.jsonl"
            ),
        )
        job.clients = [str(c) for c in clients]
        job.state = str(payload.get("state") or "done")
        job.result = payload.get("result")
        job.warnings = list(payload.get("warnings") or [])
        job.error = payload.get("error")
        job.error_type = payload.get("error_type")
        job.created_unix = float(
            payload.get("created_unix") or time.time()
        )
        job.started_unix = payload.get("started_unix")
        job.finished_unix = payload.get("finished_unix")
        job.recovered = True
        job.done.set()
        return job

    # ------------------------------------------------------------------
    # Graph registry
    # ------------------------------------------------------------------
    def register_graph(
        self, name: str, graph: DirectedGraph
    ) -> RegisteredGraph:
        """Register ``graph`` under ``name`` (idempotent for the same
        content; a different graph under a taken name is a conflict).

        With a store attached the graph is journaled and persisted
        (atomic MmapCSR publish) before the registration returns, so
        a recovering daemon serves it without a re-upload.
        """
        if not name or "/" in name:
            raise ServiceError(
                f"invalid graph name {name!r} (must be non-empty, "
                "no '/')"
            )
        sha = fingerprint_graph(graph)["sha256"]
        with self._lock:
            existing = self._graphs.get(name)
            if existing is not None:
                if existing.sha == sha:
                    return existing
                raise ServiceError(
                    f"graph name {name!r} is already registered with "
                    f"different content (sha {existing.sha})"
                )
            store_path: str | None = None
            if self.store is not None:
                persisted = self.store.put_graph(name, graph, sha)
                store_path = (
                    str(persisted) if persisted is not None else None
                )
            registered = RegisteredGraph(
                name=name,
                graph=graph,
                sha=sha,
                created_unix=time.time(),
                store_path=store_path,
            )
            self._graphs[name] = registered
            self.metrics.inc("service_graphs_registered_total")
        return registered

    def graph(self, name: str) -> RegisteredGraph:
        with self._lock:
            try:
                return self._graphs[name]
            except KeyError:
                raise ServiceError(
                    f"no graph registered under {name!r}"
                ) from None

    def graphs(self) -> list[dict[str, Any]]:
        with self._lock:
            return [g.summary() for g in self._graphs.values()]

    # ------------------------------------------------------------------
    # Job identity
    # ------------------------------------------------------------------
    def _lineage_stages(self, spec: JobSpec) -> list[Any]:
        """The stage lineage a spec's execution runs through, used
        for its content address (and submit-time validation of the
        method / clusterer names)."""
        symmetrization = get_symmetrization(spec.method)
        stages: list[Any] = [
            ValidateInputStage(),
            SymmetrizeStage(
                symmetrization, threshold=spec.threshold
            ),
        ]
        if spec.kind == "cluster":
            stages.append(
                ClusterStage(
                    get_clusterer(spec.clusterer), spec.n_clusters
                )
            )
        elif spec.kind == "sweep":
            # Counts are swept per point; they enter the key as the
            # parameter, and the clusterer via one representative
            # stage fingerprint.
            stages.append(
                ClusterStage(get_clusterer(spec.clusterer), None)
            )
        return stages

    def job_key(self, spec: JobSpec) -> str:
        """The content address two identical requests share."""
        registered = self.graph(spec.graph)
        lineage = [
            stage.fingerprint()
            for stage in self._lineage_stages(spec)
        ]
        # The spec hashes with the ``"tuning": null`` it carried while
        # the autotuner existed, so results recorded then still dedup.
        return point_key(
            registered.sha,
            lineage,
            {**spec.as_dict(), "tuning": None},
            spec.mode,
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _check_client_budget(self, client: str) -> None:
        if self.client_wall_s is None:
            return
        spent = self._client_spent.get(client, 0.0)
        if spent >= self.client_wall_s:
            self.metrics.inc("service_budget_denials_total")
            raise BudgetExceeded(
                f"client:{client}", "wall_s", self.client_wall_s,
                spent,
            )

    def queue_depth(self) -> int:
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state == "queued"
            )

    def submit(
        self,
        spec: JobSpec,
        client: str,
        admission: bool = True,
    ) -> tuple[Job, bool]:
        """Submit (or join) a job; returns ``(job, deduped)``.

        Raises :class:`BudgetExceeded` when ``client`` has exhausted
        its wall-clock allowance, :class:`ServiceOverloaded` when
        the queue is at its admission bound (dedup riders are exempt
        — joining an existing job admits no new work), and
        :class:`ServiceError` for unknown graphs / methods /
        clusterers. ``admission=False`` bypasses shedding (recovery
        re-runs must always board).
        """
        with self._lock:
            if self._closed:
                raise ServiceError("server is shutting down")
            self._check_client_budget(client)
            key = self.job_key(spec)
            existing = self._by_key.get(key)
            if existing is not None and existing.state != "failed":
                # Identical request: share the computation (or its
                # recorded result). The rider is not charged.
                if client not in existing.clients:
                    existing.clients.append(client)
                self.metrics.inc("service_dedup_hits_total")
                return existing, True
            if (
                admission
                and self.max_queue_depth is not None
                and sum(
                    1
                    for j in self._jobs.values()
                    if j.state == "queued"
                )
                >= self.max_queue_depth
            ):
                self.metrics.inc("service_shed_total")
                raise ServiceOverloaded(
                    f"queue depth at bound "
                    f"{self.max_queue_depth}; shedding",
                    retry_after_s=self.shed_retry_after_s,
                )
            job = Job(
                job_id=f"job-{key[:16]}",
                key=key,
                spec=spec,
                client=client,
                journal_path=(
                    self.data_dir
                    / "jobs"
                    / f"job-{key[:16]}"
                    / "journal.jsonl"
                ),
            )
            self._jobs[job.job_id] = job
            self._by_key[key] = job
            self.metrics.inc("service_jobs_submitted_total")
            if self.store is not None:
                self.store.record_job_start(job)
            # Copy the submitting context so ambient state installed
            # by the caller (fault plans above all) reaches the
            # worker thread — executor threads otherwise start from
            # an empty context.
            context = contextvars.copy_context()
            self._futures[job.job_id] = self._executor.submit(
                context.run, self._execute, job, client
            )
            return job, False

    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(
                    f"no job with id {job_id!r}"
                ) from None

    def jobs(self) -> list[dict[str, Any]]:
        with self._lock:
            return [j.summary() for j in self._jobs.values()]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "graphs": len(self._graphs),
                "jobs": states,
                "queue_depth": sum(
                    1
                    for j in self._jobs.values()
                    if j.state == "queued"
                ),
                "store": (
                    self.store.status()
                    if self.store is not None
                    else None
                ),
                "clients": {
                    client: {
                        "wall_s_spent": spent,
                        "wall_s_budget": self.client_wall_s,
                    }
                    for client, spent in self._client_spent.items()
                },
                "metrics": self.metrics.as_dict(),
                "cache": self.cache.stats(),
            }

    # ------------------------------------------------------------------
    # Eviction (GC of finished jobs)
    # ------------------------------------------------------------------
    def evict_jobs(self, now: float | None = None) -> int:
        """Apply the retention bounds to terminal jobs.

        Oldest-finished-first: jobs older than ``max_job_age_s`` go,
        then the oldest beyond ``max_jobs``. Evicts the in-memory
        record, the persisted result, and the job's journal
        directory. Returns the eviction count.
        """
        if self.max_jobs is None and self.max_job_age_s is None:
            return 0
        now = time.time() if now is None else now
        with self._lock:
            terminal = sorted(
                (
                    job
                    for job in self._jobs.values()
                    if job.done.is_set()
                    and job.state in ("done", "failed")
                ),
                key=lambda j: j.finished_unix or j.created_unix,
            )
            evict: list[Job] = []
            if self.max_job_age_s is not None:
                evict.extend(
                    job
                    for job in terminal
                    if now - (job.finished_unix or job.created_unix)
                    > self.max_job_age_s
                )
            if self.max_jobs is not None:
                keep = [j for j in terminal if j not in evict]
                overflow = len(keep) - self.max_jobs
                if overflow > 0:
                    evict.extend(keep[:overflow])
            for job in evict:
                self._jobs.pop(job.job_id, None)
                if self._by_key.get(job.key) is job:
                    self._by_key.pop(job.key, None)
            evicted_keys = [job.key for job in evict]
        for job in evict:
            self._evict_job_files(job)
        if evict:
            self.metrics.inc(
                "service_jobs_evicted_total", len(evict)
            )
            if self.store is not None:
                self.store.record_eviction(evicted_keys)
        return len(evict)

    def _evict_job_files(self, job: Job) -> None:
        import shutil

        if self.store is not None:
            self.store.evict_result(job.key)
        with contextlib.suppress(OSError):
            shutil.rmtree(job.journal_path.parent)

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------
    def _execute(self, job: Job, client: str) -> None:
        job.state = "running"
        job.started_unix = time.time()
        journal = RunJournal(job.journal_path, run_id=job.job_id)
        tracer = Tracer()
        job_metrics = MetricsRegistry()
        manifest: RunManifest | None = None
        try:
            registered = self.graph(job.spec.graph)
            self.metrics.inc("service_job_executions_total")
            # Isolated scope: the job sees the shared cache, its own
            # tracer/metrics/journal, and nothing from whatever ran
            # on this pooled thread before it.
            with ambient_scope(
                cache=self.cache,
                tracer=tracer,
                metrics=job_metrics,
                journal=journal,
                isolate=True,
            ):
                result, recorded, manifest = execute_spec(
                    job.spec,
                    registered.graph,
                    dataset_sha=registered.sha,
                    cache=self.cache,
                    budget=self.job_budget,
                    retry=self.retry,
                    tracer=tracer,
                    job_metrics=job_metrics,
                )
            job.warnings = recorded
            journal.finish("complete")
            job.result = result
            job.state = "done"
            self.metrics.inc("service_jobs_completed_total")
            if self.store is not None:
                # Publish the result *before* the job_end tombstone:
                # a crash in between re-serves the published bytes
                # instead of re-running (see the store invariants).
                self.store.put_result(job)
        except Exception as exc:  # noqa: BLE001 - job boundary
            journal.finish("failed")
            job.error = str(exc)
            job.error_type = type(exc).__name__
            job.error_code = error_code_for(exc)
            job.state = "failed"
            self.metrics.inc("service_jobs_failed_total")
            if job.error_code == "budget_exceeded":
                self.metrics.inc("service_job_budget_overruns_total")
        finally:
            journal.close()
            job.finished_unix = time.time()
            with self._lock:
                self._client_spent[client] = self._client_spent.get(
                    client, 0.0
                ) + (job.finished_unix - job.started_unix)
                self._futures.pop(job.job_id, None)
            if self.store is not None:
                self.store.record_job_end(job)
            if manifest is not None:
                manifest.job = {
                    "job_id": job.job_id,
                    "key": job.key,
                    "clients": list(job.clients),
                }
                try:
                    append_manifest(manifest, self.manifest_log)
                except OSError:
                    self.metrics.inc(
                        "service_manifest_write_failures_total"
                    )
            job.done.set()
            with contextlib.suppress(Exception):
                self.evict_jobs()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> bool:
        """Stop accepting jobs and drain the running ones.

        Queued-but-unstarted jobs are cancelled (they stay
        ``queued`` with an error note); running jobs get up to
        ``timeout`` seconds to finish. Returns ``True`` on a clean
        drain.
        """
        with self._lock:
            self._closed = True
            pending = dict(self._futures)
        for job_id, future in pending.items():
            if future.cancel():
                job = self._jobs.get(job_id)
                if job is not None:
                    job.state = "failed"
                    job.error = "cancelled at shutdown"
                    job.error_type = "Cancelled"
                    job.error_code = "shutting_down"
                    job.done.set()
        done, not_done = concurrent.futures.wait(
            [f for f in pending.values() if not f.cancelled()],
            timeout=timeout,
        )
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.store is not None:
            self.store.close()
        return not not_done
