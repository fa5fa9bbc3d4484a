"""Parameter sweeps behind the paper's figures and tables.

- :func:`sweep_n_clusters` — Avg-F and time vs cluster count for one
  (symmetrization, clusterer) pair: one curve of Figures 5, 7, 8, 9.
- :func:`sweep_threshold` — the Table-3 prune-threshold study.
- :func:`sweep_alpha_beta` — the Table-4 (α, β) grid.

Every sweep builds one :class:`~repro.engine.Plan` per grid point and
runs it through the :class:`~repro.engine.Executor` with an artifact
cache: the first point computes and stores the stage-1 symmetrization
artifact, every later point that shares its lineage is served from the
cache. This replaces the old hand-rolled symmetrize-once shortcut —
with no cache installed a sweep still symmetrizes exactly once
(a fresh in-memory :class:`~repro.engine.ArtifactCache` scopes the
reuse to the sweep), while an ambient :func:`repro.engine.artifact_cache`
block (or an explicit ``cache=`` argument, possibly disk-backed)
extends the reuse across sweeps, grids and processes.

Each :class:`SweepPoint` records its cache provenance: whether any
stage was served from the cache and the content address of the
symmetrized artifact the clusterer consumed.

Fault tolerance
---------------
Sweeps are the long-running surface of this codebase, so they carry
the full runtime:

- ``mode="lenient"`` degrades per-point failures instead of aborting
  the grid: the failed point is recorded with ``failed=True``, the
  exception summary, and the machine-readable warning code
  ``point_failed``; :func:`aggregate_average_f` excludes such points.
  In strict mode (default) the first failure propagates.
- ``retry=``/``budgets=``/``plan_budget=`` forward the corresponding
  :class:`~repro.engine.RetryPolicy` / :class:`~repro.engine.Budget`
  policies to each point's executor.
- An ambient or explicit write-ahead journal
  (:class:`~repro.engine.RunJournal`) records one ``point_done``
  record per completed grid point; ``resume=`` replays those records
  (a :class:`~repro.engine.JournalReplay`) so an interrupted sweep
  recomputes only its unfinished tail — replayed points are marked
  ``resumed=True`` and are byte-identical to what the first run
  measured, including recorded failures.
- ``n_jobs=`` installs one shared
  :class:`~repro.engine.pool.WorkerPool` for the whole grid: every
  point's sharded kernels (the out-of-core all-pairs fan-out beneath
  ``apply_pruned``) draw workers from that single pool instead of
  forking a pool per point, and both recovery layers compose — the
  journal replays finished *points*, the content-addressed shard
  artifacts replay finished *shards* of the interrupted point.
"""

from __future__ import annotations

import contextlib
import warnings as _warnings
from dataclasses import dataclass
from typing import Any

from repro.cluster.common import GraphClusterer, get_clusterer
from repro.engine.cache import ArtifactCache, current_cache
from repro.engine.chaos import chaos
from repro.engine.pool import current_pool, worker_pool
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.journal import (
    JournalReplay,
    RunJournal,
    current_journal,
    point_key,
)
from repro.engine.plan import Plan
from repro.engine.policy import Budget, RetryPolicy
from repro.engine.stage import Stage
from repro.engine.stages import (
    ClusterStage,
    EvaluateStage,
    PruneStage,
    PruneToDegreeStage,
    SymmetrizeStage,
    ValidateInputStage,
)
from repro.eval.groundtruth import GroundTruth
from repro.exceptions import ExecutionWarning, ReproError
from repro.graph.digraph import DirectedGraph
from repro.obs.manifest import fingerprint_graph
from repro.obs.metrics import metric_inc
from repro.symmetrize.base import Symmetrization, get_symmetrization
from repro.symmetrize.degree_discounted import (
    DegreeDiscountedSymmetrization,
)

__all__ = [
    "SweepPoint",
    "sweep_n_clusters",
    "sweep_threshold",
    "sweep_alpha_beta",
    "aggregate_average_f",
]


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a sweep.

    Attributes
    ----------
    parameter:
        The swept value (cluster count, threshold, or an (α, β) pair).
    n_clusters:
        Actual cluster count produced (MLR-MCL controls it only
        indirectly).
    average_f:
        §4.3 Avg-F in percent (``None`` without ground truth).
    cluster_seconds:
        Stage-2 wall-clock time.
    n_edges:
        Edge count of the (pruned) symmetrized graph used.
    cache_hit:
        Whether any stage of this point was served from the artifact
        cache (``None`` when the point ran without a cache). Within
        one sweep the first point misses and stores; later points
        sharing the symmetrization lineage hit.
    artifact_key:
        Content address of the symmetrized artifact the clusterer
        consumed — the key of the last cacheable stage of the point's
        plan (``None`` without a cache).
    failed:
        ``True`` when a lenient-mode sweep skipped this point after an
        unrecoverable failure; the measurement fields are zeroed and
        ``average_f`` is ``None``, so aggregation must exclude it
        (:func:`aggregate_average_f` does).
    error:
        ``"ExceptionType: message"`` summary of the failure.
    warning_code:
        Machine-readable code of the degradation (``point_failed``).
    resumed:
        ``True`` when the point was replayed from a run journal
        instead of being recomputed.
    """

    parameter: object
    n_clusters: int
    average_f: float | None
    cluster_seconds: float
    n_edges: int
    cache_hit: bool | None = None
    artifact_key: str | None = None
    failed: bool = False
    error: str | None = None
    warning_code: str | None = None
    resumed: bool = False


def aggregate_average_f(points: list[SweepPoint]) -> float | None:
    """Mean Avg-F over the *successful* points of a sweep.

    Failed (skipped) points and points without ground truth carry no
    Avg-F and are excluded; returns ``None`` when nothing remains.
    """
    scores = [
        p.average_f
        for p in points
        if not p.failed and p.average_f is not None
    ]
    if not scores:
        return None
    return float(sum(scores) / len(scores))


def _sweep_cache(cache: ArtifactCache | None) -> ArtifactCache:
    """The cache a sweep runs against.

    Explicit argument first, then the ambient cache; with neither, a
    fresh in-memory cache scoped to this sweep — which is exactly the
    old symmetrize-once behavior, engine-managed.
    """
    if cache is not None:
        return cache
    ambient = current_cache()
    if ambient is not None:
        return ambient
    return ArtifactCache()


def _run_point(
    plan: Plan,
    graph: DirectedGraph,
    ground_truth: GroundTruth | None,
    cache: ArtifactCache,
    dataset_sha: str,
    mode: str,
    retry: RetryPolicy | None,
    budgets: dict[str, Budget] | None,
    plan_budget: Budget | None,
    journal: RunJournal | None,
    resume: JournalReplay | None,
) -> ExecutionResult:
    """Execute one grid point's plan against the sweep cache."""
    values: dict[str, object] = {"graph": graph}
    if ground_truth is not None:
        values["ground_truth"] = ground_truth
    executor = Executor(
        mode=mode,
        cache=cache,
        budgets=budgets,
        plan_budget=plan_budget,
        retry=retry,
        journal=journal,
        resume_from=resume,
    )
    return executor.execute(plan, values, dataset_sha=dataset_sha)


def _point_from_execution(
    parameter: object,
    execution: ExecutionResult,
    ground_truth: GroundTruth | None,
) -> SweepPoint:
    """Fold one execution into a :class:`SweepPoint`."""
    consulted = [
        e for e in execution.executions if e.cached is not None
    ]
    artifact_key = None
    for e in execution.executions:
        if e.artifact_key is not None:
            artifact_key = e.artifact_key
    clustering = execution.values["clustering"]
    return SweepPoint(
        parameter=parameter,
        n_clusters=clustering.n_clusters,
        average_f=(
            execution.values.get("average_f")
            if ground_truth is not None
            else None
        ),
        cluster_seconds=execution.seconds("cluster"),
        n_edges=execution.values["symmetrized"].n_edges,
        cache_hit=(
            any(e.cached for e in consulted) if consulted else None
        ),
        artifact_key=artifact_key,
    )


def _point_payload(point: SweepPoint) -> dict[str, Any]:
    """The journal-ready scalar record of one sweep point."""
    return {
        "n_clusters": point.n_clusters,
        "average_f": point.average_f,
        "cluster_seconds": point.cluster_seconds,
        "n_edges": point.n_edges,
        "cache_hit": point.cache_hit,
        "artifact_key": point.artifact_key,
        "failed": point.failed,
        "error": point.error,
        "warning_code": point.warning_code,
    }


def _point_from_payload(
    parameter: object, payload: dict[str, Any]
) -> SweepPoint:
    """Rebuild a recorded point during resume (marked ``resumed``)."""
    return SweepPoint(
        parameter=parameter,
        n_clusters=int(payload.get("n_clusters", 0)),
        average_f=payload.get("average_f"),
        cluster_seconds=float(payload.get("cluster_seconds", 0.0)),
        n_edges=int(payload.get("n_edges", 0)),
        cache_hit=payload.get("cache_hit"),
        artifact_key=payload.get("artifact_key"),
        failed=bool(payload.get("failed", False)),
        error=payload.get("error"),
        warning_code=payload.get("warning_code"),
        resumed=True,
    )


def _failed_point(
    parameter: object, exc: BaseException
) -> SweepPoint:
    return SweepPoint(
        parameter=parameter,
        n_clusters=0,
        average_f=None,
        cluster_seconds=0.0,
        n_edges=0,
        failed=True,
        error=f"{type(exc).__name__}: {exc}",
        warning_code="point_failed",
    )


def _sweep(
    graph: DirectedGraph,
    parameters: list[object],
    make_stages,
    ground_truth: GroundTruth | None,
    cache: ArtifactCache | None,
    name: str,
    mode: str = "strict",
    retry: RetryPolicy | None = None,
    budgets: dict[str, Budget] | None = None,
    plan_budget: Budget | None = None,
    journal: RunJournal | None = None,
    resume: JournalReplay | None = None,
    n_jobs: int | None = None,
) -> list[SweepPoint]:
    """Shared sweep driver: one engine plan per grid point.

    With ``n_jobs > 1`` a single :class:`~repro.engine.WorkerPool` is
    installed around the grid loop (unless one is already ambient),
    so the sharded kernels of every point share one set of worker
    processes for the sweep's lifetime.
    """
    active = _sweep_cache(cache)
    dataset_sha = fingerprint_graph(graph)["sha256"]
    if journal is None:
        journal = current_journal()
    if journal is not None:
        journal.ensure_started(
            kind="sweep",
            name=name,
            dataset_sha=dataset_sha,
            mode=mode,
            config={"parameters": [repr(p) for p in parameters]},
        )
    pool_scope = (
        worker_pool(n_jobs)
        if n_jobs is not None and n_jobs > 1 and current_pool() is None
        else contextlib.nullcontext()
    )
    with pool_scope:
        points = _sweep_points(
            graph, parameters, make_stages, ground_truth, active,
            name, mode, retry, budgets, plan_budget, journal, resume,
            dataset_sha,
        )
    return points


def _sweep_points(
    graph: DirectedGraph,
    parameters: list[object],
    make_stages,
    ground_truth: GroundTruth | None,
    active: ArtifactCache,
    name: str,
    mode: str,
    retry: RetryPolicy | None,
    budgets: dict[str, Budget] | None,
    plan_budget: Budget | None,
    journal: RunJournal | None,
    resume: JournalReplay | None,
    dataset_sha: str,
) -> list[SweepPoint]:
    points = []
    for parameter in parameters:
        stages: list[Stage] = make_stages(parameter)
        initial = ["graph"]
        if ground_truth is not None:
            stages.append(EvaluateStage())
            initial.append("ground_truth")
        plan = Plan(
            stages,
            initial=tuple(initial),
            name=f"{name}[{parameter!r}]",
        )
        key = point_key(
            dataset_sha,
            [stage.fingerprint() for stage in plan.stages],
            parameter,
            mode,
        )
        if resume is not None:
            payload = resume.point(key)
            if payload is not None:
                points.append(
                    _point_from_payload(parameter, payload)
                )
                metric_inc("resume_points_skipped")
                continue
        try:
            execution = _run_point(
                plan, graph, ground_truth, active, dataset_sha,
                mode, retry, budgets, plan_budget, journal, resume,
            )
        except ReproError as exc:
            if mode != "lenient":
                raise
            # Lenient: one poisoned grid point must not cost the
            # sweep. Record the skip, structured, and move on.
            point = _failed_point(parameter, exc)
            _warnings.warn(
                ExecutionWarning(
                    f"{name}: point {parameter!r} failed "
                    f"({point.error}); skipped in lenient mode",
                    code="point_failed",
                ),
                stacklevel=3,
            )
            metric_inc("sweep_points_failed_total")
        else:
            point = _point_from_execution(
                parameter, execution, ground_truth
            )
        if journal is not None:
            journal.record_point(
                key, parameter, _point_payload(point)
            )
        points.append(point)
        chaos("sweep.point")
    return points


def sweep_n_clusters(
    graph: DirectedGraph,
    symmetrization: str | Symmetrization,
    clusterer: str | GraphClusterer,
    cluster_counts: list[int],
    ground_truth: GroundTruth | None = None,
    threshold: float = 0.0,
    cache: ArtifactCache | None = None,
    mode: str = "strict",
    retry: RetryPolicy | None = None,
    budgets: dict[str, Budget] | None = None,
    plan_budget: Budget | None = None,
    journal: RunJournal | None = None,
    resume: JournalReplay | None = None,
    n_jobs: int | None = None,
) -> list[SweepPoint]:
    """Avg-F / time vs requested cluster count (Figures 5, 7, 8, 9).

    The symmetrization artifact is shared across cluster counts via
    the artifact cache (first point computes, later points hit).
    ``n_jobs`` installs one shared worker pool for the whole grid.
    """
    if isinstance(symmetrization, str):
        symmetrization = get_symmetrization(symmetrization)
    if isinstance(clusterer, str):
        clusterer = get_clusterer(clusterer)

    def make_stages(k: object) -> list[Stage]:
        return [
            ValidateInputStage(),
            SymmetrizeStage(symmetrization, threshold=threshold),
            ClusterStage(clusterer, int(k)),  # type: ignore[arg-type]
        ]

    return _sweep(
        graph,
        list(cluster_counts),
        make_stages,
        ground_truth,
        cache,
        "sweep_n_clusters",
        mode=mode,
        retry=retry,
        budgets=budgets,
        plan_budget=plan_budget,
        journal=journal,
        resume=resume,
        n_jobs=n_jobs,
    )


def sweep_threshold(
    graph: DirectedGraph,
    thresholds: list[float],
    clusterer: str | GraphClusterer,
    n_clusters: int,
    ground_truth: GroundTruth | None = None,
    symmetrization: str | Symmetrization = "degree_discounted",
    cache: ArtifactCache | None = None,
    mode: str = "strict",
    retry: RetryPolicy | None = None,
    budgets: dict[str, Budget] | None = None,
    plan_budget: Budget | None = None,
    journal: RunJournal | None = None,
    resume: JournalReplay | None = None,
    n_jobs: int | None = None,
) -> list[SweepPoint]:
    """The Table-3 study: prune threshold vs edges / Avg-F / time.

    Symmetrizes once without pruning, then prunes the same similarity
    matrix at every threshold (exactly what varying the threshold means
    in §5.3.1) — the shared unpruned artifact is cache-served after the
    first point.
    """
    if isinstance(symmetrization, str):
        symmetrization = get_symmetrization(symmetrization)
    if isinstance(clusterer, str):
        clusterer = get_clusterer(clusterer)

    def make_stages(threshold: object) -> list[Stage]:
        return [
            ValidateInputStage(),
            SymmetrizeStage(symmetrization, threshold=0.0),
            PruneStage(float(threshold)),  # type: ignore[arg-type]
            ClusterStage(clusterer, n_clusters),
        ]

    return _sweep(
        graph,
        list(thresholds),
        make_stages,
        ground_truth,
        cache,
        "sweep_threshold",
        mode=mode,
        retry=retry,
        budgets=budgets,
        plan_budget=plan_budget,
        journal=journal,
        resume=resume,
        n_jobs=n_jobs,
    )


def sweep_alpha_beta(
    graph: DirectedGraph,
    configurations: list[tuple[float | str, float | str]],
    clusterer: str | GraphClusterer,
    n_clusters: int,
    ground_truth: GroundTruth | None = None,
    threshold: float = 0.0,
    target_degree: float | None = None,
    cache: ArtifactCache | None = None,
    mode: str = "strict",
    retry: RetryPolicy | None = None,
    budgets: dict[str, Budget] | None = None,
    plan_budget: Budget | None = None,
    journal: RunJournal | None = None,
    resume: JournalReplay | None = None,
    n_jobs: int | None = None,
) -> list[SweepPoint]:
    """The Table-4 study: Avg-F per (α, β) configuration.

    ``(0, 0)`` reproduces the paper's no-discounting row — note it is
    *not* the same as Bibliometric, because zero-degree nodes still
    contribute nothing — and ``("log", "log")`` the IDF-style row.

    Because (α, β) changes the *scale* of the similarity values, a
    shared absolute ``threshold`` would bias the grid; pass
    ``target_degree`` instead to choose a per-configuration threshold
    with the §5.3.1 sample recipe (density-matched comparisons).

    Each configuration symmetrizes its own artifact (the (α, β) pair
    is part of the cache lineage), so within one grid nothing is
    shared — but a disk-backed or ambient cache serves repeated grids
    (re-runs, figure regeneration) entirely from the cache.
    """
    if isinstance(clusterer, str):
        clusterer = get_clusterer(clusterer)

    def make_stages(configuration: object) -> list[Stage]:
        alpha, beta = configuration  # type: ignore[misc]
        sym = DegreeDiscountedSymmetrization(alpha=alpha, beta=beta)
        stages: list[Stage] = [ValidateInputStage()]
        if target_degree is not None:
            stages.append(SymmetrizeStage(sym, threshold=0.0))
            stages.append(PruneToDegreeStage(target_degree))
        else:
            stages.append(SymmetrizeStage(sym, threshold=threshold))
        stages.append(ClusterStage(clusterer, n_clusters))
        return stages

    return _sweep(
        graph,
        list(configurations),
        make_stages,
        ground_truth,
        cache,
        "sweep_alpha_beta",
        mode=mode,
        retry=retry,
        budgets=budgets,
        plan_budget=plan_budget,
        journal=journal,
        resume=resume,
        n_jobs=n_jobs,
    )
