"""The two-stage clustering pipeline of Figure 2.

Stage 1 symmetrizes the directed graph, stage 2 clusters the result
with an off-the-shelf undirected clusterer. The pipeline records both
stage timings separately, because the paper's speed claims concern the
*clustering* time on differently-symmetrized graphs (Figures 8–9,
Table 3) — degree-discounted graphs cluster 2–5x faster because they
have no hubs.

Since the stage-graph refactor this class is a thin facade over the
execution engine (:mod:`repro.engine`): it assembles a
:class:`~repro.engine.Plan` of validate → symmetrize → cluster →
evaluate stages and hands it to an :class:`~repro.engine.Executor`,
which owns per-stage validation strictness, tracing spans, warning
capture, timing and the content-addressed artifact cache. Results,
traces, metrics and manifests are unchanged from the monolithic
implementation; the facade exists so ``pipe.run(...)`` keeps working
untouched while sweeps and experiment runners share the same engine.

Robustness modes
----------------
Real inputs arrive with dangling nodes, self-loops, duplicate edges
and occasionally malformed weights. The pipeline therefore runs in one
of two modes (see ``docs/robustness.md``):

- ``mode="strict"`` (default): inputs are validated up front and any
  error-severity violation raises a typed
  :class:`~repro.exceptions.ValidationError`; degenerate intermediate
  states (e.g. the all-dangling random-walk case) raise
  :class:`~repro.exceptions.SymmetrizationError`.
- ``mode="lenient"``: malformed weights are repaired (dropped) and
  degenerate states downgraded to warnings; every
  :class:`~repro.exceptions.ReproWarning` raised anywhere in the run
  is captured into the structured ``warnings`` channel of the
  :class:`PipelineResult` instead of reaching the user's warning
  filters.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster.common import Clustering, GraphClusterer, get_clusterer
from repro.engine.cache import ArtifactCache
from repro.engine.executor import (
    EXECUTION_MODES,
    ExecutionResult,
    Executor,
    PipelineWarning,
)
from repro.engine.journal import JournalReplay, RunJournal
from repro.engine.plan import Plan
from repro.engine.policy import Budget, RetryPolicy
from repro.engine.stages import (
    ClusterStage,
    EvaluateStage,
    SymmetrizeStage,
    ValidateInputStage,
)
from repro.eval.groundtruth import GroundTruth
from repro.exceptions import ClusteringError, PipelineError
from repro.graph.digraph import DirectedGraph
from repro.graph.ugraph import UndirectedGraph
from repro.obs.manifest import (
    RunManifest,
    append_manifest,
    collect_environment,
    fingerprint_graph,
)
from repro.obs.metrics import (
    MetricsRegistry,
    current_metrics,
    metric_inc,
    metrics_active,
)
from repro.obs.trace import Tracer, current_tracer, span, tracing
from repro.symmetrize.base import Symmetrization, get_symmetrization

__all__ = [
    "SymmetrizeClusterPipeline",
    "PipelineResult",
    "PipelineWarning",
    "PIPELINE_MODES",
]

#: Recognized pipeline robustness modes.
PIPELINE_MODES = EXECUTION_MODES


@dataclass(frozen=True)
class PipelineResult:
    """Everything one pipeline run produced.

    Attributes
    ----------
    clustering:
        The stage-2 output.
    symmetrized:
        The stage-1 undirected graph (kept for inspection — edge
        counts, degree distributions, top edges).
    symmetrize_seconds, cluster_seconds:
        Wall-clock duration of each stage.
    average_f:
        §4.3 Avg-F in percent, when ground truth was supplied to
        :meth:`SymmetrizeClusterPipeline.run`; ``None`` otherwise.
    warnings:
        Structured :class:`PipelineWarning` records for every
        :class:`~repro.exceptions.ReproWarning` the run emitted —
        repairs applied, degenerate structure detected, convergence
        shortfalls. Empty on clean inputs.
    trace:
        Span-forest snapshot (``{"spans": [...], "max_depth": n}``)
        when the run was traced (``trace=True`` or an ambient
        :func:`repro.obs.tracing` block); ``None`` otherwise.
    metrics:
        :meth:`~repro.obs.MetricsRegistry.as_dict` snapshot of the
        counters/gauges/histograms the run emitted, under the same
        condition; ``None`` otherwise.
    manifest:
        The :class:`~repro.obs.RunManifest` provenance record, built
        whenever the run was traced and appended to the run log when
        ``manifest_path`` was given.
    cache:
        Artifact-cache provenance of the run: ``{"enabled": bool,
        "hits": n, "misses": n, "artifact_keys": [...]}``. All-zero
        with ``enabled=False`` when the run was given no cache.
    fault_tolerance:
        Fault-tolerance provenance: the journal path and run id when
        the run was journaled, whether it resumed a prior journal,
        and the ``stage_retries`` / ``stages_resumed`` totals from
        :meth:`~repro.engine.ExecutionResult.fault_summary`.
    """

    clustering: Clustering
    symmetrized: UndirectedGraph
    symmetrize_seconds: float
    cluster_seconds: float
    average_f: float | None
    warnings: tuple[PipelineWarning, ...] = field(
        default=(), compare=False
    )
    trace: dict[str, Any] | None = field(default=None, compare=False)
    metrics: dict[str, Any] | None = field(default=None, compare=False)
    manifest: RunManifest | None = field(default=None, compare=False)
    cache: dict[str, Any] | None = field(default=None, compare=False)
    fault_tolerance: dict[str, Any] | None = field(
        default=None, compare=False
    )

    @property
    def total_seconds(self) -> float:
        """Sum of both stage durations."""
        return self.symmetrize_seconds + self.cluster_seconds

    def warning_codes(self) -> tuple[str, ...]:
        """The distinct warning codes, in order of first appearance."""
        seen: list[str] = []
        for w in self.warnings:
            if w.code not in seen:
                seen.append(w.code)
        return tuple(seen)


class SymmetrizeClusterPipeline:
    """Symmetrize a directed graph, then cluster it (Figure 2).

    Parameters
    ----------
    symmetrization:
        A :class:`~repro.symmetrize.Symmetrization` instance or
        registered name.
    clusterer:
        A :class:`~repro.cluster.GraphClusterer` instance or registered
        name.
    threshold:
        Prune threshold applied to the symmetrized matrix (§3.5).
    mode:
        ``"strict"`` (default) raises typed errors on malformed or
        degenerate inputs; ``"lenient"`` repairs what it can, warns
        about the rest, and records everything on
        :attr:`PipelineResult.warnings`.

    Examples
    --------
    >>> from repro.datasets import make_cora_like
    >>> ds = make_cora_like(n_nodes=400, n_categories=8, seed=1)
    >>> pipe = SymmetrizeClusterPipeline("degree_discounted", "metis")
    >>> result = pipe.run(ds.graph, n_clusters=8,
    ...                   ground_truth=ds.ground_truth)
    >>> result.clustering.n_clusters
    8
    """

    def __init__(
        self,
        symmetrization: str | Symmetrization,
        clusterer: str | GraphClusterer,
        threshold: float = 0.0,
        mode: str = "strict",
    ) -> None:
        if isinstance(symmetrization, str):
            symmetrization = get_symmetrization(symmetrization)
        if isinstance(clusterer, str):
            clusterer = get_clusterer(clusterer)
        if not isinstance(symmetrization, Symmetrization):
            raise ClusteringError(
                "symmetrization must be a name or Symmetrization"
            )
        if not isinstance(clusterer, GraphClusterer):
            raise ClusteringError(
                "clusterer must be a name or GraphClusterer"
            )
        if mode not in PIPELINE_MODES:
            raise PipelineError(
                f"unknown pipeline mode {mode!r}; "
                f"expected one of {PIPELINE_MODES}"
            )
        self.symmetrization = symmetrization
        self.clusterer = clusterer
        self.threshold = float(threshold)
        self.mode = mode

    def symmetrize(self, graph: DirectedGraph) -> UndirectedGraph:
        """Run stage 1 only."""
        return self.symmetrization.apply(graph, threshold=self.threshold)

    def plan(
        self,
        n_clusters: int | None = None,
        with_ground_truth: bool = False,
    ) -> Plan:
        """The :class:`~repro.engine.Plan` a :meth:`run` would execute.

        Exposed for inspection (``plan().describe()``) and for callers
        that drive the engine directly (sweeps, experiment runners).
        """
        stages: list[Any] = [
            ValidateInputStage(),
            SymmetrizeStage(self.symmetrization, threshold=self.threshold),
            ClusterStage(self.clusterer, n_clusters),
        ]
        initial = ["graph"]
        if with_ground_truth:
            initial.append("ground_truth")
            stages.append(EvaluateStage())
        return Plan(
            stages,
            initial=tuple(initial),
            name=f"{self.symmetrization.name}.{self.clusterer.name}",
        )

    def run(
        self,
        graph: DirectedGraph,
        n_clusters: int | None = None,
        ground_truth: GroundTruth | None = None,
        trace: bool = False,
        manifest_path: str | Path | None = None,
        cache: ArtifactCache | None = None,
        journal: RunJournal | None = None,
        resume: JournalReplay | None = None,
        retry: RetryPolicy | None = None,
        plan_budget: Budget | None = None,
    ) -> PipelineResult:
        """Run the full pipeline.

        Parameters
        ----------
        graph:
            The directed input.
        n_clusters:
            Requested cluster count (advisory for MLR-MCL).
        ground_truth:
            When given, the result carries the §4.3 Avg-F score.
        trace:
            Record a hierarchical span tree and metrics snapshot for
            this run (see :mod:`repro.obs`) onto the result's
            ``trace``/``metrics``/``manifest`` fields. An ambient
            :func:`repro.obs.tracing` block enables this implicitly.
        manifest_path:
            Append the run's :class:`~repro.obs.RunManifest` to this
            JSONL run log (implies ``trace``).
        cache:
            :class:`~repro.engine.ArtifactCache` consulted for the
            symmetrize stage; ``None`` (default) runs uncached.
        journal:
            Write-ahead :class:`~repro.engine.RunJournal` recording
            per-stage progress for crash recovery; ``None`` (default)
            journals nothing.
        resume:
            :class:`~repro.engine.JournalReplay` of an interrupted
            run: recorded stages are served from the artifact cache
            instead of recomputed.
        retry:
            :class:`~repro.engine.RetryPolicy` for transient stage
            failures (``None`` disables retries).
        plan_budget:
            Whole-run :class:`~repro.engine.Budget` ceiling.
        """
        tracer = current_tracer()
        own_tracer = None
        if tracer is None and (trace or manifest_path is not None):
            own_tracer = tracer = Tracer()
        metrics = current_metrics()
        own_metrics = None
        if metrics is None and tracer is not None:
            own_metrics = metrics = MetricsRegistry()
        plan = self.plan(
            n_clusters=n_clusters,
            with_ground_truth=ground_truth is not None,
        )
        values: dict[str, Any] = {"graph": graph}
        if ground_truth is not None:
            values["ground_truth"] = ground_truth
        executor = Executor(
            mode=self.mode,
            cache=cache,
            plan_budget=plan_budget,
            retry=retry,
            journal=journal,
            resume_from=resume,
        )
        with contextlib.ExitStack() as stack:
            if own_tracer is not None:
                stack.enter_context(tracing(own_tracer))
            if own_metrics is not None:
                stack.enter_context(metrics_active(own_metrics))
            root = stack.enter_context(span("pipeline"))
            root.set(
                symmetrization=self.symmetrization.name,
                clusterer=self.clusterer.name,
                threshold=self.threshold,
                mode=self.mode,
                n_nodes=graph.n_nodes,
                n_edges=graph.n_edges,
            )
            metric_inc("pipeline_runs_total")
            execution = executor.execute(plan, values)
        t_sym = execution.seconds("symmetrize")
        t_cluster = execution.seconds("cluster")
        cache_section = {
            "enabled": cache is not None,
            **execution.cache_summary(),
        }
        fault_section = {
            "journal": str(journal.path) if journal is not None else None,
            "run_id": journal.run_id if journal is not None else None,
            "resumed": resume is not None,
            **execution.fault_summary(),
        }
        trace_snapshot = (
            tracer.as_dict() if tracer is not None else None
        )
        metrics_snapshot = (
            metrics.as_dict() if metrics is not None else None
        )
        manifest = None
        if tracer is not None:
            manifest = self._build_manifest(
                execution.values["graph"],
                n_clusters,
                execution,
                trace_snapshot,
                metrics_snapshot,
                t_sym,
                t_cluster,
                cache_section,
                fault_section,
            )
            if manifest_path is not None:
                append_manifest(manifest, manifest_path)
        avg_f = (
            execution.values.get("average_f")
            if ground_truth is not None
            else None
        )
        return PipelineResult(
            clustering=execution.values["clustering"],
            symmetrized=execution.values["symmetrized"],
            symmetrize_seconds=t_sym,
            cluster_seconds=t_cluster,
            average_f=avg_f,
            warnings=execution.warnings,
            trace=trace_snapshot,
            metrics=metrics_snapshot,
            manifest=manifest,
            cache=cache_section,
            fault_tolerance=fault_section,
        )

    def _build_manifest(
        self,
        graph: DirectedGraph,
        n_clusters: int | None,
        execution: ExecutionResult,
        trace_snapshot: dict[str, Any] | None,
        metrics_snapshot: dict[str, Any] | None,
        t_sym: float,
        t_cluster: float,
        cache_section: dict[str, Any],
        fault_section: dict[str, Any],
    ) -> RunManifest:
        """Assemble the provenance record for one traced run."""
        # average_f is already in the metrics snapshot (set as a
        # gauge during the evaluate span); timings stay durations-only
        # so RunManifest.total_seconds means what it says.
        timings = {
            "symmetrize_seconds": t_sym,
            "cluster_seconds": t_cluster,
        }
        return RunManifest(
            kind="pipeline",
            name=f"{self.symmetrization.name}.{self.clusterer.name}",
            config={
                "symmetrization": self.symmetrization.name,
                "clusterer": self.clusterer.name,
                "threshold": self.threshold,
                "mode": self.mode,
                "n_clusters": n_clusters,
            },
            dataset=fingerprint_graph(graph),
            environment=collect_environment(),
            warnings=[
                {"stage": w.stage, "code": w.code, "message": w.message}
                for w in execution.warnings
            ],
            trace=(trace_snapshot or {}).get("spans", []),
            metrics=metrics_snapshot or {},
            timings=timings,
            cache=cache_section,
            fault_tolerance=fault_section,
        )

    def __repr__(self) -> str:
        return (
            f"SymmetrizeClusterPipeline({self.symmetrization!r}, "
            f"{self.clusterer!r}, threshold={self.threshold}, "
            f"mode={self.mode!r})"
        )
