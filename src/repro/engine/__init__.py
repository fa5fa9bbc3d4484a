"""Stage-graph execution engine with a content-addressed artifact cache.

The paper's framework is explicitly staged — symmetrize (§3),
optionally prune (§3.5–3.6), then cluster (§4) and evaluate (§4.3) —
and its experiment grids re-run the cheap later stages many times over
the same expensive stage-1 artifact. This package factors that
structure out of the former ``SymmetrizeClusterPipeline.run`` monolith
into composable parts:

- :class:`~repro.engine.stage.Stage` — one transformation with
  declared inputs/outputs, a JSON-serializable config and a stable
  ``fingerprint()`` (:mod:`~repro.engine.stages` has the concrete
  symmetrize / prune / cluster / evaluate stages);
- :class:`~repro.engine.plan.Plan` — an ordered, wiring-checked
  composition of stages defining each artifact's cache lineage;
- :class:`~repro.engine.executor.Executor` — runs a plan with
  per-stage validation strictness, tracing spans, structured warning
  capture, timing and artifact caching;
- :class:`~repro.engine.cache.ArtifactCache` — memory + on-disk
  content-addressed artifact store, keyed on the dataset's sha256
  fingerprint plus the canonical config hash of the stage lineage,
  with an ambient installer (:func:`artifact_cache`) that sweeps and
  experiment runners pick up automatically.

The fault-tolerant runtime layers on top:

- :class:`~repro.engine.policy.Budget` /
  :class:`~repro.engine.policy.RetryPolicy` — per-stage and per-plan
  resource ceilings and bounded retry of transient failures with
  deterministic-jitter backoff;
- :class:`~repro.engine.journal.RunJournal` — a crash-safe
  write-ahead journal of completed stages and sweep points, with an
  ambient installer (:func:`run_journal`) mirroring the cache's;
  :class:`~repro.engine.journal.JournalReplay` feeds
  ``Executor(resume_from=...)`` and ``sweep_*(..., resume=...)`` so an
  interrupted run recomputes only its unfinished tail;
- :class:`~repro.engine.pool.WorkerPool` — a crash-tolerant process
  pool, one per sharded kernel call, with lost payloads re-executed
  in-process;
- :mod:`~repro.engine.chaos` — deterministic fault injection
  (:func:`inject_faults`) for proving the recovery paths work.

See ``docs/architecture.md`` for the full design and keying scheme,
and ``docs/robustness.md`` for the fault-tolerance contract.
"""

from repro.engine.cache import (
    ARTIFACT_KEY_VERSION,
    ArtifactCache,
    artifact_cache,
    artifact_key,
    canonical_json,
    config_hash,
    current_cache,
    default_cache_dir,
)
from repro.engine.executor import (
    EXECUTION_MODES,
    ExecutionResult,
    Executor,
    PipelineWarning,
    StageExecution,
    capture_stage_warnings,
)
from repro.engine.chaos import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    current_faults,
    inject_faults,
)
from repro.engine.journal import (
    JOURNAL_SCHEMA,
    JournalReplay,
    JournalTailer,
    RunJournal,
    current_journal,
    point_key,
    read_journal,
    run_journal,
)
from repro.engine.ambient import AmbientState, ambient_scope
from repro.engine.plan import Plan
from repro.engine.policy import Budget, BudgetMeter, RetryPolicy
from repro.engine.pool import WorkerPool
from repro.engine.stage import Stage, StageContext
from repro.engine.stages import (
    ClusterStage,
    EvaluateStage,
    PruneStage,
    PruneToDegreeStage,
    SymmetrizeStage,
    ValidateInputStage,
)

__all__ = [
    # cache
    "ARTIFACT_KEY_VERSION",
    "ArtifactCache",
    "artifact_cache",
    "current_cache",
    "artifact_key",
    "config_hash",
    "canonical_json",
    "default_cache_dir",
    # ambient scope
    "AmbientState",
    "ambient_scope",
    # stage graph
    "Stage",
    "StageContext",
    "Plan",
    # executor
    "Executor",
    "ExecutionResult",
    "StageExecution",
    "PipelineWarning",
    "capture_stage_warnings",
    "EXECUTION_MODES",
    # concrete stages
    "ValidateInputStage",
    "SymmetrizeStage",
    "PruneStage",
    "PruneToDegreeStage",
    "ClusterStage",
    "EvaluateStage",
    # policies
    "Budget",
    "BudgetMeter",
    "RetryPolicy",
    # worker pool
    "WorkerPool",
    # journal / resume
    "JOURNAL_SCHEMA",
    "RunJournal",
    "JournalReplay",
    "JournalTailer",
    "run_journal",
    "current_journal",
    "read_journal",
    "point_key",
    # chaos harness
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "inject_faults",
    "current_faults",
]
