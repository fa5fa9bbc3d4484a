"""The :class:`Executor`: runs a :class:`~repro.engine.Plan`.

Everything the old ``SymmetrizeClusterPipeline.run`` monolith did
around each stage now lives here, once, for every caller (pipeline
facade, sweeps, experiment runners):

- a tracing span per stage (:mod:`repro.obs.trace`);
- structured warning capture per stage — every
  :class:`~repro.exceptions.ReproWarning` raised inside a stage is
  recorded as a :class:`PipelineWarning` instead of reaching the
  user's warning filters;
- wall-clock timing per stage, optionally recorded into the ambient
  :class:`~repro.perf.PerfRecorder` under the stage's ``perf_tag``;
- validation strictness scoped to the run's mode;
- content-addressed artifact caching for cacheable stages, keyed on
  the input dataset fingerprint plus the stage lineage's canonical
  config hashes, metered as ``cache_hits_total`` /
  ``cache_misses_total``;
- fault tolerance: bounded retries of transient stage failures
  (:class:`~repro.engine.policy.RetryPolicy`), wall/memory budgets per
  stage and per plan (:class:`~repro.engine.policy.Budget`),
  write-ahead journaling of completed stages
  (:class:`~repro.engine.journal.RunJournal`) and journal-directed
  resume (``resume_from=``) that serves previously completed stages
  from the artifact cache instead of re-running them.
"""

from __future__ import annotations

import contextlib
import time
import warnings as _warnings
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.engine.cache import ArtifactCache, current_cache
from repro.engine.chaos import chaos
from repro.engine.journal import (
    JournalReplay,
    RunJournal,
    current_journal,
)
from repro.engine.plan import Plan
from repro.engine.policy import Budget, BudgetMeter, RetryPolicy
from repro.engine.stage import StageContext
from repro.exceptions import (
    BudgetExceeded,
    PipelineError,
    ReproWarning,
)
from repro.graph.digraph import DirectedGraph
from repro.graph.ugraph import UndirectedGraph
from repro.obs.metrics import metric_inc
from repro.obs.trace import span
from repro.perf.stopwatch import record_stage
from repro.validate.invariants import strictness

__all__ = [
    "EXECUTION_MODES",
    "Executor",
    "ExecutionResult",
    "StageExecution",
    "PipelineWarning",
    "capture_stage_warnings",
]

#: Recognized robustness modes (shared with the pipeline facade).
EXECUTION_MODES = ("strict", "lenient")


@dataclass(frozen=True)
class PipelineWarning:
    """One structured warning captured during a run.

    Attributes
    ----------
    stage:
        Which stage emitted it: ``"validate"``, ``"symmetrize"``,
        ``"prune"``, ``"cluster"`` or ``"evaluate"``.
    code:
        Machine-readable identifier from the originating
        :class:`~repro.exceptions.ReproWarning` (e.g.
        ``"all_dangling"``, ``"repaired_weights"``).
    message:
        Human-readable description.
    """

    stage: str
    code: str
    message: str


@contextlib.contextmanager
def capture_stage_warnings(
    stage: str, records: list[PipelineWarning]
) -> Iterator[None]:
    """Record every ReproWarning raised in the block as a structured
    :class:`PipelineWarning`; re-emit third-party warnings untouched."""
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        yield
    for item in caught:
        if isinstance(item.message, ReproWarning):
            records.append(
                PipelineWarning(
                    stage=stage,
                    code=getattr(item.message, "code", "generic"),
                    message=str(item.message),
                )
            )
        else:
            _warnings.warn_explicit(
                item.message, item.category, item.filename, item.lineno
            )


@dataclass(frozen=True)
class StageExecution:
    """What happened to one stage of one run.

    ``cached`` is ``None`` for stages that are not cacheable (or ran
    without a cache), ``True`` for a cache hit and ``False`` for a
    miss that computed and stored the artifact. ``artifact_key`` is
    the content address consulted, when any. ``attempts`` counts every
    execution attempt including the successful one; ``resumed`` marks
    stages served from the cache because a resume journal recorded
    them as already complete.
    """

    stage: str
    seconds: float
    cached: bool | None = None
    artifact_key: str | None = None
    attempts: int = 1
    resumed: bool = False


@dataclass
class ExecutionResult:
    """Everything one plan execution produced."""

    values: dict[str, Any]
    executions: list[StageExecution] = field(default_factory=list)
    warnings: tuple[PipelineWarning, ...] = ()
    scratch: dict[str, Any] = field(default_factory=dict)

    def seconds(self, stage: str) -> float:
        """Total wall time of every execution of ``stage``."""
        return sum(
            e.seconds for e in self.executions if e.stage == stage
        )

    def cache_summary(self) -> dict[str, Any]:
        """The manifest-ready cache section of this run."""
        hits = sum(1 for e in self.executions if e.cached is True)
        misses = sum(1 for e in self.executions if e.cached is False)
        keys = [
            e.artifact_key
            for e in self.executions
            if e.artifact_key is not None
        ]
        return {"hits": hits, "misses": misses, "artifact_keys": keys}

    def fault_summary(self) -> dict[str, Any]:
        """The manifest-ready fault-tolerance section of this run."""
        retries = sum(
            max(0, e.attempts - 1) for e in self.executions
        )
        resumed = sum(1 for e in self.executions if e.resumed)
        return {"stage_retries": retries, "stages_resumed": resumed}


def _fingerprint_sha(value: Any) -> str:
    from repro.obs.manifest import fingerprint_graph

    return fingerprint_graph(value)["sha256"]


class Executor:
    """Runs plans with per-stage validation, tracing and caching.

    Parameters
    ----------
    mode:
        ``"strict"`` (default) or ``"lenient"`` — scoped around the
        whole execution via :func:`repro.validate.strictness`.
    cache:
        The artifact cache to consult for cacheable stages. ``None``
        falls back to the ambient :func:`repro.engine.current_cache`;
        if there is none either, caching is off for the run.
    budgets:
        Optional per-stage :class:`Budget` ceilings keyed by stage
        name. An overrun raises :class:`BudgetExceeded` (never
        retried — budgets are deterministic in the work attempted).
    plan_budget:
        Optional whole-plan :class:`Budget`: cumulative wall clock
        across all stages, and a per-stage allocation-peak ceiling
        for memory (no single stage may allocate beyond it).
    retry:
        Optional :class:`RetryPolicy` for transient stage failures.
        ``None`` (default) disables retries.
    journal:
        The write-ahead :class:`RunJournal` to record progress into.
        ``None`` falls back to the ambient
        :func:`repro.engine.current_journal`; if there is none either,
        journaling is off.
    resume_from:
        A :class:`JournalReplay` of a previous (interrupted) run:
        stages it records as complete are served from the artifact
        cache without re-running, counted in
        ``resume_stages_skipped``.
    """

    def __init__(
        self,
        mode: str = "strict",
        cache: ArtifactCache | None = None,
        budgets: dict[str, Budget] | None = None,
        plan_budget: Budget | None = None,
        retry: RetryPolicy | None = None,
        journal: RunJournal | None = None,
        resume_from: JournalReplay | None = None,
    ) -> None:
        if mode not in EXECUTION_MODES:
            raise PipelineError(
                f"unknown execution mode {mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        self.mode = mode
        self._cache = cache
        self.budgets = dict(budgets or {})
        self.plan_budget = plan_budget
        self.retry = retry
        self._journal = journal
        self.resume_from = resume_from

    @property
    def cache(self) -> ArtifactCache | None:
        """The effective cache (explicit, else ambient, else none)."""
        return self._cache if self._cache is not None else (
            current_cache()
        )

    @property
    def journal(self) -> RunJournal | None:
        """The effective journal (explicit, else ambient, else none)."""
        return self._journal if self._journal is not None else (
            current_journal()
        )

    def execute(
        self,
        plan: Plan,
        values: dict[str, Any],
        dataset_sha: str | None = None,
    ) -> ExecutionResult:
        """Run ``plan`` over initial ``values``.

        Parameters
        ----------
        plan:
            The stage graph to execute.
        values:
            Initial value namespace; must cover ``plan.initial``.
        dataset_sha:
            Pre-computed content fingerprint of the plan's input
            graph. When omitted it is derived (lazily, only if a
            cacheable stage actually runs with a cache installed) from
            the first graph-like initial value.
        """
        missing = [k for k in plan.initial if k not in values]
        if missing:
            raise PipelineError(
                f"plan {plan.name!r} expects initial values {missing}"
            )
        values = dict(values)
        records: list[PipelineWarning] = []
        executions: list[StageExecution] = []
        cache = self.cache
        journal = self.journal
        ctx = StageContext(mode=self.mode)
        plan_wall = 0.0
        with strictness(self.mode == "strict"):
            for index, stage in enumerate(plan.stages):
                if dataset_sha is None and cache is not None and (
                    stage.cacheable
                ):
                    dataset_sha = self._dataset_sha(plan, values)
                if journal is not None:
                    journal.ensure_started(
                        kind="plan",
                        name=plan.name,
                        dataset_sha=dataset_sha or "",
                        mode=self.mode,
                        config={
                            "stages": [s.name for s in plan.stages]
                        },
                    )
                execution = self._run_stage(
                    plan, index, stage, ctx, values, records,
                    cache, dataset_sha, journal,
                )
                executions.append(execution)
                plan_wall += execution.seconds
                if self.plan_budget is not None:
                    self.plan_budget.check_wall("plan", plan_wall)
        return ExecutionResult(
            values=values,
            executions=executions,
            warnings=tuple(records),
            scratch=ctx.scratch,
        )

    def _dataset_sha(
        self, plan: Plan, values: dict[str, Any]
    ) -> str:
        for name in plan.initial:
            value = values.get(name)
            if isinstance(value, (DirectedGraph, UndirectedGraph)):
                return _fingerprint_sha(value)
        raise PipelineError(
            f"plan {plan.name!r} has no graph-like initial value to "
            "fingerprint for the artifact cache"
        )

    def _budget_state(self, stage_name: str) -> dict[str, Any]:
        budget = self.budgets.get(stage_name)
        state: dict[str, Any] = {}
        if budget is not None:
            state["stage"] = {
                "wall_s": budget.wall_s,
                "mem_bytes": budget.mem_bytes,
            }
        if self.plan_budget is not None:
            state["plan"] = {
                "wall_s": self.plan_budget.wall_s,
                "mem_bytes": self.plan_budget.mem_bytes,
            }
        return state

    def _run_stage(
        self,
        plan: Plan,
        index: int,
        stage: Any,
        ctx: StageContext,
        values: dict[str, Any],
        records: list[PipelineWarning],
        cache: ArtifactCache | None,
        dataset_sha: str | None,
        journal: RunJournal | None,
    ) -> StageExecution:
        use_cache = (
            cache is not None
            and stage.cacheable
            and dataset_sha is not None
            and len(stage.outputs) == 1
        )
        key = (
            plan.artifact_key(dataset_sha, index, mode=self.mode)
            if use_cache
            else None
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                execution = self._attempt_stage(
                    plan, index, stage, ctx, values, records,
                    cache, key, dataset_sha, attempt,
                )
            except BudgetExceeded as exc:
                # Deterministic in the work attempted: never retried.
                if journal is not None:
                    journal.record_attempt_failure(
                        plan.name, stage.name, attempt, exc,
                        budget=self._budget_state(stage.name),
                        fatal=True,
                    )
                raise
            except Exception as exc:
                policy = self.retry
                if policy is not None and policy.should_retry(
                    exc, attempt
                ):
                    if journal is not None:
                        journal.record_attempt_failure(
                            plan.name, stage.name, attempt, exc,
                            budget=self._budget_state(stage.name),
                        )
                    records.append(
                        PipelineWarning(
                            stage=stage.name,
                            code="stage_retried",
                            message=(
                                f"stage {stage.name!r} attempt "
                                f"{attempt} failed "
                                f"({type(exc).__name__}: {exc}); "
                                "retrying"
                            ),
                        )
                    )
                    metric_inc("stage_retries_total")
                    time.sleep(
                        policy.delay(
                            attempt,
                            token=f"{plan.name}:{stage.name}",
                        )
                    )
                    continue
                if journal is not None:
                    journal.record_attempt_failure(
                        plan.name, stage.name, attempt, exc,
                        budget=self._budget_state(stage.name),
                        fatal=True,
                    )
                raise
            if journal is not None:
                journal.record_stage(
                    plan.name,
                    index,
                    stage.name,
                    key,
                    execution.seconds,
                    attempt,
                )
            return execution

    def _attempt_stage(
        self,
        plan: Plan,
        index: int,
        stage: Any,
        ctx: StageContext,
        values: dict[str, Any],
        records: list[PipelineWarning],
        cache: ArtifactCache | None,
        key: str | None,
        dataset_sha: str | None,
        attempt: int,
    ) -> StageExecution:
        stage_budget = self.budgets.get(stage.name)
        plan_mem = (
            self.plan_budget.mem_bytes
            if self.plan_budget is not None
            else None
        )
        mem_limits = [
            limit
            for limit in (
                stage_budget.mem_bytes if stage_budget else None,
                plan_mem,
            )
            if limit is not None
        ]
        meter = BudgetMeter(
            Budget(
                wall_s=(
                    stage_budget.wall_s if stage_budget else None
                ),
                mem_bytes=min(mem_limits) if mem_limits else None,
            ),
            scope=stage.name,
        )
        cached: bool | None = None
        resumed = False
        t0 = time.perf_counter()
        with span(stage.name) as sp_, capture_stage_warnings(
            stage.name, records
        ):
            chaos(f"stage:{stage.name}")
            outputs = None
            if key is not None:
                artifact = cache.get(key)
                if artifact is not None:
                    outputs = {stage.outputs[0]: artifact}
                    cached = True
                    if (
                        self.resume_from is not None
                        and key in self.resume_from.completed_stages
                    ):
                        resumed = True
                        metric_inc("resume_stages_skipped")
                        sp_.set(resumed=True)
                    sp_.set(cache="hit", artifact_key=key[:16])
            if outputs is None:
                with meter:
                    outputs = stage.run(ctx, values)
                if stage_budget is not None:
                    stage_budget.check_wall(
                        stage.name, meter.seconds
                    )
                    stage_budget.check_mem(
                        stage.name, meter.peak_bytes
                    )
                if plan_mem is not None:
                    self.plan_budget.check_mem(
                        "plan", meter.peak_bytes
                    )
                if key is not None:
                    cached = False
                    cache.put(
                        key,
                        outputs[stage.outputs[0]],
                        meta={
                            "plan": plan.name,
                            "mode": self.mode,
                            "dataset_sha": dataset_sha,
                            "lineage": [
                                s.config()
                                for s in plan.stages[: index + 1]
                            ],
                        },
                    )
                    sp_.set(cache="miss", artifact_key=key[:16])
        seconds = time.perf_counter() - t0
        if stage.perf_tag is not None:
            record_stage(
                stage.perf_tag,
                seconds,
                **stage.counters(values, outputs),
            )
        values.update(outputs)
        return StageExecution(
            stage=stage.name,
            seconds=seconds,
            cached=cached,
            artifact_key=key,
            attempts=attempt,
            resumed=resumed,
        )
