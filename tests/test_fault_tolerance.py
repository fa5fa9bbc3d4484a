"""Tests for the fault-tolerant execution runtime.

Covers the write-ahead run journal and resume, plan budgets and
retry policies, cache-corruption recovery, lenient sweep degradation
and the ``repro runs show --failures`` / ``repro sweep`` / ``repro
resume`` CLI — all driven through the chaos harness
(:mod:`repro.engine.chaos`), so every recovery path is exercised
against the *injected* failure it exists for.

The ``chaos_smoke`` marker tags the seconds-scale subset CI runs as a
dedicated job (``pytest -m chaos_smoke``); the unmarked tests add the
process-level scenarios (SIGKILL mid-sweep).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.engine import (
    ArtifactCache,
    Budget,
    Executor,
    Fault,
    FaultPlan,
    JournalReplay,
    Plan,
    RetryPolicy,
    RunJournal,
    SymmetrizeStage,
    ValidateInputStage,
    inject_faults,
    read_journal,
)
from repro.engine.chaos import chaos, current_faults
from repro.eval.groundtruth import GroundTruth
from repro.exceptions import (
    BudgetExceeded,
    ExecutionWarning,
    FaultInjected,
    ReproError,
    TransientError,
)
from repro.graph.generators import power_law_digraph
from repro.graph.io import write_edge_list
from repro.obs import metrics_active, read_manifests
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.pipeline.sweep import (
    SweepPoint,
    aggregate_average_f,
    sweep_n_clusters,
)


def _sym_plan(threshold: float = 0.0) -> Plan:
    return Plan(
        [
            ValidateInputStage(),
            SymmetrizeStage("naive", threshold=threshold),
        ],
        initial=("graph",),
    )


# ---------------------------------------------------------------------------
# Chaos harness primitives
# ---------------------------------------------------------------------------


@pytest.mark.chaos_smoke
class TestChaosHarness:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            Fault(site="x", kind="meteor")

    def test_bad_indices_rejected(self):
        with pytest.raises(ReproError, match="at and .*times"):
            Fault(site="x", at=0)
        with pytest.raises(ReproError, match="at and .*times"):
            Fault(site="x", times=0)

    def test_armed_window(self):
        fault = Fault(site="x", at=2, times=3)
        assert [fault.armed_for(i) for i in range(1, 7)] == [
            False, True, True, True, False, False,
        ]

    def test_raise_kind_fires_on_nth_call(self):
        plan = FaultPlan([Fault(site="s", at=2)])
        assert plan.hit("s") is None
        with pytest.raises(FaultInjected, match="injected raise"):
            plan.hit("s")
        assert plan.seen("s") == 2
        assert plan.triggered_count("s") == 1
        assert plan.triggered_count() == 1

    def test_enospc_kind_raises_full_disk(self):
        plan = FaultPlan([Fault(site="disk", kind="enospc")])
        with pytest.raises(OSError) as info:
            plan.hit("disk")
        import errno

        assert info.value.errno == errno.ENOSPC

    def test_flag_kinds_are_returned_not_raised(self):
        plan = FaultPlan([Fault(site="c", kind="corrupt")])
        assert plan.hit("c").kind == "corrupt"
        assert plan.triggered_count() == 1

    def test_chaos_is_noop_without_plan(self):
        assert current_faults() is None
        assert chaos("anything") is None

    def test_inject_faults_accepts_bare_list(self):
        with inject_faults([Fault(site="s")]) as plan:
            assert current_faults() is plan
            with pytest.raises(FaultInjected):
                chaos("s")
        assert current_faults() is None

    def test_sites_are_exact_match(self):
        plan = FaultPlan([Fault(site="stage:cluster")])
        assert plan.hit("stage:clustering") is None
        assert plan.triggered_count() == 0


@pytest.mark.chaos_smoke
class TestTaxonomy:
    def test_transient_hierarchy(self):
        assert issubclass(TransientError, ReproError)
        assert issubclass(FaultInjected, TransientError)

    def test_budget_exceeded_is_structured(self):
        exc = BudgetExceeded("symmetrize", "wall_s", 1.0, 2.5)
        assert exc.scope == "symmetrize"
        assert exc.resource == "wall_s"
        assert exc.limit == 1.0 and exc.spent == 2.5
        assert "symmetrize" in str(exc) and "wall_s" in str(exc)

    def test_execution_warning_carries_code(self):
        warning = ExecutionWarning("x", code="stage_retried")
        assert warning.code == "stage_retried"
        assert ExecutionWarning("y").code == "execution"

    def test_default_retry_policy_scope(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(TransientError("x"), 1)
        assert policy.should_retry(FaultInjected("x"), 2)
        assert not policy.should_retry(TransientError("x"), 3)
        assert not policy.should_retry(ReproError("x"), 1)
        assert not policy.should_retry(ValueError("x"), 1)

    def test_deterministic_jitter(self):
        policy = RetryPolicy(
            backoff_s=0.1, backoff_factor=2.0, jitter=0.1
        )
        assert policy.delay(1, token="a") == policy.delay(
            1, token="a"
        )
        assert policy.delay(1, token="a") != policy.delay(
            1, token="b"
        )
        assert 0.09 <= policy.delay(1, token="a") <= 0.11
        assert 0.18 <= policy.delay(2, token="a") <= 0.22
        exact = RetryPolicy(backoff_s=0.1, jitter=0.0)
        assert exact.delay(1) == pytest.approx(0.1)
        capped = RetryPolicy(
            backoff_s=1.0, max_backoff_s=1.5, jitter=0.0
        )
        assert capped.delay(5) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Stage retries and budgets
# ---------------------------------------------------------------------------


@pytest.mark.chaos_smoke
class TestStageRetry:
    def test_transient_fault_is_retried(self, rng):
        graph = power_law_digraph(60, rng)
        fault = Fault(site="stage:symmetrize")
        policy = RetryPolicy(max_attempts=3, backoff_s=0.001)
        with metrics_active() as reg, inject_faults([fault]) as plan:
            result = Executor(retry=policy).execute(
                _sym_plan(), {"graph": graph}
            )
        sym = [
            e for e in result.executions if e.stage == "symmetrize"
        ][0]
        assert sym.attempts == 2
        assert plan.triggered_count("stage:symmetrize") == 1
        assert reg.counters["stage_retries_total"] == 1
        assert "stage_retried" in [w.code for w in result.warnings]
        assert result.fault_summary() == {
            "stage_retries": 1,
            "stages_resumed": 0,
        }
        assert result.values["symmetrized"].n_edges > 0

    def test_exhausted_retries_propagate(self, rng):
        graph = power_law_digraph(40, rng)
        fault = Fault(site="stage:symmetrize", times=5)
        policy = RetryPolicy(max_attempts=2, backoff_s=0.001)
        with inject_faults([fault]), pytest.raises(FaultInjected):
            Executor(retry=policy).execute(
                _sym_plan(), {"graph": graph}
            )

    def test_non_transient_errors_not_retried(self, rng):
        graph = power_law_digraph(40, rng)
        fault = Fault(site="stage:symmetrize", exc=ReproError)
        policy = RetryPolicy(max_attempts=5, backoff_s=0.001)
        with inject_faults([fault]) as plan:
            with pytest.raises(ReproError):
                Executor(retry=policy).execute(
                    _sym_plan(), {"graph": graph}
                )
        assert plan.seen("stage:symmetrize") == 1  # single attempt

    def test_no_policy_means_no_retry(self, rng):
        graph = power_law_digraph(40, rng)
        with inject_faults([Fault(site="stage:symmetrize")]):
            with pytest.raises(FaultInjected):
                Executor().execute(_sym_plan(), {"graph": graph})

    def test_failed_attempts_are_journaled(self, tmp_path, rng):
        graph = power_law_digraph(40, rng)
        jpath = tmp_path / "j.jsonl"
        fault = Fault(site="stage:symmetrize")
        policy = RetryPolicy(max_attempts=2, backoff_s=0.001)
        with inject_faults([fault]):
            Executor(
                retry=policy, journal=RunJournal(jpath)
            ).execute(_sym_plan(), {"graph": graph})
        replay = JournalReplay.from_path(jpath)
        assert len(replay.failures) == 1
        record = replay.failures[0]
        assert record["stage"] == "symmetrize"
        assert record["attempt"] == 1
        assert record["error"] == "FaultInjected"
        assert record["fatal"] is False


@pytest.mark.chaos_smoke
class TestBudgets:
    def test_stage_wall_overrun(self, tmp_path, rng, capsys):
        # The plan's wall clock runs out on its first stage, and the
        # journal says so: a fatal failure record naming that stage,
        # in place of its stage_done.
        graph = power_law_digraph(60, rng)
        jpath = tmp_path / "j.jsonl"
        with pytest.raises(BudgetExceeded) as info:
            Executor(
                plan_budget=Budget(wall_s=0.0),
                journal=RunJournal(jpath),
            ).execute(_sym_plan(), {"graph": graph})
        assert info.value.scope == "plan"
        assert info.value.resource == "wall_s"
        assert info.value.spent > info.value.limit == 0.0
        records = read_journal(jpath)
        assert [r["type"] for r in records] == [
            "run_start", "stage_attempt_failed",
        ]
        failure = records[1]
        assert failure["stage"] == "validate"
        assert failure["error"] == "BudgetExceeded"
        assert failure["fatal"] is True
        assert failure["budget"] == {
            "plan": {"wall_s": 0.0, "mem_bytes": None}
        }
        assert (
            main(["runs", "show", str(jpath), "--failures"]) == 0
        )
        out = capsys.readouterr().out
        assert "stage=validate" in out
        assert "[fatal] BudgetExceeded" in out

    def test_stage_mem_overrun(self, rng):
        graph = power_law_digraph(60, rng)
        with pytest.raises(BudgetExceeded) as info:
            Executor(plan_budget=Budget(mem_bytes=1)).execute(
                _sym_plan(), {"graph": graph}
            )
        assert info.value.scope == "plan"
        assert info.value.resource == "mem_bytes"
        assert info.value.spent > 1

    def test_plan_wall_is_cumulative(self, tmp_path, rng):
        # Each stage fits the budget alone; the two together do not,
        # so the plan runs out on the second stage.
        graph = power_law_digraph(60, rng)
        jpath = tmp_path / "j.jsonl"
        slow = [
            Fault(site=f"stage:{name}", kind="sleep", sleep_s=0.4)
            for name in ("validate", "symmetrize")
        ]
        with inject_faults(slow), pytest.raises(BudgetExceeded) as info:
            Executor(
                plan_budget=Budget(wall_s=0.7),
                journal=RunJournal(jpath),
            ).execute(_sym_plan(), {"graph": graph})
        assert info.value.scope == "plan"
        assert info.value.spent >= 0.8
        records = read_journal(jpath)
        assert [r["type"] for r in records] == [
            "run_start", "stage_done", "stage_attempt_failed",
        ]
        assert records[1]["stage"] == "validate"
        assert records[2]["stage"] == "symmetrize"

    def test_unlimited_budget_is_free(self, rng):
        graph = power_law_digraph(60, rng)
        assert Budget().unlimited
        result = Executor(plan_budget=Budget()).execute(
            _sym_plan(), {"graph": graph}
        )
        assert result.values["symmetrized"].n_edges > 0

    def test_overrun_never_retried_and_journaled_fatal(
        self, tmp_path, rng
    ):
        # BudgetExceeded is a ReproError; even a policy that retries
        # every ReproError must not see it — overruns take the
        # deterministic-failure path before the retry loop.
        graph = power_law_digraph(60, rng)
        jpath = tmp_path / "j.jsonl"
        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.001, retryable=(ReproError,)
        )
        with pytest.raises(BudgetExceeded):
            Executor(
                plan_budget=Budget(wall_s=0.0),
                retry=policy,
                journal=RunJournal(jpath),
            ).execute(_sym_plan(), {"graph": graph})
        replay = JournalReplay.from_path(jpath)
        assert len(replay.failures) == 1
        record = replay.failures[0]
        assert record["error"] == "BudgetExceeded"
        assert record["fatal"] is True
        assert record["budget"]["plan"]["wall_s"] == 0.0


# ---------------------------------------------------------------------------
# The write-ahead journal
# ---------------------------------------------------------------------------


@pytest.mark.chaos_smoke
class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        journal = RunJournal(jpath)
        journal.start("sweep", "grid", "ab" * 8, "strict", {"k": 3})
        journal.record_stage("p", 0, "symmetrize", "key1", 0.5, 1)
        journal.record_point("pk1", 3, {"n_clusters": 3})
        journal.finish()
        journal.close()
        records = read_journal(jpath)
        assert [r["type"] for r in records] == [
            "run_start", "stage_done", "point_done", "run_end",
        ]
        assert all(r["run_id"] == journal.run_id for r in records)
        assert journal.records_written == 4

    def test_run_id_is_deterministic(self, tmp_path):
        args = ("sweep", "grid", "ab" * 8, "strict", {"k": 3})
        first = RunJournal(tmp_path / "a.jsonl").start(*args)
        second = RunJournal(tmp_path / "b.jsonl").start(*args)
        assert first == second
        other = RunJournal(tmp_path / "c.jsonl").start(
            "sweep", "grid", "ab" * 8, "strict", {"k": 4}
        )
        assert other != first

    def test_start_is_idempotent(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        run_id = journal.start("plan", "p", "", "strict")
        assert journal.start("plan", "p", "", "strict") == run_id
        journal.close()
        starts = [
            r
            for r in read_journal(journal.path)
            if r["type"] == "run_start"
        ]
        assert len(starts) == 1

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        journal = RunJournal(jpath)
        journal.start("plan", "p", "", "strict")
        journal.record_stage("p", 0, "s", "k", 0.1, 1)
        journal.close()
        with jpath.open("a") as handle:
            handle.write('{"schema": "repro-journal/v1", "typ')
        with pytest.warns(
            ExecutionWarning, match="partial trailing"
        ):
            records = read_journal(jpath)
        assert len(records) == 2

    def test_mid_file_corruption_raises(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        journal = RunJournal(jpath)
        journal.start("plan", "p", "", "strict")
        journal.close()
        good = jpath.read_text()
        jpath.write_text(good + "garbage not json\n" + good)
        with pytest.raises(ReproError, match="malformed"):
            read_journal(jpath)

    def test_unknown_schema_raises(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        jpath.write_text(
            json.dumps({"schema": "repro-journal/v999"}) + "\n"
        )
        with pytest.raises(ReproError, match="unsupported"):
            read_journal(jpath)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            read_journal(tmp_path / "missing.jsonl")

    def test_enospc_disables_journal_not_run(self, tmp_path, rng):
        graph = power_law_digraph(40, rng)
        journal = RunJournal(tmp_path / "j.jsonl")
        fault = Fault(site="journal.append", kind="enospc", at=2)
        with metrics_active() as reg, inject_faults([fault]):
            with pytest.warns(ExecutionWarning, match="disabled"):
                result = Executor(journal=journal).execute(
                    _sym_plan(), {"graph": graph}
                )
        # The run itself survived the full disk ...
        assert result.values["symmetrized"].n_edges > 0
        # ... journaling stopped at the failed append and stayed off.
        assert journal.disabled
        assert not journal.append({"type": "run_end"})
        assert (
            reg.counters["journal_write_failures_total"] == 1
        )
        records = read_journal(journal.path)
        assert [r["type"] for r in records] == ["run_start"]

    def test_replay_indexes_and_filters_by_run(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        first = RunJournal(jpath, run_id="run-a")
        first.start("sweep", "grid", "", "strict")
        first.record_stage("p", 0, "s", "key-a", 0.1, 1)
        first.record_point("pk-a", 1, {"n_clusters": 2})
        first.finish()
        first.close()
        second = RunJournal(jpath, run_id="run-b")
        second.start("sweep", "grid", "", "strict")
        second.record_point("pk-b", 2, {"n_clusters": 4})
        second.close()
        replay = JournalReplay.from_path(jpath)  # first run wins
        assert replay.run_id == "run-a"
        assert replay.completed_stages == {"key-a"}
        assert replay.point("pk-a") == {"n_clusters": 2}
        assert replay.point("pk-b") is None
        assert replay.finished
        assert len(replay) == 2
        other = JournalReplay.from_path(jpath, run_id="run-b")
        assert other.point("pk-b") == {"n_clusters": 4}
        assert not other.finished


# ---------------------------------------------------------------------------
# Resume: executor stage level and sweep point level
# ---------------------------------------------------------------------------


class TestResume:
    def test_executor_resume_serves_journaled_stages(
        self, tmp_path, rng
    ):
        graph = power_law_digraph(80, rng)
        cache = ArtifactCache(directory=tmp_path / "cache")
        jpath = tmp_path / "j.jsonl"
        cold = Executor(
            cache=cache, journal=RunJournal(jpath)
        ).execute(_sym_plan(), {"graph": graph})
        replay = JournalReplay.from_path(jpath)
        assert replay.completed_stages
        with metrics_active() as reg:
            warm = Executor(
                cache=cache, resume_from=replay
            ).execute(_sym_plan(), {"graph": graph})
        sym = [
            e for e in warm.executions if e.stage == "symmetrize"
        ][0]
        assert sym.resumed and sym.cached
        assert reg.counters["resume_stages_skipped"] == 1
        assert warm.fault_summary()["stages_resumed"] == 1
        a = cold.values["symmetrized"].adjacency
        b = warm.values["symmetrized"].adjacency
        assert (a != b).nnz == 0  # differential: identical artifact

    def test_interrupted_sweep_resumes_identically(
        self, tmp_path, rng
    ):
        graph = power_law_digraph(100, rng)
        counts = [3, 4, 5]
        reference = sweep_n_clusters(graph, "naive", "metis", counts)
        jpath = tmp_path / "j.jsonl"
        journal = RunJournal(jpath)
        # Abort the sweep after its second recorded point.
        fault = Fault(site="sweep.point", at=2, exc=RuntimeError)
        with inject_faults([fault]), pytest.raises(RuntimeError):
            sweep_n_clusters(
                graph, "naive", "metis", counts, journal=journal
            )
        journal.close()
        replay = JournalReplay.from_path(jpath)
        assert len(replay.completed_points) == 2
        assert not replay.finished
        with metrics_active() as reg:
            resumed = sweep_n_clusters(
                graph, "naive", "metis", counts, resume=replay
            )
        assert reg.counters["resume_points_skipped"] == 2
        assert [p.resumed for p in resumed] == [True, True, False]
        for ref, res in zip(reference, resumed):
            assert ref.parameter == res.parameter
            assert ref.n_clusters == res.n_clusters
            assert ref.n_edges == res.n_edges
            assert ref.average_f == res.average_f

    def test_point_key_tracks_lineage_and_mode(self):
        from repro.engine import point_key

        base = point_key("sha", ["fp1", "fp2"], 4, "strict")
        assert base == point_key("sha", ["fp1", "fp2"], 4, "strict")
        assert base != point_key("sha2", ["fp1", "fp2"], 4, "strict")
        assert base != point_key("sha", ["fp1", "fpX"], 4, "strict")
        assert base != point_key("sha", ["fp1", "fp2"], 5, "strict")
        assert base != point_key("sha", ["fp1", "fp2"], 4, "lenient")

    def test_sigkill_mid_sweep_resume_differential(self, tmp_path):
        """The acceptance scenario: SIGKILL a sweep mid-grid, resume
        from its journal, and get results identical to an
        uninterrupted run."""
        jpath = tmp_path / "j.jsonl"
        script = textwrap.dedent(
            f"""
            import numpy as np
            from repro.engine import Fault, RunJournal, inject_faults
            from repro.graph.generators import power_law_digraph
            from repro.pipeline.sweep import sweep_n_clusters

            graph = power_law_digraph(
                120, np.random.default_rng(7)
            )
            journal = RunJournal({str(jpath)!r})
            fault = Fault(
                site="sweep.point", kind="kill_process", at=2
            )
            with inject_faults([fault]):
                sweep_n_clusters(
                    graph, "naive", "metis", [3, 4, 5],
                    journal=journal,
                )
            raise SystemExit("unreachable: fault did not fire")
            """
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = (
            src + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        replay = JournalReplay.from_path(jpath)
        assert len(replay.completed_points) == 2
        assert not replay.finished
        graph = power_law_digraph(120, np.random.default_rng(7))
        resumed = sweep_n_clusters(
            graph, "naive", "metis", [3, 4, 5], resume=replay
        )
        clean = sweep_n_clusters(graph, "naive", "metis", [3, 4, 5])
        assert [p.resumed for p in resumed] == [True, True, False]
        for a, b in zip(clean, resumed):
            assert a.parameter == b.parameter
            assert a.n_clusters == b.n_clusters
            assert a.n_edges == b.n_edges


# ---------------------------------------------------------------------------
# Lenient sweeps degrade per-point failures
# ---------------------------------------------------------------------------


class TestLenientSweep:
    def test_failed_point_degrades_not_aborts(self, rng):
        graph = power_law_digraph(100, rng)
        counts = [3, 4, 5]
        truth = GroundTruth.from_labels(
            np.arange(graph.n_nodes) % 3
        )
        fault = Fault(site="stage:cluster", at=2)
        with metrics_active() as reg, inject_faults([fault]):
            with pytest.warns(ExecutionWarning, match="skipped"):
                points = sweep_n_clusters(
                    graph,
                    "naive",
                    "metis",
                    counts,
                    ground_truth=truth,
                    mode="lenient",
                )
        assert [p.parameter for p in points] == counts
        failed = [p for p in points if p.failed]
        assert len(failed) == 1
        assert failed[0].parameter == 4
        assert failed[0].warning_code == "point_failed"
        assert "FaultInjected" in failed[0].error
        assert failed[0].average_f is None
        assert reg.counters["sweep_points_failed_total"] == 1
        survivors = [p for p in points if not p.failed]
        expected = sum(p.average_f for p in survivors) / len(
            survivors
        )
        assert aggregate_average_f(points) == pytest.approx(
            expected
        )

    def test_strict_sweep_propagates(self, rng):
        graph = power_law_digraph(80, rng)
        fault = Fault(site="stage:cluster", at=2)
        with inject_faults([fault]), pytest.raises(FaultInjected):
            sweep_n_clusters(graph, "naive", "metis", [3, 4, 5])

    def test_failed_points_replay_on_resume(self, tmp_path, rng):
        # A resumed sweep must reproduce what the first run saw —
        # including its recorded failures — not silently retry them.
        graph = power_law_digraph(80, rng)
        jpath = tmp_path / "j.jsonl"
        journal = RunJournal(jpath)
        fault = Fault(site="stage:cluster", at=2)
        with inject_faults([fault]):
            with pytest.warns(ExecutionWarning, match="skipped"):
                first = sweep_n_clusters(
                    graph,
                    "naive",
                    "metis",
                    [3, 4, 5],
                    mode="lenient",
                    journal=journal,
                )
        journal.close()
        replay = JournalReplay.from_path(jpath)
        resumed = sweep_n_clusters(
            graph,
            "naive",
            "metis",
            [3, 4, 5],
            mode="lenient",
            resume=replay,
        )
        assert all(p.resumed for p in resumed)
        assert [p.failed for p in resumed] == [
            p.failed for p in first
        ]
        assert resumed[1].failed
        assert resumed[1].error == first[1].error

    def test_aggregate_excludes_failed_points(self):
        points = [
            SweepPoint(2, 2, 40.0, 0.0, 10),
            SweepPoint(3, 3, 60.0, 0.0, 10),
            SweepPoint(
                4, 0, None, 0.0, 0,
                failed=True, error="x",
                warning_code="point_failed",
            ),
        ]
        assert aggregate_average_f(points) == pytest.approx(50.0)
        assert aggregate_average_f([points[2]]) is None
        assert aggregate_average_f([]) is None


# ---------------------------------------------------------------------------
# Cache hardening: atomic pairs, orphans, corruption
# ---------------------------------------------------------------------------


class TestCacheHardening:
    def _store_one(self, tmp_path, rng):
        graph = power_law_digraph(40, rng)
        cache = ArtifactCache(directory=tmp_path / "cache")
        result = Executor(cache=cache).execute(
            _sym_plan(), {"graph": graph}
        )
        key = [
            e.artifact_key
            for e in result.executions
            if e.artifact_key is not None
        ][0]
        return graph, cache, key

    def test_disk_put_writes_atomic_pair(self, tmp_path, rng):
        _graph, cache, key = self._store_one(tmp_path, rng)
        entry = cache._entry_dir(key)
        assert sorted(p.name for p in entry.iterdir()) == [
            "artifact.npz", "meta.json",
        ]  # no .tmp leftovers
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["key"] == key
        assert meta["nnz"] > 0

    def test_orphan_meta_is_dropped_as_miss(self, tmp_path, rng):
        _graph, cache, key = self._store_one(tmp_path, rng)
        entry = cache._entry_dir(key)
        (entry / "artifact.npz").unlink()
        fresh = ArtifactCache(directory=tmp_path / "cache")
        with metrics_active() as reg:
            with pytest.warns(ExecutionWarning, match="orphan"):
                assert fresh.get(key) is None
        assert not entry.exists()  # cleaned up, cannot shadow
        assert reg.counters["cache_orphans_dropped_total"] == 1
        assert reg.counters["cache_misses_total"] == 1

    def test_corrupt_artifact_recovers_by_recompute(
        self, tmp_path, rng
    ):
        graph = power_law_digraph(40, rng)
        cache = ArtifactCache(directory=tmp_path / "cache")
        fault = Fault(site="cache.disk_put", kind="corrupt")
        with inject_faults([fault]) as plan:
            stored = Executor(cache=cache).execute(
                _sym_plan(), {"graph": graph}
            )
        assert plan.triggered_count("cache.disk_put") == 1
        fresh = ArtifactCache(directory=tmp_path / "cache")
        key = stored.executions[-1].artifact_key
        assert fresh.get(key) is None  # corrupt entry is a miss
        result = Executor(cache=fresh).execute(
            _sym_plan(), {"graph": graph}
        )
        sym = [
            e for e in result.executions if e.stage == "symmetrize"
        ][0]
        assert sym.cached is False  # recomputed and re-stored
        healed = ArtifactCache(directory=tmp_path / "cache")
        assert healed.get(key) is not None


# ---------------------------------------------------------------------------
# Manifest provenance and the CLI surface
# ---------------------------------------------------------------------------


class TestFaultProvenance:
    def test_pipeline_manifest_records_fault_section(
        self, tmp_path, rng
    ):
        graph = power_law_digraph(80, rng)
        jpath = tmp_path / "j.jsonl"
        log = tmp_path / "runs.jsonl"
        pipe = SymmetrizeClusterPipeline("naive", "metis")
        result = pipe.run(
            graph,
            n_clusters=4,
            journal=RunJournal(jpath),
            manifest_path=log,
        )
        section = result.fault_tolerance
        assert section["journal"] == str(jpath)
        assert section["run_id"]
        assert section["resumed"] is False
        assert section["stage_retries"] == 0
        manifest = read_manifests(log)[-1]
        assert manifest.fault_tolerance == section

    def test_failures_view_reads_journal_file(
        self, tmp_path, rng, capsys
    ):
        graph = power_law_digraph(60, rng)
        jpath = tmp_path / "j.jsonl"
        policy = RetryPolicy(max_attempts=2, backoff_s=0.001)
        with inject_faults([Fault(site="stage:symmetrize")]):
            Executor(
                retry=policy, journal=RunJournal(jpath)
            ).execute(_sym_plan(), {"graph": graph})
        assert (
            main(["runs", "show", str(jpath), "--failures"]) == 0
        )
        out = capsys.readouterr().out
        assert "symmetrize" in out
        assert "retried" in out
        assert "FaultInjected" in out

    def test_failures_view_empty(self, tmp_path, rng, capsys):
        graph = power_law_digraph(40, rng)
        jpath = tmp_path / "j.jsonl"
        Executor(journal=RunJournal(jpath)).execute(
            _sym_plan(), {"graph": graph}
        )
        assert (
            main(["runs", "show", str(jpath), "--failures"]) == 0
        )
        assert "no failures" in capsys.readouterr().out

    def test_cli_sweep_then_resume(self, tmp_path, rng, capsys):
        graph = power_law_digraph(80, rng)
        gpath = tmp_path / "g.txt"
        write_edge_list(graph, gpath)
        jpath = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "sweep", str(gpath),
                    "-m", "naive",
                    "-c", "metis",
                    "-k", "3", "4",
                    "--journal", str(jpath),
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert "[ok]" in first
        assert main(["resume", str(jpath)]) == 0
        second = capsys.readouterr().out
        assert "resuming run" in second
        assert second.count("[resumed]") == 2

    def test_cli_resume_rejects_foreign_journal(
        self, tmp_path, capsys
    ):
        jpath = tmp_path / "j.jsonl"
        journal = RunJournal(jpath)
        journal.start("plan", "p", "", "strict")
        journal.close()
        assert main(["resume", str(jpath)]) == 1
        err = capsys.readouterr().err
        assert "repro sweep" in err
