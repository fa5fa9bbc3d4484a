"""Tests for the :mod:`repro.perf` instrumentation layer and the
``repro bench`` harness (smoke mode, wired into CI per §3.6's
scalability claims)."""

import json
import time

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.graph.generators import power_law_digraph
from repro.perf import (
    PerfRecorder,
    Stopwatch,
    add_counters,
    current_recorder,
    record_stage,
    recording,
    timed,
)
from repro.perf.bench import (
    BENCH_SCHEMA,
    REQUIRED_RUN_KEYS,
    format_summary,
    run_bench,
    write_bench,
)
from repro.pipeline.pipeline import SymmetrizeClusterPipeline


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.seconds >= 0.005
        assert not sw.running

    def test_reentrant_accumulation(self):
        sw = Stopwatch()
        sw.start()
        first = sw.stop()
        sw.start()
        total = sw.stop()
        assert total >= first

    def test_counters_sum(self):
        sw = Stopwatch()
        sw.count(items=2)
        sw.count(items=3, other=1)
        assert sw.counters == {"items": 5.0, "other": 1.0}

    def test_reports_into_ambient_recorder(self):
        with recording() as rec:
            with Stopwatch("stage:test") as sw:
                sw.count(nnz=7)
        assert rec.stages["stage:test"].calls == 1
        assert rec.stages["stage:test"].counters["nnz"] == 7.0

    def test_stageless_reports_nowhere(self):
        with recording() as rec:
            with Stopwatch():
                pass
        assert rec.stages == {}


class TestRecorder:
    def test_accumulates_across_records(self):
        rec = PerfRecorder()
        rec.record("s", 1.0, pairs=2)
        rec.record("s", 0.5, pairs=3)
        assert rec.stages["s"].seconds == 1.5
        assert rec.stages["s"].calls == 2
        assert rec.stages["s"].counters["pairs"] == 5.0
        assert rec.total_seconds() == 1.5

    def test_add_counters_without_call(self):
        rec = PerfRecorder()
        rec.add_counters("s", pruned=10)
        assert rec.stages["s"].calls == 0
        assert rec.stages["s"].counters["pruned"] == 10.0

    def test_as_dict_roundtrips_through_json(self):
        rec = PerfRecorder()
        rec.record("a", 0.1, n=1)
        snapshot = json.loads(json.dumps(rec.as_dict()))
        assert snapshot["stages"][0]["name"] == "a"
        assert snapshot["total_seconds"] == pytest.approx(0.1)

    def test_report_mentions_stage_and_counters(self):
        rec = PerfRecorder()
        rec.record("allpairs:vectorized", 0.25, candidate_pairs=42)
        text = rec.report()
        assert "allpairs:vectorized" in text
        assert "candidate_pairs=42" in text
        assert PerfRecorder().report() == "(no stages recorded)"

    def test_ambient_noop_without_recorder(self):
        assert current_recorder() is None
        record_stage("s", 1.0)  # must not raise
        add_counters("s", n=1)

    def test_nested_recording_shadows(self):
        with recording() as outer:
            with recording() as inner:
                record_stage("x", 1.0)
            record_stage("y", 1.0)
        assert "x" in inner.stages and "x" not in outer.stages
        assert "y" in outer.stages


class TestTimed:
    def test_decorator_records_calls(self):
        @timed("demo:fn")
        def fn(value):
            return value * 2

        with recording() as rec:
            assert fn(21) == 42
            assert fn(1) == 2
        assert rec.stages["demo:fn"].calls == 2
        assert fn(3) == 6  # no recorder active: still works


class TestInstrumentationHooks:
    def test_pipeline_reports_stages(self, rng):
        g = power_law_digraph(80, rng)
        pipe = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl", threshold=0.05
        )
        result = pipe.run(g)
        names = {s["name"] for s in result.stages["stages"]}
        assert "pipeline:symmetrize" in names
        assert "pipeline:cluster" in names
        assert "symmetrize:degree_discounted" in names
        assert "cluster:mlrmcl" in names

    def test_pipeline_uses_ambient_recorder(self, rng):
        g = power_law_digraph(60, rng)
        pipe = SymmetrizeClusterPipeline("naive", "mlrmcl")
        with recording() as rec:
            pipe.run(g)
        assert "symmetrize:naive" in rec.stages
        assert rec.stages["pipeline:cluster"].counters["n_clusters"] > 0

    def test_allpairs_counters_flow_to_recorder(self, rng):
        from repro.linalg.allpairs import thresholded_gram_matrix
        import scipy.sparse as sp

        rows = sp.random_array(
            (30, 10), density=0.4, rng=rng, format="csr"
        )
        with recording() as rec:
            thresholded_gram_matrix(rows, 0.2, backend="vectorized")
        counters = rec.stages["allpairs:vectorized"].counters
        assert counters["rows"] == 30
        assert (
            counters["kept_pairs"]
            <= counters["verified_pairs"]
            <= counters["candidate_pairs"]
        )
        assert (
            counters["pruned_pairs"]
            == counters["candidate_pairs"] - counters["kept_pairs"]
        )

        # On the stacked degree-discounted factor of a power-law graph
        # the partial-score bound drops candidates before verification
        # and verification drops more: both inequalities are strict.
        from repro.obs import metrics_active
        from repro.symmetrize import DegreeDiscountedSymmetrization

        g = power_law_digraph(400, rng)
        stacked = sp.hstack(
            DegreeDiscountedSymmetrization().pruning_factors(g),
            format="csr",
        )
        with recording() as rec, metrics_active() as reg:
            thresholded_gram_matrix(stacked, 0.2, block_size=64)
        counters = rec.stages["allpairs:vectorized"].counters
        assert counters["kept_pairs"] > 0
        assert (
            counters["kept_pairs"]
            < counters["verified_pairs"]
            < counters["candidate_pairs"]
        )
        for name, metric in (
            ("candidate_pairs", "allpairs_candidate_pairs_total"),
            ("verified_pairs", "allpairs_pairs_verified_total"),
        ):
            assert reg.counters[metric] == counters[name]


class TestBenchSmoke:
    @pytest.fixture(scope="class")
    def smoke_results(self):
        # One 2k-node power-law graph at threshold 0.5 — the CI-grade
        # configuration the ISSUE pins: seconds-scale, both backends.
        return run_bench(smoke=True)

    def test_schema(self, smoke_results):
        assert smoke_results["schema"] == BENCH_SCHEMA
        for key in (
            "config",
            "environment",
            "runs",
            "speedups",
            "regression",
        ):
            assert key in smoke_results, key
        assert smoke_results["config"]["smoke"] is True
        for run in smoke_results["runs"]:
            assert REQUIRED_RUN_KEYS <= set(run), run
        kinds = {r["kind"] for r in smoke_results["runs"]}
        assert "symmetrize" in kinds
        reg = smoke_results["regression"]
        assert "min_speedup_vectorized" in reg["thresholds"]
        json.dumps(smoke_results)  # must be serializable

    def test_vectorized_not_slower_than_python(self, smoke_results):
        by_backend = {
            r["backend"]: r["seconds"]
            for r in smoke_results["runs"]
            if r["kind"] == "symmetrize" and r["n_nodes"] == 2000
        }
        assert by_backend["vectorized"] <= by_backend["python"]
        assert smoke_results["regression"]["passed"] is True
        assert smoke_results["speedups"]["2000@0.5"] >= 1.0

    def test_cluster_runs_carry_mcl_metrics(self, smoke_results):
        # The bench records MLR-MCL convergence behaviour per run via
        # the metrics registry (schema v2): iteration count and the
        # finest-level prune fraction.
        cluster_runs = [
            r for r in smoke_results["runs"] if r["kind"] == "cluster"
        ]
        assert cluster_runs
        for run in cluster_runs:
            assert run["metrics"]["mcl_iterations"] >= 1
            assert 0.0 <= run["metrics"]["mcl_prune_fraction"] <= 1.0
            assert run["metrics"]["mcl_final_flow_nnz"] > 0

    def test_symmetrize_runs_carry_engine_metrics(self, smoke_results):
        sym_runs = [
            r for r in smoke_results["runs"] if r["kind"] == "symmetrize"
        ]
        for run in sym_runs:
            assert "edges_pruned_total" in run["metrics"]
            assert "symmetrize_nnz_out" in run["metrics"]

    def test_backends_produce_same_edges(self, smoke_results):
        edges = {
            r["backend"]: r["edges_out"]
            for r in smoke_results["runs"]
            if r["kind"] == "symmetrize"
        }
        assert edges["python"] == edges["vectorized"]

    def test_write_and_summary(self, smoke_results, tmp_path):
        path = write_bench(smoke_results, tmp_path / "bench.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == BENCH_SCHEMA
        text = format_summary(smoke_results)
        assert "speedup" in text
        assert "regression: PASS" in text

    def test_rejects_empty_sweep(self):
        with pytest.raises(ReproError, match="at least one"):
            run_bench(sizes=[])


class TestBenchCli:
    def test_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "BENCH_allpairs.json"
        code = main(
            [
                "bench",
                "--smoke",
                "--sizes",
                "400",
                "-t",
                "0.3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads(out.read_text())
        assert results["schema"] == BENCH_SCHEMA
        assert results["config"]["sizes"] == [400]
        captured = capsys.readouterr().out
        assert "results written to" in captured
        assert "regression: PASS" in captured

    def test_bench_runlog_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        out = tmp_path / "bench.json"
        log = tmp_path / "bench_runs.jsonl"
        code = main(
            [
                "bench",
                "--smoke",
                "--sizes",
                "400",
                "-t",
                "0.3",
                "-o",
                str(out),
                "--runlog",
                str(log),
            ]
        )
        assert code == 0
        manifests = read_manifests(log)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest.kind == "bench"
        assert manifest.metrics["regression_passed"] == 1.0
        assert any(
            name.startswith("cluster.mcl_iterations")
            for name in manifest.metrics
        )
        assert manifest.timings  # one entry per benched run
