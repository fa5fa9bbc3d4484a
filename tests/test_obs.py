"""Tests for the :mod:`repro.obs` observability layer: span trees,
the disabled-mode zero-overhead contract, Chrome trace interchange,
the metrics registry, run manifests (golden-file pinned) and the
``repro runs`` / ``repro trace`` CLI."""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.graph.generators import power_law_digraph
from repro.obs import (
    MANIFEST_SCHEMA,
    MetricsRegistry,
    RunManifest,
    Span,
    Tracer,
    append_manifest,
    collect_environment,
    current_metrics,
    current_tracer,
    diff_manifests,
    fingerprint_graph,
    format_diff,
    metric_inc,
    metric_observe,
    metric_set,
    metrics_active,
    read_manifests,
    span,
    spans_from_chrome_trace,
    to_chrome_trace,
    tracing,
)
from repro.obs.metrics import Histogram
from repro.obs.trace import _NULL_SPAN
from repro.pipeline.pipeline import SymmetrizeClusterPipeline

GOLDEN = Path(__file__).parent / "data" / "manifest_golden.json"
#: The golden of the previous schema, which still has to load.
GOLDEN_V4 = Path(__file__).parent / "data" / "manifest_v4.json"


class TestSpanTree:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.start_span("root") as root:
            with tracer.start_span("first"):
                with tracer.start_span("leaf"):
                    pass
            with tracer.start_span("second"):
                pass
        assert [c.name for c in root.children] == ["first", "second"]
        assert root.children[0].children[0].name == "leaf"
        assert tracer.max_depth() == 3
        assert [s.name for s in tracer.walk()] == [
            "root", "first", "leaf", "second",
        ]
        assert tracer.find("leaf") is root.children[0].children[0]
        assert tracer.find("missing") is None

    def test_sibling_starts_are_monotonic(self):
        tracer = Tracer()
        with tracer.start_span("root"):
            with tracer.start_span("a"):
                time.sleep(0.002)
            with tracer.start_span("b"):
                pass
        a, b = tracer.roots[0].children
        assert b.start > a.start
        assert tracer.roots[0].wall_seconds >= a.wall_seconds

    def test_ambient_span_nests_into_tracer(self):
        with tracing() as tracer:
            with span("outer", backend="vectorized"):
                with span("inner") as sp:
                    sp.set(nnz=42)
        assert current_tracer() is None
        outer = tracer.roots[0]
        assert outer.attributes == {"backend": "vectorized"}
        assert outer.children[0].attributes == {"nnz": 42}

    def test_as_dict_from_dict_roundtrip(self):
        tracer = Tracer()
        with tracer.start_span("root") as root:
            root.set(n=3)
            with tracer.start_span("child"):
                pass
        payload = json.loads(json.dumps(tracer.as_dict()))
        rebuilt = [Span.from_dict(s) for s in payload["spans"]]
        assert rebuilt[0].name == "root"
        assert rebuilt[0].attributes == {"n": 3}
        assert rebuilt[0].children[0].name == "child"
        assert payload["max_depth"] == 2

    def test_report_renders_tree(self):
        tracer = Tracer()
        with tracer.start_span("root"):
            with tracer.start_span("child") as sp:
                sp.set(nnz=7)
        text = tracer.report()
        assert "root" in text and "child" in text and "nnz=7" in text
        assert Tracer().report() == "(no spans recorded)"

    def test_memory_mode_records_deltas(self):
        with tracing(memory=True) as tracer:
            with span("alloc"):
                _sink = [0] * 50_000
        node = tracer.roots[0]
        assert node.mem_alloc_bytes is not None
        assert node.mem_alloc_bytes > 100_000
        assert node.rss_peak_delta_kb is not None
        assert not tracemalloc.is_tracing()


class TestDisabledMode:
    def test_span_returns_shared_singleton(self):
        assert current_tracer() is None
        first = span("anything")
        second = span("other")
        assert first is _NULL_SPAN and second is _NULL_SPAN
        with first as sp:
            sp.set(ignored=1)  # must be a silent no-op

    def test_disabled_span_allocates_nothing(self):
        # The hot-path contract: with no tracer installed, entering and
        # exiting spans in a loop must not allocate — the engine calls
        # span() once per gram block.
        names = ["gram_block"] * 2000  # pre-built: loop itself is free
        for name in names[:10]:  # warm up caches outside measurement
            with span(name):
                pass
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for name in names:
                with span(name):
                    pass
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown <= 256, f"disabled span leaked {grown} bytes"

    def test_metric_calls_are_noops_without_registry(self):
        assert current_metrics() is None
        metric_inc("edges_pruned_total", 5)
        metric_set("singleton_fraction", 0.5)
        metric_observe("block_candidates", 10)  # must not raise


class TestChromeTrace:
    @pytest.fixture()
    def tracer(self):
        tracer = Tracer()
        with tracer.start_span("pipeline") as root:
            root.set(mode="strict")
            with tracer.start_span("symmetrize"):
                with tracer.start_span("gram_block[0]") as sp:
                    sp.set(rows=512)
                with tracer.start_span("gram_block[512]"):
                    pass
            with tracer.start_span("cluster"):
                pass
        return tracer

    def test_event_shape(self, tracer):
        payload = tracer.to_chrome_trace()
        events = payload["traceEvents"]
        assert len(events) == 5
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["dur"] >= 0
            assert "cpu_seconds" in event["args"]
        by_name = {e["name"]: e for e in events}
        assert by_name["gram_block[0]"]["args"]["rows"] == 512
        json.dumps(payload)  # must be valid JSON content

    def test_roundtrip_restores_tree(self, tracer):
        payload = json.loads(json.dumps(tracer.to_chrome_trace()))
        roots = spans_from_chrome_trace(payload)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "pipeline"
        assert root.attributes == {"mode": "strict"}
        assert [c.name for c in root.children] == [
            "symmetrize", "cluster",
        ]
        assert [c.name for c in root.children[0].children] == [
            "gram_block[0]", "gram_block[512]",
        ]
        assert root.depth() == 3

    def test_empty_trace(self):
        assert to_chrome_trace([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }
        assert spans_from_chrome_trace({"traceEvents": []}) == []


class TestMetricsRegistry:
    def test_counter_gauge_histogram_kinds(self):
        reg = MetricsRegistry()
        with metrics_active(reg):
            metric_inc("pairs_total", 10)
            metric_inc("pairs_total", 5)
            metric_set("fraction", 0.5)
            metric_set("fraction", 0.25)  # last write wins
            metric_observe("block_sizes", 3)
            metric_observe("block_sizes", 30)
            metric_observe("block_sizes", 0)
        assert reg.counters["pairs_total"] == 15.0
        assert reg.gauges["fraction"] == 0.25
        hist = reg.histograms["block_sizes"]
        assert hist.count == 3
        assert hist.min == 0 and hist.max == 30
        assert hist.buckets == {"1e1": 1, "1e2": 1, "0": 1}
        assert len(reg) == 3
        assert reg.names() == ["block_sizes", "fraction", "pairs_total"]

    def test_flat_and_as_dict(self):
        reg = MetricsRegistry()
        reg.inc("a_total", 2)
        reg.set("b", 0.5)
        reg.observe("c", 4.0)
        flat = reg.flat()
        assert flat == {
            "a_total": 2.0, "b": 0.5, "c_count": 1.0, "c_sum": 4.0,
        }
        snapshot = json.loads(json.dumps(reg.as_dict()))
        assert snapshot["counters"] == {"a_total": 2.0}
        assert snapshot["histograms"]["c"]["mean"] == 4.0

    def test_empty_histogram_serializes(self):
        empty = Histogram()
        assert empty.as_dict()["min"] is None
        assert empty.mean == 0.0

    def test_nested_registries_shadow(self):
        with metrics_active() as outer:
            with metrics_active() as inner:
                metric_inc("x")
            metric_inc("y")
        assert "x" in inner.counters and "x" not in outer.counters
        assert "y" in outer.counters

    def test_report_lists_each_kind(self):
        reg = MetricsRegistry()
        reg.inc("edges_total", 3)
        reg.set("fraction", 0.5)
        reg.observe("sizes", 10)
        text = reg.report()
        assert "counter" in text and "edges_total" in text
        assert "gauge" in text and "histogram" in text
        assert MetricsRegistry().report() == "(no metrics recorded)"


def _synthetic_manifest(**overrides) -> RunManifest:
    """A fully deterministic manifest for golden/diff tests."""
    base = dict(
        kind="pipeline",
        name="degree_discounted.mlrmcl",
        created_unix=1700000000.0,
        config={
            "symmetrization": "degree_discounted",
            "clusterer": "mlrmcl",
            "threshold": 0.05,
            "mode": "strict",
            "n_clusters": None,
        },
        dataset={"n_nodes": 400, "nnz": 2000, "sha256": "ab" * 8},
        environment={
            "python": "3.11.0",
            "numpy": "2.0.0",
            "scipy": "1.14.0",
            "platform": "Linux",
            "machine": "x86_64",
            "git_sha": "0123456789ab",
        },
        seed=0,
        warnings=[
            {
                "stage": "symmetrize",
                "code": "all_dangling",
                "message": "every node is dangling",
            }
        ],
        trace=[
            {
                "name": "pipeline",
                "start": 0.0,
                "wall_seconds": 1.5,
                "cpu_seconds": 1.4,
                "attributes": {"mode": "strict"},
                "children": [
                    {
                        "name": "symmetrize",
                        "start": 0.1,
                        "wall_seconds": 0.5,
                        "cpu_seconds": 0.5,
                        "attributes": {},
                        "children": [],
                    }
                ],
            }
        ],
        metrics={
            "counters": {"edges_pruned_total": 120.0},
            "gauges": {"singleton_fraction": 0.1},
            "histograms": {},
        },
        cache={
            "enabled": True,
            "hits": 1,
            "misses": 1,
            "artifact_keys": ["cd" * 32],
        },
        fault_tolerance={
            "journal": "runs/journal.jsonl",
            "run_id": "ef" * 6,
            "resumed": False,
            "stage_retries": 1,
            "stages_resumed": 0,
        },
        timings={"symmetrize_seconds": 0.5, "cluster_seconds": 1.0},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunManifest:
    def test_golden_file_schema_stability(self):
        # The serialized shape is a public contract (CI artifacts and
        # the runs CLI consume it); any change must bump
        # MANIFEST_SCHEMA and regenerate tests/data/manifest_golden.json.
        manifest = _synthetic_manifest()
        golden = json.loads(GOLDEN.read_text())
        assert manifest.as_dict() == golden
        assert golden["schema"] == MANIFEST_SCHEMA

    def test_reads_v4_manifest(self):
        # v4 carried an autotuner ``tuning`` section; loading drops it.
        payload = json.loads(GOLDEN_V4.read_text())
        assert payload["schema"] == "repro-run-manifest/v4"
        assert "tuning" in payload
        assert RunManifest.from_dict(payload) == _synthetic_manifest()

    def test_from_dict_roundtrip(self):
        manifest = _synthetic_manifest()
        rebuilt = RunManifest.from_dict(
            json.loads(json.dumps(manifest.as_dict()))
        )
        assert rebuilt == manifest

    def test_from_dict_rejects_unknown_schema(self):
        payload = _synthetic_manifest().as_dict()
        payload["schema"] = "repro-run-manifest/v999"
        with pytest.raises(ReproError, match="unsupported manifest"):
            RunManifest.from_dict(payload)

    def test_helpers(self):
        manifest = _synthetic_manifest()
        assert manifest.total_seconds() == pytest.approx(1.5)
        assert manifest.flat_metrics() == {
            "edges_pruned_total": 120.0,
            "singleton_fraction": 0.1,
        }
        line = manifest.summary()
        assert "degree_discounted.mlrmcl" in line
        assert "spans=2" in line and "warnings=1" in line

    def test_fingerprint_tracks_content(self, rng):
        g1 = power_law_digraph(60, rng)
        fp1 = fingerprint_graph(g1)
        assert fp1["n_nodes"] == 60
        assert fp1 == fingerprint_graph(g1)
        g2 = power_law_digraph(60, rng)  # fresh draw: different edges
        assert fingerprint_graph(g2)["sha256"] != fp1["sha256"]

    def test_collect_environment_keys(self):
        env = collect_environment()
        assert set(env) >= {"python", "numpy", "scipy", "git_sha"}

    def test_append_and_read_roundtrip(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        append_manifest(_synthetic_manifest(), log)
        append_manifest(_synthetic_manifest(name="other.metis"), log)
        manifests = read_manifests(log)
        assert [m.name for m in manifests] == [
            "degree_discounted.mlrmcl", "other.metis",
        ]

    def test_read_errors(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            read_manifests(tmp_path / "missing.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ReproError, match="malformed"):
            read_manifests(bad)


class TestDiffManifests:
    def test_structured_diff(self):
        a = _synthetic_manifest()
        b = _synthetic_manifest(
            name="bibliometric.mlrmcl",
            config={**a.config, "symmetrization": "bibliometric"},
            metrics={
                "counters": {"edges_pruned_total": 80.0},
                "gauges": {"singleton_fraction": 0.1},
                "histograms": {},
            },
            timings={"symmetrize_seconds": 0.7, "cluster_seconds": 1.0},
            warnings=[],
        )
        diff = diff_manifests(a, b)
        assert diff["config"] == {
            "symmetrization": ["degree_discounted", "bibliometric"]
        }
        assert diff["metrics"]["edges_pruned_total"]["delta"] == -40.0
        assert "singleton_fraction" not in diff["metrics"]  # unchanged
        assert diff["timings"]["symmetrize_seconds"]["delta"] == (
            pytest.approx(0.2)
        )
        assert diff["warnings"] == {
            "added": [], "removed": ["all_dangling"],
        }
        json.dumps(diff)

    def test_format_diff_mentions_changes(self):
        a = _synthetic_manifest()
        b = _synthetic_manifest(
            config={**a.config, "threshold": 0.1},
        )
        text = format_diff(diff_manifests(a, b))
        assert "threshold" in text
        identical = format_diff(diff_manifests(a, _synthetic_manifest()))
        assert "(no differences)" in identical


class TestRunsCli:
    @pytest.fixture()
    def runlog(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        append_manifest(_synthetic_manifest(), log)
        append_manifest(
            _synthetic_manifest(
                name="bibliometric.mlrmcl",
                config={
                    "symmetrization": "bibliometric",
                    "clusterer": "mlrmcl",
                    "threshold": 0.05,
                    "mode": "strict",
                    "n_clusters": None,
                },
            ),
            log,
        )
        return log

    def test_runs_list(self, runlog, capsys):
        assert main(["runs", "list", str(runlog)]) == 0
        out = capsys.readouterr().out
        assert "[0]" in out and "[1]" in out
        assert "degree_discounted.mlrmcl" in out
        assert "bibliometric.mlrmcl" in out

    def test_runs_show(self, runlog, capsys):
        assert main(["runs", "show", str(runlog), "-i", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "degree_discounted.mlrmcl"
        assert payload["schema"] == MANIFEST_SCHEMA
        assert main(
            ["runs", "show", str(runlog), "--no-trace"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == []

    def test_runs_diff(self, runlog, capsys):
        assert main(["runs", "diff", str(runlog), "-a", "0", "-b", "1"]) == 0
        out = capsys.readouterr().out
        assert "symmetrization" in out
        assert "'degree_discounted' -> 'bibliometric'" in out

    def test_runs_diff_json(self, runlog, capsys):
        assert main(["runs", "diff", str(runlog), "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["config"]["symmetrization"] == [
            "degree_discounted", "bibliometric",
        ]

    def test_runs_index_out_of_range(self, runlog, capsys):
        assert main(["runs", "show", str(runlog), "-i", "7"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_trace_export(self, runlog, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["trace", str(runlog), "-i", "0", "-o", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert names == {"pipeline", "symmetrize"}

    def test_trace_requires_spans(self, runlog, tmp_path, capsys):
        log = tmp_path / "untraced.jsonl"
        append_manifest(_synthetic_manifest(trace=[]), log)
        assert main(["trace", str(log)]) == 1
        assert "no span tree" in capsys.readouterr().err


class TestPipelineTraced:
    """The ISSUE's acceptance scenario: a traced pipeline run on a
    synthetic power-law graph."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        import numpy as np

        log = tmp_path_factory.mktemp("obs") / "runs.jsonl"
        rng = np.random.default_rng(7)
        graph = power_law_digraph(300, rng)
        pipe = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl", threshold=0.05
        )
        first = pipe.run(graph, trace=True, manifest_path=log)
        second = pipe.run(graph, trace=True, manifest_path=log)
        return graph, log, first, second

    def test_span_tree_depth(self, traced):
        _graph, _log, result, _second = traced
        assert result.trace is not None
        assert result.trace["max_depth"] >= 3
        root = Span.from_dict(result.trace["spans"][0])
        assert root.name == "pipeline"
        stages = [c.name for c in root.children]
        assert "symmetrize" in stages and "cluster" in stages
        sym = root.find("symmetrize:degree_discounted")
        assert sym is not None
        assert [c.name for c in sym.children] == [
            "compute_matrix", "prune",
        ]

    def test_metrics_count(self, traced):
        _graph, _log, result, _second = traced
        metrics = result.metrics
        n = (
            len(metrics["counters"])
            + len(metrics["gauges"])
            + len(metrics["histograms"])
        )
        assert n >= 8, sorted(
            list(metrics["counters"])
            + list(metrics["gauges"])
            + list(metrics["histograms"])
        )
        assert metrics["counters"]["mcl_iterations"] >= 1
        assert 0 <= metrics["gauges"]["mcl_prune_fraction"] <= 1
        assert "singleton_fraction" in metrics["gauges"]

    def test_chrome_export_is_valid(self, traced):
        _graph, _log, result, _second = traced
        spans = [Span.from_dict(s) for s in result.trace["spans"]]
        payload = json.loads(json.dumps(to_chrome_trace(spans)))
        assert payload["traceEvents"]
        roots = spans_from_chrome_trace(payload)
        assert roots[0].name == "pipeline"
        assert roots[0].depth() == result.trace["max_depth"]

    def test_manifests_written_and_diffable(self, traced):
        graph, log, first, _second = traced
        manifests = read_manifests(log)
        assert len(manifests) == 2
        assert manifests[0].dataset == fingerprint_graph(graph)
        assert first.manifest is not None
        diff = diff_manifests(manifests[0], manifests[1])
        assert diff["config"] == {}  # identical configuration
        assert diff["dataset"] == {}  # identical input
        assert "symmetrize_seconds" in diff["timings"]

    def test_untraced_run_carries_no_snapshots(self, traced):
        graph, _log, _first, _second = traced
        pipe = SymmetrizeClusterPipeline("naive", "mlrmcl")
        result = pipe.run(graph)
        assert result.trace is None
        assert result.metrics is None
        assert result.manifest is None
