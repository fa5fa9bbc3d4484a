"""Tests for the stage-graph execution engine and artifact cache.

Covers the cache-keying contract (canonical config hashing stable
across processes and dict orderings, invalidation on dataset or
stage-config changes), the two cache tiers (memory LRU, disk
round-trip, corrupt-entry tolerance), differential cached-vs-uncached
identity through the pipeline facade and the sweeps, the manifest v1
backward load, and the ``repro cache`` CLI.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.engine import (
    ArtifactCache,
    ClusterStage,
    Executor,
    Plan,
    PruneStage,
    SymmetrizeStage,
    ValidateInputStage,
    artifact_key,
    config_hash,
)
from repro.exceptions import PipelineError
from repro.graph.generators import power_law_digraph
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    fingerprint_graph,
)
from repro.obs.metrics import MetricsRegistry, metrics_active
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.pipeline.sweep import sweep_n_clusters, sweep_threshold


@pytest.fixture
def graph(rng):
    return power_law_digraph(150, rng)


@pytest.fixture
def other_graph():
    return power_law_digraph(150, np.random.default_rng(999))


def _sym_plan(threshold: float = 0.0) -> Plan:
    return Plan(
        [
            ValidateInputStage(),
            SymmetrizeStage("naive", threshold=threshold),
        ],
        initial=("graph",),
        name="test-sym",
    )


# ---------------------------------------------------------------------------
# Canonical config hashing
# ---------------------------------------------------------------------------


class TestConfigHash:
    def test_insertion_order_irrelevant(self):
        a = config_hash({"alpha": 0.5, "beta": 0.25, "m": "dd"})
        b = config_hash({"m": "dd", "beta": 0.25, "alpha": 0.5})
        assert a == b

    def test_numpy_scalars_normalize(self):
        assert config_hash({"t": np.float64(0.5)}) == config_hash(
            {"t": 0.5}
        )
        assert config_hash({"k": np.int64(20)}) == config_hash(
            {"k": 20}
        )

    def test_nested_and_sequences(self):
        a = config_hash({"lineage": [{"x": 1}, {"y": (2, 3)}]})
        b = config_hash({"lineage": [{"x": 1}, {"y": [2, 3]}]})
        assert a == b

    def test_value_change_changes_hash(self):
        assert config_hash({"t": 0.5}) != config_hash({"t": 0.25})

    def test_stable_across_processes(self):
        """The hash must not depend on PYTHONHASHSEED."""
        snippet = (
            "from repro.engine import config_hash;"
            "print(config_hash("
            "{'alpha': 0.5, 'beta': 'log', 'n': 20,"
            " 'nested': {'b': 2, 'a': 1}}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "7"},
        )
        local = config_hash(
            {
                "nested": {"a": 1, "b": 2},
                "n": 20,
                "beta": "log",
                "alpha": 0.5,
            }
        )
        assert out.stdout.strip() == local

    def test_stage_fingerprint_tracks_config(self):
        a = SymmetrizeStage("naive", threshold=0.1)
        b = SymmetrizeStage("naive", threshold=0.1)
        c = SymmetrizeStage("naive", threshold=0.2)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_symmetrization_params_in_fingerprint(self):
        a = SymmetrizeStage(
            __import__(
                "repro.symmetrize.degree_discounted",
                fromlist=["DegreeDiscountedSymmetrization"],
            ).DegreeDiscountedSymmetrization(alpha=0.5, beta=0.5)
        )
        b = SymmetrizeStage(
            __import__(
                "repro.symmetrize.degree_discounted",
                fromlist=["DegreeDiscountedSymmetrization"],
            ).DegreeDiscountedSymmetrization(alpha=0.5, beta=0.75)
        )
        assert a.fingerprint() != b.fingerprint()


# ---------------------------------------------------------------------------
# Artifact keys
# ---------------------------------------------------------------------------


class TestArtifactKey:
    def test_components_all_matter(self):
        base = artifact_key("d" * 64, ["f1", "f2"], mode="strict")
        assert base == artifact_key(
            "d" * 64, ("f1", "f2"), mode="strict"
        )
        assert base != artifact_key("e" * 64, ["f1", "f2"])
        assert base != artifact_key("d" * 64, ["f1"])
        assert base != artifact_key("d" * 64, ["f2", "f1"])
        assert base != artifact_key(
            "d" * 64, ["f1", "f2"], mode="lenient"
        )

    def test_plan_keys_differ_per_stage(self, graph):
        plan = Plan(
            [
                ValidateInputStage(),
                SymmetrizeStage("naive"),
                PruneStage(0.5),
            ],
            initial=("graph",),
        )
        sha = fingerprint_graph(graph)["sha256"]
        keys = {plan.artifact_key(sha, i) for i in range(3)}
        assert len(keys) == 3


# ---------------------------------------------------------------------------
# Cache keying through the executor
# ---------------------------------------------------------------------------


class TestCacheInvalidation:
    def test_same_plan_same_graph_hits(self, graph):
        cache = ArtifactCache()
        for expected in (False, True):
            result = Executor(cache=cache).execute(
                _sym_plan(), {"graph": graph}
            )
            sym = [
                e
                for e in result.executions
                if e.stage == "symmetrize"
            ]
            assert sym[0].cached is expected
        assert cache.hits == 1 and cache.misses == 1

    def test_config_change_misses(self, graph):
        cache = ArtifactCache()
        Executor(cache=cache).execute(_sym_plan(0.0), {"graph": graph})
        result = Executor(cache=cache).execute(
            _sym_plan(0.25), {"graph": graph}
        )
        sym = [
            e for e in result.executions if e.stage == "symmetrize"
        ]
        assert sym[0].cached is False

    def test_dataset_change_misses(self, graph, other_graph):
        cache = ArtifactCache()
        Executor(cache=cache).execute(_sym_plan(), {"graph": graph})
        result = Executor(cache=cache).execute(
            _sym_plan(), {"graph": other_graph}
        )
        sym = [
            e for e in result.executions if e.stage == "symmetrize"
        ]
        assert sym[0].cached is False

    def test_equal_but_distinct_graphs_share(self, rng):
        """Content addressing reuses across equal graph objects."""
        a = power_law_digraph(120, np.random.default_rng(5))
        b = power_law_digraph(120, np.random.default_rng(5))
        assert a is not b
        cache = ArtifactCache()
        Executor(cache=cache).execute(_sym_plan(), {"graph": a})
        result = Executor(cache=cache).execute(
            _sym_plan(), {"graph": b}
        )
        sym = [
            e for e in result.executions if e.stage == "symmetrize"
        ]
        assert sym[0].cached is True

    def test_metrics_metered(self, graph):
        cache = ArtifactCache()
        registry = MetricsRegistry()
        with metrics_active(registry):
            Executor(cache=cache).execute(
                _sym_plan(), {"graph": graph}
            )
            Executor(cache=cache).execute(
                _sym_plan(), {"graph": graph}
            )
        flat = registry.flat()
        assert flat["cache_misses_total"] == 1
        assert flat["cache_hits_total"] == 1
        assert flat["cache_bytes"] > 0


# ---------------------------------------------------------------------------
# Differential identity: cached vs uncached
# ---------------------------------------------------------------------------


def _adjacency_equal(a, b) -> bool:
    x, y = a.adjacency.tocsr(), b.adjacency.tocsr()
    return (
        np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )


class TestDifferentialIdentity:
    def test_pipeline_cached_run_identical(self, graph):
        cache = ArtifactCache()
        pipe = SymmetrizeClusterPipeline("degree_discounted", "mlrmcl")
        cold = pipe.run(graph, n_clusters=8, cache=cache)
        warm = pipe.run(graph, n_clusters=8, cache=cache)
        assert cold.cache["misses"] >= 1
        assert warm.cache["hits"] >= 1
        assert _adjacency_equal(cold.symmetrized, warm.symmetrized)
        assert np.array_equal(
            cold.clustering.labels, warm.clustering.labels
        )

    def test_pipeline_matches_uncached(self, graph):
        plain = SymmetrizeClusterPipeline("naive", "mlrmcl").run(
            graph, n_clusters=8
        )
        cached = SymmetrizeClusterPipeline("naive", "mlrmcl").run(
            graph, n_clusters=8, cache=ArtifactCache()
        )
        assert plain.cache["enabled"] is False
        assert cached.cache["enabled"] is True
        assert _adjacency_equal(
            plain.symmetrized, cached.symmetrized
        )
        assert np.array_equal(
            plain.clustering.labels, cached.clustering.labels
        )

    def test_warm_sweep_identical(self, graph):
        cache = ArtifactCache()
        kwargs = dict(
            thresholds=[0.1, 0.3],
            clusterer="mlrmcl",
            n_clusters=6,
            cache=cache,
        )
        cold = sweep_threshold(graph, **kwargs)
        warm = sweep_threshold(graph, **kwargs)
        assert cache.hits > 0
        for a, b in zip(cold, warm):
            assert a.n_edges == b.n_edges
            assert a.n_clusters == b.n_clusters
            assert a.average_f == b.average_f
        assert all(p.cache_hit for p in warm)


# ---------------------------------------------------------------------------
# Sweep cache provenance
# ---------------------------------------------------------------------------


class TestSweepProvenance:
    def test_first_point_misses_rest_hit(self, graph):
        points = sweep_n_clusters(
            graph,
            "naive",
            "mlrmcl",
            cluster_counts=[4, 6, 8],
            cache=ArtifactCache(),
        )
        assert [p.cache_hit for p in points] == [False, True, True]
        keys = {p.artifact_key for p in points}
        assert len(keys) == 1 and None not in keys

    def test_fresh_cache_per_sweep_by_default(self, graph):
        first = sweep_n_clusters(
            graph, "naive", "mlrmcl", cluster_counts=[4, 6]
        )
        second = sweep_n_clusters(
            graph, "naive", "mlrmcl", cluster_counts=[4, 6]
        )
        # No cache given: each sweep symmetrizes once itself.
        assert first[0].cache_hit is False
        assert second[0].cache_hit is False

    def test_shared_cache_spans_sweeps(self, graph):
        cache = ArtifactCache()
        first = sweep_n_clusters(
            graph, "naive", "mlrmcl", cluster_counts=[4], cache=cache
        )
        second = sweep_n_clusters(
            graph, "naive", "mlrmcl", cluster_counts=[4], cache=cache
        )
        assert first[0].cache_hit is False
        assert second[0].cache_hit is True


# ---------------------------------------------------------------------------
# Cache tiers
# ---------------------------------------------------------------------------


class TestDiskTier:
    def test_round_trip_across_instances(self, graph, tmp_path):
        cache = ArtifactCache(directory=tmp_path / "arts")
        execution = Executor(cache=cache).execute(
            _sym_plan(), {"graph": graph}
        )
        stored = execution.values["symmetrized"]

        fresh = ArtifactCache(directory=tmp_path / "arts")
        result = Executor(cache=fresh).execute(
            _sym_plan(), {"graph": graph}
        )
        sym = [
            e for e in result.executions if e.stage == "symmetrize"
        ]
        assert sym[0].cached is True
        assert _adjacency_equal(
            stored, result.values["symmetrized"]
        )

    def test_meta_records_lineage(self, graph, tmp_path):
        cache = ArtifactCache(directory=tmp_path / "arts")
        Executor(cache=cache).execute(_sym_plan(), {"graph": graph})
        entries = cache.entries()
        assert len(entries) == 1
        record = entries[0]
        assert record["plan"] == "test-sym"
        assert record["mode"] == "strict"
        assert record["dataset_sha"] == fingerprint_graph(graph)[
            "sha256"
        ]
        assert isinstance(record["lineage"], list)

    def test_corrupt_entry_is_a_miss(self, graph, tmp_path):
        cache = ArtifactCache(directory=tmp_path / "arts")
        stored = Executor(cache=cache).execute(
            _sym_plan(), {"graph": graph}
        )
        [key] = [
            e.artifact_key
            for e in stored.executions
            if e.artifact_key is not None
        ]
        entry = tmp_path / "arts" / key[:2] / key / "artifact.npz"
        entry.write_bytes(b"not an npz file")

        fresh = ArtifactCache(directory=tmp_path / "arts")
        assert fresh.get(key) is None
        # And the executor recomputes instead of failing.
        result = Executor(cache=fresh).execute(
            _sym_plan(), {"graph": graph}
        )
        sym = [
            e for e in result.executions if e.stage == "symmetrize"
        ]
        assert sym[0].cached is False

    def test_clear(self, graph, tmp_path):
        cache = ArtifactCache(directory=tmp_path / "arts")
        Executor(cache=cache).execute(_sym_plan(), {"graph": graph})
        assert cache.clear() >= 1
        assert cache.entries() == []


class TestMemoryTier:
    def test_lru_eviction_under_byte_cap(self, graph):
        cache = ArtifactCache(max_bytes=1)
        for threshold in (0.0, 0.1, 0.2):
            Executor(cache=cache).execute(
                _sym_plan(threshold), {"graph": graph}
            )
        # The cap admits at most one resident artifact at a time.
        assert len(cache) == 1

    def test_repr_mentions_counters(self):
        assert "hits=0" in repr(ArtifactCache())


# ---------------------------------------------------------------------------
# Executor contract
# ---------------------------------------------------------------------------


class TestExecutorContract:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError):
            Executor(mode="fuzzy")

    def test_missing_initial_value_rejected(self, graph):
        with pytest.raises(PipelineError, match="initial"):
            Executor().execute(_sym_plan(), {})

    def test_bad_wiring_rejected(self):
        with pytest.raises(PipelineError, match="needs"):
            Plan(
                [ClusterStage("mlrmcl", 5)],
                initial=("graph",),
            )

    def test_no_cache_means_no_provenance(self, graph):
        result = Executor().execute(_sym_plan(), {"graph": graph})
        assert all(e.cached is None for e in result.executions)
        summary = result.cache_summary()
        assert summary == {
            "hits": 0,
            "misses": 0,
            "artifact_keys": [],
        }


# ---------------------------------------------------------------------------
# Manifest schema v2 / v1 backward load
# ---------------------------------------------------------------------------


class TestManifestCacheSection:
    def test_v2_round_trip(self):
        manifest = RunManifest(
            kind="pipeline",
            name="t",
            cache={"enabled": True, "hits": 2, "misses": 1},
        )
        payload = manifest.as_dict()
        assert payload["schema"] == MANIFEST_SCHEMA
        loaded = RunManifest.from_dict(
            json.loads(json.dumps(payload))
        )
        assert loaded.cache["hits"] == 2

    def test_v1_payload_still_loads(self):
        payload = RunManifest(kind="pipeline", name="t").as_dict()
        payload["schema"] = "repro-run-manifest/v1"
        del payload["cache"]
        loaded = RunManifest.from_dict(payload)
        assert loaded.cache == {}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCacheCli:
    def test_stats_and_list_empty(self, tmp_path, capsys):
        directory = str(tmp_path / "arts")
        assert cli_main(["cache", "stats", "--dir", directory]) == 0
        assert "disk entries:   0" in capsys.readouterr().out
        assert cli_main(["cache", "list", "--dir", directory]) == 0
        assert "no cached artifacts" in capsys.readouterr().out

    def test_list_and_clear_after_store(
        self, graph, tmp_path, capsys
    ):
        directory = tmp_path / "arts"
        cache = ArtifactCache(directory=directory)
        Executor(cache=cache).execute(_sym_plan(), {"graph": graph})

        assert cli_main(["cache", "list", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "test-sym" in out

        assert (
            cli_main(["cache", "clear", "--dir", str(directory)]) == 0
        )
        assert "removed 1" in capsys.readouterr().out
        assert not directory.exists()
