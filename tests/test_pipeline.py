"""Unit tests for :mod:`repro.pipeline` (pipeline, sweeps, report)."""

import pytest

from repro.cluster import MetisClusterer
from repro.exceptions import ClusteringError
from repro.pipeline import (
    SymmetrizeClusterPipeline,
    format_series,
    format_table,
    sweep_alpha_beta,
    sweep_n_clusters,
    sweep_threshold,
)
from repro.symmetrize import NaiveSymmetrization


class TestPipeline:
    def test_end_to_end(self, cora_small):
        pipe = SymmetrizeClusterPipeline("degree_discounted", "metis")
        result = pipe.run(
            cora_small.graph,
            n_clusters=12,
            ground_truth=cora_small.ground_truth,
        )
        assert result.clustering.n_clusters == 12
        assert result.average_f is not None
        assert result.average_f > 20.0
        assert result.symmetrize_seconds > 0
        assert result.cluster_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.symmetrize_seconds + result.cluster_seconds
        )

    def test_instances_accepted(self, cora_small):
        pipe = SymmetrizeClusterPipeline(
            NaiveSymmetrization(), MetisClusterer()
        )
        result = pipe.run(cora_small.graph, n_clusters=5)
        assert result.clustering.n_clusters == 5
        assert result.average_f is None

    def test_threshold_applied(self, cora_small):
        dense = SymmetrizeClusterPipeline(
            "degree_discounted", "metis"
        ).symmetrize(cora_small.graph)
        sparse = SymmetrizeClusterPipeline(
            "degree_discounted", "metis", threshold=0.05
        ).symmetrize(cora_small.graph)
        assert sparse.n_edges < dense.n_edges

    def test_rejects_bad_components(self):
        with pytest.raises(ClusteringError):
            SymmetrizeClusterPipeline(42, "metis")
        with pytest.raises(ClusteringError):
            SymmetrizeClusterPipeline("naive", 42)

    def test_repr(self):
        pipe = SymmetrizeClusterPipeline("naive", "metis", threshold=0.5)
        assert "0.5" in repr(pipe)


class TestSweeps:
    def test_sweep_n_clusters(self, cora_small):
        points = sweep_n_clusters(
            cora_small.graph,
            "naive",
            "metis",
            cluster_counts=[4, 8],
            ground_truth=cora_small.ground_truth,
        )
        assert len(points) == 2
        assert points[0].parameter == 4
        assert points[0].n_clusters == 4
        assert points[1].n_clusters == 8
        assert all(p.average_f is not None for p in points)
        assert all(p.cluster_seconds > 0 for p in points)

    def test_sweep_without_ground_truth(self, cora_small):
        points = sweep_n_clusters(
            cora_small.graph, "naive", "metis", cluster_counts=[4]
        )
        assert points[0].average_f is None

    def test_sweep_threshold_edges_decrease(self, cora_small):
        points = sweep_threshold(
            cora_small.graph,
            thresholds=[0.0, 0.03, 0.08],
            clusterer="metis",
            n_clusters=8,
            ground_truth=cora_small.ground_truth,
        )
        edges = [p.n_edges for p in points]
        assert edges == sorted(edges, reverse=True)

    def test_sweep_alpha_beta(self, cora_small):
        points = sweep_alpha_beta(
            cora_small.graph,
            configurations=[(0.5, 0.5), (0.0, 0.0), ("log", "log")],
            clusterer="metis",
            n_clusters=8,
            ground_truth=cora_small.ground_truth,
            threshold=0.01,
        )
        assert len(points) == 3
        assert points[0].parameter == (0.5, 0.5)
        assert all(p.average_f is not None for p in points)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"],
            [["a", 1.0], ["longer", 23.456]],
            title="Table X",
        )
        lines = out.splitlines()
        assert lines[0] == "Table X"
        assert "name" in lines[1]
        assert "23.46" in lines[-1]

    def test_format_table_empty_rows(self):
        out = format_table(["h1"], [])
        assert "h1" in out

    def test_format_series(self):
        out = format_series("dd", [10, 20], [1.5, 2.5], "k", "F")
        assert "dd" in out
        assert "10:1.50" in out
        assert "[k -> F]" in out
