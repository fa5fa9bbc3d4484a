"""Tests for :mod:`repro.perf.scale_bench` — the out-of-core scale
harness behind ``repro bench``.

The unmarked tests run a miniature sweep (a few thousand nodes) so
the schema, the regression block and the shard-vs-monolithic
differential stay honest in tier-1 time. The ``scale_smoke``-marked
test runs the real ~50k smoke configuration under a wall/memory
:class:`~repro.engine.policy.Budget` — the dedicated CI job
(``make scale-smoke``).
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.perf.scale_bench import (
    MAX_PEAK_RSS_BYTES,
    REQUIRED_POINT_KEYS,
    SCALE_SCHEMA,
    exactness_certificate,
    format_scale_summary,
    run_scale_bench,
    scale_manifest,
    write_bench,
)


def _bench_summary():
    """``tools/bench_summary.py`` loaded as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_summary",
        Path(__file__).parent.parent / "tools" / "bench_summary.py",
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestScaleBenchMini:
    @pytest.fixture(scope="class")
    def mini_results(self):
        # Two tiny sizes: enough to exercise the mmap generation, the
        # sharded fan-out, the differential and the regression block.
        return run_scale_bench(
            sizes=[1500, 3000],
            n_jobs=2,
            block_size=256,
            shard_jobs=2,
        )

    def test_schema(self, mini_results):
        assert mini_results["schema"] == SCALE_SCHEMA
        for key in (
            "config",
            "environment",
            "points",
            "differential",
            "regression",
        ):
            assert key in mini_results, key
        for point in mini_results["points"]:
            assert REQUIRED_POINT_KEYS <= set(point), point
        json.dumps(mini_results)  # must be serializable

    def test_points_ascend_and_scale(self, mini_results):
        sizes = [p["n_nodes"] for p in mini_results["points"]]
        assert sizes == sorted(sizes) == [1500, 3000]
        for point in mini_results["points"]:
            assert point["n_edges"] > point["n_nodes"]
            assert point["store_bytes"] > 0
            assert point["generate_seconds"] >= 0
            assert point["symmetrize_seconds"] > 0

    def test_points_carry_shard_metrics(self, mini_results):
        for point in mini_results["points"]:
            assert point["metrics"]["shard_count"] >= 1
            assert point["metrics"]["peak_rss_bytes"] > 0
            assert "shard_bytes_spilled" in point["metrics"]

    def test_rss_recorded_and_under_floor(self, mini_results):
        reg = mini_results["regression"]
        assert reg["observed_peak_rss_bytes"] > 0
        assert reg["observed_peak_rss_bytes"] <= MAX_PEAK_RSS_BYTES
        assert reg["thresholds"]["max_peak_rss_bytes"] == (
            MAX_PEAK_RSS_BYTES
        )
        assert reg["passed"] is True
        assert reg["failures"] == []

    def test_certificates_clean(self, mini_results):
        for point in mini_results["points"]:
            cert = point["certificate"]
            assert cert["rows_checked"] > 0
            assert cert["misses"] == cert["extras"] == 0
            metrics = point["metrics"]
            assert (
                metrics["allpairs_pairs_verified_total"]
                <= metrics["allpairs_candidate_pairs_total"]
            )

    def test_differential_identical(self, mini_results):
        diff = mini_results["differential"]
        assert diff["n_nodes"] == 1500
        assert diff["identical"] is True
        assert mini_results["regression"]["differential_identical"]

    def test_manifest(self, mini_results):
        manifest = scale_manifest(mini_results)
        assert manifest.kind == "bench"
        assert manifest.name == "bench-scale"
        assert manifest.metrics["regression_passed"] == 1.0
        assert manifest.metrics["differential_identical"] == 1.0
        assert any(
            key.endswith("_symmetrize_seconds") for key in manifest.timings
        )

    def test_write_and_summary(self, mini_results, tmp_path):
        path = write_bench(mini_results, tmp_path / "scale.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCALE_SCHEMA
        text = format_scale_summary(mini_results)
        assert "regression: PASS" in text
        assert "identical=yes" in text

    def test_summary_row_fails_on_certificate_miss(self, mini_results):
        import copy

        tool = _bench_summary()
        timings, verdict = tool._scale_row(mini_results)
        assert verdict == "PASS"
        assert "M candidates, " in timings
        assert "k verified, exact on" in timings
        for point in mini_results["points"]:
            verified = point["metrics"]["allpairs_pairs_verified_total"]
            assert f"{verified / 1e3:.1f}k verified" in timings
        broken = copy.deepcopy(mini_results)
        broken["points"][0]["certificate"]["misses"] = 1
        timings, verdict = tool._scale_row(broken)
        assert "FAIL" in verdict
        assert "1 missed" in timings

    def test_summary_row_counts_src_lines(
        self, mini_results, tmp_path, capsys, monkeypatch
    ):
        """The job-summary row carries the ``src/`` line count, as
        ``find src -name '*.py' | xargs cat | wc -l`` counts it."""
        import subprocess

        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        path = write_bench(mini_results, tmp_path / "scale.json")
        assert _bench_summary().main(["--scale", str(path)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        wc = subprocess.run(
            "find src -name '*.py' | xargs cat | wc -l",
            shell=True,
            cwd=Path(__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            check=True,
        )
        assert f"| {int(wc.stdout):,} | scale |" in row

    def test_points_time_a_calibration_loop(self, mini_results):
        """Each point records its calibration loop, and the summary
        row and table give its time in those units."""
        tool = _bench_summary()
        timings, _ = tool._scale_row(mini_results)
        table = format_scale_summary(mini_results)
        for point in mini_results["points"]:
            calibration = point["calibration_seconds"]
            assert 0 < calibration < 60
            units = point["symmetrize_seconds"] / calibration
            assert f"= {units:.0f} cal" in timings
            assert f"{units:>8.1f}" in table

    def test_rejects_empty_sizes(self):
        with pytest.raises(ReproError, match="at least one size"):
            run_scale_bench(sizes=[])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ReproError, match="positive threshold"):
            run_scale_bench(sizes=[100], threshold=0.0)


class TestExactnessCertificate:
    """The certificate must see a dropped or an invented pair."""

    @pytest.fixture(scope="class")
    def pruned(self):
        import numpy as np

        from repro.graph.generators import power_law_digraph
        from repro.symmetrize import DegreeDiscountedSymmetrization

        graph = power_law_digraph(500, np.random.default_rng(3))
        out = DegreeDiscountedSymmetrization().apply_pruned(graph, 0.2)
        return graph, out.adjacency.tocsr()

    def test_clean_output_passes(self, pruned):
        graph, adjacency = pruned
        cert = exactness_certificate(graph, adjacency, 0.2, k=50)
        assert cert["rows_checked"] >= 50
        assert cert["misses"] == cert["extras"] == 0

    def test_dropped_pair_is_a_miss(self, pruned):
        graph, adjacency = pruned
        dropped = adjacency.tolil()
        i, j = adjacency.nonzero()[0][0], adjacency.nonzero()[1][0]
        dropped[i, j] = 0.0
        dropped[j, i] = 0.0
        dropped = dropped.tocsr()
        dropped.eliminate_zeros()
        cert = exactness_certificate(graph, dropped, 0.2, k=500)
        assert cert["misses"] == 2
        assert cert["extras"] == 0

    def test_invented_pair_is_an_extra(self, pruned):
        graph, adjacency = pruned
        # A pair the exact output left out: its similarity is below
        # the threshold, so 0.3 there is an extra.
        i, j = next(
            (i, j)
            for i in range(adjacency.shape[0])
            for j in range(i + 1, adjacency.shape[0])
            if adjacency[i, j] == 0
        )
        invented = adjacency.tolil()
        invented[i, j] = 0.3
        cert = exactness_certificate(graph, invented.tocsr(), 0.2, k=500)
        assert cert["misses"] == 0
        assert cert["extras"] == 1


class TestScaleBenchCli:
    def test_bench_scale_subcommand(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scale.json"
        code = main(
            [
                "bench",
                "--sizes",
                "2000",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads(out.read_text())
        assert results["schema"] == SCALE_SCHEMA
        assert results["regression"]["passed"] is True
        stdout = capsys.readouterr().out
        assert "regression: PASS" in stdout

    def test_bench_scale_runlog(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        out = tmp_path / "BENCH_scale.json"
        log = tmp_path / "runs.jsonl"
        code = main(
            [
                "bench",
                "--sizes",
                "2000",
                "-o",
                str(out),
                "--runlog",
                str(log),
            ]
        )
        assert code == 0
        manifests = read_manifests(log)
        assert len(manifests) == 1
        assert manifests[0].name == "bench-scale"

    def test_bench_takes_one_threshold(self, tmp_path, capsys):
        # A second value is a usage error, not a silently dropped
        # grid point.
        out = tmp_path / "BENCH_scale.json"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "bench",
                    "-t",
                    "0.03",
                    "0.5",
                    "--sizes",
                    "400",
                    "-o",
                    str(out),
                ]
            )
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.scale_smoke
def test_scale_smoke_under_budget(tmp_path):
    """The CI-grade smoke: one ~50k-node mmap-backed graph timed
    serially, as ``repro bench`` times the committed
    ``BENCH_scale.json``, then the 4-worker shard-vs-serial identity
    check, metered against wall/memory ceilings, regression floor
    enforced."""
    from repro.engine.policy import Budget, BudgetMeter

    budget = Budget(wall_s=1200.0, mem_bytes=MAX_PEAK_RSS_BYTES)
    meter = BudgetMeter(budget, scope="scale-smoke")
    with meter:
        results = run_scale_bench(smoke=True)
    meter.enforce()
    # CI points REPRO_SCALE_BENCH_OUT at the workspace so the smoke's
    # BENCH_scale.json can be uploaded as a trajectory artifact.
    out = os.environ.get("REPRO_SCALE_BENCH_OUT")
    path = write_bench(
        results, Path(out) if out else tmp_path / "BENCH_scale.json"
    )
    loaded = json.loads(path.read_text())
    assert loaded["config"]["smoke"] is True
    assert loaded["points"][0]["n_nodes"] == 50_000
    assert loaded["regression"]["passed"] is True
    assert loaded["differential"]["identical"] is True
    cert = loaded["points"][0]["certificate"]
    assert cert["rows_checked"] > 0
    assert cert["misses"] == cert["extras"] == 0
