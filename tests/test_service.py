"""Tests for the clustering service daemon and the concurrency
fixes it exposed (cache locking, pool drain, ambient scoping,
journal tailing)."""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.datasets import make_cora_like, make_wikipedia_like
from repro.engine import (
    ArtifactCache,
    JournalTailer,
    RunJournal,
    WorkerPool,
    ambient_scope,
    current_cache,
    current_journal,
)
from repro.exceptions import BudgetExceeded, ReproError
from repro.graph import DirectedGraph
from repro.obs.manifest import fingerprint_graph
from repro.obs.metrics import MetricsRegistry, current_metrics
from repro.obs.trace import Tracer, current_tracer
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.service import (
    JobManager,
    JobSpec,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceStore,
)


@pytest.fixture
def small_graph() -> DirectedGraph:
    return make_cora_like(n_nodes=120, n_categories=4, seed=3).graph


def _edge_body(src, dst, weights) -> bytes:
    """A ``POST /graphs`` body: int64 sources, int64 targets, float64
    weights, little-endian."""
    return (
        np.asarray([*src, *dst], dtype="<i8").tobytes()
        + np.asarray(weights, dtype="<f8").tobytes()
    )


# ----------------------------------------------------------------------
# Satellite: ArtifactCache is safe under concurrent access
# ----------------------------------------------------------------------
class TestCacheThreadSafety:
    def test_two_thread_hammer(self, small_graph) -> None:
        """Concurrent put/get with eviction pressure must not corrupt
        the LRU order, byte accounting or hit/miss counters."""
        from repro.engine.cache import _graph_nbytes

        sym = SymmetrizeClusterPipeline(
            "naive", "metis"
        ).symmetrize(small_graph)
        single = _graph_nbytes(sym)
        # Room for only a handful of entries -> constant eviction.
        cache = ArtifactCache(max_bytes=max(single, 1) * 3)
        errors: list[BaseException] = []

        def hammer(seed: int) -> None:
            try:
                for i in range(300):
                    key = f"{'%032x' % ((seed * 1000 + i) % 7)}"
                    if i % 2:
                        cache.put(key, sym)
                    else:
                        cache.get(key)
                    assert cache.memory_bytes >= 0
            except BaseException as exc:  # noqa: BLE001 - test capture
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors, errors
        stats = cache.stats()
        assert stats["memory_entries"] == len(cache)
        assert cache.hits + cache.misses == 300
        assert cache.memory_bytes <= max(single, 1) * 3

    def test_promote_under_lock(self, tmp_path, small_graph) -> None:
        """get() promoting a disk hit re-enters the lock (RLock)."""
        sym = SymmetrizeClusterPipeline(
            "naive", "metis"
        ).symmetrize(small_graph)
        cache = ArtifactCache(directory=tmp_path)
        key = "ab" * 16
        cache.put(key, sym)
        cache._memory.clear()
        cache._memory_bytes = 0
        assert cache.get(key) is not None  # disk hit, promoted
        assert key in cache


# ----------------------------------------------------------------------
# Satellite: WorkerPool.close() drains without leaking processes
# ----------------------------------------------------------------------
def _sleep_then_square(payload: float) -> float:
    time.sleep(payload)
    return payload * payload


class TestWorkerPoolClose:
    def test_close_reaps_workers(self) -> None:
        pool = WorkerPool(max_workers=2)
        results = pool.run(_sleep_then_square, [0.0, 0.0])
        if results is None:
            pytest.skip("process pools unavailable in this sandbox")
        assert results == [0.0, 0.0]
        pool.close(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while (
            multiprocessing.active_children()
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_close_idempotent(self) -> None:
        pool = WorkerPool(max_workers=1)
        pool.close()
        pool.close()  # second close is a no-op, not an error


# ----------------------------------------------------------------------
# Satellite: ambient_scope isolates interleaved tasks
# ----------------------------------------------------------------------
class TestAmbientScope:
    def test_installs_and_resets_everything(self) -> None:
        cache = ArtifactCache()
        tracer = Tracer()
        metrics = MetricsRegistry()
        assert current_cache() is None
        with ambient_scope(
            cache=cache, tracer=tracer, metrics=metrics
        ) as state:
            assert state.cache is cache
            assert current_cache() is cache
            assert current_tracer() is tracer
            assert current_metrics() is metrics
        assert current_cache() is None
        assert current_tracer() is None
        assert current_metrics() is None

    def test_reset_on_exception(self) -> None:
        with pytest.raises(RuntimeError), ambient_scope(
            cache=ArtifactCache(), tracer=Tracer()
        ):
            raise RuntimeError("boom")
        assert current_cache() is None
        assert current_tracer() is None

    def test_isolate_severs_inheritance(self) -> None:
        outer = ArtifactCache()
        with ambient_scope(cache=outer):
            with ambient_scope(isolate=True):
                assert current_cache() is None
                assert current_journal() is None
            assert current_cache() is outer

    def test_interleaved_tasks_never_cross(self) -> None:
        """Two asyncio tasks interleaving inside their own scopes
        must each observe only their own registries throughout."""
        observed: dict[str, list[bool]] = {"a": [], "b": []}

        async def worker(name: str, barrier: asyncio.Barrier) -> None:
            mine_cache, mine_metrics = ArtifactCache(), MetricsRegistry()
            with ambient_scope(
                cache=mine_cache, metrics=mine_metrics, isolate=True
            ):
                for _ in range(5):
                    await barrier.wait()  # force interleaving
                    observed[name].append(
                        current_cache() is mine_cache
                        and current_metrics() is mine_metrics
                    )

        async def main() -> None:
            barrier = asyncio.Barrier(2)
            await asyncio.gather(
                worker("a", barrier), worker("b", barrier)
            )

        asyncio.run(main())
        assert observed["a"] == [True] * 5
        assert observed["b"] == [True] * 5

    def test_interleaved_threads_never_cross(self) -> None:
        """Same property across pooled worker threads — the daemon's
        actual execution substrate."""
        failures: list[str] = []
        start = threading.Barrier(2)

        def worker(name: str) -> None:
            mine = ArtifactCache()
            start.wait()
            with ambient_scope(cache=mine, isolate=True):
                for _ in range(200):
                    if current_cache() is not mine:
                        failures.append(name)

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not failures


# ----------------------------------------------------------------------
# Satellite: JournalTailer vs an actively-appended journal
# ----------------------------------------------------------------------
class TestJournalTailer:
    def test_partial_trailing_record_retried(self, tmp_path) -> None:
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path, run_id="r1")
        journal.start("test", "t", "sha", "strict")
        journal.record_stage("p", 0, "symmetrize", None, 0.1, 1)

        tailer = JournalTailer(path, run_id="r1")
        first = tailer.poll()
        assert [r["type"] for r in first] == [
            "run_start",
            "stage_done",
        ]

        # Simulate an in-flight append: half a record, no newline.
        full_line = (
            json.dumps(
                {
                    "schema": "repro-journal/v1",
                    "run_id": "r1",
                    "type": "run_end",
                    "status": "complete",
                }
            )
            + "\n"
        )
        with path.open("a") as handle:
            handle.write(full_line[:10])
            handle.flush()
        # Partial tail is not an error and not consumed.
        assert tailer.poll() == []
        with path.open("a") as handle:
            handle.write(full_line[10:])
        assert [r["type"] for r in tailer.poll()] == ["run_end"]
        # Offset advanced past everything; nothing re-delivered.
        assert tailer.poll() == []
        journal.close()

    def test_filters_other_runs(self, tmp_path) -> None:
        path = tmp_path / "journal.jsonl"
        for run_id in ("r1", "r2"):
            journal = RunJournal(path, run_id=run_id)
            journal.start("test", "t", "sha", "strict")
            journal.close()
        tailer = JournalTailer(path, run_id="r2")
        records = tailer.poll()
        assert len(records) == 1
        assert records[0]["run_id"] == "r2"

    def test_missing_file_is_empty(self, tmp_path) -> None:
        tailer = JournalTailer(tmp_path / "nope.jsonl")
        assert tailer.poll() == []

    def test_malformed_complete_line_raises(self, tmp_path) -> None:
        path = tmp_path / "journal.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ReproError):
            JournalTailer(path).poll()


# ----------------------------------------------------------------------
# JobManager unit tests (no HTTP)
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_rejects_unknown_kind(self) -> None:
        with pytest.raises(ServiceError, match="unknown job kind"):
            JobSpec.from_dict({"kind": "nope", "graph": "g"})

    def test_rejects_missing_graph(self) -> None:
        with pytest.raises(ServiceError, match="'graph'"):
            JobSpec.from_dict({"kind": "cluster"})

    def test_sweep_needs_counts(self) -> None:
        with pytest.raises(ServiceError, match="counts"):
            JobSpec.from_dict({"kind": "sweep", "graph": "g"})

    def test_counts_only_for_sweep(self) -> None:
        with pytest.raises(ServiceError, match="only valid"):
            JobSpec.from_dict(
                {"kind": "cluster", "graph": "g", "counts": [2]}
            )


class TestJobManager:
    def test_dedup_and_shared_result(
        self, tmp_path, small_graph
    ) -> None:
        manager = JobManager(tmp_path, max_workers=2)
        manager.register_graph("g", small_graph)
        spec = JobSpec.from_dict(
            {"kind": "cluster", "graph": "g", "n_clusters": 4}
        )
        job1, dedup1 = manager.submit(spec, "alice")
        job2, dedup2 = manager.submit(spec, "bob")
        assert job1 is job2
        assert (dedup1, dedup2) == (False, True)
        assert job1.done.wait(60)
        assert job1.state == "done", job1.error
        assert sorted(job1.clients) == ["alice", "bob"]
        counters = manager.metrics.as_dict()["counters"]
        assert counters["service_job_executions_total"] == 1
        assert counters["service_dedup_hits_total"] == 1
        manager.close()

    def test_dedup_hits_completed_job(
        self, tmp_path, small_graph
    ) -> None:
        manager = JobManager(tmp_path, max_workers=1)
        manager.register_graph("g", small_graph)
        spec = JobSpec.from_dict(
            {"kind": "symmetrize", "graph": "g"}
        )
        job1, _ = manager.submit(spec, "alice")
        assert job1.done.wait(60)
        job2, deduped = manager.submit(spec, "carol")
        assert deduped and job2 is job1
        manager.close()

    def test_distinct_specs_are_distinct_jobs(
        self, tmp_path, small_graph
    ) -> None:
        manager = JobManager(tmp_path, max_workers=2)
        manager.register_graph("g", small_graph)
        a, _ = manager.submit(
            JobSpec.from_dict(
                {"kind": "cluster", "graph": "g", "n_clusters": 4}
            ),
            "alice",
        )
        b, deduped = manager.submit(
            JobSpec.from_dict(
                {"kind": "cluster", "graph": "g", "n_clusters": 8}
            ),
            "alice",
        )
        assert not deduped and a is not b
        assert a.done.wait(60) and b.done.wait(60)
        manager.close()

    def test_client_budget_enforced(
        self, tmp_path, small_graph
    ) -> None:
        from repro.exceptions import BudgetExceeded

        manager = JobManager(
            tmp_path, max_workers=1, client_wall_s=1e-9
        )
        manager.register_graph("g", small_graph)
        spec = JobSpec.from_dict(
            {"kind": "symmetrize", "graph": "g"}
        )
        job, _ = manager.submit(spec, "greedy")  # spent still 0
        assert job.done.wait(60)
        with pytest.raises(BudgetExceeded):
            manager.submit(
                JobSpec.from_dict(
                    {
                        "kind": "symmetrize",
                        "graph": "g",
                        "mode": "lenient",
                    }
                ),
                "greedy",
            )
        # Dedup riders are not charged and not denied.
        rider, deduped = manager.submit(spec, "frugal")
        assert deduped and rider is job
        counters = manager.metrics.as_dict()["counters"]
        assert counters["service_budget_denials_total"] == 1
        manager.close()

    def test_failed_job_reruns(self, tmp_path, small_graph) -> None:
        manager = JobManager(tmp_path, max_workers=1)
        manager.register_graph("g", small_graph)
        bad = JobSpec.from_dict(
            {
                "kind": "cluster",
                "graph": "g",
                "n_clusters": 10**6,  # k > n: ClusteringError
            }
        )
        job1, _ = manager.submit(bad, "alice")
        assert job1.done.wait(60)
        assert job1.state == "failed"
        job2, deduped = manager.submit(bad, "alice")
        assert not deduped and job2 is not job1
        assert job2.done.wait(60)
        manager.close()

    def test_register_conflicts(self, tmp_path, small_graph) -> None:
        manager = JobManager(tmp_path)
        manager.register_graph("g", small_graph)
        manager.register_graph("g", small_graph)  # idempotent
        other = make_cora_like(
            n_nodes=60, n_categories=3, seed=9
        ).graph
        with pytest.raises(ServiceError, match="already registered"):
            manager.register_graph("g", other)
        with pytest.raises(ServiceError, match="no graph"):
            manager.graph("missing")
        manager.close()

    def test_manifest_log_has_job_section(
        self, tmp_path, small_graph
    ) -> None:
        manager = JobManager(tmp_path, max_workers=1)
        manager.register_graph("g", small_graph)
        job, _ = manager.submit(
            JobSpec.from_dict(
                {"kind": "cluster", "graph": "g", "n_clusters": 4}
            ),
            "alice",
        )
        assert job.done.wait(60)
        lines = (
            (tmp_path / "manifests.jsonl").read_text().splitlines()
        )
        assert len(lines) == 1
        manifest = json.loads(lines[0])
        assert manifest["job"]["job_id"] == job.job_id
        assert manifest["job"]["clients"] == ["alice"]
        manager.close()

    @pytest.mark.parametrize(
        "kwargs,flags",
        [
            ({"max_workers": 0}, ["--workers", "0"]),
            ({"max_queue_depth": -1}, ["--max-queue", "-1"]),
            ({"max_jobs": -1}, ["--max-jobs", "-1"]),
            ({"max_job_age_s": -1.0}, ["--max-job-age", "-1"]),
        ],
    )
    def test_bad_bounds_rejected_before_disk(
        self, tmp_path, capsys, kwargs, flags
    ) -> None:
        from repro.cli import main

        state = tmp_path / "state"
        with pytest.raises(ServiceError, match=r"must be >= [01]"):
            JobManager(state, **kwargs)
        assert not state.exists()
        argv = ["serve", "--port", "0", "--state-dir", str(state), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not state.exists()

    def test_zero_bounds_are_legal(self, tmp_path) -> None:
        manager = JobManager(
            tmp_path, max_queue_depth=0, max_jobs=0, max_job_age_s=0.0
        )
        manager.close()


# ----------------------------------------------------------------------
# Live-server integration
# ----------------------------------------------------------------------
@contextlib.contextmanager
def live_server(tmp_path, **kwargs):
    server = ServiceServer(str(tmp_path / "svc"), port=0, **kwargs)
    ready = threading.Event()
    outcome: dict[str, bool] = {}

    def run() -> None:
        async def main() -> bool:
            await server.start()
            ready.set()
            return await server.serve_until_shutdown()

        outcome["clean"] = asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(15), "server did not start"
    try:
        yield server
    finally:
        if not server._shutdown.is_set():
            with contextlib.suppress(Exception):
                ServiceClient("127.0.0.1", server.port).shutdown()
        thread.join(30)
        assert not thread.is_alive(), "server thread leaked"
        outcome.setdefault("clean", False)
        assert outcome["clean"], "job manager did not drain cleanly"


class TestServiceIntegration:
    def test_concurrent_submitters_dedup_and_byte_identity(
        self, tmp_path, small_graph
    ) -> None:
        """Eight concurrent clients posting the identical request
        share one execution, and its labels are byte-identical to
        the in-process library path."""
        reference = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl"
        ).run(small_graph, n_clusters=4)
        reference_sha = hashlib.sha256(
            np.ascontiguousarray(
                reference.clustering.labels, dtype=np.int64
            ).tobytes()
        ).hexdigest()[:16]

        with live_server(tmp_path, max_workers=2) as server:
            ServiceClient(
                "127.0.0.1", server.port, client="loader"
            ).register_graph("cora", small_graph)

            responses: dict[int, dict] = {}
            errors: list[BaseException] = []
            start = threading.Barrier(8)

            def submitter(index: int) -> None:
                try:
                    client = ServiceClient(
                        "127.0.0.1",
                        server.port,
                        client=f"client-{index}",
                    )
                    start.wait(15)
                    sub = client.submit(
                        kind="cluster",
                        graph="cora",
                        n_clusters=4,
                    )
                    result = client.result(
                        sub["job_id"], timeout=120
                    )
                    responses[index] = {**sub, "result": result}
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not errors, errors
            assert len(responses) == 8

            job_ids = {r["job_id"] for r in responses.values()}
            assert len(job_ids) == 1, "identical requests split"
            assert (
                sum(1 for r in responses.values() if r["deduped"])
                == 7
            )
            shas = {
                r["result"]["labels_sha256"]
                for r in responses.values()
            }
            assert shas == {reference_sha}
            assert responses[0]["result"]["labels"] == [
                int(v) for v in reference.clustering.labels
            ]

            stats = ServiceClient("127.0.0.1", server.port).stats()
            counters = stats["metrics"]["counters"]
            assert counters["service_job_executions_total"] == 1
            assert counters["service_dedup_hits_total"] == 7

        # Clean shutdown leaves no worker processes behind.
        deadline = time.monotonic() + 10.0
        while (
            multiprocessing.active_children()
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_events_stream_and_errors(
        self, tmp_path, small_graph
    ) -> None:
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient(
                "127.0.0.1", server.port, client="alice"
            )
            assert client.health()["status"] == "ok"
            client.register_graph("cora", small_graph)
            assert [g["name"] for g in client.graphs()] == ["cora"]

            sub = client.submit(
                kind="cluster", graph="cora", n_clusters=4
            )
            client.result(sub["job_id"], timeout=60)
            events = list(client.events(sub["job_id"]))
            types = [e["type"] for e in events]
            assert types[0] == "run_start"
            assert "stage_done" in types
            assert types[-1] == "job_end"
            assert events[-1]["state"] == "done"
            assert all(
                e.get("run_id") == sub["job_id"]
                for e in events[:-1]
            )

            with pytest.raises(ServiceError, match="no graph"):
                client.submit(
                    kind="cluster", graph="nope", n_clusters=4
                )
            with pytest.raises(ServiceError, match="unknown job kind"):
                client.submit(kind="nope", graph="cora")
            with pytest.raises(ServiceError, match="no job"):
                client.job("job-missing")

    def test_budget_denial_reconstructs_budget_exceeded(
        self, tmp_path, small_graph
    ) -> None:
        with live_server(
            tmp_path, max_workers=1, client_wall_s=1e-9
        ) as server:
            client = ServiceClient(
                "127.0.0.1", server.port, client="greedy"
            )
            client.register_graph("cora", small_graph)
            sub = client.submit(kind="symmetrize", graph="cora")
            client.result(sub["job_id"], timeout=60)
            # The structured 429 body round-trips into a real
            # BudgetExceeded with its fields intact.
            with pytest.raises(BudgetExceeded) as excinfo:
                client.submit(
                    kind="symmetrize",
                    graph="cora",
                    mode="lenient",
                )
            assert excinfo.value.scope == "client:greedy"
            assert excinfo.value.resource == "wall_s"
            assert excinfo.value.limit == 1e-9

    def test_jobs_listing_and_wait(
        self, tmp_path, small_graph
    ) -> None:
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            client.register_graph("cora", small_graph)
            sub = client.submit(
                kind="sweep", graph="cora", counts=[2, 4]
            )
            job = client.job(sub["job_id"], wait=60)
            assert job["state"] == "done"
            assert len(job["result"]["points"]) == 2
            listed = client.jobs()
            assert [j["job_id"] for j in listed] == [sub["job_id"]]

    @pytest.mark.parametrize(
        "fields",
        [
            {"threshold": float("nan")},
            {"threshold": "inf"},
            {"threshold": -1.0},
            {"n_clusters": 0},
            {"kind": "sweep", "counts": [0]},
            {"tuning": "fast"},
            {"clusterer": "louvain"},
        ],
        ids=[
            "nan-threshold",
            "inf-threshold",
            "negative-threshold",
            "zero-clusters",
            "zero-count",
            "unknown-tuning",
            "unregistered-clusterer",
        ],
    )
    def test_out_of_range_spec_is_rejected(
        self, tmp_path, small_graph, fields
    ) -> None:
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            client.register_graph("cora", small_graph)
            status, _, body = client._once(
                "POST",
                "/jobs",
                {
                    "kind": "cluster",
                    "graph": "cora",
                    "n_clusters": 4,
                    **fields,
                },
            )
            assert status == 400, body
            assert body["code"] == "invalid_request"
            assert client.jobs() == []


    @pytest.mark.parametrize(
        ("path", "body"),
        [
            ("/graphs?name=g", _edge_body([0], [1], [1.0]) + b"\0"),
            ("/graphs", _edge_body([0], [1], [1.0])),
            ("/graphs?name=a/b", _edge_body([0], [1], [1.0])),
            ("/graphs?name=g&n_nodes=abc", _edge_body([0], [1], [1.0])),
            ("/graphs?name=g&n_nodes=", _edge_body([0], [1], [1.0])),
            ("/graphs?name=g", _edge_body([-1], [1], [1.0])),
            ("/graphs?name=g&n_nodes=2", _edge_body([0], [2], [1.0])),
            ("/graphs?name=g", _edge_body([0], [1], [float("nan")])),
            ("/graphs?name=g", _edge_body([0], [1], [float("inf")])),
            ("/graphs?name=g", _edge_body([0], [1], [-1.0])),
            ("/graphs?name=g", {"name": "g", "edges": [[0, 1, 1.0]]}),
        ],
        ids=[
            "ragged-length",
            "missing-name",
            "slash-in-name",
            "string-n-nodes",
            "empty-n-nodes",
            "negative-id",
            "id-past-n-nodes",
            "nan-weight",
            "inf-weight",
            "negative-weight",
            "json-edges",
        ],
    )
    def test_malformed_upload_is_rejected(
        self, tmp_path, path, body
    ) -> None:
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            status, _, reply = client._once("POST", path, body)
            assert status == 400, reply
            assert reply["code"] == "invalid_request"
            if isinstance(body, dict):
                assert "application/octet-stream" in reply["error"]
            assert client.graphs() == []

    @pytest.mark.parametrize(
        "query",
        ["", "&n_nodes=100000001", "&n_nodes=" + "9" * 5000],
        ids=["inferred", "declared", "declared-5000-digits"],
    )
    def test_upload_past_the_row_pointer_bound_is_refused(
        self, tmp_path, query
    ) -> None:
        """One edge to node 10**8 would make the daemon allocate an
        800 MB row pointer: it is a 413 before anything is built or
        persisted. Node 10**6 (an 8 MB row pointer) still registers."""
        state = tmp_path / "state"
        with live_server(
            tmp_path, max_workers=1, store=ServiceStore(state)
        ) as server:
            client = ServiceClient("127.0.0.1", server.port)
            started = time.monotonic()
            status, _, reply = client._once(
                "POST",
                f"/graphs?name=big{query}",
                _edge_body([0], [10**8], [1.0]),
            )
            assert time.monotonic() - started < 1.0
            assert status == 413, reply
            assert client.graphs() == []
            assert not list(state.glob("graphs/*"))
            status, _, reply = client._once(
                "POST", "/graphs?name=wide", _edge_body([0], [10**6], [1.0])
            )
            assert status == 201, reply
            assert reply["n_nodes"] == 10**6 + 1
            assert [g["name"] for g in client.graphs()] == ["wide"]

    def test_registration_leaves_the_event_loop_free(
        self, tmp_path, small_graph, monkeypatch
    ) -> None:
        """An upload held inside ``register_graph`` (the content hash
        and, with a store, the MmapCSR publish) does not stall other
        connections: ``GET /livez`` answers while it waits."""
        entered, release = threading.Event(), threading.Event()
        register = JobManager.register_graph

        def held(manager, name, graph):
            entered.set()
            release.wait(5)
            return register(manager, name, graph)

        monkeypatch.setattr(JobManager, "register_graph", held)
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            upload = threading.Thread(
                target=client.register_graph, args=("g", small_graph)
            )
            upload.start()
            try:
                assert entered.wait(15), "upload never registered"
                started = time.monotonic()
                assert client._request("GET", "/livez") == {
                    "status": "alive"
                }
                assert time.monotonic() - started < 2.0
            finally:
                release.set()
                upload.join(30)
            assert not upload.is_alive()
            assert [g["name"] for g in client.graphs()] == ["g"]

    @pytest.mark.parametrize("which", ["small_graph", "wikipedia_like"])
    def test_upload_round_trips_the_graph(
        self, tmp_path, small_graph, which
    ) -> None:
        """A client upload registers the graph ``from_edge_arrays``
        builds from the same columns: same sha, CSR bytes and index
        dtypes."""
        graph = (
            small_graph
            if which == "small_graph"
            else make_wikipedia_like(1000, 16, seed=8).graph
        )
        adjacency = graph.adjacency
        expected = DirectedGraph.from_edge_arrays(
            np.repeat(np.arange(graph.n_nodes), np.diff(adjacency.indptr)),
            adjacency.indices,
            adjacency.data,
            n_nodes=graph.n_nodes,
        )
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            client.register_graph("g", graph)
            [listed] = client.graphs()
            assert listed["sha"] == fingerprint_graph(expected)["sha256"]
            assert listed["n_edges"] == graph.n_edges
            got = server.manager.graph("g").graph.adjacency
        for field in ("indptr", "indices", "data"):
            want = getattr(expected.adjacency, field)
            assert getattr(got, field).dtype == want.dtype, field
            assert getattr(got, field).tobytes() == want.tobytes(), field


# ----------------------------------------------------------------------
# Content addresses: results already in a --state-dir must keep deduping
# ----------------------------------------------------------------------
#: ``job_key`` of untuned specs on ``small_graph`` registered as "g",
#: as computed while jobs still carried a ``tuning`` field.
PINNED_JOB_KEYS = {
    "cluster": (
        {"kind": "cluster", "graph": "g", "n_clusters": 4,
         "threshold": 0.1},
        "93799b4406718295a81a86187221b7ef",
    ),
    "symmetrize": (
        {"kind": "symmetrize", "graph": "g"},
        "08105cfb4fb6e7c565b020748590a466",
    ),
    "sweep": (
        {"kind": "sweep", "graph": "g", "counts": [2, 4]},
        "b47ab06253a5278e4e68544b0bd729b3",
    ),
}


class TestContentAddressPin:
    @pytest.mark.parametrize("kind", sorted(PINNED_JOB_KEYS))
    def test_untuned_job_key_is_pinned(
        self, tmp_path, small_graph, kind
    ) -> None:
        body, key = PINNED_JOB_KEYS[kind]
        manager = JobManager(tmp_path, max_workers=1)
        try:
            manager.register_graph("g", small_graph)
            assert manager.job_key(JobSpec.from_dict(body)) == key
        finally:
            manager.close()

    def test_auto_tuning_runs_as_the_untuned_job(
        self, tmp_path, small_graph
    ) -> None:
        body, key = PINNED_JOB_KEYS["cluster"]
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            client.register_graph("g", small_graph)
            untuned = client.submit(**body)
            auto = client.submit(**body, tuning="auto")
            assert untuned["key"] == auto["key"] == key
            assert auto["job_id"] == untuned["job_id"]
            assert auto["deduped"] is True
            client.result(untuned["job_id"], timeout=60)
            counters = client.stats()["metrics"]["counters"]
            assert counters["service_job_executions_total"] == 1
