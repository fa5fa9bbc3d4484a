"""PR 10: durable, crash-safe service runtime.

Four claims under test:

1. **Persistent state** — graphs, results and job tombstones survive
   SIGKILL; a recovering daemon serves byte-identical results and
   re-runs exactly the incomplete jobs (parametrized kill-point
   differential in :class:`TestKillPoints`, via a subprocess driver
   that arms ``kill_process`` chaos faults).
2. **Supervised execution** — a job that kills its worker process is
   retried, and quarantined in the terminal ``crashed`` state after
   two deaths (:class:`TestSupervisor`).
3. **Graceful degradation** — bounded-queue admission control sheds
   with :class:`ServiceOverloaded` / HTTP 503 + ``Retry-After``; the
   ENOSPC path flips the store read-only instead of dying
   (:class:`TestOverload`, :class:`TestServiceStore`).
4. **Client hardening** — the retrying client rides out sheds and
   restarts, and the structured error codes round-trip into typed
   exceptions (:class:`TestOverload`, :class:`TestErrorTaxonomy`).

Plus the satellites: shutdown lets slow event-stream readers drain to
the ``job_end`` sentinel (:class:`TestShutdownDrain`), and job GC
evicts by count/age (:class:`TestEviction`).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.datasets import make_cora_like
from repro.engine import RetryPolicy
from repro.engine.chaos import Fault, FaultPlan, inject_faults
from repro.engine.pool import WorkerPool
from repro.exceptions import ServiceOverloaded
from repro.graph import DirectedGraph
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.service import (
    JobManager,
    JobSpec,
    ServiceClient,
    ServiceServer,
    ServiceStore,
    error_code_for,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

CLUSTER_SPEC = {
    "kind": "cluster",
    "graph": "cora",
    "method": "degree_discounted",
    "clusterer": "mlrmcl",
    "n_clusters": 4,
}


def _graph() -> DirectedGraph:
    return make_cora_like(n_nodes=80, n_categories=4, seed=11).graph


@pytest.fixture
def small_graph() -> DirectedGraph:
    return _graph()


@pytest.fixture
def reference_sha(small_graph) -> str:
    """Labels sha of the uninterrupted in-process run — the byte
    identity every recovery path must reproduce."""
    result = SymmetrizeClusterPipeline(
        "degree_discounted", "mlrmcl"
    ).run(small_graph, n_clusters=4)
    from repro.service.jobs import _labels_sha

    return _labels_sha(result.clustering.labels)


def _pool_available() -> bool:
    pool = WorkerPool(1)
    try:
        return pool.run(abs, [-1]) is not None
    finally:
        pool.close()


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


# ----------------------------------------------------------------------
# ServiceStore unit behavior
# ----------------------------------------------------------------------
class TestServiceStore:
    def test_graph_round_trip_keeps_recorded_sha(
        self, tmp_path, small_graph
    ) -> None:
        """The WAL-recorded fingerprint survives recovery even
        though the persisted (int32-index) store would re-hash
        differently — job content addresses stay stable."""
        from repro.obs.manifest import fingerprint_graph

        sha = fingerprint_graph(small_graph)["sha256"]
        store = ServiceStore(tmp_path / "state")
        assert store.put_graph("cora", small_graph, sha) is not None
        loaded = store.load_graphs()
        assert len(loaded) == 1
        name, graph, loaded_sha, _created = loaded[0]
        assert name == "cora"
        assert loaded_sha == sha
        assert graph.n_nodes == small_graph.n_nodes
        assert graph.n_edges == small_graph.n_edges

    def test_incomplete_jobs_tombstone_logic(self, tmp_path) -> None:
        """Incomplete = started, not ended, no result file. A crash
        between result publish and job_end re-serves the result."""

        class _FakeJob:
            def __init__(self, key: str) -> None:
                self.job_id = f"job-{key[:16]}"
                self.key = key
                self.clients = ["t"]
                self.spec = JobSpec.from_dict(dict(CLUSTER_SPEC))
                self.state = "done"
                self.result = {"labels": [0, 1]}
                self.warnings = []
                self.error = None
                self.error_type = None
                self.created_unix = 1.0
                self.started_unix = 1.0
                self.finished_unix = 2.0

        store = ServiceStore(tmp_path / "state")
        ended = _FakeJob("aa" * 16)
        interrupted = _FakeJob("bb" * 16)
        published = _FakeJob("cc" * 16)
        for job in (ended, interrupted, published):
            store.record_job_start(job)
        store.put_result(ended)
        store.record_job_end(ended)
        store.put_result(published)  # crash before job_end
        incomplete = store.incomplete_jobs()
        assert [r["key"] for r in incomplete] == [interrupted.key]

    def test_enospc_flips_read_only_not_fatal(
        self, tmp_path, small_graph
    ) -> None:
        """A full disk degrades persistence; it never kills the
        daemon or raises out of the put."""
        store = ServiceStore(tmp_path / "state")
        job = type(
            "J",
            (),
            {
                "job_id": "job-x",
                "key": "dd" * 16,
                "clients": ["t"],
                "spec": JobSpec.from_dict(dict(CLUSTER_SPEC)),
                "state": "done",
                "result": {},
                "warnings": [],
                "error": None,
                "error_type": None,
                "created_unix": 1.0,
                "started_unix": 1.0,
                "finished_unix": 2.0,
            },
        )()
        plan = FaultPlan(
            [Fault(site="service.store_put", kind="enospc", at=1)]
        )
        with inject_faults(plan), pytest.warns(Warning):
            assert store.put_result(job) is False
        assert store.read_only
        counters = store.metrics.as_dict()["counters"]
        assert counters["service_store_degraded_total"] == 1
        # Subsequent puts are silent no-ops, not errors.
        assert store.put_graph("cora", small_graph, "ab" * 8) is None

    def test_disk_watchdog(self, tmp_path) -> None:
        store = ServiceStore(
            tmp_path / "state", min_free_bytes=1 << 62
        )
        with pytest.warns(Warning):
            assert store.check_disk() is False
        assert store.read_only


# ----------------------------------------------------------------------
# In-process recovery differential
# ----------------------------------------------------------------------
class TestManagerDurability:
    def test_completed_results_recover_without_rerun(
        self, tmp_path, small_graph, reference_sha
    ) -> None:
        """A restarted manager serves the recorded result bytes —
        zero re-executions, dedup against the recovered record."""
        state = tmp_path / "state"
        spec = JobSpec.from_dict(dict(CLUSTER_SPEC))
        first = JobManager(
            state, store=ServiceStore(state), max_workers=1
        )
        first.register_graph("cora", small_graph)
        job, deduped = first.submit(spec, client="a")
        assert not deduped
        assert job.done.wait(120)
        assert job.state == "done"
        assert job.result["labels_sha256"] == reference_sha
        original = json.dumps(job.result, sort_keys=True)
        first.close()

        second = JobManager(
            state, store=ServiceStore(state), max_workers=1
        )
        counters = second.metrics.as_dict()["counters"]
        assert counters["service_graphs_recovered_total"] == 1
        assert counters["service_results_recovered_total"] == 1
        assert "service_jobs_rerun_total" not in counters
        recovered, deduped = second.submit(spec, client="b")
        assert deduped, "identical spec must join the recovered job"
        assert recovered.recovered
        assert (
            json.dumps(recovered.result, sort_keys=True) == original
        )
        assert (
            "service_job_executions_total"
            not in second.metrics.as_dict()["counters"]
        )
        second.close()

    def test_incomplete_tombstone_reruns_on_recovery(
        self, tmp_path, small_graph, reference_sha
    ) -> None:
        """A job_start with no job_end and no result re-runs at
        construction and converges to the reference bytes."""
        state = tmp_path / "state"
        spec = JobSpec.from_dict(dict(CLUSTER_SPEC))
        first = JobManager(
            state, store=ServiceStore(state), max_workers=1
        )
        first.register_graph("cora", small_graph)
        key = first.job_key(spec)
        fake = type(
            "J",
            (),
            {
                "job_id": f"job-{key[:16]}",
                "key": key,
                "clients": ["crashed-client"],
                "spec": spec,
                "created_unix": time.time(),
            },
        )()
        first.store.record_job_start(fake)
        first.close()

        with pytest.warns(Warning, match="re-running"):
            second = JobManager(
                state, store=ServiceStore(state), max_workers=1
            )
        counters = second.metrics.as_dict()["counters"]
        assert counters["service_jobs_rerun_total"] == 1
        job = second.job(f"job-{key[:16]}")
        assert job.done.wait(120)
        assert job.state == "done"
        assert job.result["labels_sha256"] == reference_sha
        assert job.clients[0] == "crashed-client"
        second.close()

    def test_jobs_of_an_unregistered_clusterer_recover(
        self, tmp_path, small_graph, monkeypatch
    ) -> None:
        """A state dir written while a clusterer was registered (an
        older daemon's Louvain jobs) recovers after the clusterer is
        gone: the finished job's result is served byte for byte and
        the incomplete one is not re-run."""
        from repro.cluster import common
        from repro.cluster.metis import MetisClusterer

        class Retired(MetisClusterer):
            name = "louvain"

        monkeypatch.setitem(common._REGISTRY, "louvain", Retired)
        state = tmp_path / "state"
        first = JobManager(
            state, store=ServiceStore(state), max_workers=1
        )
        first.register_graph("cora", small_graph)
        finished, _ = first.submit(
            JobSpec.from_dict({**CLUSTER_SPEC, "clusterer": "louvain"}),
            client="a",
        )
        assert finished.done.wait(120)
        assert finished.state == "done"
        original = json.dumps(finished.result, sort_keys=True)
        spec = JobSpec.from_dict(
            {**CLUSTER_SPEC, "clusterer": "louvain", "n_clusters": 3}
        )
        key = first.job_key(spec)
        interrupted = type(
            "J",
            (),
            {
                "job_id": f"job-{key[:16]}",
                "key": key,
                "clients": ["crashed-client"],
                "spec": spec,
                "created_unix": time.time(),
            },
        )()
        first.store.record_job_start(interrupted)
        first.close()
        monkeypatch.delitem(common._REGISTRY, "louvain")

        second = JobManager(
            state, store=ServiceStore(state), max_workers=1
        )
        counters = second.metrics.as_dict()["counters"]
        assert counters["service_results_recovered_total"] == 1
        assert "service_jobs_rerun_total" not in counters
        recovered = second.job(finished.job_id)
        assert json.dumps(recovered.result, sort_keys=True) == original
        assert [j["job_id"] for j in second.jobs()] == [finished.job_id]
        assert (
            "service_job_executions_total"
            not in second.metrics.as_dict()["counters"]
        )
        second.close()


# ----------------------------------------------------------------------
# Kill-point differential (SIGKILL via chaos, subprocess driver)
# ----------------------------------------------------------------------
_DRIVER = textwrap.dedent(
    """
    import json, sys
    from repro.datasets import make_cora_like
    from repro.engine.chaos import Fault, FaultPlan, inject_faults
    from repro.service import JobManager, JobSpec, ServiceStore

    state_dir, mode = sys.argv[1], sys.argv[2]
    site = sys.argv[3] if len(sys.argv) > 3 else ""
    at = int(sys.argv[4]) if len(sys.argv) > 4 else 0

    graph = make_cora_like(n_nodes=80, n_categories=4, seed=11).graph
    spec = JobSpec.from_dict({
        "kind": "cluster", "graph": "cora",
        "method": "degree_discounted", "clusterer": "mlrmcl",
        "n_clusters": 4,
    })

    def run():
        manager = JobManager(
            state_dir, store=ServiceStore(state_dir), max_workers=1
        )
        pre = dict(manager.metrics.as_dict()["counters"])
        if not any(g["name"] == "cora" for g in manager.graphs()):
            manager.register_graph("cora", graph)
        job, deduped = manager.submit(spec, client="driver")
        assert job.done.wait(180), "job did not finish"
        out = {
            "state": job.state,
            "deduped": deduped,
            "labels_sha256": (job.result or {}).get("labels_sha256"),
            "graphs_recovered": pre.get(
                "service_graphs_recovered_total", 0
            ),
            "results_recovered": pre.get(
                "service_results_recovered_total", 0
            ),
            "jobs_rerun": pre.get("service_jobs_rerun_total", 0),
            "executions": manager.metrics.as_dict()["counters"].get(
                "service_job_executions_total", 0
            ),
        }
        manager.close()
        print("DRIVER_RESULT " + json.dumps(out), flush=True)

    if mode == "crash":
        plan = FaultPlan(
            [Fault(site=site, kind="kill_process", at=at)]
        )
        with inject_faults(plan):
            run()
    else:
        run()
    """
)


class TestKillPoints:
    @pytest.mark.parametrize(
        ("site", "at", "expect_graph_recovered", "expect_rerun"),
        [
            # Killed persisting the graph at registration: nothing
            # durable yet; the recovered daemon starts clean.
            ("service.store_put", 1, 0, 0),
            # Killed mid-execution (first job-journal append after
            # the WAL's graph_registered + job_start): graph and
            # tombstone survive; the job re-runs.
            ("journal.append", 3, 1, 1),
            # Killed at result publish: execution finished but no
            # result file and no job_end; the job re-runs.
            ("service.store_put", 2, 1, 1),
        ],
        ids=["graph-register", "mid-execute", "result-publish"],
    )
    def test_sigkill_then_recover_byte_identical(
        self,
        tmp_path,
        reference_sha,
        site,
        at,
        expect_graph_recovered,
        expect_rerun,
    ) -> None:
        driver = tmp_path / "driver.py"
        driver.write_text(_DRIVER)
        state = str(tmp_path / "state")
        env = {**os.environ, "PYTHONPATH": SRC_DIR}

        crash = subprocess.run(
            [sys.executable, str(driver), state, "crash", site, str(at)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert crash.returncode == -9, (
            f"expected SIGKILL, got rc={crash.returncode}\n"
            f"stdout={crash.stdout}\nstderr={crash.stderr}"
        )

        recover = subprocess.run(
            [sys.executable, str(driver), state, "recover"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert recover.returncode == 0, recover.stderr
        line = next(
            ln
            for ln in recover.stdout.splitlines()
            if ln.startswith("DRIVER_RESULT ")
        )
        out = json.loads(line[len("DRIVER_RESULT ") :])
        assert out["state"] == "done"
        assert out["labels_sha256"] == reference_sha
        assert out["graphs_recovered"] == expect_graph_recovered
        assert out["jobs_rerun"] == expect_rerun
        # Exactly one execution ever reaches completion: either the
        # recovery re-run (joined by the driver's dedup submit) or,
        # when nothing survived, the driver's fresh submission.
        assert out["executions"] == 1
        if expect_rerun:
            assert out["deduped"], (
                "driver's submit should join the recovery re-run"
            )


# ----------------------------------------------------------------------
# Supervised process workers: crash retry and quarantine
# ----------------------------------------------------------------------
class TestSupervisor:
    pytestmark = pytest.mark.skipif(
        not _pool_available(),
        reason="no process pool in this environment",
    )

    def _manager(self, tmp_path, **kwargs) -> JobManager:
        state = tmp_path / "state"
        return JobManager(
            state,
            store=ServiceStore(state),
            max_workers=1,
            worker_mode="process",
            retry=RetryPolicy(backoff_s=0.01, max_backoff_s=0.05),
            **kwargs,
        )

    def test_worker_crash_retried_to_completion(
        self, tmp_path, small_graph, reference_sha
    ) -> None:
        """One worker death: the supervisor re-runs the job and it
        completes with the reference bytes."""
        manager = self._manager(tmp_path)
        try:
            manager.register_graph("cora", small_graph)
            plan = FaultPlan(
                [
                    Fault(
                        site="service.worker",
                        kind="kill_worker",
                        at=1,
                    )
                ]
            )
            with inject_faults(plan), pytest.warns(Warning):
                job, _ = manager.submit(
                    JobSpec.from_dict(dict(CLUSTER_SPEC)), "t"
                )
                assert job.done.wait(180)
            assert job.state == "done"
            assert job.result["labels_sha256"] == reference_sha
            counters = manager.metrics.as_dict()["counters"]
            assert counters["service_worker_crashes_total"] == 1
        finally:
            manager.close()

    def test_double_crash_quarantines_not_cached(
        self, tmp_path, small_graph
    ) -> None:
        """Two worker deaths: terminal ``crashed`` state, worker_crashed
        code, and a resubmission starts a fresh job instead of
        dedup-joining the quarantined one."""
        manager = self._manager(tmp_path)
        try:
            manager.register_graph("cora", small_graph)
            plan = FaultPlan(
                [
                    Fault(
                        site="service.worker",
                        kind="kill_worker",
                        at=1,
                        times=2,
                    )
                ]
            )
            with inject_faults(plan), pytest.warns(Warning):
                job, _ = manager.submit(
                    JobSpec.from_dict(dict(CLUSTER_SPEC)), "t"
                )
                assert job.done.wait(180)
            assert job.state == "crashed"
            assert job.error_code == "worker_crashed"
            counters = manager.metrics.as_dict()["counters"]
            assert counters["service_worker_crashes_total"] == 2
            assert counters["service_jobs_crashed_total"] == 1
            # Never sticky-cached: the same spec gets a new job.
            retry_job, deduped = manager.submit(
                JobSpec.from_dict(dict(CLUSTER_SPEC)), "t"
            )
            assert not deduped
            assert retry_job.done.wait(180)
            assert retry_job.state == "done"
        finally:
            manager.close()


# ----------------------------------------------------------------------
# Overload shedding + hardened client backoff
# ----------------------------------------------------------------------
def _slow_execute_spec(delay_s: float):
    from repro.service import jobs as jobs_module

    real = jobs_module.execute_spec

    def slowed(spec, graph, **kwargs):
        time.sleep(delay_s)
        return real(spec, graph, **kwargs)

    return slowed


class TestOverload:
    def test_manager_sheds_at_queue_bound(
        self, tmp_path, small_graph, monkeypatch
    ) -> None:
        monkeypatch.setattr(
            "repro.service.jobs.execute_spec",
            _slow_execute_spec(0.4),
        )
        manager = JobManager(
            tmp_path / "svc",
            max_workers=1,
            max_queue_depth=1,
            shed_retry_after_s=0.25,
        )
        try:
            manager.register_graph("cora", small_graph)

            def spec(i: int) -> JobSpec:
                return JobSpec.from_dict(
                    {**CLUSTER_SPEC, "threshold": i * 0.001}
                )

            first, _ = manager.submit(spec(0), "t")  # running
            # Wait until the first job leaves the queue so the
            # depth bound applies to the *queued* second job.
            deadline = time.time() + 10
            while (
                manager.job(first.job_id).state == "queued"
                and time.time() < deadline
            ):
                time.sleep(0.01)
            second, _ = manager.submit(spec(1), "t")  # queued
            with pytest.raises(ServiceOverloaded) as excinfo:
                manager.submit(spec(2), "t")
            assert excinfo.value.retry_after_s == 0.25
            # Dedup riders board even at the bound.
            rider, deduped = manager.submit(spec(1), "other")
            assert deduped and rider is second
            counters = manager.metrics.as_dict()["counters"]
            assert counters["service_shed_total"] == 1
            assert first.done.wait(60) and second.done.wait(60)
        finally:
            manager.close()

    def test_hardened_client_completes_through_sheds(
        self, tmp_path, small_graph, monkeypatch
    ) -> None:
        """Sustained over-admission: the server sheds with 503 +
        Retry-After and every submission still completes through the
        client's deterministic backoff."""
        monkeypatch.setattr(
            "repro.service.jobs.execute_spec",
            _slow_execute_spec(0.15),
        )
        with live_server(
            tmp_path,
            max_workers=1,
            max_queue_depth=1,
            shed_retry_after_s=0.05,
        ) as server:
            seed = ServiceClient("127.0.0.1", server.port)
            seed.register_graph("cora", small_graph)
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(
                    max_attempts=40,
                    backoff_s=0.05,
                    max_backoff_s=0.5,
                ),
            )
            job_ids = []
            for i in range(5):
                sub = client.submit(
                    **{**CLUSTER_SPEC, "threshold": i * 0.001}
                )
                job_ids.append(sub["job_id"])
            for job_id in job_ids:
                result = client.result(job_id, timeout=120)
                assert result["kind"] == "cluster"
            counters = client.stats()["metrics"]["counters"]
            assert counters.get("service_shed_total", 0) >= 1

    def test_shed_response_carries_retry_after(
        self, tmp_path, small_graph, monkeypatch
    ) -> None:
        """Raw HTTP: the 503 body has code=overloaded and the header
        mirrors retry_after_s; a no-retry client raises
        ServiceOverloaded."""
        monkeypatch.setattr(
            "repro.service.jobs.execute_spec",
            _slow_execute_spec(0.5),
        )
        with live_server(
            tmp_path,
            max_workers=1,
            max_queue_depth=0,
            shed_retry_after_s=2.0,
        ) as server:
            seed = ServiceClient("127.0.0.1", server.port)
            seed.register_graph("cora", small_graph)
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                conn.request(
                    "POST",
                    "/jobs",
                    body=json.dumps(CLUSTER_SPEC),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read().decode())
            finally:
                conn.close()
            assert response.status == 503
            assert body["code"] == "overloaded"
            assert body["retry_after_s"] == 2.0
            assert response.getheader("Retry-After") == "2"
            no_retry = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(max_attempts=1),
            )
            with pytest.raises(ServiceOverloaded):
                no_retry.submit(**CLUSTER_SPEC)


# ----------------------------------------------------------------------
# Error taxonomy round-trips
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_error_code_mapping(self) -> None:
        from repro.exceptions import (
            BudgetExceeded,
            TransientError,
            WorkerCrashError,
        )
        from repro.service import ServiceError

        assert (
            error_code_for(BudgetExceeded("s", "wall_s", 1, 2))
            == "budget_exceeded"
        )
        assert error_code_for(WorkerCrashError("x")) == "worker_crashed"
        assert error_code_for(ServiceOverloaded()) == "overloaded"
        assert error_code_for(TransientError("x")) == "transient"
        assert error_code_for(ServiceError("x")) == "invalid_request"
        assert error_code_for(ValueError("x")) == "internal"

    def test_http_error_bodies_are_structured(
        self, tmp_path
    ) -> None:
        with live_server(tmp_path) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                conn.request(
                    "POST",
                    "/jobs",
                    body=json.dumps(
                        {"kind": "cluster", "graph": "missing"}
                    ),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read().decode())
            finally:
                conn.close()
            assert response.status == 404
            assert body["code"] == "not_found"
            assert body["error_type"] == "ServiceError"

    def test_probes(self, tmp_path) -> None:
        with live_server(tmp_path) as server:
            client = ServiceClient("127.0.0.1", server.port)
            assert client._request("GET", "/livez")["status"] == "alive"
            ready = client.ready()
            assert ready["ready"] is True
            assert ready["worker_mode"] == "thread"


# ----------------------------------------------------------------------
# Shutdown drains open event streams (slow reader regression)
# ----------------------------------------------------------------------
class TestShutdownDrain:
    def test_slow_reader_sees_job_end_sentinel(
        self, tmp_path, small_graph, monkeypatch
    ) -> None:
        """/shutdown with an open NDJSON stream: the tailer keeps
        draining to the job_end sentinel even though the reader is
        slow and shutdown races the stream."""
        monkeypatch.setattr(
            "repro.service.jobs.execute_spec",
            _slow_execute_spec(0.6),
        )
        with live_server(tmp_path, max_workers=1) as server:
            client = ServiceClient("127.0.0.1", server.port)
            client.register_graph("cora", small_graph)
            sub = client.submit(**CLUSTER_SPEC)

            raw = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            )
            raw.sendall(
                (
                    f"GET /jobs/{sub['job_id']}/events HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n"
                ).encode()
            )
            time.sleep(0.1)  # stream is open; now race shutdown
            client.shutdown()
            received = b""
            raw.settimeout(30)
            try:
                while True:
                    time.sleep(0.05)  # deliberately slow reader
                    chunk = raw.recv(512)
                    if not chunk:
                        break
                    received = received + chunk
            except (TimeoutError, OSError) as exc:
                pytest.fail(f"stream cut before drain: {exc}")
            finally:
                raw.close()
            lines = [
                json.loads(line)
                for line in received.split(b"\r\n\r\n", 1)[1]
                .decode()
                .strip()
                .splitlines()
                if line.strip()
            ]
            assert lines, "no NDJSON records received"
            assert lines[-1]["type"] == "job_end"
            assert lines[-1]["state"] == "done"


# ----------------------------------------------------------------------
# GC: count/age-based eviction
# ----------------------------------------------------------------------
class TestEviction:
    def test_count_bound_evicts_oldest(
        self, tmp_path, small_graph
    ) -> None:
        state = tmp_path / "state"
        manager = JobManager(
            state,
            store=ServiceStore(state),
            max_workers=1,
            max_jobs=1,
        )
        try:
            manager.register_graph("cora", small_graph)
            jobs = []
            for i in range(3):
                spec = JobSpec.from_dict(
                    {**CLUSTER_SPEC, "threshold": i * 0.001}
                )
                job, _ = manager.submit(spec, "t")
                assert job.done.wait(120)
                jobs.append(job)
            # The post-completion auto-GC runs in the executor
            # thread after done.set(); poll until it settles.
            deadline = time.time() + 10
            while time.time() < deadline:
                manager.evict_jobs()
                counters = manager.metrics.as_dict()["counters"]
                if (
                    counters.get("service_jobs_evicted_total", 0)
                    >= 2
                ):
                    break
                time.sleep(0.05)
            remaining = manager.jobs()
            assert len(remaining) == 1
            assert remaining[0]["job_id"] == jobs[-1].job_id
            assert counters["service_jobs_evicted_total"] >= 2
            # Evicted journals and results are gone from disk.
            for job in jobs[:2]:
                assert not job.journal_path.parent.exists()
                assert not manager.store.result_path(
                    job.key
                ).exists()
            # The WAL remembers: evicted keys do not resurrect as
            # incomplete jobs on recovery.
            assert manager.store.incomplete_jobs() == []
        finally:
            manager.close()

    def test_age_bound(self, tmp_path, small_graph) -> None:
        manager = JobManager(
            tmp_path / "svc",
            max_workers=1,
            max_job_age_s=3600.0,
        )
        try:
            manager.register_graph("cora", small_graph)
            job, _ = manager.submit(
                JobSpec.from_dict(dict(CLUSTER_SPEC)), "t"
            )
            assert job.done.wait(120)
            assert manager.evict_jobs() == 0  # young enough
            assert (
                manager.evict_jobs(now=time.time() + 7200) == 1
            )
            assert manager.jobs() == []
        finally:
            manager.close()
