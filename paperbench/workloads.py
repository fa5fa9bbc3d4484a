"""The two workloads: paper-prune and serve-jobs.

Each workload builds its inputs from the seed in :meth:`prepare`
(untimed), starts the program on a fresh copy of them in :meth:`setup`
(timed: ``setup_s``), runs closed-loop requests for a fixed time in
:meth:`run`, and verifies every output in :meth:`check` against
:mod:`oracle` and against repeated runs of the same input.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

import oracle
from harness import Op, program_counts, sublayer_seconds

from repro.cluster import get_clusterer
from repro.datasets import make_wikipedia_like
from repro.graph import DirectedGraph
from repro.graph.generators import power_law_edge_chunks
from repro.graph.io import read_edge_list, write_edge_list
from repro.obs import MetricsRegistry, Tracer, metrics_active, tracing
from repro.exceptions import ReproError
from repro.pipeline import SymmetrizeClusterPipeline
from repro.service import ServiceClient
from repro.symmetrize import DegreeDiscountedSymmetrization

#: Untimed requests before the measured loop.
WARMUP = 2

#: Failures printed to stderr before the rest are only counted.
MAX_REPORTED = 5


def _fingerprint(matrix: Any) -> str:
    csr = matrix.tocsr()
    h = hashlib.sha256()
    for part in (csr.indptr, csr.indices, csr.data):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _report(op: Op, exc: BaseException) -> None:
    op.failed = True
    if op.op_id < MAX_REPORTED:
        print(
            f"op {op.op_id} failed: {exc!r}\n{traceback.format_exc()}",
            file=sys.stderr,
        )


def _same_graph(a: Any, b: Any) -> bool:
    return a.shape == b.shape and (a.tocsr() != b.tocsr()).nnz == 0


@dataclass
class Inputs:
    """Edge-list files written by setup, with the graphs behind them."""

    paths: list[Path]
    adjacency: list[Any]
    extra: list[Any] = field(default_factory=list)
    seed: int = 0

    def n_nodes(self, index: int) -> int:
        return int(self.adjacency[index].shape[0])

    def copy_to(self, workdir: Path) -> "Inputs":
        """The same graphs, with their edge lists copied under
        ``workdir``, so each set-up reads files the program has not
        seen yet."""
        paths = [
            Path(shutil.copyfile(path, workdir / path.name))
            for path in self.paths
        ]
        return Inputs(paths, self.adjacency, self.extra, self.seed)


def _env(src: Path, workdir: Path) -> dict[str, str]:
    """Environment of a program process started by the benchmark."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(workdir)
    return env


def wiki_inputs(seed: int, pool: int, workdir: Path) -> Inputs:
    """``pool`` Wikipedia-like graphs (~1,000 nodes, 16 categories plus
    8 planted list clusters, 12 hubs) with their ground truth."""
    inputs = Inputs([], [], seed=seed)
    for index in range(pool):
        ds = make_wikipedia_like(
            n_nodes=1000, n_categories=16, seed=seed * pool + index
        )
        path = workdir / f"wiki-{index}.tsv"
        write_edge_list(ds.graph, path)
        inputs.paths.append(path)
        inputs.adjacency.append(ds.graph.adjacency)
        inputs.extra.append(ds.ground_truth)
    return inputs


class InProcess:
    """A workload whose requests are library calls in this process."""

    #: Distinct input graphs per run; requests cycle through them, so
    #: the run's figures average over many graphs of one family rather
    #: than hinge on a few.
    pool = 32
    threshold = 0.0

    def __init__(self, src: Path) -> None:
        self.src = src

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs, workdir: Path) -> Inputs:
        """Cold start: a fresh interpreter imports the package and reads
        the pool (``startup.py``). The requests then run in this
        process on the same files."""
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).with_name("startup.py")),
                *map(str, inputs.paths),
            ],
            capture_output=True,
            text=True,
            env=_env(self.src, workdir),
            cwd=str(workdir),
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"start-up failed:\n{done.stderr}")
        counts = json.loads(done.stdout.splitlines()[-1])
        expected = [int(a.nnz) for a in inputs.adjacency]
        if counts != expected:
            raise RuntimeError(
                f"start-up read {counts} edges, expected {expected}"
            )
        return inputs

    def request(self, inputs: Inputs, op: Op, index: int, trace: bool) -> None:
        raise NotImplementedError

    def close(self, inputs: Inputs) -> None:
        pass

    def peak_rss_mb(self, inputs: Inputs) -> float:
        """High-water resident memory of this process, which ran the
        requests."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def warmup(self, inputs: Inputs) -> None:
        for index in range(WARMUP):
            self.request(inputs, Op(-1), index, trace=False)

    def run(self, inputs: Inputs, seconds: float, trace: bool) -> list[Op]:
        ops: list[Op] = []
        kept: set[int] = set()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            op = Op(len(ops))
            index = len(ops) % self.pool
            op.start = time.perf_counter()
            try:
                self.request(inputs, op, index, trace)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                op.end = time.perf_counter()
                _report(op, exc)
            else:
                # Only the first output per graph is checked in full;
                # later ones are compared by fingerprint.
                if index in kept:
                    del op.output["read"], op.output["symmetrized"]
                kept.add(index)
            ops.append(op)
        return ops

    def check(self, inputs: Inputs, ops: list[Op]) -> list[str]:
        """Oracle check of the first output per graph, identity of the
        rest with it."""
        problems: list[str] = []
        first: dict[int, dict[str, Any]] = {}
        for op in ops:
            if op.failed:
                continue
            out = op.output
            index = out["graph"]
            ref = first.setdefault(index, out)
            if ref is out:
                if not _same_graph(out["read"], inputs.adjacency[index]):
                    problems.append(f"graph {index}: ingest changed it")
                for p in oracle.check_pruned(
                    inputs.adjacency[index], self.threshold, out["symmetrized"]
                ):
                    problems.append(f"graph {index}: {p}")
                problems.extend(self.check_first(inputs, index, out))
                continue
            for key in ("sym_sha", "labels_sha"):
                if out[key] != ref[key]:
                    problems.append(
                        f"op {op.op_id}: {key} differs from an earlier "
                        f"run on graph {index}"
                    )
        return problems

    def check_first(
        self, inputs: Inputs, index: int, out: dict[str, Any]
    ) -> list[str]:
        labels = out["labels"]
        if labels.shape != (inputs.adjacency[index].shape[0],):
            return [f"graph {index}: labels have shape {labels.shape}"]
        return []

    @staticmethod
    def _output(
        index: int, read: Any, symmetrized: Any, labels: np.ndarray
    ) -> dict[str, Any]:
        return {
            "graph": index,
            "read": read.adjacency,
            "symmetrized": symmetrized.adjacency,
            "sym_sha": _fingerprint(symmetrized.adjacency),
            "labels": labels,
            "labels_sha": hashlib.sha256(
                np.ascontiguousarray(labels, dtype=np.int64).tobytes()
            ).hexdigest(),
        }


class PaperPrune(InProcess):
    """Edge-list ingest → §3.6 pruned degree-discounted symmetrization →
    MLR-MCL, called as library functions on power-law digraphs with
    both degree tails capped (the ``repro bench --scale`` graph
    family)."""

    n_nodes = 2000
    d_max = 100
    threshold = 0.2
    n_clusters = 50

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        rng = np.random.default_rng(seed)
        inputs = Inputs([], [], seed=seed)
        for index in range(self.pool):
            rows, cols, vals = (
                np.concatenate(parts)
                for parts in zip(
                    *power_law_edge_chunks(
                        self.n_nodes, rng, d_max=self.d_max
                    )
                )
            )
            shape = (self.n_nodes, self.n_nodes)
            adjacency = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape))
            adjacency.data[:] = 1.0  # duplicate draws are one edge
            graph = DirectedGraph(adjacency)
            path = workdir / f"plaw-{index}.tsv"
            write_edge_list(graph, path)
            inputs.paths.append(path)
            inputs.adjacency.append(graph.adjacency)
        return inputs

    def request(self, inputs: Inputs, op: Op, index: int, trace: bool) -> None:
        tracer, registry = Tracer(), MetricsRegistry()
        with tracing(tracer) if trace else nullcontext(), (
            metrics_active(registry) if trace else nullcontext()
        ):
            with op.span("ingest"):
                graph = read_edge_list(
                    inputs.paths[index], n_nodes=inputs.n_nodes(index)
                )
            with op.span("symmetrize"):
                symmetrized = DegreeDiscountedSymmetrization().apply_pruned(
                    graph, self.threshold
                )
            with op.span("cluster"):
                clustering = get_clusterer("mlrmcl").cluster(
                    symmetrized, self.n_clusters
                )
        op.end = time.perf_counter()
        if trace:
            for layer, secs in sublayer_seconds(
                tracer.as_dict()["spans"]
            ).items():
                op.add(layer, secs)
            op.counts.update(program_counts(registry.as_dict()))
        op.counts["edges_kept"] = symmetrized.n_edges
        op.output = self._output(
            index, graph, symmetrized, np.asarray(clustering.labels)
        )


# ---------------------------------------------------------------------------
# serve-jobs
# ---------------------------------------------------------------------------


@dataclass
class Daemon:
    """A ``repro serve`` process and the inputs registered with it."""

    process: subprocess.Popen
    port: int
    state_dir: Path
    inputs: Inputs
    log: Any


class ServeJobs:
    """``repro serve --state-dir`` daemon (durable store: write-ahead
    journal, persisted graphs and results) driven over HTTP by a closed
    loop of clients.

    Each client repeats a three-request session on one graph. The mix
    (a third each) is chosen to reach every service path, not taken
    from recorded traffic:

    - **upload** – ingest the edge list, upload it (idempotent, since
      set-up registered every graph) and submit a cluster job at a
      fresh threshold, so the symmetrization is computed;
    - **recluster** – same graph and threshold, another cluster count,
      so the symmetrization comes from the daemon's artifact cache;
    - **repeat** – the upload request again, which the daemon answers
      from the finished job (content-address dedup).
    """

    pool = 8
    clients = 2
    workers = 2
    thresholds = (0.045, 0.055)
    counts = (10, 40)
    #: Executed jobs re-run in process and compared label for label.
    verify_jobs = 4
    #: Avg-F (percent) a re-run job must reach, with more than one
    #: cluster. Over 60 generated graphs clustered at thresholds and
    #: cluster counts drawn as below, the lowest was 27 and the median
    #: 63; random labels score about 13, singletons about 7.
    min_average_f = 20.0
    start_timeout_s = 90.0
    job_timeout_s = 120.0

    def __init__(self, src: Path) -> None:
        self.src = src
        #: Numbers every session of the run, across clients and
        #: daemons.
        self.sessions = itertools.count()

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        return wiki_inputs(seed, self.pool, workdir)

    def setup(self, inputs: Inputs, workdir: Path) -> Daemon:
        """Start a daemon on an empty state directory and upload the
        pool."""
        daemon = self._start(workdir, inputs)
        try:
            client = self._client(daemon, "setup")
            for index, path in enumerate(inputs.paths):
                client.register_graph(
                    f"g{index}",
                    read_edge_list(path, n_nodes=inputs.n_nodes(index)),
                )
        except BaseException:
            self.close(daemon)
            raise
        return daemon

    def _start(self, workdir: Path, inputs: Inputs) -> Daemon:
        state_dir = workdir / "daemon"
        log_path = workdir / "daemon.log"
        log = log_path.open("w")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1",
                "--port", "0",
                "--state-dir", str(state_dir),
                "--workers", str(self.workers),
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=_env(self.src, workdir),
            cwd=str(workdir),
        )
        daemon = Daemon(process, 0, state_dir, inputs, log)
        marker = "listening on http://"
        deadline = time.monotonic() + self.start_timeout_s
        while time.monotonic() < deadline:
            text = log_path.read_text()
            if marker in text:
                line = text.split(marker, 1)[1].splitlines()[0]
                daemon.port = int(line.rsplit(":", 1)[1])
                return daemon
            if process.poll() is not None:
                break
            time.sleep(0.02)
        self.close(daemon)
        raise RuntimeError(
            f"repro serve did not start:\n{log_path.read_text()}"
        )

    def _client(self, daemon: Daemon, name: str) -> ServiceClient:
        return ServiceClient(
            "127.0.0.1", daemon.port, client=name,
            timeout=self.job_timeout_s,
        )

    def close(self, daemon: Daemon) -> None:
        """Shut the daemon down and wait for it; kill it if it hangs."""
        try:
            if daemon.port and daemon.process.poll() is None:
                self._client(daemon, "setup").shutdown()
                daemon.process.wait(timeout=30)
        except (ReproError, subprocess.TimeoutExpired) as exc:
            print(f"repro serve did not shut down: {exc!r}", file=sys.stderr)
        finally:
            if daemon.process.poll() is None:
                daemon.process.kill()
            daemon.process.wait(timeout=30)
            daemon.log.close()

    def peak_rss_mb(self, daemon: Daemon) -> float:
        """High-water resident memory of the daemon (``VmHWM``)."""
        status = Path(f"/proc/{daemon.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def warmup(self, daemon: Daemon) -> None:
        client = self._client(daemon, "setup")
        for index in range(WARMUP):
            job = client.submit(
                kind="cluster", graph=f"g{index}", threshold=0.07,
                n_clusters=5,
            )
            client.result(job["job_id"], timeout=self.job_timeout_s)

    def run(self, daemon: Daemon, seconds: float, trace: bool) -> list[Op]:
        deadline = time.perf_counter() + seconds
        per_client: list[list[Op]] = [[] for _ in range(self.clients)]
        threads = [
            threading.Thread(
                target=self._session_loop,
                args=(daemon, j, deadline, per_client[j]),
                daemon=True,
            )
            for j in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 4 * self.job_timeout_s)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve-jobs client did not finish")
        ops = sorted(
            (op for ops in per_client for op in ops), key=lambda o: o.start
        )
        for number, op in enumerate(ops):
            op.op_id = number
        if trace:
            self._attach_job_traces(daemon, ops)
        return ops

    def _session_loop(
        self, daemon: Daemon, j: int, deadline: float, ops: list[Op]
    ) -> None:
        rng = np.random.default_rng([daemon.inputs.seed, j])
        client = self._client(daemon, f"client-{j}")
        session = 0
        while time.perf_counter() < deadline:
            index = (j * self.pool // self.clients + session) % self.pool
            number = next(self.sessions)
            threshold = float(rng.uniform(*self.thresholds))
            k_first, k_second = (
                int(k) for k in rng.choice(
                    np.arange(*self.counts), size=2, replace=False
                )
            )
            plan = (
                ("upload", k_first),
                ("recluster", k_second),
                ("repeat", k_first),
            )
            for kind, k in plan:
                if time.perf_counter() >= deadline:
                    return
                op = Op(len(ops), client=j)
                op.start = time.perf_counter()
                try:
                    self._request(
                        client, daemon, op, kind, index, threshold, k
                    )
                    op.output.update(session=number)
                except Exception as exc:  # noqa: BLE001 - counted
                    op.end = time.perf_counter()
                    _report(op, exc)
                ops.append(op)
            session += 1

    def _request(
        self,
        client: Any,
        daemon: Daemon,
        op: Op,
        kind: str,
        index: int,
        threshold: float,
        k: int,
    ) -> None:
        name = f"g{index}"
        if kind == "upload":
            with op.span("ingest"):
                graph = read_edge_list(
                    daemon.inputs.paths[index],
                    n_nodes=daemon.inputs.n_nodes(index),
                )
            with op.span("upload"):
                client.register_graph(name, graph)
        spec = {
            "kind": "cluster",
            "graph": name,
            "method": "degree_discounted",
            "clusterer": "mlrmcl",
            "threshold": threshold,
            "n_clusters": k,
        }
        submitted = client.submit(**spec)
        result = client.result(
            submitted["job_id"], timeout=self.job_timeout_s
        )
        op.end = time.perf_counter()
        deduped = bool(submitted["deduped"])
        if not deduped:
            op.add("symmetrize", float(result["symmetrize_seconds"]))
            op.add("cluster", float(result["cluster_seconds"]))
            op.counts["sym_cache_hits"] = float(
                (result.get("cache") or {}).get("hits", 0)
            )
        op.counts["edges_kept"] = float(result["n_edges"])
        op.output = {
            "kind": kind,
            "graph": index,
            "spec": spec,
            "job_id": submitted["job_id"],
            "deduped": deduped,
            "labels": np.asarray(result["labels"], dtype=np.int64),
            "n_edges": int(result["n_edges"]),
        }

    def _attach_job_traces(self, daemon: Daemon, ops: list[Op]) -> None:
        """Credit each executed job's daemon-side spans and counters,
        read from the manifests the daemon logs per job."""
        by_job: dict[str, dict[str, Any]] = {}
        log = daemon.state_dir / "manifests.jsonl"
        for line in log.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            job_id = (record.get("job") or {}).get("job_id")
            if job_id:
                by_job[job_id] = record
        for op in ops:
            if op.failed or op.output["deduped"]:
                continue
            record = by_job.get(op.output["job_id"])
            if record is None:
                continue
            for layer, secs in sublayer_seconds(
                record.get("trace") or []
            ).items():
                op.add(layer, secs)
            op.counts.update(program_counts(record.get("metrics")))

    def check(self, inputs: Inputs, ops: list[Op]) -> list[str]:
        """Every executed job's edge count against the oracle, dedup
        flags and repeat labels per session, and the first
        ``verify_jobs`` executed jobs re-run in process."""
        problems: list[str] = []
        sessions: dict[int, dict[str, dict[str, Any]]] = {}
        similarities: dict[int, oracle.Similarity] = {}
        for op in ops:
            if op.failed:
                continue
            out = op.output
            sessions.setdefault(out["session"], {})[out["kind"]] = out
            if out["deduped"]:
                continue
            index = out["graph"]
            if index not in similarities:
                similarities[index] = oracle.Similarity(
                    inputs.adjacency[index]
                )
            low, high = similarities[index].edge_count_range(
                out["spec"]["threshold"]
            )
            if not low <= out["n_edges"] <= high:
                problems.append(
                    f"job {out['job_id']}: {out['n_edges']} edges, "
                    f"oracle {low}..{high}"
                )
        expected = {"upload": False, "recluster": False, "repeat": True}
        verified = 0
        for key, session in sorted(sessions.items()):
            for kind, out in session.items():
                if out["deduped"] != expected[kind]:
                    problems.append(
                        f"session {key} {kind}: deduped={out['deduped']}"
                    )
            upload, repeat = session.get("upload"), session.get("repeat")
            if upload and repeat:
                if not np.array_equal(upload["labels"], repeat["labels"]):
                    problems.append(f"session {key}: repeat labels differ")
            for kind in ("upload", "recluster"):
                out = session.get(kind)
                if out is not None and verified < self.verify_jobs:
                    problems.extend(self._verify(inputs, out))
                    verified += 1
        if verified == 0:
            problems.append("no job was verified")
        return problems

    def _verify(self, inputs: Inputs, out: dict[str, Any]) -> list[str]:
        """Re-run one job's spec in process and compare its output."""
        spec = out["spec"]
        index = out["graph"]
        adjacency = inputs.adjacency[index]
        result = SymmetrizeClusterPipeline(
            spec["method"], spec["clusterer"], threshold=spec["threshold"]
        ).run(
            DirectedGraph(adjacency),
            n_clusters=spec["n_clusters"],
            ground_truth=inputs.extra[index],
        )
        problems = [
            f"job {out['job_id']}: {p}"
            for p in oracle.check_pruned(
                adjacency, spec["threshold"], result.symmetrized.adjacency
            )
        ]
        if out["n_edges"] != result.symmetrized.n_edges:
            problems.append(f"job {out['job_id']}: edge count differs")
        if not np.array_equal(
            out["labels"], np.asarray(result.clustering.labels)
        ):
            problems.append(f"job {out['job_id']}: labels differ")
        if len(np.unique(out["labels"])) < 2:
            problems.append(f"job {out['job_id']}: a single cluster")
        if not result.average_f >= self.min_average_f:
            problems.append(
                f"job {out['job_id']}: Avg-F {result.average_f} below "
                f"{self.min_average_f}"
            )
        return problems
