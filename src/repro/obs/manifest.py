"""Run manifests: provenance records for pipeline and bench runs.

A :class:`RunManifest` captures everything needed to interpret — and
re-run — one invocation: the configuration, a content fingerprint of
the input dataset, library versions and git revision, the seed, every
structured warning the run emitted, the span tree from
:mod:`repro.obs.trace` and the metrics snapshot from
:mod:`repro.obs.metrics`. Manifests append to a JSONL *run log*, one
JSON object per line, which the ``repro runs`` CLI lists, shows and
diffs::

    repro pipeline graph.txt out.txt --runlog runs.jsonl
    repro runs list runs.jsonl
    repro runs diff runs.jsonl -a 0 -b 1

The manifest schema is versioned (:data:`MANIFEST_SCHEMA`) and pinned
by a golden-file test, so downstream tooling can rely on its shape
across PRs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError

__all__ = [
    "MANIFEST_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "RunManifest",
    "fingerprint_graph",
    "collect_environment",
    "append_manifest",
    "read_manifests",
    "diff_manifests",
    "format_diff",
]

#: Schema identifier embedded in every manifest; bump on breaking
#: changes to the JSON shape (tests/data/manifest_golden.json pins it).
#: v2 added the ``cache`` section (artifact-cache provenance); v3 the
#: ``fault_tolerance`` section (journal / retry / resume provenance);
#: v4 a ``tuning`` section (cost-model autotuner provenance), which v5
#: dropped again with the autotuner.
MANIFEST_SCHEMA = "repro-run-manifest/v5"

#: Schemas :meth:`RunManifest.from_dict` can still read. v1 manifests
#: (pre-artifact-cache) load with an empty ``cache`` section; v1/v2
#: (pre-fault-tolerance) with an empty ``fault_tolerance`` section;
#: a v4 ``tuning`` section is ignored.
SUPPORTED_SCHEMAS = (
    "repro-run-manifest/v1",
    "repro-run-manifest/v2",
    "repro-run-manifest/v3",
    "repro-run-manifest/v4",
    "repro-run-manifest/v5",
)


def fingerprint_graph(graph: Any) -> dict[str, Any]:
    """Content fingerprint of a graph (or sparse adjacency matrix).

    The digest hashes the CSR structure and weights, so two runs on
    byte-identical inputs share a fingerprint while any edge or weight
    change produces a different one — the manifest-level notion of
    "same dataset".
    """
    adjacency = getattr(graph, "adjacency", graph)
    csr = adjacency.tocsr()
    digest = hashlib.sha256()
    digest.update(repr(csr.shape).encode())
    digest.update(csr.indptr.tobytes())
    digest.update(csr.indices.tobytes())
    digest.update(csr.data.tobytes())
    return {
        "n_nodes": int(csr.shape[0]),
        "nnz": int(csr.nnz),
        "sha256": digest.hexdigest()[:16],
    }


@functools.lru_cache(maxsize=1)
def _git_sha() -> str | None:
    """Short revision of the working tree, or ``None`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def collect_environment() -> dict[str, Any]:
    """Library versions, interpreter and host for provenance."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.system(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


@dataclass
class RunManifest:
    """Provenance record of one pipeline or bench invocation.

    Attributes
    ----------
    kind:
        ``"pipeline"`` or ``"bench"``.
    name:
        Human label, e.g. ``"degree_discounted.mlrmcl"``.
    created_unix:
        Wall-clock creation time (``time.time()``); pass explicitly
        for deterministic manifests in tests.
    config:
        The invocation's parameters (symmetrization, clusterer,
        threshold, mode, sweep sizes, ...).
    dataset:
        :func:`fingerprint_graph` output (or a generator description
        for synthetic sweeps).
    environment:
        :func:`collect_environment` output.
    seed:
        Random seed, when the invocation had one.
    warnings:
        Structured warning records (``stage``/``code``/``message``).
    trace:
        Span forest (list of :meth:`~repro.obs.trace.Span.as_dict`
        trees); empty when the run was not traced.
    metrics:
        :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` snapshot.
    cache:
        Artifact-cache provenance (``enabled``, ``hits``, ``misses``,
        ``artifact_keys``) when the run consulted the
        content-addressed cache; empty otherwise (and for v1
        manifests, which predate the cache).
    fault_tolerance:
        Fault-tolerance provenance (``journal`` path and ``run_id``
        when the run was journaled, ``stage_retries``,
        ``stages_resumed``, ``resumed`` — whether the run replayed a
        prior journal); empty for unjournaled runs and for v1/v2
        manifests, which predate the runtime.
    timings:
        Headline stage durations in seconds.
    job:
        Service-daemon provenance (``job_id``, ``key`` and the
        ``clients`` that joined the job) when the run executed as a
        ``repro serve`` job; empty — and omitted from the serialized
        record — for library and CLI runs, so pre-service manifests
        are byte-identical.
    """

    kind: str
    name: str
    created_unix: float = field(default_factory=time.time)
    config: dict[str, Any] = field(default_factory=dict)
    dataset: dict[str, Any] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    warnings: list[dict[str, str]] = field(default_factory=list)
    trace: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    cache: dict[str, Any] = field(default_factory=dict)
    fault_tolerance: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    job: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable view with the schema marker first."""
        payload = {
            "schema": MANIFEST_SCHEMA,
            "kind": self.kind,
            "name": self.name,
            "created_unix": self.created_unix,
            "config": self.config,
            "dataset": self.dataset,
            "environment": self.environment,
            "seed": self.seed,
            "warnings": self.warnings,
            "trace": self.trace,
            "metrics": self.metrics,
            "cache": self.cache,
            "fault_tolerance": self.fault_tolerance,
            "timings": self.timings,
        }
        if self.job:
            payload["job"] = self.job
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`as_dict` output.

        Accepts every schema in :data:`SUPPORTED_SCHEMAS`; v1 lines
        (written before the artifact cache existed) load with an
        empty ``cache`` section.
        """
        schema = payload.get("schema")
        if schema not in SUPPORTED_SCHEMAS:
            raise ReproError(
                f"unsupported manifest schema {schema!r}; "
                f"expected one of {SUPPORTED_SCHEMAS}"
            )
        return cls(
            kind=payload["kind"],
            name=payload["name"],
            created_unix=float(payload.get("created_unix", 0.0)),
            config=dict(payload.get("config", {})),
            dataset=dict(payload.get("dataset", {})),
            environment=dict(payload.get("environment", {})),
            seed=payload.get("seed"),
            warnings=list(payload.get("warnings", [])),
            trace=list(payload.get("trace", [])),
            metrics=dict(payload.get("metrics", {})),
            cache=dict(payload.get("cache", {})),
            fault_tolerance=dict(
                payload.get("fault_tolerance", {})
            ),
            timings=dict(payload.get("timings", {})),
            job=dict(payload.get("job", {})),
        )

    def flat_metrics(self) -> dict[str, float]:
        """Counters and gauges flattened to ``{name: value}``."""
        out: dict[str, float] = {}
        for kind in ("counters", "gauges"):
            for name, value in self.metrics.get(kind, {}).items():
                out[name] = float(value)
        return out

    def total_seconds(self) -> float:
        """Sum of the headline timings."""
        return float(sum(self.timings.values()))

    def summary(self) -> str:
        """One-line description for run-log listings."""
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(self.created_unix)
        )
        n_spans = sum(_count_spans(node) for node in self.trace)
        return (
            f"{stamp}  {self.kind:<8} {self.name:<32} "
            f"{self.total_seconds():8.3f}s  spans={n_spans:<4d} "
            f"warnings={len(self.warnings)}"
        )


def _count_spans(node: dict[str, Any]) -> int:
    return 1 + sum(_count_spans(c) for c in node.get("children", []))


def append_manifest(
    manifest: RunManifest, path: str | Path
) -> Path:
    """Append ``manifest`` as one JSONL line to the run log at ``path``."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as handle:
        handle.write(json.dumps(manifest.as_dict()) + "\n")
    return out


def read_manifests(path: str | Path) -> list[RunManifest]:
    """Load every manifest from a JSONL run log."""
    source = Path(path)
    if not source.exists():
        raise ReproError(f"run log not found: {source}")
    manifests: list[RunManifest] = []
    for lineno, line in enumerate(source.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            manifests.append(RunManifest.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError) as exc:
            raise ReproError(
                f"{source}:{lineno}: malformed manifest line: {exc}"
            ) from exc
    return manifests


# ---------------------------------------------------------------------------
# Diffing


def _dict_changes(
    a: dict[str, Any], b: dict[str, Any]
) -> dict[str, list[Any]]:
    """Keys whose values differ, mapped to ``[a_value, b_value]``."""
    changes: dict[str, list[Any]] = {}
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            changes[key] = [va, vb]
    return changes


def diff_manifests(
    a: RunManifest, b: RunManifest
) -> dict[str, Any]:
    """Structured comparison of two runs.

    Returns a dict with ``config``/``dataset``/``environment`` change
    maps (``{key: [a, b]}``), per-metric deltas, per-timing deltas and
    the warning codes that appeared or disappeared between the runs.
    """
    metrics_a, metrics_b = a.flat_metrics(), b.flat_metrics()
    metric_deltas: dict[str, dict[str, float | None]] = {}
    for name in sorted(set(metrics_a) | set(metrics_b)):
        va, vb = metrics_a.get(name), metrics_b.get(name)
        if va == vb:
            continue
        metric_deltas[name] = {
            "a": va,
            "b": vb,
            "delta": (vb - va) if va is not None and vb is not None
            else None,
        }
    timing_deltas: dict[str, dict[str, float | None]] = {}
    for name in sorted(set(a.timings) | set(b.timings)):
        ta, tb = a.timings.get(name), b.timings.get(name)
        if ta == tb:
            continue
        timing_deltas[name] = {
            "a": ta,
            "b": tb,
            "delta": (tb - ta) if ta is not None and tb is not None
            else None,
        }
    codes_a = {w.get("code") for w in a.warnings}
    codes_b = {w.get("code") for w in b.warnings}
    return {
        "runs": [a.name, b.name],
        "config": _dict_changes(a.config, b.config),
        "dataset": _dict_changes(a.dataset, b.dataset),
        "environment": _dict_changes(a.environment, b.environment),
        "cache": _dict_changes(a.cache, b.cache),
        "fault_tolerance": _dict_changes(
            a.fault_tolerance, b.fault_tolerance
        ),
        "metrics": metric_deltas,
        "timings": timing_deltas,
        "warnings": {
            "added": sorted(c for c in codes_b - codes_a if c),
            "removed": sorted(c for c in codes_a - codes_b if c),
        },
    }


def format_diff(diff: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_manifests` output."""
    lines = [f"diff: {diff['runs'][0]}  vs  {diff['runs'][1]}"]
    for section in (
        "config",
        "dataset",
        "environment",
        "cache",
        "fault_tolerance",
    ):
        changes = diff.get(section)
        if not changes:
            continue
        lines.append(f"{section}:")
        for key, (va, vb) in changes.items():
            lines.append(f"  {key}: {va!r} -> {vb!r}")
    if diff["timings"]:
        lines.append("timings:")
        for name, entry in diff["timings"].items():
            delta = entry["delta"]
            arrow = f"{delta:+.3f}s" if delta is not None else "n/a"
            lines.append(
                f"  {name}: {entry['a']} -> {entry['b']} ({arrow})"
            )
    if diff["metrics"]:
        lines.append("metrics:")
        for name, entry in diff["metrics"].items():
            delta = entry["delta"]
            arrow = f"{delta:+g}" if delta is not None else "n/a"
            lines.append(
                f"  {name}: {entry['a']} -> {entry['b']} ({arrow})"
            )
    warn = diff["warnings"]
    if warn["added"] or warn["removed"]:
        lines.append("warnings:")
        for code in warn["added"]:
            lines.append(f"  + {code}")
        for code in warn["removed"]:
            lines.append(f"  - {code}")
    if len(lines) == 1:
        lines.append("(no differences)")
    return "\n".join(lines)
