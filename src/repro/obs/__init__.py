"""Observability: tracing, metrics and run manifests.

This package is the library's one instrumentation channel — the
paper's empirical claims are *comparative* (degree-discounted clusters
2–5x faster, ≈22% better Avg-F than BestWCut on Cora), so seeing where
time, memory and quality go per stage and per run is a first-class
concern:

- :mod:`~repro.obs.trace` — hierarchical :class:`Span` trees
  (stage → substage → gram block) with wall/CPU time, optional memory
  deltas and attributes, exportable as Chrome ``trace_event`` JSON
  for flamegraph viewers.
- :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms (``edges_pruned_total``, ``mcl_iterations``,
  ``singleton_fraction``, ...) emitted by the hot paths.
- :mod:`~repro.obs.manifest` — :class:`RunManifest` provenance records
  (config, dataset fingerprint, versions, git SHA, seed, warnings,
  span tree, metrics) appended to JSONL run logs that the
  ``repro runs`` CLI lists and diffs.

Spans time the code and carry its counts as attributes (nnz in and
out, cluster counts, iterations, pair-funnel stages); metrics total
them across a run. Both are ambient-contextvar based: instrumentation
calls are no-ops when nothing is installed, so the library costs
nothing to observe when observation is off.

See ``docs/observability.md`` for a guide.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    SUPPORTED_SCHEMAS,
    RunManifest,
    append_manifest,
    collect_environment,
    diff_manifests,
    fingerprint_graph,
    format_diff,
    read_manifests,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    current_metrics,
    metric_inc,
    metric_observe,
    metric_set,
    metrics_active,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_tracer,
    span,
    spans_from_chrome_trace,
    to_chrome_trace,
    tracing,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "tracing",
    "current_tracer",
    "span",
    "to_chrome_trace",
    "spans_from_chrome_trace",
    # metrics
    "Histogram",
    "MetricsRegistry",
    "metrics_active",
    "current_metrics",
    "metric_inc",
    "metric_set",
    "metric_observe",
    # manifests
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
