"""Counters, gauges and histograms for pipeline hot paths.

The symmetrize/prune/cluster/eval stages emit named metrics —
``edges_pruned_total``, ``mcl_iterations``, ``singleton_fraction``,
``pagerank_convergence_delta`` — through the same ambient-contextvar
pattern as :mod:`repro.obs.trace` spans:
library code calls :func:`metric_inc` / :func:`metric_set` /
:func:`metric_observe` unconditionally, and each call is a no-op
(one contextvar read) unless a :class:`MetricsRegistry` is installed
with :func:`metrics_active`.

Metric kinds follow the usual conventions:

- **counter** — monotonically accumulated total (``_total`` suffix by
  convention): ``edges_pruned_total``, ``mcl_iterations``.
- **gauge** — last-written value: ``singleton_fraction``,
  ``mcl_prune_fraction``, ``pagerank_convergence_delta``.
- **histogram** — distribution summary (count/sum/min/max plus decade
  buckets): per-block candidate counts, per-span durations.

The pipeline's run manifests snapshot the registry with
:meth:`MetricsRegistry.as_dict`, and ``repro bench`` with
:meth:`MetricsRegistry.flat`; see ``docs/observability.md`` for the
metrics glossary.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "metrics_active",
    "current_metrics",
    "metric_inc",
    "metric_set",
    "metric_observe",
    "peak_rss_bytes",
]


@dataclass
class Histogram:
    """Streaming distribution summary with decade buckets.

    ``buckets`` maps a decade label to the number of observations with
    ``10^(d) <= value < 10^(d+1)`` (label ``"1e{d+1}"`` = the bucket's
    exclusive upper bound); zero and negative values land in ``"0"``.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[str, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0:
            label = f"1e{math.floor(math.log10(value)) + 1:d}"
        else:
            label = "0"
        self.buckets[label] = self.buckets.get(label, 0) + 1

    @property
    def mean(self) -> float:
        """Average observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable view."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": dict(self.buckets),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms for one run.

    Examples
    --------
    >>> reg = MetricsRegistry()
    >>> with metrics_active(reg):
    ...     metric_inc("edges_pruned_total", 10)
    ...     metric_inc("edges_pruned_total", 5)
    ...     metric_set("singleton_fraction", 0.25)
    >>> reg.counters["edges_pruned_total"]
    15.0
    >>> reg.gauges["singleton_fraction"]
    0.25
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def names(self) -> list[str]:
        """All metric names across the three kinds, sorted."""
        return sorted(
            set(self.counters) | set(self.gauges) | set(self.histograms)
        )

    def __len__(self) -> int:
        return (
            len(self.counters) + len(self.gauges) + len(self.histograms)
        )

    def flat(self) -> dict[str, float]:
        """Counters and gauges as one flat ``{name: value}`` mapping.

        Histograms contribute their count under ``<name>_count`` and
        sum under ``<name>_sum`` — the shape ``repro bench`` embeds in
        each ``BENCH_scale.json`` point.
        """
        out: dict[str, float] = {}
        out.update(self.counters)
        out.update(self.gauges)
        for name, hist in self.histograms.items():
            out[f"{name}_count"] = float(hist.count)
            out[f"{name}_sum"] = hist.total
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot, keyed by metric kind."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.as_dict()
                for name, hist in self.histograms.items()
            },
        }

    def report(self) -> str:
        """Human-readable listing, one metric per line."""
        lines: list[str] = []
        for name in sorted(self.counters):
            lines.append(f"counter    {name} = {self.counters[name]:g}")
        for name in sorted(self.gauges):
            lines.append(f"gauge      {name} = {self.gauges[name]:g}")
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            lines.append(
                f"histogram  {name}: count={hist.count} "
                f"mean={hist.mean:g} min={hist.min:g} max={hist.max:g}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:
        return f"MetricsRegistry(metrics={len(self)})"


_METRICS: contextvars.ContextVar[MetricsRegistry | None] = (
    contextvars.ContextVar("repro_metrics", default=None)
)


def current_metrics() -> MetricsRegistry | None:
    """The ambient registry, or ``None`` when metrics are disabled."""
    return _METRICS.get()


@contextlib.contextmanager
def metrics_active(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (or a fresh one) as the ambient registry.

    Nested blocks shadow the outer registry; the outer one is restored
    on exit.
    """
    reg = registry if registry is not None else MetricsRegistry()
    token = _METRICS.set(reg)
    try:
        yield reg
    finally:
        _METRICS.reset(token)


def metric_inc(name: str, value: float = 1.0) -> None:
    """Bump counter ``name`` in the ambient registry (no-op otherwise)."""
    reg = _METRICS.get()
    if reg is not None:
        reg.inc(name, value)


def metric_set(name: str, value: float) -> None:
    """Set gauge ``name`` in the ambient registry (no-op otherwise)."""
    reg = _METRICS.get()
    if reg is not None:
        reg.set(name, value)


def metric_observe(name: str, value: float) -> None:
    """Observe into histogram ``name`` (no-op without a registry)."""
    reg = _METRICS.get()
    if reg is not None:
        reg.observe(name, value)


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size, in bytes.

    A monotone high-water mark (``getrusage``'s ``ru_maxrss``), not an
    instantaneous reading — the number the out-of-core paths report as
    the ``peak_rss_bytes`` gauge and the scale bench asserts its
    memory ceiling against. Returns 0 on platforms without
    :mod:`resource` (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    import sys

    if sys.platform == "darwin":  # pragma: no cover
        return int(rss)
    return int(rss) * 1024
