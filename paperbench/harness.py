"""Measurement plumbing shared by the workloads.

An :class:`Op` is one request of a workload: one paper-path run, one
pipeline run, one service job. It records its own wall-clock span and
the spans of the layers the benchmark calls into (``ingest``,
``symmetrize``, ``cluster``), plus whatever the program's own tracer
reported for the sub-layers when the run is traced.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

#: Layers timed around the benchmark's own calls; their sum is
#: subtracted from the op time to give ``dispatch_ms``.
TOP_LAYERS = ("ingest", "symmetrize", "cluster")

#: Sub-layers read from the program's span trees (see
#: :func:`sublayer_seconds`).
SUB_LAYERS = ("sym_score", "sym_select", "mcl_coarsen", "mcl_flow")

#: Counts reported per op in the traced run.
COUNTS = ("candidate_pairs", "mcl_iterations", "sym_cache_hits")


@dataclass
class Op:
    """One timed request and what it produced."""

    op_id: int
    client: int = 0
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    output: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a call into layer ``name`` as a child of this op."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.spans.append((name, t0, t1))
            self.layers[name] = self.layers.get(name, 0.0) + (t1 - t0)

    def add(self, layer: str, seconds: float) -> None:
        """Credit ``seconds`` the program itself reported to a layer."""
        self.layers[layer] = self.layers.get(layer, 0.0) + seconds


def sublayer_seconds(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Sum the program's span trees into the benchmark's sub-layers.

    Inside a ``symmetrize:*`` span, the pair-scoring work (the §3.6
    factors and all-pairs search, or the full similarity product) is
    ``sym_score`` and the keep/drop decision (candidate verification,
    or the threshold prune) is ``sym_select``. Inside a ``cluster:*``
    span, MLR-MCL's coarsening is ``mcl_coarsen`` and its flow
    iterations are ``mcl_flow``.
    """
    acc = dict.fromkeys(SUB_LAYERS, 0.0)

    def walk(nodes: list[dict[str, Any]], in_sym: bool, in_cl: bool) -> None:
        for node in nodes:
            name = str(node.get("name", ""))
            secs = float(node.get("wall_seconds", 0.0))
            if in_sym and (
                name in ("pruning_factors", "compute_matrix")
                or name.startswith("allpairs:")
            ):
                acc["sym_score"] += secs
            elif in_sym and name in ("verify_candidates", "prune"):
                acc["sym_select"] += secs
            elif in_cl and name == "coarsen":
                acc["mcl_coarsen"] += secs
            elif in_cl and name.startswith("rmcl:"):
                acc["mcl_flow"] += secs
            else:
                walk(
                    node.get("children", []),
                    in_sym or name.startswith("symmetrize:"),
                    in_cl or name.startswith("cluster:"),
                )

    walk(spans, False, False)
    return acc


def program_counts(metrics: dict[str, Any] | None) -> dict[str, float]:
    """Kernel counters from a metrics snapshot (``as_dict`` form)."""
    counters = (metrics or {}).get("counters", {})
    return {
        "candidate_pairs": float(
            counters.get("allpairs_candidate_pairs_total", 0.0)
        ),
        "mcl_iterations": float(counters.get("mcl_iterations", 0.0)),
    }


def end_to_end(
    ops: list[Op], setups: list[float], peak_rss_mb: float
) -> dict[str, Any]:
    """The user-visible metrics of a measured run; request metrics are
    ``None`` when no request succeeded."""
    latencies = [1000.0 * op.seconds for op in ops if not op.failed]
    p50 = p90 = None
    if latencies:
        p50, p90 = (float(np.percentile(latencies, q)) for q in (50, 90))
    return {
        "op_ms_p50": _metric(p50, "ms"),
        "op_ms_p90": _metric(p90, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer(ops: list[Op]) -> dict[str, Any]:
    """Mean time per op in each layer, and mean counts per op."""
    n = max(len(ops), 1)
    out: dict[str, Any] = {}
    for layer in TOP_LAYERS + SUB_LAYERS:
        total = sum(op.layers.get(layer, 0.0) for op in ops)
        out[f"{layer}_ms"] = _metric(1000.0 * total / n, "ms")
    dispatch = sum(
        op.seconds - sum(op.layers.get(k, 0.0) for k in TOP_LAYERS)
        for op in ops
    )
    out["dispatch_ms"] = _metric(1000.0 * dispatch / n, "ms")
    for name in COUNTS:
        total = sum(op.counts.get(name, 0.0) for op in ops)
        out[name] = _metric(total / n, "count")
    # Output edges per all-pairs candidate: the kernel's useful share
    # (0 where no request used the kernel).
    kernel = [op for op in ops if op.counts.get("candidate_pairs")]
    candidates = sum(op.counts["candidate_pairs"] for op in kernel)
    kept = sum(op.counts.get("edges_kept", 0.0) for op in kernel)
    out["candidate_yield"] = _metric(
        kept / candidates if candidates else 0.0, "ratio"
    )
    return out


def _metric(value: float | None, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def write_trace(ops: list[Op], path: Path) -> None:
    """Write the benchmark's spans as a Chrome ``trace_event`` file.

    Spans of one op share its id (``args.op``); ``args.parent`` names
    the span that caused each one.
    """
    if not ops:
        return
    epoch = min(op.start for op in ops)
    events = []
    for op in ops:
        spans = [("op", op.start, op.end), *op.spans]
        for name, t0, t1 in spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": op.client,
                    "ts": (t0 - epoch) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "args": {
                        "op": op.op_id,
                        "parent": "" if name == "op" else "op",
                    },
                }
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
