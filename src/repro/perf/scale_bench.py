"""The ``repro bench`` harness: paper-scale out-of-core runs.

This harness reproduces the *scaling* claims (Figures 8–9 of the
paper): generate power-law digraphs at 100k and 1M nodes straight
into memory-mapped CSR stores
(:func:`~repro.graph.generators.power_law_mmcsr`), run the
degree-discounted symmetrize → prune pipeline end-to-end through the
§3.6 all-pairs kernel (``apply_pruned``), and emit
``BENCH_scale.json`` with one timing point per size:

- **generation** and **symmetrize** wall-clock per size — the fig-8/9
  timing curve;
- **peak RSS** of the bench process (``getrusage``'s high-water
  mark), held under the 2 GiB floor below; it grows with the graph
  and the output, because the stacked factor, its suffix index and
  the kept pairs are held in RAM;
- a per-point metrics registry, which holds the all-pairs kernel's
  pair funnel (``allpairs_candidate_pairs_total`` generated,
  ``allpairs_pairs_verified_total`` left after the bound,
  ``allpairs_pairs_scored_total`` left after the prefix gate) and the
  ``peak_rss_bytes`` gauge;
- an **exactness certificate** per point: seeded sample rows of the
  pruned output checked against a plain SciPy product of the
  :meth:`~repro.symmetrize.DegreeDiscountedSymmetrization
  .pruning_factors` — no all-pairs code — for missed and extra pairs;
- a **route differential** at the smallest benched size: the kernel
  and ``apply(t)``'s row-span route must return the same indptr,
  indices and data bytes and index dtypes;
- a **regression block** asserting peak RSS stays under the 2 GB
  floor, every certificate is clean and the differential held, so
  scale regressions fail CI the same way perf regressions do.

``smoke=True`` shrinks the run to one ~50k-node graph so the harness
finishes in CI time; that mode is exercised by
``tests/test_scale_bench.py`` and the ``make scale-smoke`` target.
"""

from __future__ import annotations

import json
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import scipy

from repro.exceptions import ReproError
from repro.obs.metrics import (
    MetricsRegistry,
    metrics_active,
    peak_rss_bytes,
)

__all__ = [
    "SCALE_SCHEMA",
    "DEFAULT_SCALE_SIZES",
    "SMOKE_SCALE_SIZES",
    "DEFAULT_SCALE_THRESHOLD",
    "DEFAULT_SCALE_D_MAX",
    "MAX_PEAK_RSS_BYTES",
    "REQUIRED_POINT_KEYS",
    "CERTIFICATE_ROWS",
    "calibration_seconds",
    "exactness_certificate",
    "run_scale_bench",
    "write_bench",
    "scale_manifest",
    "format_scale_summary",
]

#: Schema identifier embedded in ``BENCH_scale.json``. v2 added the
#: per-point exactness ``"certificate"``, v3 each point's
#: ``"calibration_seconds"``; v4 compares the kernel with ``apply``'s
#: route in ``"differential"`` and has no worker-count fields.
SCALE_SCHEMA = "repro-bench-scale/v4"

#: Full-run sizes: the two operating points the paper's timing figures
#: report (DBLP-scale and LiveJournal-order-of-magnitude).
DEFAULT_SCALE_SIZES = (100_000, 1_000_000)

#: Smoke-mode size: big enough that the mmap-backed path is actually
#: exercised, small enough for CI.
SMOKE_SCALE_SIZES = (50_000,)

#: Prune threshold for the scale runs: the trajectory point, kept so
#: runs stay comparable across versions. It is not the paper's operating
#: point, whose degree-discounted thresholds lie at 0.01–0.025
#: (EXPERIMENTS.md, Table 2); at 0.5 the committed runs keep 282 edges
#: among 100k nodes and 2,651 among 1M. ROADMAP item 2 adds a
#: paper-density point beside it.
DEFAULT_SCALE_THRESHOLD = 0.5

#: Degree cap for the scale graphs. The generator's default cap grows
#: as ``4·√n``, which makes the all-pairs candidate count (∝ Σ d_in²)
#: grow *quadratically* with n — a property of the graph family, not
#: of the engine. A fixed cap holds the degree structure constant
#: across sizes so the curve measures scaling in n; it's a config
#: knob, not a hard-coded assumption. The streaming generator applies
#: it to *both* tails (out-degrees via the degree sequence,
#: in-degrees by ceiling the target-sampling weights), so no hub's
#: expected in-degree exceeds it either.
DEFAULT_SCALE_D_MAX = 100

#: Rows per draw of the exactness certificate: this many uniformly
#: from all rows, and as many again from the rows with output edges
#: (at the scale threshold almost every row is empty).
CERTIFICATE_ROWS = 200

#: Regression floor: the symmetrize → prune run must keep the
#: process's resident high-water mark under this.
MAX_PEAK_RSS_BYTES = 2 * 1024**3

#: Keys every entry of ``results["points"]`` must carry (asserted by
#: the smoke test so downstream consumers can rely on them).
REQUIRED_POINT_KEYS = frozenset(
    {
        "n_nodes",
        "n_edges",
        "threshold",
        "block_size",
        "generate_seconds",
        "symmetrize_seconds",
        "edges_out",
        "store_bytes",
        "peak_rss_bytes",
        "metrics",
        "certificate",
        "calibration_seconds",
    }
)


def calibration_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of a fixed in-process workload.

    The workload is a seeded 20,000 × 20,000 sparse matrix with 10
    entries per row, multiplied by its transpose, and its product's
    rows sorted. Timed next to a point, it turns that point's seconds
    into calibration units. Those normalize the CPU speed of in-cache
    sparse products only: the workload fits in the CPU caches, so it
    does not see memory bandwidth, which a 1M point depends on. Two
    runs of the 1M ``t = 0.5`` point took 66.5 s and 68.8 s while the
    loop read 0.147 s and 0.117 s, so the point read 453 and 588 cal
    against 238 in the schema-v3 file.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    n, per_row = 20_000, 10
    matrix = sp.csr_array(
        (
            rng.random(n * per_row),
            rng.integers(0, n, n * per_row),
            np.arange(0, n * per_row + 1, per_row),
        ),
        shape=(n, n),
    )
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        product = matrix @ matrix.T
        product.sort_indices()
        best = min(best, time.perf_counter() - t0)
    return best


def _scale_point(
    n_nodes: int,
    threshold: float,
    block_size: int,
    d_max: int | None,
    seed: int,
    workdir: Path,
) -> dict[str, Any]:
    """Time the calibration workload, then generate one mmap-backed
    graph and time symmetrize → prune."""
    from repro.graph.generators import power_law_mmcsr
    from repro.symmetrize.degree_discounted import (
        DegreeDiscountedSymmetrization,
    )

    calibration = calibration_seconds()
    rng = np.random.default_rng(seed)
    store_dir = workdir / f"graph-{n_nodes}.mmcsr"
    t0 = time.perf_counter()
    graph = power_law_mmcsr(n_nodes, store_dir, rng, d_max=d_max)
    generate_seconds = time.perf_counter() - t0
    store = graph.mmap_store

    registry = MetricsRegistry()
    with metrics_active(registry):
        t0 = time.perf_counter()
        pruned = DegreeDiscountedSymmetrization().apply_pruned(
            graph, threshold, block_size=block_size
        )
        symmetrize_seconds = time.perf_counter() - t0
    peak = peak_rss_bytes()
    certificate = exactness_certificate(
        graph, pruned.adjacency, threshold, CERTIFICATE_ROWS, seed
    )
    return {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "threshold": threshold,
        "block_size": block_size,
        "generate_seconds": generate_seconds,
        "symmetrize_seconds": symmetrize_seconds,
        "edges_out": pruned.n_edges,
        "store_bytes": int(store.nbytes) if store is not None else 0,
        "peak_rss_bytes": peak,
        "metrics": registry.flat(),
        "certificate": certificate,
        "calibration_seconds": calibration,
    }


def exactness_certificate(
    graph: Any,
    pruned: Any,
    threshold: float,
    k: int = CERTIFICATE_ROWS,
    seed: int = 0,
) -> dict[str, int]:
    """Check sampled rows of a pruned ``U_d`` against a plain product.

    Draws ``k`` rows uniformly and up to ``k`` more among the rows
    with output edges (seeded), computes their exact similarity rows
    as ``Σ_F F[rows] @ Fᵀ`` over the degree-discounted
    :meth:`~repro.symmetrize.DegreeDiscountedSymmetrization
    .pruning_factors` — a plain SciPy product that shares no code with
    the all-pairs kernel — and compares each with the pruned row off
    the diagonal. Pairs within ``2 · TIE_RTOL`` of the threshold
    either way are ties and not judged; above the band a pair must be
    in the output (else a *miss*), below it must not (else an
    *extra*). Cost is O(rows · touched nnz), not O(n²).
    """
    from repro.linalg.sparse_utils import TIE_RTOL
    from repro.symmetrize.degree_discounted import (
        DegreeDiscountedSymmetrization,
    )

    pruned = pruned.tocsr()
    n = pruned.shape[0]
    rng = np.random.default_rng(seed)
    with_edges = np.flatnonzero(np.diff(pruned.indptr))
    rows = np.union1d(
        rng.choice(n, size=min(k, n), replace=False),
        rng.choice(
            with_edges, size=min(k, with_edges.size), replace=False
        ),
    )
    factors = DegreeDiscountedSymmetrization().pruning_factors(graph)
    exact = sum((f[rows] @ f.T).tocsr() for f in factors).tocoo()
    kept = pruned[rows].tocoo()
    band = 2.0 * TIE_RTOL * threshold
    # Pairs as (sampled row, column) keys; the diagonal never counts.
    off = exact.col != rows[exact.row]
    exact_key = exact.row[off].astype(np.int64) * n + exact.col[off]
    exact_val = exact.data[off]
    kept_key = kept.row.astype(np.int64) * n + kept.col
    above = exact_key[exact_val > threshold + band]
    reachable = exact_key[exact_val >= threshold - band]
    misses = int(np.count_nonzero(~np.isin(above, kept_key)))
    extras = int(np.count_nonzero(~np.isin(kept_key, reachable)))
    return {
        "rows_checked": int(rows.size),
        "misses": misses,
        "extras": extras,
    }


def _differential_block(
    n_nodes: int,
    threshold: float,
    block_size: int,
    d_max: int | None,
    seed: int,
    workdir: Path,
) -> dict[str, Any]:
    """Route differential on one mmap-backed graph.

    Runs ``apply_pruned`` (the §3.6 kernel) and ``apply(t)`` (the
    row-span route) on the same graph and compares the two outputs'
    indptr, indices and data, bytes and index dtypes: two independent
    routes to one pruned ``U_d``, compared whole.
    """
    from repro.graph.generators import power_law_mmcsr
    from repro.symmetrize.degree_discounted import (
        DegreeDiscountedSymmetrization,
    )

    rng = np.random.default_rng(seed)
    graph = power_law_mmcsr(
        n_nodes, workdir / f"diff-{n_nodes}.mmcsr", rng, d_max=d_max
    )
    sym = DegreeDiscountedSymmetrization()
    t0 = time.perf_counter()
    kernel = sym.apply_pruned(graph, threshold, block_size=block_size)
    kernel_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    spans = sym.apply(graph, threshold)
    span_seconds = time.perf_counter() - t0
    a, b = kernel.adjacency.tocsr(), spans.adjacency.tocsr()
    identical = a.shape == b.shape and all(
        getattr(a, part).dtype == getattr(b, part).dtype
        and getattr(a, part).tobytes() == getattr(b, part).tobytes()
        for part in ("indptr", "indices", "data")
    )
    return {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "threshold": threshold,
        "kernel_seconds": kernel_seconds,
        "span_seconds": span_seconds,
        "edges_out": kernel.n_edges,
        "identical": identical,
    }


def run_scale_bench(
    sizes: Sequence[int] | None = None,
    threshold: float = DEFAULT_SCALE_THRESHOLD,
    block_size: int = 4096,
    d_max: int | None = DEFAULT_SCALE_D_MAX,
    seed: int = 0,
    smoke: bool = False,
    with_differential: bool = True,
    workdir: str | Path | None = None,
) -> dict[str, Any]:
    """Run the out-of-core scale sweep; returns the results dict.

    Parameters
    ----------
    sizes:
        Node counts to bench, ascending (defaults depend on
        ``smoke``). Each size gets its own mmap-backed power-law
        graph and one symmetrize → prune timing point.
    threshold:
        Prune threshold for every point.
    block_size:
        Rows per block of the kernel's candidate search.
    d_max:
        Degree cap for the generated graphs (see
        :data:`DEFAULT_SCALE_D_MAX`; ``None`` = the generator's
        ``4·√n`` default, which makes the curve superlinear).
    seed:
        Graph-generation seed.
    smoke:
        Bench one ~50k graph instead of 100k + 1M.
    with_differential:
        Run the route differential (kernel against ``apply``) at the
        smallest benched size.
    workdir:
        Where the mmap stores are built (default: a temp directory,
        removed afterwards).
    """
    if sizes is None:
        sizes = SMOKE_SCALE_SIZES if smoke else DEFAULT_SCALE_SIZES
    if not sizes:
        raise ReproError("scale bench needs at least one size")
    if threshold <= 0:
        raise ReproError("scale bench needs a positive threshold")

    owns_workdir = workdir is None
    base = (
        Path(tempfile.mkdtemp(prefix="repro-scale-"))
        if owns_workdir
        else Path(workdir)
    )
    base.mkdir(parents=True, exist_ok=True)
    try:
        points = [
            _scale_point(
                int(n),
                float(threshold),
                block_size,
                d_max,
                seed,
                base,
            )
            for n in sorted(int(n) for n in sizes)
        ]
        differential = (
            _differential_block(
                min(int(n) for n in sizes),
                float(threshold),
                block_size,
                d_max,
                seed,
                base,
            )
            if with_differential
            else None
        )
    finally:
        if owns_workdir:
            shutil.rmtree(base, ignore_errors=True)

    regression = _regression_block(points, differential)
    return {
        "schema": SCALE_SCHEMA,
        "config": {
            "sizes": [int(s) for s in sizes],
            "threshold": float(threshold),
            "block_size": block_size,
            "d_max": d_max,
            "seed": seed,
            "smoke": smoke,
            "with_differential": with_differential,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "points": points,
        "differential": differential,
        "regression": regression,
    }


def _regression_block(
    points: list[dict[str, Any]],
    differential: dict[str, Any] | None,
) -> dict[str, Any]:
    """Pass/fail: RSS under the floor, every certificate clean,
    differential identical."""
    observed = max(p["peak_rss_bytes"] for p in points)
    at = max(p["n_nodes"] for p in points)
    failures = []
    if observed > MAX_PEAK_RSS_BYTES:
        failures.append(
            f"peak RSS {observed / 1024**3:.2f} GiB at {at} nodes "
            f"exceeds the {MAX_PEAK_RSS_BYTES / 1024**3:.0f} GiB floor"
        )
    for p in points:
        cert = p["certificate"]
        if cert["misses"] or cert["extras"]:
            failures.append(
                f"exactness certificate at {p['n_nodes']} nodes: "
                f"{cert['misses']} missed and {cert['extras']} extra "
                f"pairs in {cert['rows_checked']} sampled rows"
            )
    if differential is not None and not differential["identical"]:
        failures.append(
            "the kernel's output differs from apply's at "
            f"{differential['n_nodes']} nodes"
        )
    return {
        "thresholds": {
            "max_peak_rss_bytes": MAX_PEAK_RSS_BYTES,
            "at": at,
        },
        "observed_peak_rss_bytes": observed,
        "differential_identical": (
            None if differential is None else differential["identical"]
        ),
        "passed": not failures,
        "failures": failures,
    }


def write_bench(results: dict[str, Any], path: str | Path) -> Path:
    """Serialize ``results`` to ``path`` (pretty-printed JSON)."""
    out = Path(path)
    out.write_text(json.dumps(results, indent=2) + "\n")
    return out


def scale_manifest(results: dict[str, Any]):
    """Condense scale-bench ``results`` into a :class:`RunManifest`."""
    from repro.obs.manifest import RunManifest, collect_environment

    metrics: dict[str, float] = {}
    timings: dict[str, float] = {}
    for point in results["points"]:
        tag = f"scale@{point['n_nodes']}"
        timings[f"{tag}_generate_seconds"] = float(
            point["generate_seconds"]
        )
        timings[f"{tag}_symmetrize_seconds"] = float(
            point["symmetrize_seconds"]
        )
        timings[f"{tag}_calibration_seconds"] = float(
            point["calibration_seconds"]
        )
        metrics[f"{tag}.peak_rss_bytes"] = float(point["peak_rss_bytes"])
        for name, value in point["certificate"].items():
            metrics[f"{tag}.certificate_{name}"] = float(value)
        for name, value in point.get("metrics", {}).items():
            metrics[f"{tag}.{name}"] = float(value)
    reg = results["regression"]
    metrics["regression_passed"] = float(bool(reg["passed"]))
    metrics["observed_peak_rss_bytes"] = float(
        reg["observed_peak_rss_bytes"]
    )
    diff = results.get("differential")
    if diff is not None:
        metrics["differential_identical"] = float(bool(diff["identical"]))
        timings["differential_kernel_seconds"] = float(
            diff["kernel_seconds"]
        )
        timings["differential_span_seconds"] = float(diff["span_seconds"])
    return RunManifest(
        kind="bench",
        name="bench-scale",
        config=dict(results["config"]),
        dataset={
            "sizes": list(results["config"]["sizes"]),
            "generator": "power_law_mmcsr",
        },
        environment=collect_environment(),
        seed=results["config"].get("seed"),
        metrics=metrics,
        cache={"enabled": False},
        timings=timings,
    )


def format_scale_summary(results: dict[str, Any]) -> str:
    """Human-readable table of the scale points and the verdict."""
    lines = [
        f"{'nodes':>9} {'edges':>10} {'gen_s':>8} {'sym_s':>9} "
        f"{'sym_cal':>8} {'edges_out':>10} {'peak_rss':>9}"
    ]
    for p in results["points"]:
        lines.append(
            f"{p['n_nodes']:>9} {p['n_edges']:>10} "
            f"{p['generate_seconds']:>8.2f} "
            f"{p['symmetrize_seconds']:>9.2f} "
            f"{p['symmetrize_seconds'] / p['calibration_seconds']:>8.1f} "
            f"{p['edges_out']:>10} "
            f"{p['peak_rss_bytes'] / 1024**2:>8.0f}M"
        )
        m = p.get("metrics", {})
        cert = p["certificate"]
        lines.append(
            f"{'':>9}   candidates="
            f"{m.get('allpairs_candidate_pairs_total', 0):.0f} "
            f"verified={m.get('allpairs_pairs_verified_total', 0):.0f} "
            f"scored={m.get('allpairs_pairs_scored_total', 0):.0f} "
            f"certificate: {cert['rows_checked']} rows, "
            f"{cert['misses']} missed, {cert['extras']} extra"
        )
    diff = results.get("differential")
    if diff is not None:
        lines.append("")
        lines.append(
            f"differential @{diff['n_nodes']} nodes: "
            f"kernel {diff['kernel_seconds']:.2f}s vs "
            f"span route {diff['span_seconds']:.2f}s "
            f"(identical={'yes' if diff['identical'] else 'NO'})"
        )
    reg = results["regression"]
    verdict = "PASS" if reg["passed"] else "FAIL"
    lines.append(
        f"regression: {verdict} "
        f"(peak RSS {reg['observed_peak_rss_bytes'] / 1024**3:.2f} GiB, "
        f"floor {reg['thresholds']['max_peak_rss_bytes'] / 1024**3:.0f} "
        f"GiB at {reg['thresholds']['at']} nodes)"
    )
    for failure in reg["failures"]:
        lines.append(f"  - {failure}")
    return "\n".join(lines)
