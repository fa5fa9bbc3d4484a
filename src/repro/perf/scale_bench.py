"""The ``repro bench`` harness: paper-scale out-of-core runs.

This harness reproduces the *scaling* claims (Figures 8–9 of the
paper): generate power-law digraphs at 100k and 1M nodes straight
into memory-mapped CSR stores
(:func:`~repro.graph.generators.power_law_mmcsr`), run the
degree-discounted symmetrize → prune pipeline end-to-end through the
out-of-core sharded all-pairs engine, and emit ``BENCH_scale.json``
with one timing point per size:

- **generation** and **symmetrize** wall-clock per size — the fig-8/9
  timing curve;
- **peak RSS** of the bench process *and* its pool workers
  (``getrusage`` high-water marks), held under the 2 GiB floor below;
  it grows with the graph and the output, because the parent builds
  the stacked factor and its suffix index in RAM before it spills
  them and merges every kept triplet (``docs/performance.md``, "When
  sharding pays, measured");
- the shard fan-out's own gauges (``shard_count``,
  ``shard_bytes_spilled``, ``peak_rss_bytes``) captured from a
  per-point metrics registry;
- the all-pairs kernel's pair funnel (``allpairs_candidate_pairs_total``
  generated, ``allpairs_pairs_verified_total`` left after the bound,
  ``allpairs_pairs_scored_total`` left after the prefix gate) per
  point;
- an **exactness certificate** per point: seeded sample rows of the
  pruned output checked against a plain SciPy product of the
  :meth:`~repro.symmetrize.DegreeDiscountedSymmetrization
  .pruning_factors` — no all-pairs code — for missed and extra pairs;
- a **shard-vs-monolithic differential** at the smallest benched
  size: the sharded (``n_jobs > 1``) and serial paths must produce
  byte-identical pruned adjacencies;
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
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import scipy

from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry, metrics_active

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
#: ``"calibration_seconds"``.
SCALE_SCHEMA = "repro-bench-scale/v3"

#: Full-run sizes: the two operating points the paper's timing figures
#: report (DBLP-scale and LiveJournal-order-of-magnitude).
DEFAULT_SCALE_SIZES = (100_000, 1_000_000)

#: Smoke-mode size: big enough that the mmap + shard path is actually
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

#: Regression floor: the symmetrize → prune run must keep the resident
#: high-water mark (parent and any pool worker) under this.
MAX_PEAK_RSS_BYTES = 2 * 1024**3

#: Keys every entry of ``results["points"]`` must carry (asserted by
#: the smoke test so downstream consumers can rely on them).
REQUIRED_POINT_KEYS = frozenset(
    {
        "n_nodes",
        "n_edges",
        "threshold",
        "n_jobs",
        "block_size",
        "generate_seconds",
        "symmetrize_seconds",
        "edges_out",
        "store_bytes",
        "peak_rss_bytes",
        "peak_rss_children_bytes",
        "metrics",
        "certificate",
        "calibration_seconds",
    }
)


def calibration_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of a fixed in-process workload.

    The workload is a seeded 20,000 × 20,000 sparse matrix with 10
    entries per row, multiplied by its transpose, and its product's
    rows sorted, which is the kind of work the scale points do. Timed
    next to a point, it turns that point's seconds into calibration
    units, which compare across hosts and host states where seconds
    do not (the same 1M point read 44.6 s and 112.6 s in two runs on
    one 2-vCPU VM).
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


def _rusage_peak_bytes() -> tuple[int, int]:
    """Lifetime RSS high-water of this process and reaped children.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; platforms
    without the ``resource`` module report 0 (the regression block
    then passes vacuously rather than failing on Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0, 0
    scale = 1 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * scale
    return int(own), int(kids)


def _scale_point(
    n_nodes: int,
    threshold: float,
    n_jobs: int | None,
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
            graph, threshold, block_size=block_size, n_jobs=n_jobs
        )
        symmetrize_seconds = time.perf_counter() - t0
    rss_self, rss_children = _rusage_peak_bytes()
    certificate = exactness_certificate(
        graph, pruned.adjacency, threshold, CERTIFICATE_ROWS, seed
    )
    return {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "threshold": threshold,
        "n_jobs": n_jobs,
        "block_size": block_size,
        "generate_seconds": generate_seconds,
        "symmetrize_seconds": symmetrize_seconds,
        "edges_out": pruned.n_edges,
        "store_bytes": int(store.nbytes) if store is not None else 0,
        "peak_rss_bytes": rss_self,
        "peak_rss_children_bytes": rss_children,
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
    shard_jobs: int,
    d_max: int | None,
    seed: int,
    workdir: Path,
) -> dict[str, Any]:
    """Shard-vs-monolithic identity on one mmap-backed graph.

    Runs ``apply_pruned`` serially and through ``shard_jobs`` shard
    workers on the same graph and compares the pruned adjacencies
    byte-for-byte (indptr, indices *and* data) — the acceptance
    criterion that the out-of-core fan-out is an execution strategy,
    not an approximation.
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
    mono = sym.apply_pruned(
        graph, threshold, block_size=block_size, n_jobs=None
    )
    monolithic_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = sym.apply_pruned(
        graph, threshold, block_size=block_size, n_jobs=shard_jobs
    )
    sharded_seconds = time.perf_counter() - t0
    a, b = mono.adjacency.tocsr(), sharded.adjacency.tocsr()
    identical = (
        a.shape == b.shape
        and a.indptr.tobytes() == b.indptr.tobytes()
        and a.indices.tobytes() == b.indices.tobytes()
        and a.data.tobytes() == b.data.tobytes()
    )
    return {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "threshold": threshold,
        "shard_jobs": shard_jobs,
        "monolithic_seconds": monolithic_seconds,
        "sharded_seconds": sharded_seconds,
        "edges_out": mono.n_edges,
        "identical": identical,
    }


def run_scale_bench(
    sizes: Sequence[int] | None = None,
    threshold: float = DEFAULT_SCALE_THRESHOLD,
    n_jobs: int | None = None,
    block_size: int = 4096,
    shard_jobs: int = 4,
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
    n_jobs:
        Shard workers for the timing points; ``None`` (the default,
        as in ``repro bench``) times them serially.
    block_size:
        Rows per shard block — the knob that bounds worker RSS.
    shard_jobs:
        Worker count for the differential's sharded leg.
    d_max:
        Degree cap for the generated graphs (see
        :data:`DEFAULT_SCALE_D_MAX`; ``None`` = the generator's
        ``4·√n`` default, which makes the curve superlinear).
    seed:
        Graph-generation seed.
    smoke:
        Bench one ~50k graph instead of 100k + 1M.
    with_differential:
        Run the shard-vs-monolithic identity check at the smallest
        benched size.
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
                n_jobs,
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
                shard_jobs,
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
            "n_jobs": n_jobs,
            "block_size": block_size,
            "shard_jobs": shard_jobs,
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
    observed = max(
        max(p["peak_rss_bytes"], p["peak_rss_children_bytes"])
        for p in points
    )
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
            "sharded output differs from the monolithic path at "
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
        timings["differential_monolithic_seconds"] = float(
            diff["monolithic_seconds"]
        )
        timings["differential_sharded_seconds"] = float(
            diff["sharded_seconds"]
        )
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
        f"{'sym_cal':>8} {'edges_out':>10} {'rss_self':>9} {'rss_kids':>9}"
    ]
    for p in results["points"]:
        lines.append(
            f"{p['n_nodes']:>9} {p['n_edges']:>10} "
            f"{p['generate_seconds']:>8.2f} "
            f"{p['symmetrize_seconds']:>9.2f} "
            f"{p['symmetrize_seconds'] / p['calibration_seconds']:>8.1f} "
            f"{p['edges_out']:>10} "
            f"{p['peak_rss_bytes'] / 1024**2:>8.0f}M "
            f"{p['peak_rss_children_bytes'] / 1024**2:>8.0f}M"
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
        if "shard_count" in m:
            lines.append(
                f"{'':>9}   shards={m['shard_count']:g} "
                f"spilled={m.get('shard_bytes_spilled', 0) / 1024**2:.1f}M"
            )
    diff = results.get("differential")
    if diff is not None:
        lines.append("")
        lines.append(
            f"differential @{diff['n_nodes']} nodes: "
            f"monolithic {diff['monolithic_seconds']:.2f}s vs "
            f"{diff['shard_jobs']}-shard {diff['sharded_seconds']:.2f}s "
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
