"""Runners for every table and figure of the paper's evaluation.

Each ``run_*`` function regenerates one experiment on the synthetic
stand-in datasets and returns an
:class:`~repro.experiments.support.ExperimentResult` whose ``data``
dict carries the values the benchmark harness asserts on. The public
entry points are :func:`run_experiment` and
:func:`available_experiments`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import (
    GraclusClusterer,
    MetisClusterer,
    MLRMCL,
)
from repro.directed.objectives import clustering_ncut
from repro.directed.wcut import best_wcut
from repro.directed.zhou import ZhouDirectedSpectral
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.plan import Plan
from repro.engine.policy import RetryPolicy
from repro.engine.stage import Stage
from repro.engine.stages import ClusterStage, EvaluateStage
from repro.eval.fmeasure import (
    average_f_score,
    correctly_clustered_mask,
)
from repro.eval.groundtruth import GroundTruth
from repro.eval.significance import sign_test
from repro.exceptions import ReproError
from repro.experiments.support import (
    DISPLAY,
    SYMMETRIZATIONS,
    DatasetBundle,
    ExperimentResult,
    full_symmetrization,
    match_edge_budget,
    pruned_symmetrization,
    shared_bundle,
)
from repro.graph.stats import (
    degree_summary,
    log_binned_degree_histogram,
    percent_symmetric_links,
)
from repro.graph.ugraph import UndirectedGraph
from repro.linalg.pagerank import pagerank
from repro.linalg.sparse_utils import top_k_entries
from repro.pipeline.report import format_series, format_table
from repro.pipeline.sweep import sweep_alpha_beta, sweep_threshold
from repro.symmetrize import symmetrize
from repro.symmetrize.pruning import (
    choose_threshold_for_degree,
    singleton_fraction,
)

__all__ = [
    "available_experiments",
    "run_experiment",
    "run_all_experiments",
]


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def run_table1(bundle: DatasetBundle) -> ExperimentResult:
    """Table 1: dataset statistics."""
    rows = []
    for ds in (
        bundle.wiki(),
        bundle.cora(),
        bundle.flickr(),
        bundle.livejournal(),
    ):
        gt = ds.ground_truth
        rows.append(
            [
                ds.name,
                ds.n_nodes,
                ds.n_edges,
                percent_symmetric_links(ds.graph),
                gt.n_categories if gt is not None else "N.A.",
            ]
        )
    title = "Table 1: dataset statistics (synthetic stand-ins)"
    text = format_table(
        ["Dataset", "Vertices", "Edges", "%Symmetric", "#Categories"],
        rows,
        title=title,
    )
    reciprocity = {r[0]: r[3] for r in rows}
    return ExperimentResult(
        "table1", title, text, {"rows": rows, "reciprocity": reciprocity}
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


def _table2_rows(ds, target_degree: float) -> list[list]:
    rows = []
    naive, _ = pruned_symmetrization(ds.graph, "naive", target_degree)
    dd, dd_thr = pruned_symmetrization(
        ds.graph, "degree_discounted", target_degree
    )
    bib_full = full_symmetrization(ds.graph, "bibliometric")
    bib, bib_thr = match_edge_budget(bib_full, dd.n_edges)
    rows.append(
        [ds.name, DISPLAY["naive"] + " / Random Walk", naive.n_edges,
         0.0, singleton_fraction(naive)]
    )
    rows.append(
        [ds.name, DISPLAY["bibliometric"], bib.n_edges, bib_thr,
         singleton_fraction(bib)]
    )
    rows.append(
        [ds.name, DISPLAY["degree_discounted"], dd.n_edges, dd_thr,
         singleton_fraction(dd)]
    )
    return rows


def run_table2(bundle: DatasetBundle) -> ExperimentResult:
    """Table 2: edge counts per symmetrization + singleton pathology."""
    rows = _table2_rows(bundle.wiki(), 25.0) + _table2_rows(
        bundle.cora(), 15.0
    )
    title = "Table 2: symmetrized edge counts and prune thresholds"
    text = format_table(
        ["Dataset", "Symmetrization", "Edges", "Threshold",
         "SingletonFrac"],
        rows,
        title=title,
    )
    return ExperimentResult(
        "table2",
        title,
        text,
        {
            "rows": rows,
            "wiki_bib_singletons": rows[1][4],
            "wiki_dd_singletons": rows[2][4],
        },
    )


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


def run_fig4(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 4: degree distributions of the symmetrized graphs."""
    ds = bundle.wiki()
    graphs = {}
    dd, _ = pruned_symmetrization(ds.graph, "degree_discounted", 25.0)
    graphs["degree_discounted"] = dd
    graphs["bibliometric"], _ = match_edge_budget(
        full_symmetrization(ds.graph, "bibliometric"), dd.n_edges
    )
    graphs["naive"], _ = pruned_symmetrization(ds.graph, "naive", 25.0)
    graphs["random_walk"], _ = pruned_symmetrization(
        ds.graph, "random_walk", 25.0
    )
    band = (10.0, 100.0)
    lines = []
    summaries = {}
    for name in SYMMETRIZATIONS:
        degrees = graphs[name].degrees(weighted=False)
        summaries[name] = degree_summary(degrees, band=band)
        centers, counts = log_binned_degree_histogram(degrees, n_bins=12)
        lines.append(
            format_series(
                DISPLAY[name],
                [round(c, 1) for c in centers],
                counts.tolist(),
                x_label="degree",
                y_label="#nodes",
            )
        )
    rows = [
        [DISPLAY[n], s.n_isolated, s.median, s.max,
         s.frac_in_medium_band, s.frac_hubs]
        for n, s in summaries.items()
    ]
    title = "Figure 4: degree distribution summaries (wikipedia-like)"
    text = (
        format_table(
            ["Symmetrization", "Isolated", "Median", "Max",
             f"Frac in {band}", "Frac hubs"],
            rows,
            title=title,
        )
        + "\n\n"
        + "\n".join(lines)
    )
    return ExperimentResult(
        "fig4", title, text, {"summaries": summaries}
    )


# ---------------------------------------------------------------------------
# Figures 5, 7, 8, 9 — spec-driven quality/timing panels
# ---------------------------------------------------------------------------
#
# The paper's eight figure panels are all the same experiment with
# different coordinates: build one symmetrized graph per series from a
# per-series recipe, run a clustering plan through the engine at every
# cluster count, and report either Avg-F (quality panels) or seconds
# (timing panels). One declarative spec per panel replaces the four
# near-identical `_run_figN_panel` helpers.

FIG5_CLUSTER_COUNTS = [15, 20, 25, 35, 50]
FIG7_CLUSTER_COUNTS = [25, 38, 55, 80]
FIG8_CLUSTER_COUNTS = [25, 55, 80]
FIG8_SERIES = ["degree_discounted", "naive", "bibliometric"]
FIG9_CLUSTER_COUNTS = [50, 100, 200]
FIG9_SERIES = ["degree_discounted", "naive", "random_walk"]

#: Graph recipes a panel series can ask for: the unpruned artifact,
#: the §5.3.1 density-matched prune, or an edge budget matched to
#: another (already built) series — how the paper matched
#: Bibliometric's edge count to Degree-discounted's.
_FULL = ("full",)


def _pruned(target_degree: float) -> tuple:
    return ("pruned", target_degree)


def _match(other: str) -> tuple:
    return ("match", other)


@dataclass(frozen=True)
class PanelSpec:
    """Everything that distinguishes one figure panel from another."""

    experiment: str
    figure: str
    dataset: str  #: :class:`DatasetBundle` accessor name.
    subject: str  #: Title tail; may reference ``{dataset}``.
    clusterer: type  #: Factory; a fresh instance per grid point.
    cluster_counts: tuple[int, ...]
    series: tuple[str, ...]
    recipes: dict[str, tuple] = field(default_factory=dict)
    kind: str = "quality"  #: ``"quality"`` or ``"timing"``.
    with_ncut: bool = False


def _panel_graphs(
    graph, recipes: dict[str, tuple]
) -> dict[str, UndirectedGraph]:
    """Build each series' symmetrized graph from its recipe.

    Two passes so an edge-budget match can reference another series'
    graph regardless of declaration order.
    """
    graphs: dict[str, UndirectedGraph] = {}
    for name, recipe in recipes.items():
        if recipe[0] == "full":
            graphs[name] = full_symmetrization(graph, name)
        elif recipe[0] == "pruned":
            graphs[name], _ = pruned_symmetrization(
                graph, name, target_degree=recipe[1]
            )
    for name, recipe in recipes.items():
        if recipe[0] == "match":
            graphs[name], _ = match_edge_budget(
                full_symmetrization(graph, name),
                graphs[recipe[1]].n_edges,
            )
    return graphs


#: Transient failures in experiment grids (a flaky worker, an
#: injected chaos fault) get one bounded re-execution; deterministic
#: errors still fail fast.
_EXPERIMENT_RETRY = RetryPolicy(max_attempts=2, backoff_s=0.01)


def _cluster_point(
    symmetrized: UndirectedGraph,
    clusterer,
    n_clusters: int,
    ground_truth: GroundTruth | None = None,
) -> ExecutionResult:
    """Run one cluster(+evaluate) plan through the engine."""
    stages: list[Stage] = [ClusterStage(clusterer, n_clusters)]
    initial = ["symmetrized"]
    values: dict[str, object] = {"symmetrized": symmetrized}
    if ground_truth is not None:
        stages.append(EvaluateStage())
        initial.append("ground_truth")
        values["ground_truth"] = ground_truth
    plan = Plan(
        stages,
        initial=tuple(initial),
        name=f"experiments.cluster_point[k={n_clusters}]",
    )
    executor = Executor(mode="strict", retry=_EXPERIMENT_RETRY)
    return executor.execute(plan, values)


def _quality_panel(
    spec: PanelSpec, ds, graphs: dict, title: str
) -> ExperimentResult:
    results = {}
    for name in spec.series:
        ks, fs = [], []
        for k in spec.cluster_counts:
            execution = _cluster_point(
                graphs[name], spec.clusterer(), int(k),
                ds.ground_truth,
            )
            ks.append(execution.values["clustering"].n_clusters)
            fs.append(execution.values["average_f"])
        results[name] = (ks, fs)
    lines = [
        format_series(
            DISPLAY[name], results[name][0], results[name][1],
            x_label="#clusters", y_label="AvgF",
        )
        for name in spec.series
    ]
    peaks = {name: max(results[name][1]) for name in spec.series}
    return ExperimentResult(
        spec.experiment, title, "\n".join(lines),
        {"series": results, "peaks": peaks},
    )


def _timing_panel(
    spec: PanelSpec, ds, graphs: dict, title: str
) -> ExperimentResult:
    counts = list(spec.cluster_counts)
    times, ncuts, achieved = {}, {}, {}
    for name in spec.series:
        per_k = []
        clustering = None
        for k in counts:
            execution = _cluster_point(
                graphs[name], spec.clusterer(), int(k)
            )
            clustering = execution.values["clustering"]
            per_k.append(execution.seconds("cluster"))
        times[name] = per_k
        if spec.with_ncut:
            achieved[name] = clustering.n_clusters
            ncuts[name] = clustering_ncut(
                graphs[name], clustering.labels
            )
    lines = [
        format_series(
            DISPLAY[name], counts, times[name],
            x_label="#clusters", y_label="seconds",
        )
        for name in spec.series
    ]
    data: dict = {"times": times}
    if spec.with_ncut:
        lines.append(
            "k-way normalized cuts at top k (lower = cleaner "
            "structure): "
            + ", ".join(
                f"{DISPLAY[n]}={ncuts[n]:.2f} (k={achieved[n]})"
                for n in spec.series
            )
        )
        data = {
            "times": times,
            "ncuts": ncuts,
            "achieved": achieved,
            "cluster_counts": counts,
        }
    return ExperimentResult(
        spec.experiment, title, "\n".join(lines), data
    )


def _run_panel(bundle: DatasetBundle, spec: PanelSpec) -> ExperimentResult:
    ds = getattr(bundle, spec.dataset)()
    graphs = _panel_graphs(ds.graph, spec.recipes)
    title = (
        f"{spec.figure} ({spec.experiment}): "
        + spec.subject.format(dataset=ds.name)
    )
    if spec.kind == "quality":
        return _quality_panel(spec, ds, graphs, title)
    return _timing_panel(spec, ds, graphs, title)


def _fig5_spec(experiment: str, clusterer: type, deg: float) -> PanelSpec:
    return PanelSpec(
        experiment=experiment,
        figure="Figure 5",
        dataset="cora",
        subject="Cora Avg-F vs #clusters",
        clusterer=clusterer,
        cluster_counts=tuple(FIG5_CLUSTER_COUNTS),
        series=tuple(SYMMETRIZATIONS),
        recipes={
            "degree_discounted": _pruned(deg),
            "bibliometric": _pruned(deg),
            "naive": _FULL,
            "random_walk": _FULL,
        },
    )


def _fig7_spec(experiment: str, clusterer: type) -> PanelSpec:
    return PanelSpec(
        experiment=experiment,
        figure="Figure 7",
        dataset="wiki",
        subject="Wikipedia Avg-F vs #clusters",
        clusterer=clusterer,
        cluster_counts=tuple(FIG7_CLUSTER_COUNTS),
        series=tuple(SYMMETRIZATIONS),
        recipes={
            "degree_discounted": _pruned(25.0),
            "bibliometric": _match("degree_discounted"),
            "naive": _FULL,
            "random_walk": _FULL,
        },
    )


def _fig8_spec(experiment: str, clusterer: type) -> PanelSpec:
    return PanelSpec(
        experiment=experiment,
        figure="Figure 8",
        dataset="wiki",
        subject="Wikipedia clustering times",
        clusterer=clusterer,
        cluster_counts=tuple(FIG8_CLUSTER_COUNTS),
        series=tuple(FIG8_SERIES),
        recipes={
            "degree_discounted": _pruned(25.0),
            "bibliometric": _match("degree_discounted"),
            "naive": _FULL,
        },
        kind="timing",
        with_ncut=True,
    )


def _fig9_spec(experiment: str, dataset: str) -> PanelSpec:
    return PanelSpec(
        experiment=experiment,
        figure="Figure 9",
        dataset=dataset,
        subject="{dataset} clustering times",
        clusterer=MLRMCL,
        cluster_counts=tuple(FIG9_CLUSTER_COUNTS),
        series=tuple(FIG9_SERIES),
        recipes={
            "degree_discounted": _pruned(30.0),
            "naive": _FULL,
            "random_walk": _FULL,
        },
        kind="timing",
    )


def run_fig5a(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 5(a): Cora quality with MLR-MCL."""
    return _run_panel(bundle, _fig5_spec("fig5a", MLRMCL, 20.0))


def run_fig5b(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 5(b): Cora quality with Graclus."""
    return _run_panel(bundle, _fig5_spec("fig5b", GraclusClusterer, 40.0))


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

FIG6_CLUSTER_COUNTS = [15, 25, 35]


def run_fig6(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 6: dd pipelines vs BestWCut / Zhou (quality + speed)."""
    ds = bundle.cora()
    undirected, _ = pruned_symmetrization(
        ds.graph, "degree_discounted", 20.0
    )
    rows = []
    for label, runner in [
        ("Degree-discounted + MLR-MCL",
         lambda k: MLRMCL().cluster(undirected, k)),
        ("Degree-discounted + Graclus",
         lambda k: GraclusClusterer().cluster(undirected, k)),
        ("Degree-discounted + Metis",
         lambda k: MetisClusterer().cluster(undirected, k)),
        ("BestWCut (Meila-Pentney)",
         lambda k: best_wcut().cluster(ds.graph, k)),
        ("Zhou directed spectral",
         lambda k: ZhouDirectedSpectral().cluster(ds.graph, k)),
    ]:
        best_f, total = 0.0, 0.0
        for k in FIG6_CLUSTER_COUNTS:
            t0 = time.perf_counter()
            clustering = runner(k)
            total += time.perf_counter() - t0
            best_f = max(
                best_f, average_f_score(clustering, ds.ground_truth)
            )
        rows.append([label, best_f, total / len(FIG6_CLUSTER_COUNTS)])
    title = "Figure 6: Degree-discounted pipelines vs directed spectral"
    text = format_table(
        ["Method", "Peak AvgF", "Mean seconds/run"], rows, title=title
    )
    return ExperimentResult(
        "fig6", title, text,
        {"by_method": {r[0]: (r[1], r[2]) for r in rows}},
    )


# ---------------------------------------------------------------------------
# Figures 7, 8, 9 — panels of the shared spec engine above
# ---------------------------------------------------------------------------


def run_fig7a(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 7(a): Wikipedia quality with MLR-MCL."""
    return _run_panel(bundle, _fig7_spec("fig7a", MLRMCL))


def run_fig7b(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 7(b): Wikipedia quality with Metis."""
    return _run_panel(bundle, _fig7_spec("fig7b", MetisClusterer))


def run_fig8a(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 8(a): Wikipedia times with MLR-MCL."""
    return _run_panel(bundle, _fig8_spec("fig8a", MLRMCL))


def run_fig8b(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 8(b): Wikipedia times with Metis."""
    return _run_panel(bundle, _fig8_spec("fig8b", MetisClusterer))


def run_fig9a(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 9(a): Flickr clustering times."""
    return _run_panel(bundle, _fig9_spec("fig9a", "flickr"))


def run_fig9b(bundle: DatasetBundle) -> ExperimentResult:
    """Figure 9(b): LiveJournal clustering times."""
    return _run_panel(bundle, _fig9_spec("fig9b", "livejournal"))


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------


def run_table3(bundle: DatasetBundle) -> ExperimentResult:
    """Table 3: prune-threshold effect on edges / F / time."""
    ds = bundle.wiki()
    full = full_symmetrization(ds.graph, "degree_discounted")
    lo = choose_threshold_for_degree(
        full, 40.0, rng=np.random.default_rng(0)
    )
    hi = choose_threshold_for_degree(
        full, 8.0, rng=np.random.default_rng(0)
    )
    thresholds = list(np.linspace(lo, hi, 4))
    results = {}
    for clusterer in ("mlrmcl", "metis"):
        results[clusterer] = sweep_threshold(
            ds.graph,
            thresholds=thresholds,
            clusterer=clusterer,
            n_clusters=38,
            ground_truth=ds.ground_truth,
        )
    rows = []
    for clusterer, points in results.items():
        for p in points:
            rows.append(
                [clusterer, float(p.parameter), p.n_edges,
                 p.average_f, p.cluster_seconds]
            )
    title = "Table 3: effect of the prune threshold (wikipedia-like)"
    text = format_table(
        ["Clusterer", "Threshold", "Edges", "AvgF", "Seconds"],
        rows,
        title=title,
    )
    return ExperimentResult(
        "table3", title, text, {"points": results}
    )


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------

TABLE4_CONFIGURATIONS = [
    (0.0, 0.0),
    ("log", "log"),
    (0.25, 0.25),
    (0.5, 0.5),
    (0.75, 0.75),
    (1.0, 1.0),
    (0.25, 0.5),
    (0.25, 0.75),
    (0.5, 0.25),
    (0.5, 0.75),
    (0.75, 0.25),
    (0.75, 0.5),
]


def run_table4(bundle: DatasetBundle) -> ExperimentResult:
    """Table 4: (alpha, beta) grid with Metis."""
    cora_points = sweep_alpha_beta(
        bundle.cora().graph,
        configurations=TABLE4_CONFIGURATIONS,
        clusterer="metis",
        n_clusters=25,
        ground_truth=bundle.cora().ground_truth,
        target_degree=20.0,
    )
    wiki_points = sweep_alpha_beta(
        bundle.wiki().graph,
        configurations=TABLE4_CONFIGURATIONS,
        clusterer="metis",
        n_clusters=38,
        ground_truth=bundle.wiki().ground_truth,
        target_degree=25.0,
    )
    rows = [
        [str(c.parameter[0]), str(c.parameter[1]),
         c.average_f, w.average_f]
        for c, w in zip(cora_points, wiki_points)
    ]
    title = "Table 4: effect of varying alpha, beta (Metis)"
    text = format_table(
        ["alpha", "beta", "F (cora-like)", "F (wiki-like)"],
        rows,
        title=title,
    )
    return ExperimentResult(
        "table4",
        title,
        text,
        {
            "cora": {p.parameter: p.average_f for p in cora_points},
            "wiki": {p.parameter: p.average_f for p in wiki_points},
        },
    )


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------

TABLE5_TOP_K = 5


def run_table5(bundle: DatasetBundle) -> ExperimentResult:
    """Table 5: top-weighted edges per symmetrization."""
    ds = bundle.wiki()
    indeg = ds.graph.in_degrees()
    hub_cutoff = np.quantile(indeg, 0.995)
    rows = []
    hub_touch = {}
    tops = {}
    for name in ("random_walk", "bibliometric", "degree_discounted"):
        u = full_symmetrization(ds.graph, name)
        entries = top_k_entries(u.adjacency, TABLE5_TOP_K)
        tops[name] = entries
        count = 0
        for i, j, w in entries:
            touches = bool(
                indeg[i] >= hub_cutoff or indeg[j] >= hub_cutoff
            )
            count += touches
            rows.append(
                [DISPLAY[name], i, j, w, "hub" if touches else "-"]
            )
        hub_touch[name] = count
    pi = pagerank(ds.graph, teleport=0.05)
    title = "Table 5: top-weighted edges per symmetrization"
    text = format_table(
        ["Symmetrization", "Node 1", "Node 2", "Weight", "Hub pair?"],
        rows,
        title=title,
    )
    return ExperimentResult(
        "table5",
        title,
        text,
        {
            "hub_touch": hub_touch,
            "tops": tops,
            "pagerank": pi,
            "median_pagerank": float(np.median(pi)),
        },
    )


# ---------------------------------------------------------------------------
# §5.6 significance
# ---------------------------------------------------------------------------


def _sec56_clusterings(ds, k: int, target_degree: float) -> dict:
    dd, _ = pruned_symmetrization(
        ds.graph, "degree_discounted", target_degree
    )
    naive = full_symmetrization(ds.graph, "naive")
    return {
        "dd+mlrmcl": MLRMCL().cluster(dd, k),
        "naive+mlrmcl": MLRMCL().cluster(naive, k),
        "dd+metis": MetisClusterer().cluster(dd, k),
        "naive+metis": MetisClusterer().cluster(naive, k),
    }


def run_sec56(bundle: DatasetBundle) -> ExperimentResult:
    """§5.6: paired binomial sign tests on per-node correctness."""
    rows = []
    cora = bundle.cora()
    clusterings = _sec56_clusterings(cora, 25, 20.0)
    clusterings["bestwcut"] = best_wcut().cluster(cora.graph, 25)
    masks = {
        name: correctly_clustered_mask(c, cora.ground_truth)
        for name, c in clusterings.items()
    }
    for a, b in [
        ("dd+mlrmcl", "naive+mlrmcl"),
        ("dd+metis", "naive+metis"),
        ("dd+mlrmcl", "bestwcut"),
        ("dd+metis", "bestwcut"),
    ]:
        r = sign_test(masks[a], masks[b])
        rows.append(
            ["cora-like", a, b, r.n_a_only, r.n_b_only,
             r.log10_p, r.winner]
        )
    wiki = bundle.wiki()
    wiki_masks = {
        name: correctly_clustered_mask(c, wiki.ground_truth)
        for name, c in _sec56_clusterings(wiki, 38, 25.0).items()
    }
    for a, b in [
        ("dd+mlrmcl", "naive+mlrmcl"),
        ("dd+metis", "naive+metis"),
    ]:
        r = sign_test(wiki_masks[a], wiki_masks[b])
        rows.append(
            ["wiki-like", a, b, r.n_a_only, r.n_b_only,
             r.log10_p, r.winner]
        )
    title = "Sec 5.6: paired binomial sign tests"
    text = format_table(
        ["Dataset", "Method A", "Method B", "A-only", "B-only",
         "log10(p)", "Winner"],
        rows,
        title=title,
    )
    return ExperimentResult("sec56", title, text, {"rows": rows})


# ---------------------------------------------------------------------------
# §5.7 case study
# ---------------------------------------------------------------------------


def run_sec57(bundle: DatasetBundle) -> ExperimentResult:
    """§5.7: Guzmania / Figure-1 case studies."""
    from repro.datasets import guzmania_motif
    from repro.graph.generators import figure1_graph

    lines = []
    data: dict = {}

    # Figure-1 pair weights.
    g, roles = figure1_graph()
    a, b = roles["pair"]
    pair_weights = {
        name: symmetrize(g, name).edge_weight(a, b)
        for name in ("naive", "bibliometric", "degree_discounted")
    }
    data["figure1_pair_weights"] = pair_weights
    lines.append(
        format_table(
            ["Symmetrization", "Weight between the Figure-1 pair"],
            [[k, v] for k, v in pair_weights.items()],
            title="Figure 1: can the natural pair ever be clustered?",
        )
    )

    # Guzmania motif recovery.
    motif, motif_roles = guzmania_motif(n_species=12)
    rows = []
    recovery = {}
    for sym in ("naive", "degree_discounted"):
        u = symmetrize(motif, sym)
        for clusterer_name, clustering in [
            ("MLR-MCL", MLRMCL().cluster(u)),
            ("Metis", MetisClusterer(imbalance=1.6).cluster(u, 2)),
        ]:
            species = np.array(motif_roles["species"])
            values, counts = np.unique(
                clustering.labels[species], return_counts=True
            )
            purity = counts.max() / species.size
            species_label = values[counts.argmax()]
            leaked = int(
                np.count_nonzero(
                    clustering.labels[motif_roles["background"]]
                    == species_label
                )
            )
            rows.append([sym, clusterer_name, purity, leaked])
            recovery[(sym, clusterer_name)] = (float(purity), leaked)
    data["guzmania"] = recovery
    lines.append(
        format_table(
            ["Symmetrization", "Clusterer", "Species purity",
             "Background leaked"],
            rows,
            title="Sec 5.7: Guzmania list-pattern cluster recovery",
        )
    )
    title = "Sec 5.7: case studies"
    return ExperimentResult("sec57", title, "\n\n".join(lines), data)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_RUNNERS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "fig4": run_fig4,
    "fig5a": run_fig5a,
    "fig5b": run_fig5b,
    "fig6": run_fig6,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig8a": run_fig8a,
    "fig8b": run_fig8b,
    "fig9a": run_fig9a,
    "fig9b": run_fig9b,
    "sec56": run_sec56,
    "sec57": run_sec57,
}


def available_experiments() -> list[str]:
    """Ids of all experiment runners, sorted."""
    return sorted(_RUNNERS)


def run_all_experiments(
    bundle: DatasetBundle | None = None,
    scale: float = 1.0,
    seed: int = 0,
) -> list[ExperimentResult]:
    """Run every registered experiment, sharing one dataset bundle.

    Experiments run in registry (alphabetical) order; the bundle's
    caches amortize dataset generation and symmetrization across them.
    """
    if bundle is None:
        bundle = shared_bundle(scale=scale, seed=seed)
    return [
        run_experiment(name, bundle=bundle)
        for name in available_experiments()
    ]


def run_experiment(
    name: str,
    bundle: DatasetBundle | None = None,
    scale: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Run one experiment by id.

    Parameters
    ----------
    name:
        One of :func:`available_experiments`.
    bundle:
        Optional pre-built dataset bundle (reused across experiments
        to amortize generation and symmetrization); defaults to a
        process-wide shared bundle at ``scale``/``seed``.
    scale, seed:
        Dataset scale multiplier and seed when no bundle is given.
    """
    try:
        runner = _RUNNERS[name.lower()]
    except KeyError:
        known = ", ".join(available_experiments())
        raise ReproError(
            f"unknown experiment {name!r}; known: {known}"
        ) from None
    if bundle is None:
        bundle = shared_bundle(scale=scale, seed=seed)
    return runner(bundle)
