"""repro — Symmetrizations for Clustering Directed Graphs.

A from-scratch reproduction of Satuluri & Parthasarathy,
*Symmetrizations for Clustering Directed Graphs* (EDBT 2011): a
two-stage framework that first transforms a directed graph into an
undirected one (symmetrization) and then applies off-the-shelf
undirected graph clustering.

Quickstart
----------
>>> import repro
>>> ds = repro.make_cora_like(n_nodes=600, n_categories=12, seed=0)
>>> undirected = repro.symmetrize(ds.graph, "degree_discounted")
>>> clustering = repro.get_clusterer("metis").cluster(undirected, 12)
>>> score = repro.average_f_score(clustering, ds.ground_truth)

Package layout
--------------
- :mod:`repro.graph` — directed/undirected sparse graphs, IO,
  generators, statistics.
- :mod:`repro.symmetrize` — the four symmetrizations of §3 plus
  pruning and threshold selection.
- :mod:`repro.cluster` — MLR-MCL, METIS-style, Graclus-style and
  spectral clustering, all implemented from scratch.
- :mod:`repro.directed` — directed-spectral baselines (Zhou et al.,
  Meila–Pentney WCut) and cut objectives.
- :mod:`repro.eval` — §4.3 F-measure, ground truth, §5.6 sign test.
- :mod:`repro.pipeline` — the Figure-2 pipeline and the experiment
  sweeps.
- :mod:`repro.datasets` — synthetic stand-ins for the paper's four
  datasets.
- :mod:`repro.obs` — observability: hierarchical tracing, a metrics
  registry and run manifests (see ``docs/observability.md``).
"""

from repro.cluster import (
    Clustering,
    GraclusClusterer,
    GraphClusterer,
    MLRMCL,
    MetisClusterer,
    SpectralClusterer,
    available_clusterers,
    get_clusterer,
)
from repro.datasets import (
    Dataset,
    DegenerateCase,
    degenerate_case,
    degenerate_corpus,
    guzmania_motif,
    load_dataset,
    make_cora_like,
    make_flickr_like,
    make_livejournal_like,
    make_wikipedia_like,
    save_dataset,
)
from repro.directed import (
    WCutSpectral,
    ZhouDirectedSpectral,
    best_wcut,
    clustering_ncut,
    ncut,
    ncut_directed,
)
from repro.directed.objectives import conductance
from repro.eval import (
    GroundTruth,
    adjusted_rand_index,
    average_f_score,
    correctly_clustered_mask,
    f_score_report,
    flatten_ground_truth,
    normalized_mutual_information,
    purity,
    sign_test,
)
from repro.exceptions import (
    ClusteringError,
    ConvergenceError,
    ConvergenceWarning,
    DatasetError,
    DegenerateGraphWarning,
    EvaluationError,
    GraphError,
    GraphFormatError,
    PipelineError,
    RepairWarning,
    ReproError,
    ReproWarning,
    SymmetrizationError,
    ValidationError,
    ValidationWarning,
)
from repro.graph import DirectedGraph, UndirectedGraph
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Span,
    Tracer,
    diff_manifests,
    metrics_active,
    read_manifests,
    to_chrome_trace,
    tracing,
)
from repro.pipeline import (
    PipelineResult,
    PipelineWarning,
    SymmetrizeClusterPipeline,
    TuningPoint,
    sweep_alpha_beta,
    sweep_n_clusters,
    sweep_threshold,
    tune_threshold,
)
from repro.symmetrize import (
    BibliometricSymmetrization,
    BipartiteDegreeDiscounted,
    DegreeDiscountedSymmetrization,
    HybridSymmetrization,
    JaccardSymmetrization,
    NaiveSymmetrization,
    RandomWalkSymmetrization,
    Symmetrization,
    available_symmetrizations,
    bipartite_symmetrize,
    choose_threshold_for_degree,
    get_symmetrization,
    symmetrize,
)
from repro.validate import (
    ValidationIssue,
    ValidationReport,
    lenient,
    repair_graph,
    strictness,
    validate_directed_graph,
    validate_edge_list,
    validate_symmetrization_output,
    validate_undirected_graph,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # graphs
    "DirectedGraph",
    "UndirectedGraph",
    # symmetrizations
    "Symmetrization",
    "symmetrize",
    "get_symmetrization",
    "available_symmetrizations",
    "NaiveSymmetrization",
    "RandomWalkSymmetrization",
    "BibliometricSymmetrization",
    "DegreeDiscountedSymmetrization",
    "BipartiteDegreeDiscounted",
    "bipartite_symmetrize",
    "JaccardSymmetrization",
    "HybridSymmetrization",
    "choose_threshold_for_degree",
    # clustering
    "Clustering",
    "GraphClusterer",
    "get_clusterer",
    "available_clusterers",
    "MLRMCL",
    "MetisClusterer",
    "GraclusClusterer",
    "SpectralClusterer",
    # directed baselines / objectives
    "ZhouDirectedSpectral",
    "WCutSpectral",
    "best_wcut",
    "ncut",
    "ncut_directed",
    "clustering_ncut",
    "conductance",
    # evaluation
    "GroundTruth",
    "average_f_score",
    "f_score_report",
    "correctly_clustered_mask",
    "sign_test",
    "purity",
    "normalized_mutual_information",
    "adjusted_rand_index",
    "flatten_ground_truth",
    # pipeline
    "SymmetrizeClusterPipeline",
    "PipelineResult",
    "PipelineWarning",
    "sweep_n_clusters",
    "sweep_threshold",
    "sweep_alpha_beta",
    "tune_threshold",
    "TuningPoint",
    # datasets
    "Dataset",
    "make_cora_like",
    "make_wikipedia_like",
    "make_flickr_like",
    "make_livejournal_like",
    "guzmania_motif",
    "save_dataset",
    "load_dataset",
    "DegenerateCase",
    "degenerate_corpus",
    "degenerate_case",
    # validation
    "ValidationIssue",
    "ValidationReport",
    "validate_directed_graph",
    "validate_undirected_graph",
    "validate_symmetrization_output",
    "validate_edge_list",
    "repair_graph",
    "strictness",
    "lenient",
    # observability
    "Tracer",
    "Span",
    "tracing",
    "to_chrome_trace",
    "MetricsRegistry",
    "metrics_active",
    "RunManifest",
    "read_manifests",
    "diff_manifests",
    # exceptions
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "ValidationError",
    "SymmetrizationError",
    "ClusteringError",
    "ConvergenceError",
    "EvaluationError",
    "DatasetError",
    "PipelineError",
    # warnings
    "ReproWarning",
    "ValidationWarning",
    "DegenerateGraphWarning",
    "RepairWarning",
    "ConvergenceWarning",
]
