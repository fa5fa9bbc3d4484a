"""Concrete stages of the paper's pipeline.

These wrap the existing library operations — input validation,
symmetrization (§3), pruning (§3.5–3.6), clustering (§4) and Avg-F
evaluation (§4.3) — as :class:`~repro.engine.stage.Stage` nodes so
:class:`~repro.engine.plan.Plan` can compose them and
:class:`~repro.engine.executor.Executor` can run them with shared
validation, tracing, warning capture and artifact caching.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.common import GraphClusterer, get_clusterer
from repro.engine.stage import Stage, StageContext
from repro.eval.fmeasure import average_f_score
from repro.exceptions import ClusteringError
from repro.obs.metrics import metric_set
from repro.symmetrize.base import Symmetrization, get_symmetrization
from repro.symmetrize.pruning import (
    choose_threshold_for_degree,
    prune_graph,
)
from repro.validate.invariants import (
    repair_graph,
    validate_directed_graph,
    validate_undirected_graph,
)

__all__ = [
    "ValidateInputStage",
    "ValidateSymmetrizedStage",
    "SymmetrizeStage",
    "PruneStage",
    "PruneToDegreeStage",
    "ClusterStage",
    "EvaluateStage",
]


class ValidateInputStage(Stage):
    """Validate (strict) or repair (lenient) the directed input."""

    name = "validate"
    inputs = ("graph",)
    outputs = ("graph",)

    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        graph = values["graph"]
        report = validate_directed_graph(graph.adjacency, level="full")
        if not report.ok:
            if ctx.strict:
                report.raise_errors()
            graph, repair_report = repair_graph(graph)
            repair_report.emit_warnings()
        report.emit_warnings()
        return {"graph": graph}


class ValidateSymmetrizedStage(Stage):
    """Validate a caller-supplied stage-1 artifact before stage 2."""

    name = "validate"
    inputs = ("symmetrized",)
    outputs = ("symmetrized",)

    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        symmetrized = values["symmetrized"]
        report = validate_undirected_graph(
            symmetrized.adjacency, level="basic"
        )
        if not report.ok:
            if ctx.strict:
                report.raise_errors()
            symmetrized, repair_report = repair_graph(symmetrized)
            repair_report.emit_warnings()
        return {"symmetrized": symmetrized}


class SymmetrizeStage(Stage):
    """Stage 1: directed graph → undirected similarity graph (§3)."""

    name = "symmetrize"
    inputs = ("graph",)
    outputs = ("symmetrized",)
    cacheable = True
    perf_tag = "pipeline:symmetrize"

    def __init__(
        self,
        symmetrization: str | Symmetrization,
        threshold: float = 0.0,
    ) -> None:
        if isinstance(symmetrization, str):
            symmetrization = get_symmetrization(symmetrization)
        self.symmetrization = symmetrization
        self.threshold = float(threshold)

    def config(self) -> dict[str, Any]:
        return {
            "symmetrization": self.symmetrization.config(),
            "threshold": self.threshold,
        }

    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        return {
            "symmetrized": self.symmetrization.apply(
                values["graph"], threshold=self.threshold
            )
        }

    def counters(
        self, values: dict[str, Any], outputs: dict[str, Any]
    ) -> dict[str, int]:
        return {
            "nnz_in": values["graph"].adjacency.nnz,
            "nnz_out": outputs["symmetrized"].adjacency.nnz,
        }


class PruneStage(Stage):
    """§3.5: drop similarity edges strictly below a threshold."""

    name = "prune"
    inputs = ("symmetrized",)
    outputs = ("symmetrized",)
    cacheable = True

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def config(self) -> dict[str, Any]:
        return {"threshold": self.threshold}

    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        return {
            "symmetrized": prune_graph(
                values["symmetrized"], self.threshold
            )
        }


class PruneToDegreeStage(Stage):
    """§5.3.1: choose a density-matched threshold, then prune.

    Deterministic given the input graph (the sampling recipe uses a
    fixed default generator), so the stage is cacheable; the chosen
    threshold is published to ``ctx.scratch["chosen_threshold"]``.
    """

    name = "prune"
    inputs = ("symmetrized",)
    outputs = ("symmetrized",)
    cacheable = True

    def __init__(self, target_degree: float) -> None:
        self.target_degree = float(target_degree)

    def config(self) -> dict[str, Any]:
        return {"target_degree": self.target_degree}

    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        symmetrized = values["symmetrized"]
        threshold = choose_threshold_for_degree(
            symmetrized, self.target_degree
        )
        ctx.scratch["chosen_threshold"] = threshold
        return {"symmetrized": prune_graph(symmetrized, threshold)}


class ClusterStage(Stage):
    """Stage 2: cluster the symmetrized graph (§4)."""

    name = "cluster"
    inputs = ("symmetrized",)
    outputs = ("clustering",)
    perf_tag = "pipeline:cluster"

    def __init__(
        self,
        clusterer: str | GraphClusterer,
        n_clusters: int | None = None,
    ) -> None:
        if isinstance(clusterer, str):
            clusterer = get_clusterer(clusterer)
        if not isinstance(clusterer, GraphClusterer):
            raise ClusteringError(
                "clusterer must be a name or GraphClusterer"
            )
        self.clusterer = clusterer
        self.n_clusters = n_clusters

    def config(self) -> dict[str, Any]:
        return {
            "clusterer": self.clusterer.config(),
            "n_clusters": self.n_clusters,
        }

    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        return {
            "clustering": self.clusterer.cluster(
                values["symmetrized"], self.n_clusters
            )
        }

    def counters(
        self, values: dict[str, Any], outputs: dict[str, Any]
    ) -> dict[str, int]:
        return {
            "nnz_in": values["symmetrized"].adjacency.nnz,
            "n_clusters": outputs["clustering"].n_clusters,
        }


class EvaluateStage(Stage):
    """§4.3: Avg-F of the clustering against ground truth."""

    name = "evaluate"
    inputs = ("clustering", "ground_truth")
    outputs = ("average_f",)

    def run(
        self, ctx: StageContext, values: dict[str, Any]
    ) -> dict[str, Any]:
        avg_f = average_f_score(
            values["clustering"], values["ground_truth"]
        )
        metric_set("average_f", avg_f)
        return {"average_f": avg_f}
