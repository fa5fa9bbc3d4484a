"""MLR-MCL at the paper's operating point, where the R-MCL product
used to be the memory wall.

§5.3.1 picks thresholds that leave an average degree of 50-150 and
almost no singletons. The graphs here are
``power_law_mmcsr(n, default_rng(0), d_max=100)`` symmetrized by the
§3.6 kernel at ``t = 0.03`` (average degree 53, no singletons). The
unmarked test clusters the 5k graph in a subprocess and bounds its
RSS growth; the ``scale_smoke``-marked test clusters the 20k graph
under a 1 GiB :class:`~repro.engine.policy.Budget` (the CI ``scale``
leg, ``make scale-smoke``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import MLRMCL
from repro.graph.generators import power_law_mmcsr
from repro.perf.scale_bench import scale_smoke_enabled
from repro.symmetrize import DegreeDiscountedSymmetrization
from tests.conftest import PEAK_KB


def _paper_density(n_nodes, directory):
    graph = power_law_mmcsr(
        n_nodes, directory / "graph.mmcsr", np.random.default_rng(0),
        d_max=100,
    )
    return DegreeDiscountedSymmetrization().apply_pruned(graph, 0.03)


def test_paper_density_5k_clusters_in_bounded_memory(tmp_path):
    """Each R-MCL product runs in column blocks and the unpruned
    product is never copied: clustering the 5k graph to its plateau
    may grow a subprocess's peak RSS by less than 150 MB: 178 MB when
    each step built and copied the whole product, about 45 MB in
    blocks."""
    pytest.importorskip("resource")
    symmetrized = _paper_density(5000, tmp_path)
    assert symmetrized.adjacency.nnz > 40 * 5000
    path = tmp_path / "u.npz"
    sp.save_npz(path, sp.csr_array(symmetrized.adjacency))
    script = (
        PEAK_KB
        + "import sys\n"
        "import scipy.sparse as sp\n"
        "from repro.cluster import MLRMCL\n"
        "from repro.graph import UndirectedGraph\n"
        "graph = UndirectedGraph(sp.csr_array(sp.load_npz(sys.argv[1])))\n"
        "before = peak_kb()\n"
        "MLRMCL().cluster(graph)\n"
        "print(peak_kb() - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    growth_kb = int(proc.stdout.strip())
    assert growth_kb < 150 * 1024, (
        f"MLR-MCL grew peak RSS by {growth_kb // 1024} MB"
    )


@pytest.mark.scale_smoke
@pytest.mark.skipif(
    not scale_smoke_enabled(),
    reason="tens of seconds; run via `make scale-smoke` "
    "(REPRO_SCALE_SMOKE=1)",
)
def test_paper_density_20k_clusters_under_budget(tmp_path):
    """The 20k graph at ``k = 1000`` once ran out of memory on an 8 GB
    machine; it must now cluster within 1 GiB of allocations."""
    from repro.engine.policy import Budget, BudgetMeter

    symmetrized = _paper_density(20_000, tmp_path)
    meter = BudgetMeter(
        Budget(wall_s=900.0, mem_bytes=1 << 30), scope="mlrmcl-20k"
    )
    with meter:
        clustering = MLRMCL().cluster(symmetrized, 1000)
    meter.enforce()
    assert clustering.n_clusters > 1
