"""Sparse linear-algebra helpers shared across the library.

- :mod:`~repro.linalg.allpairs` — threshold-aware all-pairs similarity
  (§3.6): the blocked vectorized engine and the pure-Python reference
  oracle behind the degree-discounted fast path.
- :mod:`~repro.linalg.mmcsr` — out-of-core CSR storage: chunk-built,
  memory-mapped matrices that the streaming graph readers, the scale
  generators and the service store use to reach paper-scale graphs
  without RAM-resident edges.
- :mod:`~repro.linalg.pagerank` — transition matrices and stationary
  distributions of random walks (used by the Random-walk symmetrization
  and the directed spectral baselines).
- :mod:`~repro.linalg.sparse_utils` — row normalization, degree scaling,
  pruning and top-k extraction on CSR matrices.
"""

from repro.linalg.allpairs import thresholded_gram_matrix
from repro.linalg.mmcsr import MmapCSR, MmapCSRBuilder
from repro.linalg.pagerank import (
    pagerank,
    stationary_distribution,
    transition_matrix,
)
from repro.linalg.sparse_utils import (
    degree_scale,
    prune_matrix,
    row_normalize,
    top_k_entries,
)

__all__ = [
    "thresholded_gram_matrix",
    "MmapCSR",
    "MmapCSRBuilder",
    "pagerank",
    "stationary_distribution",
    "transition_matrix",
    "row_normalize",
    "degree_scale",
    "prune_matrix",
    "top_k_entries",
]
