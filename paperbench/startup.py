"""Cold start of the in-process workloads: a fresh interpreter imports
the package and reads each edge list named on the command line.

Run by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``;
prints one JSON list, the number of edges read from each file, which
the caller checks against the graphs it wrote.
"""

from __future__ import annotations

import json
import sys

from repro.graph.io import read_edge_list


def main(paths: list[str]) -> int:
    counts = [read_edge_list(path).n_edges for path in paths]
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
