"""Reading and writing graphs in common plain-text formats.

Three formats are supported:

- **Edge list**: one ``src dst [weight]`` triple per line; ``#`` comments.
  The format the SNAP / Mislove et al. social-network datasets use.
- **METIS**: the format consumed by the METIS family of partitioners
  (1-indexed adjacency lists with a ``n_nodes n_edges [fmt]`` header).
  Only undirected graphs can be written in this format.
- **JSON**: a self-describing format that round-trips node names.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphFormatError, ValidationWarning
from repro.graph.digraph import (
    DirectedGraph,
    _endpoint_error,
    _first_bad_endpoint,
)
from repro.graph.ugraph import UndirectedGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "read_json_graph",
    "write_json_graph",
]


#: Lines per parse block, in-RAM and streaming: bounds the parser's
#: temporaries (tens of bytes per input byte) however large the file.
STREAM_CHUNK_EDGES = 1 << 16

#: Byte classes of the vectorized edge-list grammar. ``_WS`` is every
#: ASCII byte ``str.split()`` splits on; bytes >= 0x80 are ``_OTHER``,
#: so any non-ASCII token takes the per-line path.
_WS, _DIGIT, _DOT, _OTHER = 0, 1, 2, 3
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = _WS
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_BYTE_CLASS[ord(".")] = _DOT
#: Most decimal digits an int64 always holds (19 can overflow).
_MAX_INT64_DIGITS = 18
#: Longest weight token the vectorized path takes.
_MAX_WEIGHT_CHARS = 32
#: A decimal with mantissa ``m < 2**53`` and ``k <= 22`` fractional
#: digits is ``m / 10**k`` with both operands exact in float64, so one
#: correctly rounded division gives exactly what ``float()`` gives.
_EXACT_MANTISSA = 1 << 53
_EXACT_DIVISOR = np.array([float(10**k) for k in range(23)])
_POW10 = 10 ** np.arange(_MAX_INT64_DIGITS + 1, dtype=np.int64)
#: Ids are stored as int64.
_INT64_LIMIT = 1 << 63
#: Bytes read ahead of the first block; later reads are sized from
#: the bytes per line seen so far.
_FIRST_READ = 1 << 16


def read_edge_list(
    path: str | Path,
    directed: bool = True,
    comment: str = "#",
    n_nodes: int | None = None,
    streaming: bool = False,
    store_dir: str | Path | None = None,
    chunk_edges: int = STREAM_CHUNK_EDGES,
) -> DirectedGraph | UndirectedGraph:
    r"""Read a whitespace-separated edge list.

    Each non-comment line is ``src dst`` or ``src dst weight`` with
    non-negative integer node ids and finite weights, parsed as
    ``int()`` and ``float()`` parse them; lines may end in ``\n``,
    ``\r\n`` or ``\r``. Returns a :class:`DirectedGraph` unless
    ``directed=False``. Malformed lines — including negative node ids,
    ``nan``/``inf`` weights, which ``int()``/``float()`` happily parse,
    and, when ``n_nodes`` is given, ids ``>= n_nodes`` — raise
    :class:`~repro.exceptions.GraphFormatError` naming the file and
    the first bad line. Duplicate edges are legal (weights sum, in
    file order) but reported with a
    :class:`~repro.exceptions.ValidationWarning`.

    The file is parsed with NumPy in blocks of ``chunk_edges`` lines:
    plain lines (decimal ids, a plain decimal weight) are converted
    column-wise, and any other line goes through a per-line parser
    with the exact ``int()``/``float()`` semantics.

    With ``streaming=True`` (directed graphs only) each block goes
    straight into an out-of-core
    :class:`~repro.linalg.mmcsr.MmapCSRBuilder`, so ingest peak RSS
    is O(chunk) instead of O(edges) — the path for paper-scale inputs
    like the 77M-edge LiveJournal list. The finished store lands at
    ``store_dir`` (default: ``<path>.mmcsr`` next to the input;
    published atomically) and the returned graph is backed by it via
    :meth:`DirectedGraph.from_mmcsr`.
    """
    path = Path(path)
    if chunk_edges < 1:
        raise GraphFormatError("chunk_edges must be >= 1")
    if streaming:
        return _read_edge_list_streaming(
            path,
            directed=directed,
            comment=comment,
            n_nodes=n_nodes,
            store_dir=store_dir,
            chunk_edges=chunk_edges,
        )
    with path.open("rb") as f:
        blocks = list(_edge_blocks(f, path, comment, n_nodes, chunk_edges))
    if not blocks:  # an empty file
        ids = np.zeros(0, dtype=np.int64)
        blocks = [(ids, ids, np.zeros(0, dtype=np.float64))]
    src, dst, weights = (np.concatenate(column) for column in zip(*blocks))
    if not src.size and n_nodes is None:
        raise GraphFormatError(f"{path}: no edges and no n_nodes given")
    _warn_duplicates(path, _count_duplicates(src, dst), stacklevel=3)
    cls = DirectedGraph if directed else UndirectedGraph
    return cls.from_edge_arrays(src, dst, weights, n_nodes=n_nodes)


def _read_edge_list_streaming(
    path: Path,
    directed: bool,
    comment: str,
    n_nodes: int | None,
    store_dir: str | Path | None,
    chunk_edges: int,
) -> DirectedGraph:
    """Block-wise edge-list ingest into a memory-mapped CSR store.

    Blocks are parsed exactly as in the in-RAM path; duplicates are
    merged and counted by the builder's on-disk compaction pass.
    """
    from repro.linalg.mmcsr import MmapCSRBuilder

    if not directed:
        raise GraphFormatError(
            "streaming edge-list reads produce DirectedGraph only; "
            "symmetrize the result for an undirected view"
        )
    store_dir = (
        Path(store_dir)
        if store_dir is not None
        else path.with_name(path.name + ".mmcsr")
    )
    n_edges = 0
    with MmapCSRBuilder(
        store_dir, n_rows=n_nodes, n_cols=n_nodes, square=True
    ) as builder:
        with path.open("rb") as f:
            for src, dst, weights in _edge_blocks(
                f, path, comment, n_nodes, chunk_edges
            ):
                builder.add_chunk(src, dst, weights)
                n_edges += src.size
        if not n_edges and n_nodes is None:
            raise GraphFormatError(
                f"{path}: no edges and no n_nodes given"
            )
        store = builder.finalize()
    _warn_duplicates(path, builder.n_duplicates, stacklevel=4)
    return DirectedGraph.from_mmcsr(store)


def _count_duplicates(src: np.ndarray, dst: np.ndarray) -> int:
    """Edges whose ``(src, dst)`` pair appeared earlier in the list."""
    if src.size < 2:
        return 0
    key = src * (int(dst.max()) + 1) + dst
    key.sort()
    return int(np.count_nonzero(key[1:] == key[:-1]))


def _warn_duplicates(path: Path, n_duplicates: int, stacklevel: int) -> None:
    if n_duplicates:
        warnings.warn(
            ValidationWarning(
                f"{path}: {n_duplicates} duplicate edge line(s); "
                "their weights are summed",
                code="duplicate_edges",
            ),
            stacklevel=stacklevel,
        )


# ---------------------------------------------------------------------------
# Edge-list parsing: one block parser, one per-line parser
# ---------------------------------------------------------------------------


def _edge_blocks(
    f: BinaryIO,
    path: Path,
    comment: str,
    n_nodes: int | None,
    max_lines: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(src, dst, weight)`` arrays of each block of ``max_lines``
    lines of the file, in file order."""
    lineno = 1
    for block in _line_blocks(f, max_lines):
        src, dst, weights, n_lines = _parse_block(
            block, path, lineno, comment, n_nodes
        )
        lineno += n_lines
        yield src, dst, weights


def _line_ends(a: np.ndarray, final: bool) -> np.ndarray:
    r"""Offsets just past each line break in ``a`` (``\n``, ``\r\n``
    or a lone ``\r``, as universal-newline text mode reads them). A
    trailing ``\r`` counts only when ``final``: its ``\n`` may follow.
    """
    breaks = np.flatnonzero(a == 10)
    returns = np.flatnonzero(a == 13)
    if returns.size:
        after = returns + 1
        lone = np.where(
            after < a.size,
            a[np.minimum(after, a.size - 1)] != 10,
            final,
        )
        if lone.any():
            breaks = np.union1d(breaks, returns[lone])
    return breaks + 1


def _line_blocks(f: BinaryIO, max_lines: int) -> Iterator[bytes]:
    """The binary file ``f`` in blocks of at most ``max_lines`` whole
    lines; the last block may lack a final line break."""
    tail = b""
    read_size = _FIRST_READ
    while True:
        data = f.read(read_size)
        buf = tail + data
        ends = _line_ends(np.frombuffer(buf, dtype=np.uint8), not data)
        start = 0
        for i in range(max_lines - 1, ends.size, max_lines):
            yield buf[start : ends[i]]
            start = int(ends[i])
        tail = buf[start:]
        if not data:
            if tail:
                yield tail
            return
        # Size the next read to finish the pending block.
        line_bytes = len(buf) / max(ends.size, 1)
        missing = max_lines - (ends.size % max_lines)
        read_size = max(_FIRST_READ, int(missing * line_bytes * 1.1))


def _parse_block(
    block: bytes,
    path: Path,
    lineno: int,
    comment: str,
    n_nodes: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Parse whole lines of an edge list; ``lineno`` numbers the first.

    Returns the ``(src, dst, weight)`` arrays of the block's edge
    lines in order, and the number of lines the block held. Lines
    the vectorized grammar does not cover (non-ASCII or signed
    tokens, exponents, wrong field counts, ...) go through
    :func:`_parse_line` in order, which parses them exactly or raises;
    so does an id out of range for ``n_nodes``, whichever comes first.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    ends = _line_ends(a, final=True)
    # Line k is block[line_starts[k]:line_starts[k + 1]]; the last
    # may lack a line break.
    line_starts = np.concatenate(([0], ends))
    if a.size > line_starts[-1]:
        line_starts = np.append(line_starts, a.size)
    n_lines = line_starts.size - 1
    # Tokens are maximal runs of non-whitespace bytes.
    is_token = _BYTE_CLASS[a] != _WS
    boundary = is_token.copy()
    boundary[1:] &= ~is_token[:-1]
    tok_start = np.flatnonzero(boundary)
    boundary[:] = is_token
    boundary[:-1] &= ~is_token[1:]
    tok_stop = np.flatnonzero(boundary) + 1
    del is_token, boundary
    # Token ids bounding each line: tokens [first, first + n_tokens).
    bounds = np.searchsorted(tok_start, line_starts)
    n_tokens = np.diff(bounds)
    lines = np.flatnonzero(n_tokens)  # the non-blank lines
    first, n_tokens = bounds[lines], n_tokens[lines]
    # The vectorized comment test needs a prefix without surrounding
    # whitespace; with any other, every line takes the per-line parser.
    vectorized = comment == comment.strip()
    if vectorized:
        data = ~_comment_lines(
            a, comment, tok_start[first], tok_stop[first + n_tokens - 1]
        )
        lines, first, n_tokens = lines[data], first[data], n_tokens[data]
    second = first + (n_tokens > 1)
    src, ok = _parse_ids(a, tok_start[first], tok_stop[first])
    dst, ok_dst = _parse_ids(a, tok_start[second], tok_stop[second])
    ok &= ok_dst & ((n_tokens == 2) | (n_tokens == 3)) & vectorized
    weights = np.ones(lines.size, dtype=np.float64)
    weighted = np.flatnonzero(ok & (n_tokens == 3))
    third = first[weighted] + 2
    weights[weighted], ok[weighted] = _parse_weights(
        a, tok_start[third], tok_stop[third]
    )

    covered = lines[ok]
    src, dst, weights = src[ok], dst[ok], weights[ok]
    bad = -1 if n_nodes is None else _first_bad_endpoint(src, dst, n_nodes)
    bad_line = int(covered[bad]) if bad >= 0 else n_lines
    extra_at: list[int] = []
    extra: list[tuple[int, int, float]] = []
    for line in lines[~ok].tolist():
        if line > bad_line:
            break
        raw = block[line_starts[line] : line_starts[line + 1]]
        edge = _parse_line(raw, path, lineno + line, comment, n_nodes)
        if edge is not None:
            extra_at.append(line)
            extra.append(edge)
    if bad >= 0:
        raise GraphFormatError(
            f"{path}:{lineno + bad_line}: "
            + _endpoint_error(int(src[bad]), int(dst[bad]), n_nodes)
        )
    if extra:
        at = np.searchsorted(covered, extra_at)
        extra_src, extra_dst, extra_weights = zip(*extra)
        src = np.insert(src, at, extra_src)
        dst = np.insert(dst, at, extra_dst)
        weights = np.insert(weights, at, extra_weights)
    return src, dst, weights, n_lines


def _comment_lines(
    a: np.ndarray, comment: str, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """Which lines, given the span from their first token's start to
    their last token's stop, begin with ``comment``."""
    prefix = comment.encode()
    hit = start + len(prefix) <= stop
    for offset, byte in enumerate(prefix):
        hit &= a[np.minimum(start + offset, a.size - 1)] == byte
    return hit


def _parse_ids(
    a: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values of unsigned decimal id tokens, and which tokens were
    plain digits of a length int64 holds."""
    length = stop - start
    ok = length <= _MAX_INT64_DIGITS
    values = np.zeros(start.size, dtype=np.int64)
    for offset in range(min(int(length.max(initial=0)), _MAX_INT64_DIGITS)):
        inside = offset < length
        digit = a[np.minimum(start + offset, a.size - 1)] - np.uint8(48)
        ok &= (digit < 10) | ~inside
        values = np.where(inside, values * 10 + digit, values)
    return values, ok


def _parse_weights(
    a: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values of plain decimal weight tokens (digits and at most one
    ``.``), equal to ``float()`` of each, and which tokens were plain.
    """
    length = stop - start
    width = min(int(length.max(initial=0)), _MAX_WEIGHT_CHARS)
    ok = length <= width
    mantissa = np.zeros(start.size, dtype=np.int64)
    n_digits = np.zeros(start.size, dtype=np.int64)
    n_dots = np.zeros(start.size, dtype=np.int64)
    fraction = np.zeros(start.size, dtype=np.int64)
    for offset in range(width):
        inside = offset < length
        byte = a[np.minimum(start + offset, a.size - 1)]
        digit = byte - np.uint8(48)
        is_digit = inside & (digit < 10)
        is_dot = inside & (byte == 46)
        ok &= is_digit | is_dot | ~inside
        # Wraps past 18 digits; such tokens fail the exact test below.
        mantissa = np.where(is_digit, mantissa * 10 + digit, mantissa)
        fraction += is_digit & (n_dots > 0)
        n_digits += is_digit
        n_dots += is_dot
    ok &= (n_dots <= 1) & (n_digits >= 1)
    values = np.ones(start.size, dtype=np.float64)
    exact = (
        ok
        & (n_digits <= _MAX_INT64_DIGITS)
        & (mantissa < _EXACT_MANTISSA)
        & (fraction < _EXACT_DIVISOR.size)
    )
    values[exact] = mantissa[exact] / _EXACT_DIVISOR[fraction[exact]]
    rest = np.flatnonzero(ok & ~exact)
    if rest.size:
        # NumPy's bytes -> float64 cast is float() of each token.
        offsets = np.arange(width)
        chars = a[np.minimum(start[rest, None] + offsets, a.size - 1)]
        chars[offsets >= length[rest, None]] = 0
        values[rest] = chars.view(f"S{width}").ravel().astype(np.float64)
    return values, ok


def _parse_line(
    raw: bytes,
    path: Path,
    lineno: int,
    comment: str,
    n_nodes: int | None,
) -> tuple[int, int, float] | None:
    """Parse one edge-list line exactly as ``int()``/``float()`` do:
    ``None`` for a blank or comment line, else ``(src, dst, weight)``;
    a malformed line raises :class:`GraphFormatError` naming it."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
    if not line or line.startswith(comment):
        return None
    parts = line.split()
    if len(parts) not in (2, 3):
        raise GraphFormatError(
            f"{path}:{lineno}: expected 2 or 3 fields, got {len(parts)}"
        )
    try:
        src, dst = int(parts[0]), int(parts[1])
        weight = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError as exc:
        raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
    if src < 0 or dst < 0:
        raise GraphFormatError(
            f"{path}:{lineno}: negative node id in edge "
            f"({src}, {dst}); node ids must be >= 0"
        )
    if not math.isfinite(weight):
        raise GraphFormatError(
            f"{path}:{lineno}: non-finite edge weight "
            f"{parts[2]!r}; weights must be finite numbers"
        )
    if n_nodes is not None and max(src, dst) >= n_nodes:
        raise GraphFormatError(
            f"{path}:{lineno}: {_endpoint_error(src, dst, n_nodes)}"
        )
    if max(src, dst) >= _INT64_LIMIT:
        raise GraphFormatError(
            f"{path}:{lineno}: node id in edge ({src}, {dst}) does not "
            "fit in int64"
        )
    return src, dst, weight


def write_edge_list(
    graph: DirectedGraph | UndirectedGraph,
    path: str | Path,
    write_weights: bool = True,
) -> None:
    """Write a graph as a ``src dst [weight]`` edge list.

    Undirected graphs write each edge once (``i <= j``). Weights are
    written so :func:`read_edge_list` reads them back bit for bit:
    as ``:g`` text where that round-trips (integral weights stay
    ``1``), else as the shortest round-trip ``repr``."""
    path = Path(path)
    with path.open("w") as f:
        f.write(f"# nodes: {graph.n_nodes}\n")
        for i, j, w in graph.edges():
            if write_weights:
                f.write(f"{i} {j} {_weight_text(w)}\n")
            else:
                f.write(f"{i} {j}\n")


def _weight_text(weight: float) -> str:
    text = f"{weight:g}"
    return text if float(text) == weight else repr(weight)


def read_metis(path: str | Path) -> UndirectedGraph:
    """Read a graph in METIS format (1-indexed adjacency lists).

    Supports the plain and edge-weighted (``fmt`` code 1) variants.
    """
    path = Path(path)
    with path.open() as f:
        lines = [
            ln.strip()
            for ln in f
            if ln.strip() and not ln.lstrip().startswith("%")
        ]
    if not lines:
        raise GraphFormatError(f"{path}: empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise GraphFormatError(f"{path}: bad METIS header {lines[0]!r}")
    n_nodes = int(header[0])
    declared_edges = int(header[1])
    fmt = header[2] if len(header) >= 3 else "0"
    has_edge_weights = fmt.endswith("1")
    if len(lines) - 1 != n_nodes:
        raise GraphFormatError(
            f"{path}: header declares {n_nodes} nodes but file has "
            f"{len(lines) - 1} adjacency lines"
        )
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, line in enumerate(lines[1:]):
        fields = line.split()
        if has_edge_weights:
            if len(fields) % 2 != 0:
                raise GraphFormatError(
                    f"{path}: node {i + 1}: odd number of fields with "
                    "edge weights enabled"
                )
            pairs = zip(fields[0::2], fields[1::2])
            for nbr_s, w_s in pairs:
                rows.append(i)
                cols.append(int(nbr_s) - 1)
                vals.append(float(w_s))
        else:
            for nbr_s in fields:
                rows.append(i)
                cols.append(int(nbr_s) - 1)
                vals.append(1.0)
    if cols and (min(cols) < 0 or max(cols) >= n_nodes):
        raise GraphFormatError(f"{path}: neighbor index out of range")
    adj = sp.coo_array((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    graph = UndirectedGraph(adj)
    if graph.n_edges != declared_edges:
        raise GraphFormatError(
            f"{path}: header declares {declared_edges} edges, "
            f"found {graph.n_edges}"
        )
    return graph


def write_metis(graph: UndirectedGraph, path: str | Path) -> None:
    """Write an undirected graph in METIS format with edge weights.

    METIS cannot represent self-loops; they are dropped with the weight
    information preserved on the remaining edges. Edge weights are
    rounded to positive integers (METIS requires integral weights);
    weights below 0.5 round up to 1 so no edge silently disappears.
    """
    graph = graph.without_self_loops()
    adj = graph.adjacency
    path = Path(path)
    with path.open("w") as f:
        f.write(f"{graph.n_nodes} {graph.n_edges} 001\n")
        for i in range(graph.n_nodes):
            start, end = adj.indptr[i], adj.indptr[i + 1]
            fields: list[str] = []
            for j, w in zip(adj.indices[start:end], adj.data[start:end]):
                int_w = max(1, int(round(w)))
                fields.append(f"{j + 1} {int_w}")
            f.write(" ".join(fields) + "\n")


def read_json_graph(path: str | Path) -> DirectedGraph | UndirectedGraph:
    """Read a graph written by :func:`write_json_graph`."""
    path = Path(path)
    with path.open() as f:
        payload = json.load(f)
    try:
        directed = bool(payload["directed"])
        n_nodes = int(payload["n_nodes"])
        edges = [
            (int(i), int(j), float(w)) for i, j, w in payload["edges"]
        ]
        names = payload.get("node_names")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"{path}: malformed JSON graph: {exc}") from exc
    cls = DirectedGraph if directed else UndirectedGraph
    return cls.from_edges(edges, n_nodes=n_nodes, node_names=names)


def write_json_graph(
    graph: DirectedGraph | UndirectedGraph, path: str | Path
) -> None:
    """Write a graph (with node names, if any) as JSON."""
    payload = {
        "directed": isinstance(graph, DirectedGraph),
        "n_nodes": graph.n_nodes,
        "edges": [[i, j, w] for i, j, w in graph.edges()],
        "node_names": graph.node_names,
    }
    path = Path(path)
    with path.open("w") as f:
        json.dump(payload, f)
