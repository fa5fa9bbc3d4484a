"""Unit tests for :mod:`repro.graph.io`."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphFormatError, ValidationWarning
from repro.graph import DirectedGraph, UndirectedGraph
from repro.graph.io import (
    read_edge_list,
    read_json_graph,
    read_metis,
    write_edge_list,
    write_json_graph,
    write_metis,
)


class TestEdgeList:
    def test_roundtrip_directed(self, tmp_path, triangle_digraph):
        path = tmp_path / "g.txt"
        write_edge_list(triangle_digraph, path)
        g = read_edge_list(path)
        assert g == triangle_digraph

    def test_roundtrip_weighted(self, tmp_path):
        g = DirectedGraph.from_edges([(0, 1, 2.5), (1, 0, 0.5)], n_nodes=2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_read_undirected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path, directed=False)
        assert isinstance(g, UndirectedGraph)
        assert g.has_edge(1, 0)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n")
        g = read_edge_list(path)
        assert g.n_edges == 1

    def test_weights_read_back_bit_exact(self, tmp_path):
        from repro.datasets import make_cora_like
        from repro.symmetrize import symmetrize

        graph = make_cora_like(n_nodes=300, n_categories=6, seed=1).graph
        sym = symmetrize(graph, "degree_discounted")
        path = tmp_path / "dd.txt"
        write_edge_list(sym, path)
        back = read_edge_list(path, directed=False, n_nodes=sym.n_nodes)
        want, got = sym.adjacency, back.adjacency
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        # Integral weights keep their short text.
        write_edge_list(DirectedGraph.from_edges([(0, 1)], n_nodes=2), path)
        assert path.read_text().splitlines()[1] == "0 1 1"

    def test_write_without_weights(self, tmp_path):
        g = DirectedGraph.from_edges([(0, 1, 2.5)], n_nodes=2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path, write_weights=False)
        g2 = read_edge_list(path)
        assert g2.edge_weight(0, 1) == 1.0

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError, match="fields"):
            read_edge_list(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_empty_file_without_n_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            read_edge_list(path)

    def test_empty_file_with_n_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("")
        g = read_edge_list(path, n_nodes=3)
        assert g.n_nodes == 3
        assert g.n_edges == 0

    def test_negative_node_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n-2 3\n")
        with pytest.raises(GraphFormatError, match="negative node id") as e:
            read_edge_list(path)
        assert f"{path}:2" in str(e.value)

    @pytest.mark.parametrize("line", ["7 1", "+7 1", "1 7 2.5e0"])
    def test_out_of_range_id_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n# comment\n{line}\n1 x\n")
        with pytest.raises(
            GraphFormatError, match="out of range for n_nodes=3"
        ) as e:
            read_edge_list(path, n_nodes=3)
        assert f"{path}:3" in str(e.value)

    def test_nan_weight_rejected(self, tmp_path):
        # float("nan") parses fine, so the reader must check explicitly.
        path = tmp_path / "g.txt"
        path.write_text("0 1 nan\n")
        with pytest.raises(GraphFormatError, match="non-finite") as e:
            read_edge_list(path)
        assert f"{path}:1" in str(e.value)

    def test_inf_weight_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.5\n1 2 inf\n")
        with pytest.raises(GraphFormatError, match="non-finite") as e:
            read_edge_list(path)
        assert f"{path}:2" in str(e.value)

    def test_duplicate_edges_warn_once(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1\n1 2\n1 2\n")
        with pytest.warns(ValidationWarning, match="duplicate") as caught:
            g = read_edge_list(path)
        dupes = [
            w for w in caught if isinstance(w.message, ValidationWarning)
        ]
        assert len(dupes) == 1
        assert dupes[0].message.code == "duplicate_edges"
        assert g.n_edges == 2  # weights summed, structure deduplicated

    def test_clean_file_stays_silent(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidationWarning)
            read_edge_list(path)


class TestMetis:
    def test_roundtrip(self, tmp_path, small_weighted_ugraph):
        path = tmp_path / "g.metis"
        write_metis(small_weighted_ugraph, path)
        g = read_metis(path)
        assert g.n_nodes == small_weighted_ugraph.n_nodes
        assert g.n_edges == small_weighted_ugraph.n_edges

    def test_read_unweighted_variant(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 2 0\n2\n1 3\n2\n")
        g = read_metis(path)
        assert g.n_edges == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 2)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("% a comment\n2 1 0\n2\n1\n")
        g = read_metis(path)
        assert g.n_edges == 1

    def test_self_loops_dropped_on_write(self, tmp_path):
        g = UndirectedGraph.from_edges([(0, 0), (0, 1)], n_nodes=2)
        path = tmp_path / "g.metis"
        write_metis(g, path)
        g2 = read_metis(path)
        assert g2.n_edges == 1

    def test_small_weights_round_up_to_one(self, tmp_path):
        g = UndirectedGraph.from_edges([(0, 1, 0.001)], n_nodes=2)
        path = tmp_path / "g.metis"
        write_metis(g, path)
        g2 = read_metis(path)
        assert g2.edge_weight(0, 1) == 1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("")
        with pytest.raises(GraphFormatError, match="empty"):
            read_metis(path)

    def test_header_node_mismatch(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 1 0\n2\n1\n")  # says 3 nodes, has 2 lines
        with pytest.raises(GraphFormatError, match="nodes"):
            read_metis(path)

    def test_header_edge_mismatch(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 5 0\n2\n1\n")
        with pytest.raises(GraphFormatError, match="edges"):
            read_metis(path)

    def test_neighbor_out_of_range(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1 0\n9\n1\n")
        with pytest.raises(GraphFormatError, match="range"):
            read_metis(path)

    def test_odd_fields_with_weights(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1 001\n2 1 7\n1 1\n")
        with pytest.raises(GraphFormatError, match="odd"):
            read_metis(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("42\n")
        with pytest.raises(GraphFormatError, match="header"):
            read_metis(path)


class TestJson:
    def test_roundtrip_directed_with_names(self, tmp_path):
        g = DirectedGraph.from_edges(
            [(0, 1, 2.0)], n_nodes=2, node_names=["a", "b"]
        )
        path = tmp_path / "g.json"
        write_json_graph(g, path)
        g2 = read_json_graph(path)
        assert isinstance(g2, DirectedGraph)
        assert g2 == g
        assert g2.node_names == ["a", "b"]

    def test_roundtrip_undirected(self, tmp_path, small_weighted_ugraph):
        path = tmp_path / "g.json"
        write_json_graph(small_weighted_ugraph, path)
        g2 = read_json_graph(path)
        assert isinstance(g2, UndirectedGraph)
        assert g2 == small_weighted_ugraph

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"directed": true}')
        with pytest.raises(GraphFormatError, match="malformed"):
            read_json_graph(path)


class TestStreamingEdgeList:
    """The ``streaming=True`` path: same graphs, O(chunk) ingest RSS."""

    @staticmethod
    def _write_edges(path, edges):
        with path.open("w") as f:
            f.write("# streamed\n")
            for src, dst, w in edges:
                f.write(f"{src} {dst} {w:g}\n")

    def test_streaming_matches_in_ram_path(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(7)
        edges = [
            (int(s), int(d), float(w))
            for s, d, w in zip(
                rng.integers(0, 200, 2000),
                rng.integers(0, 200, 2000),
                rng.random(2000) + 0.5,
            )
        ]
        path = tmp_path / "g.txt"
        self._write_edges(path, edges)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            in_ram = read_edge_list(path, n_nodes=200)
            streamed = read_edge_list(
                path, n_nodes=200, streaming=True, chunk_edges=64
            )
        a = in_ram.adjacency.tocsr()
        b = streamed.adjacency.tocsr()
        assert a.shape == b.shape
        assert (a != b).nnz == 0 or abs(a - b).max() < 1e-12

    def test_streaming_graph_is_store_backed(self, tmp_path):
        path = tmp_path / "g.txt"
        self._write_edges(path, [(0, 1, 1.0), (1, 2, 1.0)])
        graph = read_edge_list(path, streaming=True)
        assert graph.mmap_store is not None
        assert graph.mmap_store.directory == tmp_path / "g.txt.mmcsr"
        assert graph.n_nodes == 3

    def test_streaming_custom_store_dir(self, tmp_path):
        path = tmp_path / "g.txt"
        self._write_edges(path, [(0, 1, 1.0)])
        graph = read_edge_list(
            path, streaming=True, store_dir=tmp_path / "elsewhere"
        )
        assert graph.mmap_store.directory == tmp_path / "elsewhere"

    def test_streaming_duplicate_warning(self, tmp_path):
        path = tmp_path / "dup.txt"
        self._write_edges(path, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)])
        with pytest.warns(ValidationWarning, match="duplicate"):
            graph = read_edge_list(path, streaming=True)
        assert graph.edge_weight(0, 1) == 3.0

    def test_streaming_rejects_undirected(self, tmp_path):
        path = tmp_path / "g.txt"
        self._write_edges(path, [(0, 1, 1.0)])
        with pytest.raises(GraphFormatError, match="DirectedGraph"):
            read_edge_list(path, directed=False, streaming=True)

    def test_streaming_rejects_bad_chunk_size(self, tmp_path):
        path = tmp_path / "g.txt"
        self._write_edges(path, [(0, 1, 1.0)])
        with pytest.raises(GraphFormatError, match="chunk_edges"):
            read_edge_list(path, streaming=True, chunk_edges=0)

    def test_streaming_validates_lines_identically(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2 nope\n")
        with pytest.raises(GraphFormatError, match="bad.txt:2"):
            read_edge_list(path, streaming=True)

    def test_streaming_out_of_range_id_like_in_ram(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n# comment\n7 1\n")
        with pytest.raises(GraphFormatError) as in_ram:
            read_edge_list(path, n_nodes=3)
        with pytest.raises(GraphFormatError) as streamed:
            read_edge_list(path, n_nodes=3, streaming=True, chunk_edges=1)
        assert str(streamed.value) == str(in_ram.value)
        assert f"{path}:3" in str(streamed.value)

    def test_streaming_empty_without_n_nodes(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            read_edge_list(path, streaming=True)

    def test_ingest_rss_is_chunk_bound(self, tmp_path):
        """Peak ingest RSS must track the chunk size, not the edge
        count: a file with ~4x the edges may not grow the subprocess
        high-water mark by more than ~1.6x (slack for the interpreter
        baseline and O(n_nodes) bookkeeping)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from tests.conftest import PEAK_KB

        resource = pytest.importorskip("resource")
        del resource
        n_nodes = 30_000
        rss = {}
        for label, n_edges in (("small", 60_000), ("large", 240_000)):
            path = tmp_path / f"{label}.txt"
            import numpy as np

            rng = np.random.default_rng(3)
            with path.open("w") as f:
                for s, d in zip(
                    rng.integers(0, n_nodes, n_edges),
                    rng.integers(0, n_nodes, n_edges),
                ):
                    f.write(f"{s} {d}\n")
            script = (
                PEAK_KB
                + "import warnings\n"
                "from repro.graph.io import read_edge_list\n"
                "warnings.simplefilter('ignore')\n"
                f"g = read_edge_list({str(path)!r}, "
                f"n_nodes={n_nodes}, streaming=True, "
                "chunk_edges=8192)\n"
                "print(peak_kb())\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                cwd=Path(__file__).resolve().parents[1],
                env=dict(os.environ, PYTHONPATH="src"),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            rss[label] = int(proc.stdout.strip())
        growth = rss["large"] / rss["small"]
        assert growth < 1.6, (
            f"4x edges grew streaming-ingest RSS {growth:.2f}x "
            f"({rss['small']} -> {rss['large']} KB)"
        )


# ---------------------------------------------------------------------------
# Block parser vs. the per-line reader it replaced
# ---------------------------------------------------------------------------


def _per_line_reader(path, directed=True, comment="#", n_nodes=None):
    """The per-line edge-list reader the NumPy block parser replaced,
    kept as the reference: returns ``(graph, n_duplicates)``."""
    import math

    import scipy.sparse as sp

    edges = []
    seen = set()
    n_duplicates = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 2 or 3 fields, "
                    f"got {len(parts)}"
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
            if (src, dst) in seen:
                n_duplicates += 1
            seen.add((src, dst))
            edges.append((src, dst, weight))
    if not edges and n_nodes is None:
        raise GraphFormatError(f"{path}: no edges and no n_nodes given")
    rows, cols, vals = [], [], []
    for i, j, w in edges:
        rows.append(i)
        cols.append(j)
        vals.append(w)
        if not directed and i != j:
            rows.append(j)
            cols.append(i)
            vals.append(w)
    if n_nodes is None:
        n_nodes = max(max(rows), max(cols)) + 1
    adj = sp.coo_array(
        (vals, (rows, cols)), shape=(n_nodes, n_nodes)
    ).tocsr()
    cls = DirectedGraph if directed else UndirectedGraph
    return cls(adj), n_duplicates


def _read_counting(path, **kwargs):
    """``read_edge_list`` plus the duplicate count its warning names."""
    import re

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = read_edge_list(path, **kwargs)
    counts = [
        int(re.search(r": (\d+) duplicate", str(w.message)).group(1))
        for w in caught
        if isinstance(w.message, ValidationWarning)
    ]
    assert len(counts) <= 1
    return graph, sum(counts)


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.shape == want.shape


def _csr_values_equal(got, want):
    """Same structure; the store builder sums duplicate edges in its
    own order, so data may differ in the last bits."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0)


_EDGE_LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def _id_tokens(draw):
    value = draw(st.integers(0, 12))
    form = draw(st.sampled_from(["plain", "plain", "plus", "zeros"]))
    if form == "plus":
        return f"+{value}"
    if form == "zeros":
        return f"{value:03d}"
    return str(value)


_WEIGHT_TOKENS = st.one_of(
    st.sampled_from(
        ["1", "2", "0.5", "2.25", "1e3", "1_0", "-0.0", "+3", "007",
         ".5", "5.", "0.1", "0.30000000000000004", "1E-5"]
    ),
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.floats(0, 1e3, allow_nan=False).map(lambda w: f"{w:g}"),
    st.tuples(
        st.integers(0, 10**6), st.text("0123456789", max_size=25)
    ).map(lambda parts: f"{parts[0]}.{parts[1]}"),
)
_SPACE = st.sampled_from(
    [" ", "  ", "\t", " \t", "\x0b", "\x1f", "\u00a0", "\u2003"]
)


@st.composite
def _edge_lines(draw):
    tokens = [draw(_id_tokens()), draw(_id_tokens())]
    if draw(st.booleans()):
        tokens.append(draw(_WEIGHT_TOKENS))
    text = tokens[0]
    for token in tokens[1:]:
        text += draw(_SPACE) + token
    lead = draw(st.sampled_from(["", "", " ", "\t"]))
    trail = draw(st.sampled_from(["", "", " ", "\t "]))
    return lead + text + trail


_OTHER_LINES = st.one_of(
    st.text(max_size=12)
    .filter(lambda t: "\r" not in t and "\n" not in t)
    .map(lambda t: "# " + t),
    st.sampled_from(
        ["#", "  # indented", "#é ünïcødé ✓", "", "   ", "\t"]
    ),
)


@st.composite
def _edge_list_texts(draw):
    lines = draw(
        st.lists(
            st.one_of(_edge_lines(), _edge_lines(), _OTHER_LINES),
            max_size=40,
        )
    )
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(_EDGE_LINE_ENDS))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text


_BAD_LINES = ["0 1 2 3", "x 1", "0 x", "-1 2", "0 1 nan", "0 1 inf"]


class TestBlockParserDifferential:
    """The NumPy block parser against the per-line reader it replaced:
    same CSR bytes and dtypes, same duplicate count, same errors, and
    streaming equal to in-RAM for any block size."""

    @given(
        text=_edge_list_texts(),
        chunk_edges=st.integers(1, 50),
        directed=st.booleans(),
        comment=st.sampled_from(["#", "#", "#", "# ", "1", ""]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_per_line_reader(
        self, text, chunk_edges, directed, comment
    ):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_bytes(text.encode())
            kwargs = {"directed": directed, "comment": comment}
            try:
                want, want_dups = _per_line_reader(path, **kwargs)
            except GraphFormatError as exc:
                with pytest.raises(GraphFormatError) as got:
                    read_edge_list(path, **kwargs)
                assert str(got.value) == str(exc)
                return
            got, got_dups = _read_counting(path, **kwargs)
            _assert_same_csr(got.adjacency, want.adjacency)
            assert got_dups == want_dups
            if directed:
                streamed, _ = _read_counting(
                    path,
                    comment=comment,
                    streaming=True,
                    chunk_edges=chunk_edges,
                )
                _csr_values_equal(streamed.adjacency, got.adjacency)

    @given(
        text=_edge_list_texts(),
        bad=st.sampled_from(_BAD_LINES),
        at=st.integers(0, 40),
        chunk_edges=st.integers(1, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_bad_line_raises_like_per_line_reader(
        self, text, bad, at, chunk_edges
    ):
        import tempfile
        from pathlib import Path

        lines = text.split("\n")
        lines.insert(min(at, len(lines)), bad)
        text = "\n".join(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_bytes(text.encode())
            with pytest.raises(GraphFormatError) as want:
                _per_line_reader(path)
            with pytest.raises(GraphFormatError) as got:
                read_edge_list(path)
            assert str(got.value) == str(want.value)
            with pytest.raises(GraphFormatError) as streamed:
                read_edge_list(path, streaming=True, chunk_edges=chunk_edges)
            assert str(streamed.value) == str(want.value)
