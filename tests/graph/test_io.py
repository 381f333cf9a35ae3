"""Round-trip and error tests for graph I/O."""

import io
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.errors import GraphFormatError
from repro.generators import barabasi_albert_graph
from repro.graph import builder, from_edge_list
from repro.graph import io as graph_io
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    _edge_lines,
    load_graph,
    load_npz,
    read_edge_list,
    read_metis,
    save_graph,
    save_npz,
    write_edge_list,
    write_metis,
)


#: Vertex 0 lists vertex 3, which lists nobody: 5 stored entries, which
#: the header's count of 2 undirected edges accepts.
ASYMMETRIC_METIS = "4 2\n2 3 4\n1\n1\n\n"


@pytest.fixture
def sample(two_cliques):
    # .el files cannot express trailing isolated vertices, so round-trip
    # samples use a graph whose highest id appears in an edge.
    return two_cliques


class TestEdgeListFormat:
    def test_roundtrip(self, tmp_path, sample):
        path = tmp_path / "g.el"
        write_edge_list(sample, path)
        assert read_edge_list(path) == sample

    def test_roundtrip_via_stream(self, sample):
        buf = io.StringIO()
        write_edge_list(sample, buf)
        buf.seek(0)
        assert read_edge_list(buf) == sample

    def test_comments_and_blanks_skipped(self):
        text = "# comment\n\n% other comment\n0 1\n1 2\n"
        g = read_edge_list(io.StringIO(text))
        assert g.num_edges == 2

    def test_extra_columns_ignored(self):
        g = read_edge_list(io.StringIO("0 1 3.5\n1 2 7\n"))
        assert g.num_edges == 2

    def test_rejects_single_column(self):
        with pytest.raises(GraphFormatError, match="two columns"):
            read_edge_list(io.StringIO("0\n"))

    def test_rejects_non_integer(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(io.StringIO("a b\n"))

    @pytest.mark.parametrize(
        "bad", ["99999999999999999999", "-9223372036854775809"]
    )
    def test_rejects_id_beyond_int64(self, tmp_path, bad):
        text = f"0 1\n0 {bad}\n"
        path = tmp_path / "big.el"
        path.write_text(text)
        for source in (io.StringIO(text), path):
            with pytest.raises(
                GraphFormatError, match="line 2: vertex id does not fit int64"
            ):
                read_edge_list(source)

    def test_rejects_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_bytes(b"0 1\n1 2\n\xff\xfe 3\n")
        with pytest.raises(GraphFormatError, match="line 3: not UTF-8"):
            read_edge_list(path)
        # A grammar error on an earlier line of the same block comes first.
        path.write_bytes(b"0 1\n1\n\xff\xfe 3\n")
        with pytest.raises(GraphFormatError, match="line 2: expected at least two"):
            read_edge_list(path)

    def test_no_edges_writes_empty_file(self, tmp_path):
        g = from_edge_list([], num_vertices=5)
        path = tmp_path / "g.el"
        write_edge_list(g, path)
        assert path.read_bytes() == b""
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == ""
        assert read_edge_list(path).num_vertices == 0

    def test_lines_at_digit_count_boundaries(self):
        """The formatter's bytes are ``f"{u} {v}\\n"`` for ids of every
        digit count, paired so each line mixes two widths."""
        ids = [0, 1, 9, 2**62, 2**63 - 1]
        for k in range(1, 19):
            ids += [10**k - 1, 10**k, 10**k + 1]
        u = np.array(ids, dtype=np.int64)
        for v in (u[::-1], np.roll(u, 7), np.zeros_like(u)):
            want = "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))
            assert _edge_lines(u, np.ascontiguousarray(v)) == want.encode()
        assert _edge_lines(u[:0], u[:0]) == b""

    @pytest.mark.parametrize("block", [1, 3, 64, 1 << 16])
    def test_blocks_write_the_f_string_bytes(self, tmp_path, monkeypatch, block):
        """Each block is laid out in the widths of its own ids; the file
        is the same for any block size."""
        monkeypatch.setattr(graph_io, "_WRITE_EDGES", block)
        g = barabasi_albert_graph(3000, 3, seed=5)
        src, dst = g.undirected_edge_array()
        path = tmp_path / "g.el"
        write_edge_list(g, path)
        want = "".join(f"{u} {v}\n" for u, v in zip(src, dst))
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize(
        "kwargs", [{}, {"sort_neighbors": False}], ids=["sorted", "unsorted"]
    )
    def test_far_out_vertex_id_rejected(self, tmp_path, monkeypatch, kwargs):
        """One id whose vertex arrays exceed physical memory fails by name
        before anything vertex-sized is allocated (the probe is patched to
        1 MiB; 24 bytes x 1,000,001 vertices is 24 MB)."""
        monkeypatch.setattr(builder, "_physical_memory", lambda: 1 << 20)
        far, near = tmp_path / "far.el", tmp_path / "near.el"
        far.write_text("0 1000000\n")
        near.write_text("0 10\n")
        with pytest.raises(GraphFormatError, match="vertex id 1000000 "):
            read_edge_list(far, **kwargs)
        g = read_edge_list(near, **kwargs)
        assert g.num_vertices == 11 and g.num_edges == 1

    def test_memory_probe_skipped_without_sysconf(self, monkeypatch):
        def unsupported(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(builder.os, "sysconf", unsupported)
        assert builder._physical_memory() is None
        builder.require_vertex_memory(2**62)  # no probe, no check

    def test_rejects_non_utf8_handle(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_bytes(b"0 1\n1 2\n\xff\xfe 3\n")
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(GraphFormatError, match="not utf-8 text"):
                read_edge_list(fh)


class TestMetisFormat:
    def test_roundtrip(self, tmp_path, sample):
        path = tmp_path / "g.graph"
        write_metis(sample, path)
        assert read_metis(path) == sample

    def test_roundtrip_with_isolated_vertices(self, tmp_path, mixed_graph):
        # METIS rows preserve isolated vertices, unlike edge lists.
        path = tmp_path / "m.graph"
        write_metis(mixed_graph, path)
        assert read_metis(path) == mixed_graph

    def test_header_edge_count_checked(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(GraphFormatError, match="declares 5 edges"):
            read_metis(path)

    def test_header_vertex_count_checked(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 1\n2\n1\n")
        with pytest.raises(GraphFormatError, match="3 vertices"):
            read_metis(path)

    def test_rejects_weighted(self, tmp_path):
        path = tmp_path / "w.graph"
        path.write_text("2 1 11\n2 5\n1 5\n")
        with pytest.raises(GraphFormatError, match="weighted"):
            read_metis(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("")
        with pytest.raises(GraphFormatError, match="no header"):
            read_metis(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.graph"
        path.write_text("% hello\n2 1\n2\n1\n")
        g = read_metis(path)
        assert g.num_edges == 1

    def test_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "asym.graph"
        path.write_text(ASYMMETRIC_METIS)
        with pytest.raises(GraphFormatError, match=r"edge \(0, 3\) has no mirror"):
            read_metis(path)

    @pytest.mark.parametrize(
        "token", ["0", "3", "99999999999999999999"], ids=["zero", "n+1", "20-digit"]
    )
    def test_rejects_row_id_out_of_range(self, tmp_path, token):
        path = tmp_path / "bad.graph"
        path.write_text(f"2 1\n% c\n{token}\n1\n")
        with pytest.raises(
            GraphFormatError, match=r"METIS line 3: vertex ids must lie in \[1, 2\]"
        ):
            read_metis(path)

    @pytest.mark.parametrize(
        "text, line",
        [("2 1\n2 x\n1\n", 2), ("% c\ntwo 1\n2\n1\n", 2)],
        ids=["row", "header"],
    )
    def test_rejects_non_integer_token(self, tmp_path, text, line):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        with pytest.raises(
            GraphFormatError, match=f"METIS line {line}: non-integer token"
        ):
            read_metis(path)


class TestNpzFormat:
    def test_roundtrip(self, tmp_path, sample):
        path = tmp_path / "g.npz"
        save_npz(sample, path)
        assert load_npz(path) == sample

    def test_roundtrip_with_isolated_vertices(self, tmp_path, mixed_graph):
        path = tmp_path / "m.npz"
        save_npz(mixed_graph, path)
        assert load_npz(path) == mixed_graph

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(GraphFormatError, match="missing"):
            load_npz(path)

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_truncated_archive_rejected(self, tmp_path, keep):
        # A half-written archive loses its directory.
        from repro.generators import barabasi_albert_graph

        path = tmp_path / "g.npz"
        save_npz(barabasi_albert_graph(500, 3, seed=1), path)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(GraphFormatError, match="unreadable npz"):
            load_npz(path)

    def test_corrupt_member_rejected(self, tmp_path):
        from repro.generators import barabasi_albert_graph

        path = tmp_path / "g.npz"
        save_npz(barabasi_albert_graph(500, 3, seed=1), path)
        data = bytearray(path.read_bytes())
        for at in range(60, len(data) // 2, 97):  # inside member data
            data[at] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(GraphFormatError, match="unreadable npz"):
            load_npz(path)

    def test_rejects_asymmetric(self, tmp_path):
        # The arrays of ASYMMETRIC_METIS, stored unchecked.
        indptr, indices = np.array([0, 3, 4, 5, 5]), np.array([1, 2, 3, 0, 0])
        path = tmp_path / "asym.npz"
        save_npz(CSRGraph(indptr, indices), path)
        with pytest.raises(GraphFormatError, match=r"edge \(0, 3\) has no mirror"):
            load_npz(path)

    @pytest.mark.parametrize("member", ["indptr", "indices"])
    def test_member_np_load_rejects(self, tmp_path, member):
        buf = io.BytesIO()
        np.save(buf, np.array([0, 0], dtype=np.int64))
        path = tmp_path / "g.npz"
        with zipfile.ZipFile(path, "w") as zf:
            for name in ("indptr", "indices"):
                data = b"not an npy member" if name == member else buf.getvalue()
                zf.writestr(f"{name}.npy", data)
        with pytest.raises(GraphFormatError, match="unreadable npz"):
            load_npz(path)


class TestDispatch:
    @pytest.mark.parametrize("ext", [".el", ".txt", ".graph", ".npz"])
    def test_roundtrip_by_extension(self, tmp_path, sample, ext):
        path = tmp_path / f"g{ext}"
        save_graph(sample, path)
        assert load_graph(path) == sample

    def test_unknown_extension_load(self, tmp_path):
        with pytest.raises(GraphFormatError, match="extension"):
            load_graph(tmp_path / "g.xyz")

    def test_unknown_extension_save(self, tmp_path, sample):
        with pytest.raises(GraphFormatError, match="extension"):
            save_graph(sample, tmp_path / "g.xyz")


def test_solve_rejects_asymmetric_file(tmp_path, capsys):
    """The default algorithm's skip would drop vertex 0's one-way edge to
    vertex 3 and print two components; the loader refuses the file."""
    path = tmp_path / "asym.graph"
    path.write_text(ASYMMETRIC_METIS)
    assert main(["solve", str(path)]) == 1
    assert "error: graph is not symmetric" in capsys.readouterr().err


def test_empty_graph_roundtrips(tmp_path):
    g = from_edge_list([], num_vertices=0)
    path = tmp_path / "empty.npz"
    save_npz(g, path)
    assert load_npz(path) == g
