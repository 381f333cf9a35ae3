"""Chunked / out-of-core loading: bit-equality with the whole-file paths."""

import io

import numpy as np
import pytest

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.builder import from_edge_array
from repro.graph.io import (
    build_csr_streaming,
    iter_edge_list_chunks,
    read_edge_list,
    write_edge_list,
)


def _chunked(src, dst, size):
    """Split endpoint arrays into fixed-size (src, dst) blocks."""
    return [
        (src[i : i + size], dst[i : i + size])
        for i in range(0, src.shape[0], size)
    ]


class TestStreamingBuilder:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_matches_whole_build(self, chunk):
        rng = np.random.default_rng(11)
        src = rng.integers(0, 60, size=500).astype(VERTEX_DTYPE)
        dst = rng.integers(0, 60, size=500).astype(VERTEX_DTYPE)
        whole = from_edge_array(src, dst)
        streamed = build_csr_streaming(lambda: _chunked(src, dst, chunk))
        assert streamed == whole

    def test_self_loops_and_duplicates_normalised(self):
        src = np.array([0, 0, 1, 2, 2, 3], dtype=VERTEX_DTYPE)
        dst = np.array([1, 1, 0, 2, 3, 2], dtype=VERTEX_DTYPE)
        whole = from_edge_array(src, dst)
        streamed = build_csr_streaming(lambda: _chunked(src, dst, 2))
        assert streamed == whole
        assert streamed.num_edges == 2  # {0,1} and {2,3}

    def test_self_loop_on_max_vertex_keeps_vertex_count(self):
        # from_edge_array sizes the graph before dropping self loops.
        src = np.array([0, 5], dtype=VERTEX_DTYPE)
        dst = np.array([1, 5], dtype=VERTEX_DTYPE)
        streamed = build_csr_streaming(lambda: _chunked(src, dst, 1))
        assert streamed == from_edge_array(src, dst)
        assert streamed.num_vertices == 6

    def test_explicit_num_vertices_adds_isolated_tail(self):
        src = np.array([0], dtype=VERTEX_DTYPE)
        dst = np.array([1], dtype=VERTEX_DTYPE)
        g = build_csr_streaming(lambda: _chunked(src, dst, 1), num_vertices=5)
        assert g.num_vertices == 5
        assert g == from_edge_array(src, dst, num_vertices=5)

    def test_out_of_range_vertex_rejected(self):
        src = np.array([0, 7], dtype=VERTEX_DTYPE)
        dst = np.array([1, 2], dtype=VERTEX_DTYPE)
        with pytest.raises(GraphFormatError, match="out of range"):
            build_csr_streaming(
                lambda: _chunked(src, dst, 1), num_vertices=4
            )

    def test_negative_vertex_rejected(self):
        src = np.array([-1], dtype=VERTEX_DTYPE)
        dst = np.array([1], dtype=VERTEX_DTYPE)
        with pytest.raises(GraphFormatError, match="non-negative"):
            build_csr_streaming(lambda: _chunked(src, dst, 1))

    def test_unstable_factory_detected(self):
        # Second pass yields fewer edges than the first counted.
        chunks = [
            _chunked(
                np.array([0, 1], dtype=VERTEX_DTYPE),
                np.array([1, 2], dtype=VERTEX_DTYPE),
                2,
            ),
            _chunked(
                np.array([0], dtype=VERTEX_DTYPE),
                np.array([1], dtype=VERTEX_DTYPE),
                2,
            ),
        ]
        with pytest.raises(GraphFormatError, match="different edges"):
            build_csr_streaming(lambda: chunks.pop(0))

    def test_empty_stream(self):
        g = build_csr_streaming(lambda: [])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_million_vertex_streaming_construction(self):
        """Seeded 2^20-vertex build assembled from bounded chunks only."""
        n = 1 << 20
        seeds = range(8)

        def chunks():
            for seed in seeds:
                rng = np.random.default_rng(1000 + seed)
                src = rng.integers(0, n, size=1 << 15).astype(VERTEX_DTYPE)
                dst = rng.integers(0, n, size=1 << 15).astype(VERTEX_DTYPE)
                yield src, dst

        streamed = build_csr_streaming(chunks, num_vertices=n)
        all_src = np.concatenate([s for s, _ in chunks()])
        all_dst = np.concatenate([d for _, d in chunks()])
        whole = from_edge_array(all_src, all_dst, num_vertices=n)
        assert streamed == whole
        assert streamed.num_vertices == n


class TestChunkedEdgeList:
    @pytest.mark.parametrize("chunk", [1, 5, 64, 10_000])
    def test_matches_whole_read(self, tmp_path, two_cliques, chunk):
        path = tmp_path / "g.el"
        write_edge_list(two_cliques, path)
        assert read_edge_list(path, chunk_edges=chunk) == read_edge_list(path)

    def test_stream_input_rewound_between_passes(self, two_cliques):
        buf = io.StringIO()
        write_edge_list(two_cliques, buf)
        assert read_edge_list(buf, chunk_edges=3) == two_cliques

    def test_comment_and_error_semantics_preserved(self):
        text = "# c\n\n% c\n0 1 9.5\n1 2\n"
        g = read_edge_list(io.StringIO(text), chunk_edges=1)
        assert g.num_edges == 2
        with pytest.raises(GraphFormatError, match="non-integer"):
            list(iter_edge_list_chunks(io.StringIO("a b\n"), 4))
        with pytest.raises(GraphFormatError, match="two columns"):
            list(iter_edge_list_chunks(io.StringIO("0\n"), 4))
        too_big = io.StringIO("0 99999999999999999999")
        with pytest.raises(GraphFormatError, match="line 1: .* fit int64"):
            list(iter_edge_list_chunks(too_big, 4))
        too_small = io.StringIO("0 1\n-9223372036854775809 0\n")
        with pytest.raises(GraphFormatError, match="line 2: .* fit int64"):
            read_edge_list(too_small, chunk_edges=1)

    def test_rejects_build_kwargs(self):
        with pytest.raises(GraphFormatError, match="default"):
            read_edge_list(
                io.StringIO("0 1\n"), chunk_edges=4, sort_neighbors=False
            )

    def test_rejects_non_positive_chunk(self):
        with pytest.raises(GraphFormatError, match="chunk_edges"):
            read_edge_list(io.StringIO("0 1\n"), chunk_edges=0)
