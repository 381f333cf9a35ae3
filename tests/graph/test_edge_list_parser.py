"""Differential tests: the block parser of ``graph.io`` against the
line-by-line reference grammar ``_parse_edge_line``.

The reference reader below is the one the block parser replaced: it
iterates the lines a text handle yields (a path is opened in text mode,
with universal newlines) and groups edges into chunks of exactly
``chunk_edges``, handing each chunk on before it parses further.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.graph.io as gio
from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.builder import from_edge_array
from repro.graph.io import (
    build_csr_streaming,
    iter_edge_list_chunks,
    read_edge_list,
)

CHUNKS = (1, 3, 10_000)
#: Keep every record as parsed: orientation, duplicates, loops, order.
RAW = dict(
    symmetrize=False, dedup=False, drop_self_loops=False, sort_neighbors=False
)


def reference_chunks(lines, chunk_edges):
    src: list[int] = []
    dst: list[int] = []
    for lineno, line in enumerate(lines, 1):
        parsed = gio._parse_edge_line(line, lineno)
        if parsed is None:
            continue
        src.append(parsed[0])
        dst.append(parsed[1])
        if len(src) == chunk_edges:
            yield np.asarray(src, VERTEX_DTYPE), np.asarray(dst, VERTEX_DTYPE)
            src, dst = [], []
    if src:
        yield np.asarray(src, VERTEX_DTYPE), np.asarray(dst, VERTEX_DTYPE)


def reference_edges(lines):
    src, dst = [np.empty(0, VERTEX_DTYPE)], [np.empty(0, VERTEX_DTYPE)]
    for s, d in reference_chunks(lines, 1 << 60):
        src.append(s)
        dst.append(d)
    return np.concatenate(src), np.concatenate(dst)


def outcome(fn):
    """``fn()``'s result, or the text of the GraphFormatError it raised."""
    try:
        return fn()
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


def stream_outcome(chunks):
    """The chunks a stream yields before it ends or raises, and the error."""
    out = []
    try:
        for src, dst in chunks:
            assert src.dtype == dst.dtype == VERTEX_DTYPE
            out.append((src.tolist(), dst.tolist()))
    except GraphFormatError as exc:
        return out, str(exc)
    return out, None


# -- generated edge-list text ------------------------------------------- #

BAD = [
    "a", "1.5", "0x1", "_1", "1__0", "1_", "#", "%2", "--1", "1-2", "+", "-",
    "٣_", "99999999999999999999", "9223372036854775808",
    "-9223372036854775809", "1" * 40,
]
BIG = ["9223372036854775807", "999999999999999999", "1000000000000000000",
       "-9223372036854775808", "123456789012345678"]


@st.composite
def tokens(draw, big):
    kind = draw(st.sampled_from(
        ["plain"] * 8 + ["zfill", "plus", "under", "unicode", "neg", "bad"]
        + ["big"] * big
    ))
    v = draw(st.integers(0, 40))
    return {
        "plain": str(v),
        "zfill": str(v).zfill(draw(st.integers(17, 24))),
        "plus": f"+{v}",
        "under": "_".join(str(v)) if v > 9 else "1_0",
        "unicode": draw(st.sampled_from(["٣", "７", "1٠"])),
        "neg": f"-{v % 3 + 1}",
        "bad": draw(st.sampled_from(BAD)),
        "big": draw(st.sampled_from(BIG)),
    }[kind]


SEPARATORS = [" "] * 6 + ["\t"] * 3 + ["\v", "\f", "\x1c", "\x1f", "  \t",
                                        "\xa0"]
EXTRA = st.one_of(
    st.integers(-50, 50).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["#", "%", "w", "#comment", "é"]),
)


@st.composite
def lines(draw, big):
    kind = draw(st.sampled_from(
        ["edge"] * 6 + ["blank", "comment", "one-column"]
    ))
    pad = draw(st.sampled_from(["", "", " ", "\t", "\x1e "]))
    end = draw(st.sampled_from(["", "", " ", "\t"]))
    if kind == "blank":
        return pad + end
    if kind == "comment":
        body = draw(st.text(alphabet="0123456789 ab#%\té", max_size=8))
        return pad + draw(st.sampled_from(["#", "%"])) + body
    if kind == "one-column":
        return pad + draw(tokens(big)) + end
    cols = [draw(tokens(big)), draw(tokens(big))]
    cols += draw(st.lists(EXTRA, max_size=2))
    line = cols[0]
    for col in cols[1:]:
        line += draw(st.sampled_from(SEPARATORS)) + col
    return pad + line + end


@st.composite
def edge_list_texts(draw, big=False):
    body = draw(st.lists(lines(big), max_size=14))
    ends = st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])
    text = "".join(line + draw(ends) for line in body)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no trailing line break
    return text


_settings = settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Text handles over the same characters: ``io.StringIO`` and files opened
#: in text mode, each with the line splitting its ``newline`` selects.
HANDLES = [
    lambda text, path: io.StringIO(text),
    lambda text, path: io.StringIO(text, newline=""),
    lambda text, path: open(path, encoding="utf-8"),
    lambda text, path: open(path, encoding="utf-8", newline=""),
    lambda text, path: open(path, encoding="utf-8", newline="\r"),
]


@given(
    text=edge_list_texts(big=True),
    block=st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 22]),
)
# Lines of mixed lengths share a block; 19 digits overflow int64; under
# newline="\r" a handle's lines differ from the "\n"-split ones.
@example(text="5 1\n12 3\n", block=1 << 22)
@example(text="0 9223372036854775808\n", block=1 << 22)
@example(text="0 1\n2 3\n", block=1 << 22)
@example(text="0 1\n2\r3 4\r", block=1 << 22)
@_settings
def test_chunk_stream_matches_reference(tmp_path, monkeypatch, text, block):
    # Tiny blocks make lines, and "\r\n" pairs, straddle block boundaries.
    monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
    path = tmp_path / "g.el"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        path_lines = fh.readlines()
    for chunk in CHUNKS:
        want = stream_outcome(reference_chunks(path_lines, chunk))
        got = stream_outcome(gio._chunked(gio._edge_blocks(path), chunk))
        assert got == want
        for handle in HANDLES:
            with handle(text, path) as fh:
                want = stream_outcome(reference_chunks(fh.readlines(), chunk))
            with handle(text, path) as fh:
                got = stream_outcome(iter_edge_list_chunks(fh, chunk))
            assert got == want


@given(text=edge_list_texts(), block=st.sampled_from([1, 3, 8, 1 << 22]))
@_settings
def test_read_edge_list_matches_reference(tmp_path, monkeypatch, text, block):
    monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
    path = tmp_path / "g.el"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        path_lines = fh.readlines()
    for source, ref_lines in (
        (lambda: path, path_lines),
        (lambda: io.StringIO(text), io.StringIO(text).readlines()),
    ):
        assert outcome(lambda: read_edge_list(source(), **RAW)) == outcome(
            lambda: from_edge_array(*reference_edges(ref_lines), **RAW)
        )
        for chunk in CHUNKS:
            assert outcome(
                lambda: read_edge_list(source(), chunk_edges=chunk)
            ) == outcome(
                lambda: build_csr_streaming(
                    lambda: reference_chunks(ref_lines, chunk)
                )
            )
