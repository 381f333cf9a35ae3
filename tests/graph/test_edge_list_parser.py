"""Differential tests: the block parser of ``graph.io`` against the
line-by-line reference grammar ``_parse_edge_line``.

The reference reader below is the one the block parser replaced: it
iterates the lines a text handle yields (a path is opened in text mode,
with universal newlines) and raises at the first malformed line.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.graph.io as gio
from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.builder import from_edge_array
from repro.graph.io import read_edge_list

#: Keep every record as parsed: orientation, duplicates, loops, order.
RAW = dict(
    symmetrize=False, dedup=False, drop_self_loops=False, sort_neighbors=False
)


def reference_edges(lines):
    src: list[int] = []
    dst: list[int] = []
    for lineno, line in enumerate(lines, 1):
        parsed = gio._parse_edge_line(line, lineno)
        if parsed is not None:
            src.append(parsed[0])
            dst.append(parsed[1])
    return np.asarray(src, VERTEX_DTYPE), np.asarray(dst, VERTEX_DTYPE)


def outcome(fn):
    """``fn()``'s result, or the text of the GraphFormatError it raised."""
    try:
        return fn()
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


def edges_outcome(fn):
    """The ``(src, dst)`` lists of the arrays ``fn()`` returns, or the text
    of the GraphFormatError it raised."""

    def lists():
        src, dst = fn()
        assert src.dtype == dst.dtype == VERTEX_DTYPE
        return src.tolist(), dst.tolist()

    return outcome(lists)


def parsed_edges(source):
    """:func:`edges_outcome` of the block parser's edges of ``source``."""
    return edges_outcome(lambda: gio._concatenated(gio._edge_blocks(source)))


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
def test_parsed_edges_match_reference(tmp_path, monkeypatch, text, block):
    # Tiny blocks make lines, and "\r\n" pairs, straddle block boundaries.
    monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
    path = tmp_path / "g.el"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        path_lines = fh.readlines()
    assert parsed_edges(path) == edges_outcome(lambda: reference_edges(path_lines))
    for handle in HANDLES:
        with handle(text, path) as fh:
            want = edges_outcome(lambda: reference_edges(fh.readlines()))
        with handle(text, path) as fh:
            got = parsed_edges(fh)
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


# -- the word-wise decoder's boundaries ---------------------------------- #

#: Token lengths on each side of the decoder's 8-byte windows (one window
#: holds up to 7 digits and its end; 8, 16 and 18 digits fill windows) and
#: of its 18-digit limit.
WORD_LENGTHS = (1, 7, 8, 9, 15, 16, 17, 18, 19)
WORD_TOKENS = [
    token
    for k in WORD_LENGTHS
    for token in (
        "1234567890123456789"[:k],
        "0" * (k - 1) + "7",  # leading zeros
        "0" * k,
        "9" * k,
    )
]
#: A bad byte as a token's 8th, 9th or 17th byte: the last byte of a first
#: window, the first of a second, the first of a third.
BAD_BYTE_TOKENS = [
    "1" * (at - 1) + bad + "2"
    for at in (8, 9, 17)
    for bad in ("#", ".", "é")
]


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
@pytest.mark.parametrize("token", WORD_TOKENS + BAD_BYTE_TOKENS)
def test_word_boundaries_match_reference(tmp_path, monkeypatch, token, block):
    monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
    # The token in either column, beside short and 8-digit tokens of the
    # same block, so that only some tokens read a second window.
    text = f"3 4\n{token} 5\n6 {token}\n{token}\t{token} x\n12345678 1\n"
    path = tmp_path / "g.el"
    path.write_bytes(text.encode("utf-8"))
    ref_lines = text.splitlines(keepends=True)
    # Edge arrays, not graphs: ids up to 10**18 would size a CSR build.
    assert parsed_edges(path) == edges_outcome(lambda: reference_edges(ref_lines))


@pytest.mark.parametrize("token", WORD_TOKENS + BAD_BYTE_TOKENS)
def test_vectorized_parser_declines_exactly_the_undecodable(token):
    """The block parser decodes a token of 1 to 18 ASCII digits and
    declines every other token, leaving it to the reference grammar."""
    text = f"3 4\n{token} 5\n6 {token}\n"
    parsed = gio._parse_block(text.encode("utf-8"))
    if token.isascii() and token.isdigit() and len(token) <= gio._MAX_DIGITS:
        src, dst = reference_edges(text.splitlines(keepends=True))
        assert parsed is not None
        assert parsed[0].tolist() == src.tolist()
        assert parsed[1].tolist() == dst.tolist()
    else:
        assert parsed is None


def _windows(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The class bytes of ``text`` as the parser's 8-byte windows, and the
    start of each whitespace-separated token."""
    data = (text.encode() + gio._PAD).translate(gio._BYTE_CLASS)
    t = np.frombuffer(data, dtype=np.uint8)
    words = np.ndarray((t.shape[0] - 7,), dtype="<u8", buffer=data, strides=(1,))
    tok = t > gio._SPACE
    starts = np.flatnonzero(tok & ~np.concatenate(([False], tok[:-1])))
    return words, starts


@given(
    tokens=st.lists(
        st.text(alphabet="0123456789", min_size=1, max_size=18),
        min_size=1,
        max_size=40,
    ),
    sep=st.sampled_from([" ", "\n", "\t "]),
)
@settings(max_examples=300, deadline=None)
def test_decimals_equal_int(tokens, sep):
    words, starts = _windows(sep.join(tokens) + "\n")
    values = gio._decimals(words, starts)
    assert values is not None
    assert values.dtype == np.int64
    assert values.tolist() == [int(token) for token in tokens]
