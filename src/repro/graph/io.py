"""Graph serialization: edge-list text, METIS, and binary ``.npz``.

Three interchange formats cover the ecosystems the paper's datasets come
from:

- **edge-list text** (``.el`` — the GAP loader's plain format): one
  ``u v`` pair per line, ``#`` comments allowed; a file is parsed by one
  vectorized block parser in 1 MiB blocks, decoding each endpoint from
  8-byte words, and written in blocks of edges whose digits are
  formatted four at a time;
- **METIS** (``.graph``): header ``n m`` then one line of (1-based)
  neighbours per vertex;
- **npz binary**: the CSR arrays verbatim, the fastest round-trip.

METIS and npz files store the adjacency itself, so their loaders check
that it is symmetric; ``build_csr`` symmetrizes an edge list by default.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph
from repro.graph.validate import check_symmetric

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "load_npz",
    "save_npz",
    "load_graph",
    "save_graph",
]


# --------------------------------------------------------------------- #
# edge-list text
# --------------------------------------------------------------------- #

#: Bytes read per parse block; a block holds whole lines, so a longer line
#: grows its block.  Parse working memory is a small multiple of one block,
#: which at this size stays in cache and reuses the same heap pages.
_BLOCK_BYTES = 1 << 20

#: Longest token the vectorized parser decodes: every 18-digit decimal fits
#: int64.  Longer tokens (leading zeros, overflow) take the reference path.
_MAX_DIGITS = 18

_NL, _SPACE, _ZERO = b"\n 0"
#: Class bytes of comment markers and of every other non-digit, non-space
#: byte.  Both carry bit 6, which no digit or separator class has, so the
#: word-wise decode tells a token's bad byte from its end with one mask.
_HASH, _OTHER = b"cx"
_INT64 = np.iinfo(np.int64)


def _byte_classes() -> bytes:
    r"""``bytes.translate`` table onto the vectorized parser's alphabet:
    digits and ``\n`` map to themselves, the rest of the whitespace that
    ``str.split`` sees in ASCII to a space, both comment markers to
    ``_HASH`` and every other byte to ``_OTHER``."""
    table = bytearray([_OTHER] * 256)
    for c in range(128):
        if chr(c).isspace():
            table[c] = _SPACE
    for c in b"0123456789\n":
        table[c] = c
    table[ord("#")] = table[ord("%")] = _HASH
    return bytes(table)


_BYTE_CLASS = _byte_classes()
#: Trailing separators, so that an 8-byte window read at a block's last
#: byte stays in bounds.
_PAD = b" " * 7

# Byte-lane constants of the word-wise decode.  A window is 8 bytes read as
# one little-endian uint64, so the token's first byte is its lowest.
_LANES = np.uint64(0x0101010101010101)
_ZEROS = _LANES * np.uint64(_ZERO)
#: ``x + 0x76`` carries into bit 7 of each byte exactly where ``x >= 10``.
_NON_DIGIT = _LANES * np.uint64(0x76)
_BIT7 = _LANES * np.uint64(0x80)
#: Byte j holds ``8 + 8j``: ``2**(8k)`` times this, shifted right by 56,
#: is ``64 - 8k``, the left shift that moves k leading digits to the top.
_SHIFT_BYTES = np.uint64(0x4038302820181008)
#: ``10**k`` indexed by ``(64 - 8k) >> 3``.
_POW10 = np.array([10 ** (8 - i) for i in range(9)], dtype=np.uint64)


def _parse_edge_line(line: str, lineno: int) -> tuple[int, int] | None:
    """One edge-list line -> ``(u, v)``, or ``None`` for comments/blanks.

    The reference grammar: the vectorized block parser agrees with it on
    every block it decodes and hands every other block to it.
    """
    line = line.strip()
    if not line or line[0] in "#%":
        return None
    parts = line.split()
    if len(parts) < 2:
        raise GraphFormatError(
            f"edge list line {lineno}: expected at least two columns"
        )
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(
            f"edge list line {lineno}: non-integer endpoint"
        ) from exc
    if not (_INT64.min <= u <= _INT64.max and _INT64.min <= v <= _INT64.max):
        raise GraphFormatError(
            f"edge list line {lineno}: vertex id does not fit int64"
        )
    return u, v


def _parse_lines(
    lines: Iterable[str], lineno: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference parse of ``lines``, numbered from ``lineno``, as one
    ``(src, dst)`` pair; raises at the first malformed line."""
    src_l: list[int] = []
    dst_l: list[int] = []
    for i, line in enumerate(lines, lineno):
        parsed = _parse_edge_line(line, i)
        if parsed is not None:
            src_l.append(parsed[0])
            dst_l.append(parsed[1])
    return (
        np.asarray(src_l, dtype=VERTEX_DTYPE),
        np.asarray(dst_l, dtype=VERTEX_DTYPE),
    )


def _window_digits(
    words: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode the 8-byte window at each offset ``at``: the value of its
    leading digits and ``64 - 8k`` for their count k, or ``None`` if the
    first non-digit byte of some window is not a separator."""
    x = words[at]
    x ^= _ZEROS  # digits -> 0..9; every other class byte is >= 10
    low = x + _NON_DIGIT
    low &= _BIT7
    low >>= 7
    low &= np.negative(low)  # 2**(8k) at the first non-digit; 0 if none
    if (x & (low << 6)).any():
        return None
    low *= _SHIFT_BYTES
    low >>= 56
    # The digits to the top, zeros (leading zeros) below; a window with no
    # digit (a continuation at a token's end) shifts by 64, which NumPy
    # defines to give 0.
    x <<= low
    # Lemire's "parse eight digits": fold digit pairs, then quads, then
    # the two halves, each with one multiply-shift-mask step.
    x *= np.uint64(10 * 2**8 + 1)
    x >>= 8
    x &= np.uint64(0x00FF00FF00FF00FF)
    x *= np.uint64(100 * 2**16 + 1)
    x >>= 16
    x &= np.uint64(0x0000FFFF0000FFFF)
    x *= np.uint64(10000 * 2**32 + 1)
    x >>= 32
    return x, low


def _decimals(words: np.ndarray, start: np.ndarray) -> np.ndarray | None:
    """Values of the tokens starting at ``start``, read from ``words`` (the
    class bytes as unaligned 8-byte windows), or ``None`` unless each token
    is 1 to ``_MAX_DIGITS`` ASCII digits.

    One window decodes a token of up to 7 digits; only tokens of 8 or
    more read a second window, and of 16 or more a third.
    """
    got = _window_digits(words, start)
    if got is None:
        return None
    value, shift = got
    longer = np.flatnonzero(shift == 0)  # 8 digits so far: read on
    for offset in (8, 16):
        if not longer.size:
            return value.view(np.int64)
        got = _window_digits(words, start[longer] + offset)
        if got is None:
            return None
        more, shift = got
        value[longer] = value[longer] * _POW10[shift >> 3] + more
        longer = longer[shift == 0]
    if (shift < 64 - 8 * (_MAX_DIGITS - 16)).any():
        return None
    return value.view(np.int64)


def _parse_block(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    r"""Vectorized parse of whole lines, each ending in ``\n``.

    Decodes blank lines, ``#``/``%`` comments and lines whose first two
    whitespace-separated columns are ASCII decimals of at most
    ``_MAX_DIGITS`` digits (later columns are ignored).  Returns ``None``
    for a block with any other line; the reference grammar then decides.
    """
    if not block.isascii():
        return None
    data = (block + _PAD).translate(_BYTE_CLASS)
    t = np.frombuffer(data, dtype=np.uint8)
    # Overlapping little-endian 8-byte windows, one per byte offset.
    words = np.ndarray((t.shape[0] - 7,), dtype="<u8", buffer=data, strides=(1,))
    tok = t > _SPACE
    # Events in file order: token starts and line ends.
    event = t == _NL
    event[0] |= tok[0]
    event[1:] |= tok[1:] > tok[:-1]
    at = np.flatnonzero(event)
    kind = t[at]
    ends = np.flatnonzero(kind == _NL)
    first = np.concatenate(([0], ends[:-1] + 1))  # each line's first event
    lead = kind[first]
    first = first[(lead != _NL) & (lead != _HASH)]  # data lines
    if (kind[first + 1] == _NL).any():  # a data line with one column
        return None
    src = _decimals(words, at[first])
    dst = _decimals(words, at[first + 1])
    if src is None or dst is None:
        return None
    return src, dst


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    r"""A binary file as blocks of about ``_BLOCK_BYTES`` bytes of whole
    lines, each ending in ``\n``, with universal newlines: ``\r\n`` and
    a lone ``\r`` become ``\n``, as text mode reads them."""
    tail = b""
    while chunk := fh.read(_BLOCK_BYTES):
        text = tail + chunk
        held = text.endswith(b"\r")  # its "\n" may start the next read
        if held:
            text = text[:-1]
        if b"\r" in text:
            text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = text.rfind(b"\n") + 1
        tail = text[cut:] + (b"\r" if held else b"")
        if cut:
            yield text[:cut]
    if tail:  # an unterminated last line, or a last lone "\r"
        yield tail.removesuffix(b"\r") + b"\n"


def _decoded_lines(block: bytes, lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference parse of a block the vectorized parser declined.  At a
    byte that is not UTF-8 it parses the lines before it, so that their
    errors come first, then raises :class:`~repro.errors.GraphFormatError`
    naming that byte's line."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        cut = block.rfind(b"\n", 0, exc.start) + 1
        _parse_lines(block[:cut].decode("utf-8").split("\n")[:-1], lineno)
        bad = lineno + block.count(b"\n", 0, cut)
        raise GraphFormatError(
            f"edge list line {bad}: not UTF-8 text ({exc.reason})"
        ) from None
    return _parse_lines(text[:-1].split("\n"), lineno)


def _path_edges(
    path: str | os.PathLike,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Parse an edge-list file block by block into ``(src, dst)`` arrays."""
    lineno = 1
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            parsed = _parse_block(block)
            if parsed is None:
                yield _decoded_lines(block, lineno)
            else:
                yield parsed
            lineno += block.count(b"\n")


def _text_edges(fh: TextIO) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Parse an open text handle with the reference grammar, in blocks of
    the lines iterating it yields."""
    lineno = 1
    while True:
        try:
            lines = fh.readlines(_BLOCK_BYTES)
        except UnicodeDecodeError as exc:
            raise GraphFormatError(
                f"edge list at or after line {lineno}: "
                f"not {exc.encoding} text ({exc.reason})"
            ) from None
        if not lines:
            return
        yield _parse_lines(lines, lineno)
        lineno += len(lines)


def _edge_blocks(
    source: str | os.PathLike | TextIO,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Parsed ``(src, dst)`` arrays, block by block, of a path or an open
    text handle."""
    if isinstance(source, (str, os.PathLike)):
        return _path_edges(source)
    return _text_edges(source)


def _concatenated(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """All parsed blocks as one ``(src, dst)`` pair; the per-block arrays
    are freed on return, before the CSR build allocates."""
    src_parts = [np.empty(0, dtype=VERTEX_DTYPE)]
    dst_parts = [np.empty(0, dtype=VERTEX_DTYPE)]
    for src, dst in blocks:
        src_parts.append(src)
        dst_parts.append(dst)
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def read_edge_list(path: str | os.PathLike | TextIO, **build_kwargs) -> CSRGraph:
    r"""Read a whitespace-separated edge-list file into a CSR graph.

    Grammar, line by line: a blank line, or one whose first non-blank
    character is ``#`` or ``%``, is skipped; any other line must hold at
    least two whitespace-separated columns, the two endpoints, which are
    read with Python's ``int()`` and must fit int64.  Later columns (e.g.
    weights) are ignored.  A violation raises
    :class:`~repro.errors.GraphFormatError` naming the 1-based line.  A
    path is read as UTF-8 text with universal newlines (``\r\n`` and a
    lone ``\r`` end a line), and a byte that is not UTF-8 is such a
    violation; an open text handle is read as the lines iterating it
    yields.

    A path is parsed in blocks of whole lines of about 1 MiB: a
    vectorized NumPy pass decodes the common grammar (ASCII decimals of
    at most 18 digits), one 8-byte word per token of up to 7 digits, and
    a block it cannot decode (non-ASCII text, ``+5``, ``1_0``, overlong
    or malformed tokens) is re-parsed line by line with the reference
    grammar, which also raises the exact error.  An open handle takes the
    reference grammar throughout, in blocks of the same size.  Parse
    working memory is a small multiple of one block, never an array per
    byte of the whole file, plus the parsed edge arrays.

    The vertex count is the largest id plus one.  An id whose vertex
    arrays (24 bytes a vertex) would not fit the machine's physical
    memory raises :class:`~repro.errors.GraphFormatError` naming it
    before anything vertex-sized is allocated.  ``build_kwargs`` go to
    :func:`~repro.graph.builder.build_csr`.
    """
    src, dst = _concatenated(_edge_blocks(path))
    return from_edge_array(src, dst, **build_kwargs)


#: Edges :func:`write_edge_list` formats per block; the block's byte matrix
#: (about 14 bytes an edge at 2^18 vertices) stays in cache.
_WRITE_EDGES = 1 << 16

#: ``_DIGIT_GROUPS[g]`` is the four ASCII digits of ``g``, zero-padded, as
#: one little-endian word, for ``0 <= g < 10**4``.
_DIGIT_GROUPS = np.frombuffer(
    b"".join(b"%04d" % g for g in range(10**4)), dtype="<u4"
)


def _digit_columns(values: np.ndarray, width: int) -> np.ndarray:
    """The non-negative ``values`` as a ``(len(values), width)`` matrix of
    ASCII digits, right-aligned with leading zeros, four digits a pass."""
    groups = -(-width // 4)
    words = np.empty((values.shape[0], groups), dtype="<u4")
    for j in range(groups - 1, -1, -1):
        values, low = np.divmod(values, 10**4)
        words[:, j] = _DIGIT_GROUPS[low]
    return words.view(np.uint8)[:, 4 * groups - width :]


def _edge_lines(src: np.ndarray, dst: np.ndarray) -> bytes:
    r"""The bytes of ``f"{u} {v}\n"`` for each pair of the non-negative
    ``src`` and ``dst``, in order.

    Each line is one row of a byte matrix, with each id right-aligned in
    the width of its column's largest; the rows are read back without
    the leading zeros.
    """
    if not src.shape[0]:
        return b""
    su, sv = (_digit_columns(x, len(str(int(x.max())))) for x in (src, dst))
    wu, wv = su.shape[1], sv.shape[1]
    rows = np.empty((src.shape[0], wu + wv + 2), dtype=np.uint8)
    rows[:, :wu] = su
    rows[:, wu] = ord(" ")
    rows[:, wu + 1 : -1] = sv
    rows[:, -1] = ord("\n")
    # A digit is kept once a non-zero digit of its id has been seen, and
    # each id's last digit always (so 0 is written as "0").
    keep = rows != ord("0")
    for lo, hi in ((0, wu), (wu + 1, wu + 1 + wv)):
        for j in range(lo + 1, hi - 1):
            keep[:, j] |= keep[:, j - 1]
        keep[:, hi - 1] = True
    return rows[keep].tobytes()


def write_edge_list(graph: CSRGraph, path: str | os.PathLike | TextIO) -> None:
    r"""Write each undirected edge once as a ``u v`` line, ``u <= v``, in
    CSR order: the text of ``f"{u} {v}\n"`` for each edge, formatted by
    vectorized digit passes over blocks of 2^16 edges.  A path is written
    as UTF-8; a graph with no edges writes nothing."""
    close = False
    if isinstance(path, (str, os.PathLike)):
        fh: TextIO = open(path, "w", encoding="utf-8")
        close = True
    else:
        fh = path
    try:
        src, dst = graph.undirected_edge_array()
        for lo in range(0, src.shape[0], _WRITE_EDGES):
            hi = lo + _WRITE_EDGES
            fh.write(_edge_lines(src[lo:hi], dst[lo:hi]).decode("ascii"))
    finally:
        if close:
            fh.close()


# --------------------------------------------------------------------- #
# METIS
# --------------------------------------------------------------------- #


def _metis_ints(tokens: list[str], lineno: int) -> list[int]:
    """``tokens`` of METIS line ``lineno`` as integers."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise GraphFormatError(f"METIS line {lineno}: non-integer token") from None


def read_metis(path: str | os.PathLike) -> CSRGraph:
    """Read a METIS ``.graph`` file (unweighted, 1-based vertex ids).

    A non-integer token, a row id outside ``[1, n]``, a header that
    disagrees with the rows, or an adjacency that is not symmetric raises
    :class:`~repro.errors.GraphFormatError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header: list[str] | None = None
        rows: list[tuple[int, list[int]]] = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("%"):
                continue
            if header is None:
                if not line:
                    continue  # leading blank lines before the header
                header, header_line = line.split(), lineno
                continue
            # After the header every non-comment line is a vertex row; a
            # blank line is a vertex with no neighbours.
            rows.append((lineno, _metis_ints(line.split(), lineno)))
    if header is None:
        raise GraphFormatError("METIS file has no header line")
    if len(header) < 2:
        raise GraphFormatError("METIS header must contain 'n m'")
    n, m = _metis_ints(header[:2], header_line)
    if len(header) >= 3 and header[2] not in ("0", "00", "000"):
        raise GraphFormatError("weighted METIS graphs are not supported")
    if len(rows) != n:
        raise GraphFormatError(
            f"METIS header declares {n} vertices but file has {len(rows)} rows"
        )
    indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    for v, (lineno, row) in enumerate(rows):
        if row and (min(row) < 1 or max(row) > n):
            raise GraphFormatError(
                f"METIS line {lineno}: vertex ids must lie in [1, {n}]"
            )
        indptr[v + 1] = indptr[v] + len(row)
    indices = np.fromiter(
        (w - 1 for _, row in rows for w in row),
        dtype=VERTEX_DTYPE,
        count=int(indptr[-1]),
    )
    graph = CSRGraph(indptr, indices)
    if graph.num_edges != m:
        raise GraphFormatError(
            f"METIS header declares {m} edges but adjacency encodes {graph.num_edges}"
        )
    check_symmetric(graph)
    return graph


def write_metis(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a METIS ``.graph`` file (unweighted, 1-based vertex ids)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            fh.write(" ".join(str(int(w) + 1) for w in graph.neighbors(v)))
            fh.write("\n")


# --------------------------------------------------------------------- #
# npz binary
# --------------------------------------------------------------------- #


def save_npz(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Save the CSR arrays to a compressed ``.npz`` file."""
    np.savez_compressed(Path(path), indptr=graph.indptr, indices=graph.indices)


def load_npz(path: str | os.PathLike) -> CSRGraph:
    """Load a graph previously saved with :func:`save_npz`.

    A file that is not a readable archive of the ``indptr`` and
    ``indices`` arrays (truncated, corrupt, missing an array, or a member
    ``np.load`` rejects), or whose arrays are not a symmetric adjacency,
    raises :class:`~repro.errors.GraphFormatError`.
    """
    try:
        with np.load(Path(path)) as data:
            if "indptr" not in data or "indices" not in data:
                raise GraphFormatError(
                    "npz file missing 'indptr'/'indices' arrays"
                )
            graph = CSRGraph(
                _npz_member(data, "indptr"), _npz_member(data, "indices")
            )
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise GraphFormatError(f"unreadable npz archive: {exc}") from exc
    check_symmetric(graph)
    return graph


def _npz_member(data: np.lib.npyio.NpzFile, name: str) -> np.ndarray:
    """Archive member ``name`` as an array (``NpzFile`` hands back the raw
    bytes of a member that is not ``.npy`` data)."""
    member = data[name]
    if not isinstance(member, np.ndarray):
        raise GraphFormatError(
            f"unreadable npz archive: member {name!r} is not an .npy array"
        )
    return member


# --------------------------------------------------------------------- #
# extension dispatch
# --------------------------------------------------------------------- #

_LOADERS = {
    ".el": read_edge_list,
    ".txt": read_edge_list,
    ".edges": read_edge_list,
    ".graph": read_metis,
    ".metis": read_metis,
    ".npz": load_npz,
}

_SAVERS = {
    ".el": write_edge_list,
    ".txt": write_edge_list,
    ".edges": write_edge_list,
    ".graph": write_metis,
    ".metis": write_metis,
    ".npz": save_npz,
}


def load_graph(path: str | os.PathLike) -> CSRGraph:
    """Load a graph, dispatching on file extension."""
    suffix = Path(path).suffix.lower()
    loader = _LOADERS.get(suffix)
    if loader is None:
        raise GraphFormatError(f"unrecognised graph file extension: {suffix!r}")
    return loader(path)


def save_graph(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Save a graph, dispatching on file extension."""
    suffix = Path(path).suffix.lower()
    saver = _SAVERS.get(suffix)
    if saver is None:
        raise GraphFormatError(f"unrecognised graph file extension: {suffix!r}")
    saver(graph, path)
