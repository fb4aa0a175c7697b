"""Bit-exact graph6 encoding and decoding (header-less variant).

The size field is one byte chr(n+63) for n < 63 and '~' plus three bytes for
63 <= n <= 258047. Edge bits cover the upper triangle in column order
(0,1), (0,2), (1,2), (0,3), ..., packed big-endian six bits per byte and
zero-padded; every payload byte is an ASCII character in 63..126.
"""

from __future__ import annotations

from .graphs import Graph, ParseError, SizeLimitError

GRAPH6_MAX_N = 258047

_PLUS_63 = bytes((b + 63) & 0xFF for b in range(256))


def graph6_length(n: int) -> int:
    """Bytes in the graph6 token of an n-vertex graph: the size field, then
    the n(n-1)/2 edge bits six to a byte."""
    return (1 if n < 63 else 4) + (n * (n - 1) // 2 + 5) // 6


def emit_graph6(g: Graph) -> bytes:
    """Encode a graph as one graph6 token (no trailing newline)."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise SizeLimitError(f"graph6 supported here only up to n={GRAPH6_MAX_N}")
    if n < 63:
        out = bytearray((n + 63,))
    else:
        out = bytearray((126, ((n >> 12) & 0x3F) + 63, ((n >> 6) & 0x3F) + 63, (n & 0x3F) + 63))
    # pair i < j is bit j(j-1)/2 + i, big-endian within its 6-bit byte;
    # neighbors are sorted, so a column's pairs end at the first i >= j
    bits = bytearray(graph6_length(n) - len(out))
    for j, nbrs in enumerate(g.adjacency):
        base = j * (j - 1) // 2
        for i in nbrs:
            if i >= j:
                break
            k = base + i
            bits[k // 6] |= 32 >> (k % 6)
    out += bits.translate(_PLUS_63)
    return bytes(out)


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 token. Strict: exact length, zero padding bits."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError(
                f"non-ASCII character {data[exc.start]!r} at offset {exc.start}"
            ) from None
    data = data.strip()
    if not data:
        raise ParseError("empty graph6 input")
    for pos, byte in enumerate(data):
        if not (63 <= byte <= 126):
            raise ParseError(f"byte {byte} at offset {pos} outside graph6 range 63..126")
    if data[0] == 126:
        if len(data) < 4:
            raise ParseError("truncated graph6 size field")
        if data[1] == 126:
            raise ParseError(f"graph6 sizes above {GRAPH6_MAX_N} are not supported")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise ParseError("overlong graph6 size field")
        payload = data[4:]
    else:
        n = data[0] - 63
        payload = data[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(payload) != expected:
        raise ParseError(
            f"payload holds {len(payload)} bytes, expected {expected} for n={n}"
        )
    edges = []
    bit = 0
    if payload:
        j, i = 1, 0
        for byte in payload:
            chunk = byte - 63
            for k in range(5, -1, -1):
                if bit >= nbits:
                    if (chunk >> k) & 1:
                        raise ParseError("nonzero padding bits")
                    continue
                if (chunk >> k) & 1:
                    edges.append((i, j))
                bit += 1
                i += 1
                if i == j:
                    j += 1
                    i = 0
    # the decoder emits each pair i < j < n at most once, so no check is needed
    return Graph._from_edges(n, edges)
