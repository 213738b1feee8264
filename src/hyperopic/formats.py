"""Graph serialization: graph6 strings and plain edge-list text."""

from __future__ import annotations

from .graph import Graph

GRAPH6_HEADER = ">>graph6<<"


def _encode_n(n):
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError(f"n={n} too large for graph6")


def encode_graph6(g):
    """Standard graph6 encoding: size header then column-major upper triangle."""
    n = g.n
    size = n * (n - 1) // 2
    bits = [0] * (size + -size % 6)  # padded to whole 6-bit characters
    for i, j in g.edges:
        bits[j * (j - 1) // 2 + i] = 1
    chars = []
    for off in range(0, len(bits), 6):
        val = 0
        for b in bits[off : off + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return _encode_n(n) + "".join(chars)


def decode_graph6(s):
    """Inverse of encode_graph6; accepts an optional >>graph6<< header."""
    s = s.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("invalid graph6 character")
    if data[0] != 63:
        n = data[0]
        rest = data[1:]
    elif len(data) >= 2 and data[1] != 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 size")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        rest = data[4:]
    else:
        if len(data) < 8:
            raise ValueError("truncated graph6 size")
        n = 0
        for d in data[2:8]:
            n = (n << 6) | d
        rest = data[8:]
    need = (n * (n - 1) // 2 + 5) // 6  # six edge bits per character
    if len(rest) != need:
        raise ValueError(
            f"graph6 body for n={n} needs {need} characters, got {len(rest)}"
        )
    bits = []
    for d in rest:
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((d >> s6) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def parse_edge_list(text):
    """One 'u v' pair per line, 0-based; blank lines and #-comments ignored.

    Vertex count is max id + 1, so isolated top vertices are not expressible;
    use graph6 for those.
    """
    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex in {line!r}") from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id in {line!r}")
        edges.append((u, v))
        top = max(top, u, v)
    if top < 0:
        raise ValueError("edge list is empty")
    return Graph(top + 1, edges)


def emit_edge_list(g):
    return "\n".join(f"{u} {v}" for u, v in g.edges) + "\n"
