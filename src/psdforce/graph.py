"""Bitset-backed simple graphs, graph6 serialization, and structural queries.

Vertices are the integers 0..n-1.  A vertex set is an int used as a bitmask
(bit v set means vertex v is a member); ``vset`` and ``vlist`` convert between
masks and vertex collections.  Graphs are immutable: every operation that
changes structure returns a new :class:`Graph`.
"""

from __future__ import annotations

import binascii
import re
from typing import Iterable, Iterator

__all__ = [
    "GRAPH6_MAX_N",
    "Graph",
    "Graph6Error",
    "bridges",
    "complement",
    "components",
    "is_bridge",
    "parse_graph6",
    "read_graph6_lines",
    "vlist",
    "vset",
    "write_graph6",
]

# Largest order of the 4-byte graph6 header: '~' and three sextets whose first
# is at most 62, since '~~' opens the 8-byte form, which is deliberately not
# supported.
GRAPH6_MAX_N = 258047

# graph6 packs its bits into sextets, most significant first, as base64 does,
# with chr(63 + x) for base64's x-th character: binascii codes a body of any
# size in linear time, through this one alphabet in either direction.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _B64)
_OUTSIDE_G6 = re.compile(r"[^?-~]")


class Graph6Error(ValueError):
    """Malformed graph6 text at byte ``offset``, which ``str()`` appends once."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (byte {self.offset})"


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is one bitmask per vertex: bit v of ``adj[u]`` is set iff uv is
    an edge.  A loop is rejected at construction; a repeated edge is kept once.
    ``full_mask`` is the mask of all n vertices.  Equal graphs hash alike,
    so the engine's memos, keyed by value, serve every equal object; the
    hash is computed once, at construction, since every memo lookup asks.
    """

    __slots__ = ("n", "adj", "full_mask", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"graph order must be >= 1, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self.full_mask = (1 << n) - 1
        self._hash = hash((n, self.adj))

    @classmethod
    def _from_rows(cls, rows: Iterable[int]) -> "Graph":
        # Internal fast path; callers guarantee the rows are symmetric and
        # loop-free.
        g = object.__new__(cls)
        g.adj = tuple(rows)
        g.n = len(g.adj)
        g.full_mask = (1 << g.n) - 1
        g._hash = hash((g.n, g.adj))
        return g

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def _vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for order {self.n}")
        return v

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        # tested inline, not by _vertex: every force switch asks this twice
        if 0 <= u < self.n and 0 <= v < self.n:
            return bool(self.adj[u] >> v & 1)
        bad = v if 0 <= u < self.n else u
        raise ValueError(f"vertex {bad} out of range for order {self.n}")

    def neighbors(self, v: int) -> list[int]:
        return vlist(self.adj[self._vertex(v)])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                yield (u, v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())!r})"


# ---------------------------------------------------------------------------
# vertex-set helpers


def vset(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex ids."""
    mask = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"negative vertex id {v}")
        mask |= 1 << v
    return mask


def vlist(mask: int) -> list[int]:
    """Sorted list of the vertex ids in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def as_mask(g: Graph, vertices: int | Iterable[int]) -> int:
    """Normalize a vertex set (bitmask int or iterable of ids) to a bitmask.

    Membership in V(g) is checked here; all public operations funnel their
    vertex-set arguments through this.
    """
    mask = vertices if isinstance(vertices, int) else vset(vertices)
    if mask < 0 or mask & ~g.full_mask:
        raise ValueError(f"vertex set {mask:#x} not contained in 0..{g.n - 1}")
    return mask


# ---------------------------------------------------------------------------
# graph6


def _g6_header(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph order {n} beyond graph6 range (at most {GRAPH6_MAX_N})")
    return "~" + _g6_body(18, n)  # 18-bit header: '~' then three sextets


def _g6_body(nbits: int, body: int) -> str:
    # graph6 text of the nbits-bit int body, packed in whole base64 quanta
    nbytes = -(-nbits // 24) * 3
    raw = (body << 8 * nbytes - nbits).to_bytes(nbytes, "big")
    text = binascii.b2a_base64(raw, newline=False)[: (nbits + 5) // 6]
    return text.translate(_TO_G6).decode("ascii")


def write_graph6(g: Graph) -> str:
    """Serialize to a graph6 line (no trailing newline)."""
    header = _g6_header(g.n)  # refuses an order past GRAPH6_MAX_N before the body
    # column v, u = 0 first, is the low v bits of adj[v] reversed; the bit at
    # n keeps each binary text long enough
    top = 1 << g.n
    bits = "".join([bin(row | top)[:-v - 1:-1] for v, row in enumerate(g.adj)])
    return header + _g6_body(len(bits), int(bits or "0", 2))


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line.  Raises :class:`Graph6Error` with a byte offset."""
    s = text.rstrip("\n\r")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    if bad := _OUTSIDE_G6.search(s):
        raise Graph6Error(f"character {bad[0]!r} outside graph6 range", bad.start())
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph order beyond supported range", 0)
        if len(s) < 4:
            raise Graph6Error("truncated extended-order header", len(s))
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        pos = 4
        if n <= 62:
            raise Graph6Error("extended header used for small order", 0)
    else:
        n = ord(s[0]) - 63
        pos = 1
    if n < 1:
        raise Graph6Error(f"graph order must be >= 1, got {n}", 0)

    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - pos < nchars:
        raise Graph6Error("truncated graph6 body", len(s))
    if len(s) - pos > nchars:
        raise Graph6Error("trailing data after graph6 body", pos + nchars)

    # pad < 6, so the padding bits are the low bits of the last sextet
    pad = 6 * nchars - nbits
    if (ord(s[-1]) - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", pos + nchars - 1)
    # to base64 (a bytes table maps a str by code point), "A"-filled to 4k chars
    raw = binascii.a2b_base64(s[pos:].translate(_FROM_G6) + "A" * (-nchars % 4))
    # upper triangle, column-major: column v holds u = 0..v-1, u = 0 highest;
    # a window holds the `have` unread bits of raw[:i], so shifts stay small
    rows = [0] * n
    window = have = i = 0
    for v in range(1, n):
        while have < v:
            chunk = raw[i:i + 512]
            window &= (1 << have) - 1
            window = window << 8 * len(chunk) | int.from_bytes(chunk, "big")
            have += 8 * len(chunk)
            i += 512
        have -= v
        col = window >> have & (1 << v) - 1
        while col:
            low = col & -col
            col ^= low
            u = v - low.bit_length()
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph._from_rows(rows)


def read_graph6_lines(lines: Iterable[str]) -> Iterator[tuple[int, Graph]]:
    """Yield (line_number, Graph) from an iterable of graph6 lines.

    Blank lines and '#' comments are skipped.  Parse failures are re-raised
    with the 1-based line number prepended.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield lineno, parse_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc.args[0]}", exc.offset) from exc


# ---------------------------------------------------------------------------
# structural queries


def components(g: Graph, removed: int | Iterable[int] = 0) -> list[int]:
    """Connected components of g - removed, as masks ordered by least vertex."""
    rem = g.full_mask & ~as_mask(g, removed)
    adj = g.adj
    comps = []
    while rem:
        seed = rem & -rem
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def is_bridge(g: Graph, u: int, v: int, removed: int | Iterable[int] = 0) -> bool:
    """True iff uv is a bridge of g - removed: deleting it disconnects u from v.

    uv must be an edge of g with neither end in ``removed`` (ValueError).
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    keep = g.full_mask & ~as_mask(g, removed)
    ubit, vbit = 1 << u, 1 << v
    if not keep & ubit or not keep & vbit:
        raise ValueError(f"({u},{v}) has an end in the removed set")
    adj = g.adj
    # BFS from u without the edge uv: only its first step could take the
    # edge, and once v is reached by another path the answer is known
    frontier = adj[u] & keep & ~vbit
    seen = ubit | frontier
    while frontier and not seen & vbit:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & keep & ~seen
        seen |= frontier
    return not seen & vbit


def bridges(g: Graph, removed: int | Iterable[int] = 0) -> set[tuple[int, int]]:
    """All bridges of g - removed as (u, v) pairs with u < v, via DFS low-points.

    Vertices keep their ids in g, as in :func:`components`.
    """
    keep = g.full_mask & ~as_mask(g, removed)
    adj = g.adj
    disc = [0] * g.n  # 0: not yet discovered; discovery times start at 1
    low = [0] * g.n
    out: set[tuple[int, int]] = set()
    timer = 0
    roots = keep
    while roots:
        rbit = roots & -roots
        root = rbit.bit_length() - 1
        seen = rbit
        timer += 1
        disc[root] = low[root] = timer
        # iterative DFS; stack holds (vertex, parent, neighbours left as mask)
        stack = [(root, -1, adj[root] & keep)]
        while stack:
            v, parent, todo = stack[-1]
            lv = low[v]
            while todo:
                wbit = todo & -todo
                todo ^= wbit
                w = wbit.bit_length() - 1
                dw = disc[w]
                if not dw:
                    low[v] = lv
                    stack[-1] = (v, parent, todo)
                    timer += 1
                    disc[w] = low[w] = timer
                    seen |= wbit
                    stack.append((w, v, adj[w] & keep & ~(1 << v)))
                    break
                if dw < lv:
                    lv = dw
            else:
                # v is finished: lv is its low-point
                stack.pop()
                if parent != -1:
                    if lv < low[parent]:
                        low[parent] = lv
                    if lv > disc[parent]:
                        out.add((parent, v) if parent < v else (v, parent))
        roots &= ~seen
    return out


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph._from_rows(
        [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    )


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._from_rows(rows)


def induced_subgraph(g: Graph, keep: int | Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep`` plus the old->new vertex id mapping."""
    mask = as_mask(g, keep)
    if not mask:
        raise ValueError("cannot induce on an empty vertex set")
    old = vlist(mask)
    remap = {v: i for i, v in enumerate(old)}
    rows = [0] * len(old)
    for i, v in enumerate(old):
        row = g.adj[v] & mask
        while row:
            low = row & -row
            row ^= low
            rows[i] |= 1 << remap[low.bit_length() - 1]
    return Graph._from_rows(rows), remap
