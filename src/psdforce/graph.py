"""Bitset-backed simple graphs, graph6 serialization, and structural queries.

Vertices are the integers 0..n-1.  A vertex set is an int used as a bitmask
(bit v set means vertex v is a member); ``vset`` and ``vlist`` convert between
masks and vertex collections.  Graphs are immutable: every operation that
changes structure returns a new :class:`Graph`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

# Largest order accepted by the graph6 parser (the 8-byte header form is
# deliberately not supported).
GRAPH6_MAX_N = 262143


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is one bitmask per vertex: bit v of ``adj[u]`` is set iff uv is
    an edge.  Loops and multi-edges are rejected at construction.
    ``full_mask`` is the mask of all n vertices.  ``_scans`` and ``_floor``
    are the engine's per-object memos of size-k scans and of the scan floor
    (None until first needed); they are not part of the graph's value.
    """

    __slots__ = ("n", "adj", "full_mask", "_scans", "_floor")

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
        self._scans = self._floor = None

    @classmethod
    def _from_rows(cls, rows: Iterable[int]) -> "Graph":
        # Internal fast path; callers guarantee the rows are symmetric and
        # loop-free.
        g = object.__new__(cls)
        g.adj = tuple(rows)
        g.n = len(g.adj)
        g.full_mask = (1 << g.n) - 1
        g._scans = g._floor = None
        return g

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return vlist(self.adj[v])

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
        return hash((self.n, self.adj))

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
    # 18-bit header: '~' then three sextets, most significant first.
    return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))


def write_graph6(g: Graph) -> str:
    """Serialize to a graph6 line (no trailing newline)."""
    out = [_g6_header(g.n)]
    buf = 0
    nbits = 0
    for v in range(1, g.n):
        col = g.adj[v]
        for u in range(v):
            buf = buf << 1 | (col >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + buf))
                buf = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line.  Raises :class:`Graph6Error` with a byte offset."""
    s = text.rstrip("\n\r")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range", i)
    pos = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph order beyond supported range", 0)
        if len(s) < 4:
            raise Graph6Error("truncated extended-order header", len(s))
        n = 0
        for i in range(1, 4):
            n = n << 6 | (ord(s[i]) - 63)
        pos = 4
        if n <= 62:
            raise Graph6Error("extended header used for small order", 0)
    else:
        n = ord(s[0]) - 63
        pos = 1
    if n < 1:
        raise Graph6Error(f"graph order must be >= 1, got {n}", 0)
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"graph order {n} beyond supported range", 0)

    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - pos < nchars:
        raise Graph6Error("truncated graph6 body", len(s))
    if len(s) - pos > nchars:
        raise Graph6Error("trailing data after graph6 body", pos + nchars)

    rows = [0] * n
    bit = 0
    for i in range(nchars):
        val = ord(s[pos + i]) - 63
        for j in range(5, -1, -1):
            if bit >= nbits:
                if val >> j & 1:
                    raise Graph6Error("nonzero padding bits", pos + i)
                continue
            if val >> j & 1:
                # upper triangle, column-major: bit index -> (u, v)
                v = _col_of(bit)
                u = bit - v * (v - 1) // 2
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
    return Graph._from_rows(rows)


def _col_of(bit: int) -> int:
    # Smallest v with v*(v-1)/2 > bit, minus ... i.e. the column v such that
    # v*(v-1)/2 <= bit < v*(v+1)/2.
    v = int(((8 * bit + 1) ** 0.5 + 1) / 2)
    while v * (v - 1) // 2 > bit:
        v -= 1
    while (v + 1) * v // 2 <= bit:
        v += 1
    return v


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


def is_bridge(g: Graph, u: int, v: int) -> bool:
    """True iff removing edge uv disconnects u from v."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    ubit, vbit = 1 << u, 1 << v
    seen = ubit
    frontier = ubit
    adj = g.adj
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            w = low.bit_length() - 1
            row = adj[w]
            if w == u:
                row &= ~vbit
            elif w == v:
                row &= ~ubit
            nxt |= row
        frontier = nxt & ~seen
        seen |= frontier
        if seen & vbit:
            return False
    return True


def bridges(g: Graph, removed: int | Iterable[int] = 0) -> set[tuple[int, int]]:
    """All bridges of g - removed as (u, v) pairs with u < v, via DFS low-points.

    Vertices keep their ids in g, as in :func:`components`.
    """
    keep = g.full_mask & ~as_mask(g, removed)
    adj = g.adj
    disc = [-1] * g.n
    low = [0] * g.n
    out: set[tuple[int, int]] = set()
    timer = 0
    for root in vlist(keep):
        if disc[root] != -1:
            continue
        # iterative DFS; stack holds (vertex, parent, iterator state as mask)
        stack = [(root, -1, adj[root] & keep)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, todo = stack[-1]
            if todo:
                wbit = todo & -todo
                stack[-1] = (v, parent, todo ^ wbit)
                w = wbit.bit_length() - 1
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, adj[w] & keep & ~(1 << v)))
                else:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.add((min(parent, v), max(parent, v)))
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
