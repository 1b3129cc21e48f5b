"""Canonical labeling and isomorph-free enumeration of small graphs.

The canonical label of a graph is the graph6 string of a distinguished
relabeling: vertices are grouped by iterated color refinement (cells ordered
by their refinement signature, which is invariant under relabeling), and the
label is the lexicographically least adjacency bit string over the
refinement-consistent permutations.  Two graphs of order <= CANON_MAX_N get
equal labels iff they are isomorphic.

Enumeration grows each class of order n-1 by one new vertex and keeps the
canonical labels of the children.  Most children are rejected before they are
labelled, by canonical deletion (B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998): a child is kept only if its new vertex
minimises the vertex invariant (degree, sorted neighbour degrees), compared as
a tuple.  This loses no class, because every graph has a vertex of minimal
key, deleting it leaves a listed parent, and the key does not depend on the
labelling.  The dedupe by canonical label remains, since children of
different parents, or with tied keys, can still be isomorphic.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .graph import Graph, components, parse_graph6, write_graph6

CANON_MAX_N = 10
ENUM_MAX_N = 8


def _sorted_nbr_values(row: int, values: list[int]) -> list[int]:
    """values[u] for every vertex u in the bitmask row, sorted."""
    out = []
    while row:
        low = row & -row
        row ^= low
        out.append(values[low.bit_length() - 1])
    out.sort()
    return out


def _refine_cells(g: Graph) -> list[list[int]]:
    """Partition vertices by iterated neighbor-color refinement.

    Cells come back ordered by their color signature, so the ordering is the
    same for every relabeling of g.
    """
    n = g.n
    colors = [g.degree(v) for v in range(n)]
    ranks = sorted(set(colors))
    colors = [ranks.index(c) for c in colors]
    while True:
        keys = [(colors[v], tuple(_sorted_nbr_values(g.adj[v], colors))) for v in range(n)]
        uniq = sorted(set(keys))
        new = [uniq.index(k) for k in keys]
        if len(uniq) == len(set(colors)):
            break
        colors = new
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def _canonical_perm(g: Graph) -> list[int]:
    """Permutation (position -> original vertex) minimizing the bit string.

    Column j of the relabeled adjacency matrix (entries against positions
    0..j-1, most significant first) is minimized position by position over
    all permutations that fill refinement cells in order.  Ties fan out;
    twin vertices are explored once.
    """
    n = g.n
    adj = g.adj
    cells = _refine_cells(g)

    best_cols: list[int] = []
    best_perm: list[int] = []
    found = False
    perm: list[int] = []
    cols: list[int] = []

    def rec(ci: int, rem: list[list[int]]) -> None:
        nonlocal found
        j = len(perm)
        if found:
            head = best_cols[:j]
            if cols > head:
                return
            tight = cols == head
        else:
            tight = False
        if j == n:
            if not found or cols < best_cols:
                best_cols[:] = cols
                best_perm[:] = perm
                found = True
            return
        while not rem[ci]:
            ci += 1
        scored = []
        for v in rem[ci]:
            av = adj[v]
            col = 0
            for u in perm:
                col = col << 1 | (av >> u & 1)
            scored.append((col, v))
        mincol = min(scored)[0]
        if tight and mincol > best_cols[j]:
            return
        chosen = []
        twins: list[int] = []
        for col, v in sorted(scored):
            if col != mincol:
                break
            key_closed = adj[v] | 1 << v
            if any(adj[u] == adj[v] or (adj[u] | 1 << u) == key_closed for u in twins):
                continue
            twins.append(v)
            chosen.append(v)
        for v in chosen:
            nrem = [c if v not in c else [u for u in c if u != v] for c in rem]
            perm.append(v)
            cols.append(mincol)
            rec(ci, nrem)
            perm.pop()
            cols.pop()

    rec(0, cells)
    return best_perm


def canonical_form(g: Graph, max_n: int | None = None) -> Graph:
    """A canonical isomorph of g (same graph for all relabelings of g)."""
    cap = CANON_MAX_N if max_n is None else max_n
    if g.n > cap:
        raise ValueError(f"canonical labeling capped at order {cap}, got {g.n}")
    perm = _canonical_perm(g)
    rows = [0] * g.n
    for i, v in enumerate(perm):
        av = g.adj[v]
        for jj, w in enumerate(perm):
            if av >> w & 1:
                rows[i] |= 1 << jj
    return Graph._from_rows(rows)


def canonical_label(g: Graph, max_n: int | None = None) -> str:
    """Canonical graph6 string; equal labels iff isomorphic graphs."""
    return write_graph6(canonical_form(g, max_n))


# ---------------------------------------------------------------------------
# enumeration


def _new_vertex_has_min_key(rows: list[int]) -> bool:
    """Whether no vertex has a smaller (degree, sorted neighbour degrees) key
    than the last one."""
    deg = [row.bit_count() for row in rows]
    last = len(rows) - 1
    d = deg[last]
    if min(deg) < d:
        return False
    key = _sorted_nbr_values(rows[last], deg)
    return all(
        _sorted_nbr_values(rows[v], deg) >= key for v in range(last) if deg[v] == d
    )


@functools.lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[str, ...]:
    # Grow order n from order n-1 by attaching a new vertex, then dedupe by
    # canonical label.  A child is labelled only if its new vertex minimises
    # the invariant key (degree, sorted neighbour degrees).  Completeness:
    # every order-n graph G has a vertex v of minimal key; G - v is
    # isomorphic to a listed parent P, and the child of P built from the
    # image of N(v) is isomorphic to G with the new vertex in v's place, so
    # its key is minimal too and the child is kept.
    if n == 1:
        return (write_graph6(Graph(1)),)
    new = n - 1
    out: set[str] = set()
    for lab in _iso_classes(n - 1):
        adj = parse_graph6(lab).adj
        # at_deg[k]: parent vertices of degree k.  A new vertex of degree d
        # is not beaten on degree alone iff no parent vertex has degree
        # below d - 1 and every parent vertex of degree d - 1 is adjacent
        # to it.
        at_deg = [0] * n
        for v, row in enumerate(adj):
            at_deg[row.bit_count()] |= 1 << v
        max_d = min(row.bit_count() for row in adj) + 1
        for nbhd in range(1 << new):
            d = nbhd.bit_count()
            if d > max_d or (d and at_deg[d - 1] & ~nbhd):
                continue
            rows = [row | (nbhd >> v & 1) << new for v, row in enumerate(adj)]
            rows.append(nbhd)
            if _new_vertex_has_min_key(rows):
                out.add(canonical_label(Graph._from_rows(rows)))
    return tuple(sorted(out))


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of order n.

    Representatives are canonical forms, streamed in sorted label order.
    """
    if not 1 <= n <= ENUM_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_MAX_N}, got {n}")
    for lab in _iso_classes(n):
        g = parse_graph6(lab)
        if connected_only and len(components(g)) > 1:
            continue
        yield g
