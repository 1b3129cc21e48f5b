"""Canonical labeling and isomorph-free enumeration of small graphs.

The canonical label of a graph is the graph6 string of a distinguished
relabeling: vertices are grouped by iterated color refinement (cells ordered
by their refinement signature, which is invariant under relabeling), and the
label is the lexicographically least adjacency bit string over the
refinement-consistent permutations.  Two graphs of order <= CANON_MAX_N get
equal labels iff they are isomorphic.  The search builds that bit string
column by column in graph6's own order, so the label is packed straight from
the search's best columns.

Enumeration grows each class of order n-1 by one new vertex and keeps the
canonical labels of the children.  Two steps cut the children labelled, after
B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998:

* Orbits.  A parent P is grown by a neighbourhood mask only if the mask is
  the least of its orbit under a group of automorphisms of P: the twin
  swaps and the maps between tied leaves of P's canonical search.  Orbits
  are tested per candidate mask, one whose degree the key below allows.
  Masks in one orbit give children that are isomorphic by a map fixing the
  new vertex, so the tests answer the same for all of them and they share
  one label.  Orbits of a subgroup refine the Aut(P) orbits, so each Aut(P)
  orbit still keeps its least mask and no class is lost.
* Canonical deletion.  A child is kept only if its new vertex minimises the
  vertex invariant (degree, sorted neighbour degrees), compared as a tuple.
  This loses no class, because every graph has a vertex of minimal key,
  deleting it leaves a listed parent, and the key does not depend on the
  labelling.

The dedupe by canonical label remains, since children of different parents,
or with tied keys, can still be isomorphic.
"""

from __future__ import annotations

import functools
from typing import Iterator

# components is unused, but perfbench/tracing.py MANIFEST lists canon as an importer
from .graph import Graph, _g6_body, _g6_header, components, parse_graph6, write_graph6
from .engine import ConsistencyError

__all__ = [
    "CANON_MAX_N",
    "ENUM_MAX_N",
    "canonical_label",
    "enumerate_graphs",
]

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
    degs = [row.bit_count() for row in g.adj]
    rank = {c: i for i, c in enumerate(sorted(set(degs)))}
    colors = [rank[c] for c in degs]
    ncolors = len(rank)
    while ncolors < n:
        keys = [(colors[v], tuple(_sorted_nbr_values(g.adj[v], colors))) for v in range(n)]
        uniq = sorted(set(keys))
        if len(uniq) == ncolors:
            break
        rank = {k: i for i, k in enumerate(uniq)}
        colors = [rank[k] for k in keys]
        ncolors = len(uniq)
    cells: list[list[int]] = [[] for _ in range(ncolors)]
    for v in range(n):
        cells[colors[v]].append(v)
    return cells


def _canonical_search(g: Graph) -> tuple[list[list[int]], list[int]]:
    """The leaves (position -> original vertex) of the least bit string, and
    its columns.

    Column j of the relabeled adjacency matrix (entries against positions
    0..j-1, most significant first) is minimized position by position over
    all permutations that fill refinement cells in order.  Ties fan out;
    twin vertices are explored once.  Every leaf that reaches the least
    columns is returned, the first found first.  cols[1..n-1] are graph6's
    column-major upper triangle, so they are the label's body.
    """
    if g.n > CANON_MAX_N:
        raise ValueError(f"canonical labeling capped at order {CANON_MAX_N}, got {g.n}")
    n = g.n
    adj = g.adj
    best_cols: list[int] = []
    leaves: list[list[int]] = []
    perm: list[int] = []
    cols: list[int] = []

    def rec(ci: int, rem: list[list[int]]) -> None:
        j = len(perm)
        tight = False
        if leaves:  # each child carries its level's least column: cols <= best_cols[:j]
            tight = cols == best_cols[:j]
        if j == n:
            if not tight:
                best_cols[:] = cols
                leaves.clear()
            leaves.append(perm[:])
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
        scored.sort()
        mincol = scored[0][0]
        if tight and mincol > best_cols[j]:
            return
        chosen: list[int] = []
        for col, v in scored:
            if col != mincol:
                break
            key_closed = adj[v] | 1 << v
            if not any(adj[u] == adj[v] or (adj[u] | 1 << u) == key_closed for u in chosen):
                chosen.append(v)
        for v in chosen:
            nrem = rem.copy()
            nrem[ci] = [u for u in rem[ci] if u != v]
            perm.append(v)
            cols.append(mincol)
            rec(ci, nrem)
            perm.pop()
            cols.pop()

    rec(0, _refine_cells(g))
    return leaves, best_cols


def canonical_form(g: Graph) -> Graph:
    """A canonical isomorph of g: g relabeled by its search's first leaf."""
    return parse_graph6(canonical_label(g))


def canonical_label(g: Graph) -> str:
    """Canonical graph6 string; equal labels iff isomorphic graphs."""
    body = 0
    for v, col in enumerate(_canonical_search(g)[1]):
        body = body << v | col
    return _g6_header(g.n) + _g6_body(g.n * (g.n - 1) // 2, body)


# ---------------------------------------------------------------------------
# enumeration


def _new_vertex_has_min_key(rows: list[int]) -> bool:
    """Whether no vertex has a smaller (degree, sorted neighbour degrees) key
    than the last one; the caller guarantees that none has a smaller degree."""
    deg = [row.bit_count() for row in rows]
    last = len(rows) - 1
    d = deg[last]
    key = _sorted_nbr_values(rows[last], deg)
    return all(
        _sorted_nbr_values(rows[v], deg) >= key for v in range(last) if deg[v] == d
    )


def _image(mask: int, gen: list[int]) -> int:
    """The vertex set mask mapped through the permutation gen."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << gen[low.bit_length() - 1]
    return out


def _automorphism_generators(g: Graph) -> list[list[int]]:
    """Permutations (vertex -> vertex) that generate a subgroup of Aut(g):
    tau sigma^-1 for every leaf tau of g's canonical search that ties its
    first leaf sigma, and the swap of each vertex with its least twin (the
    search explores twins once, so it finds no leaf for that swap); each is
    checked to be an automorphism."""
    adj = g.adj
    leaves = _canonical_search(g)[0]
    gens = [[t for _, t in sorted(zip(leaves[0], tau))] for tau in leaves[1:]]
    for v in range(g.n):
        for u in range(v):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                gens.append([v if w == u else u if w == v else w for w in range(g.n)])
                break
    for gen in gens:
        if any(_image(adj[v], gen) != adj[gen[v]] for v in range(g.n)):
            raise ConsistencyError(f"generator {gen} is not an automorphism")
    return gens


def _least_of_orbit(mask: int, gens: list[list[int]]) -> bool:
    """Whether mask is the least vertex set of its orbit under the group the
    permutations gens generate; the walk stops at the first smaller image."""
    orbit = [mask]
    for x in orbit:  # grows while it is walked
        for gen in gens:
            y = _image(x, gen)
            if y < mask:
                return False
            if y not in orbit:  # a list: the orbits of masks of parents this small are short
                orbit.append(y)
    return True


@functools.lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[str, ...]:
    # Grow order n from order n-1 by attaching a new vertex, then dedupe by
    # canonical label.  A child is labelled only if its neighbourhood is the
    # least of its orbit and its new vertex minimises the invariant key
    # (degree, sorted neighbour degrees).  Completeness: every order-n graph
    # G has a vertex v of minimal key; G - v is isomorphic to a listed
    # parent P, and the child of P built from the image of N(v) is
    # isomorphic to G with the new vertex in v's place, so its key is
    # minimal too.  The least mask of that image's orbit passes the same
    # degree pre-check, and its child, isomorphic by a map fixing the new
    # vertex, is kept.
    if n == 1:
        return (write_graph6(Graph(1)),)
    new = n - 1
    out: set[str] = set()
    for lab in _iso_classes(n - 1):
        parent = parse_graph6(lab)
        adj = parent.adj
        gens = _automorphism_generators(parent)
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
            if d > max_d or (d and at_deg[d - 1] & ~nbhd) or not _least_of_orbit(nbhd, gens):
                continue
            rows = [row | (nbhd >> v & 1) << new for v, row in enumerate(adj)]
            rows.append(nbhd)
            if _new_vertex_has_min_key(rows):
                out.add(canonical_label(Graph._from_rows(rows)))
    return tuple(sorted(out))


def _enumerable(n: int) -> int:
    """n, if enumerate_graphs lists order n; else ValueError."""
    if not 1 <= n <= ENUM_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUM_MAX_N}, got {n}")
    return n


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of order n.

    Representatives are canonical forms, streamed in sorted label order.
    """
    for lab in _iso_classes(_enumerable(n)):
        yield parse_graph6(lab)
