"""Slow reference implementations used to cross-check the fast code.

Everything here works on plain Python sets and dicts straight from the
definitions, shares no code or data layout with the package internals, and
prefers clarity over speed.
"""

from itertools import combinations, permutations


def ref_adj(n, edges):
    adj = {v: set() for v in range(n)}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    return adj


def ref_components(adj, vertices):
    """Vertex sets of the components of the subgraph induced on `vertices`."""
    left = set(vertices)
    comps = []
    while left:
        seed = left.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w in left:
                    left.remove(w)
                    comp.add(w)
                    frontier.append(w)
        comps.append(comp)
    return comps


def ref_first_forces(adj, n, blue):
    """All valid forces (forcer, target) for the given blue set.

    A blue u forces the white w iff w is u's only white neighbor inside w's
    component of the white subgraph.
    """
    blue = set(blue)
    white = set(range(n)) - blue
    out = set()
    for comp in ref_components(adj, white):
        for u in blue:
            cand = adj[u] & comp
            if len(cand) == 1:
                out.add((u, next(iter(cand))))
    return out


def ref_round(adj, n, blue):
    """Vertices forced by one synchronous round."""
    return {w for _, w in ref_first_forces(adj, n, blue)}


def ref_pt(adj, n, blue):
    """Rounds until everything is blue, or None if the set never forces."""
    blue = set(blue)
    t = 0
    while len(blue) < n:
        forced = ref_round(adj, n, blue)
        if not forced:
            return None
        blue |= forced
        t += 1
    return t


def ref_z_and_pt(adj, n):
    """(Z+, pt+) by scanning all subsets in ascending size."""
    for k in range(n + 1):
        times = [
            t
            for sub in combinations(range(n), k)
            if (t := ref_pt(adj, n, set(sub))) is not None
        ]
        if times:
            return k, min(times)
    raise AssertionError("the full vertex set always forces")


def ref_radius(adj, n):
    """Least eccentricity of a connected graph, by breadth-first search."""

    def ecc(v):
        seen = frontier = {v}
        t = 0
        while len(seen) < n:
            frontier = {w for u in frontier for w in adj[u]} - seen
            seen = seen | frontier
            t += 1
        return t

    return min(ecc(v) for v in range(n))


def ref_isomorphic(n1, edges1, n2, edges2):
    """Brute-force isomorphism test with a degree-sequence quick reject."""
    if n1 != n2:
        return False
    e1 = {frozenset(e) for e in edges1}
    e2 = {frozenset(e) for e in edges2}
    if len(e1) != len(e2):
        return False

    def degrees(es):
        d = [0] * n1
        for e in es:
            for v in e:
                d[v] += 1
        return d

    if sorted(degrees(e1)) != sorted(degrees(e2)):
        return False
    for perm in permutations(range(n1)):
        if all(frozenset({perm[u], perm[w]}) in e2 for u, w in map(tuple, e1)):
            return True
    return False


def ref_graph6(n, edges):
    """graph6 text from the format's definition (B. D. McKay, formats.txt).

    The order is one byte 63 + n below 63, else '~' then n in three sextets.
    The body lists x(u, v) for v = 1..n-1 and u = 0..v-1 as bits, pads them
    with zeros to a multiple of six and writes each sextet x as chr(63 + x).
    """
    edge_set = {frozenset(e) for e in edges}
    if n <= 62:
        header = [n]
    else:
        header = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    bits = [int(frozenset((u, v)) in edge_set) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    sextets = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in header + sextets)
