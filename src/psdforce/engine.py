"""Positive-semidefinite forcing: the color-change rule and exact invariants.

The rule: with blue set B, let W1..Wt be the components of G - B.  A blue
vertex u forces a white vertex w at this step iff w is the only white
neighbor of u inside some component Wi (u may force once per component).
Propagation is synchronous: every forceable vertex turns blue at once, and
the round count of a successful run is the propagation time of B.

A set that never stalls is a forcing set.  There is no numeric sentinel for
"never finishes": failed runs are reported as such, and the size-k optimum
raises :class:`NoForcingSetError` when no size-k forcing set exists.

Every exact optimum rests on one size-k scan, ``_scan_size_k``, whose result
is memoised on the :class:`Graph` object it was asked about (the private
``_scans`` slot).  Z+, pt+, pt+(G, k) and throttling on one object therefore
scan each size once between them; an equal but distinct object starts
empty.

Each exact entry point has one budget per call, ``max_subsets`` sets
propagated, and reaches its sizes through ``_budgeted_scans``.  Size k is
charged C(n - i, k - i) before it is scanned, i the number of isolated
vertices: the scan propagates at most the supersets of the isolated set.
Over budget, :class:`CapExceededError` is raised before the scan.  Memoised
sizes are charged too, so whether a call is refused never depends on what
earlier calls scanned.

Sizes that provably hold no forcing set are neither scanned nor charged.
Barioli, Barrett, Fallat, Hall, Hogben, Shader, van den Driessche and van
der Holst ("Parameters related to tree-width, zero forcing, and maximum
nullity of a graph", J. Graph Theory 2013) prove tw(G) <= Z+(G), and the
treewidth is at least the degeneracy.  Z+ adds over components and is at
least 1 on each, so no set smaller than L(G), the sum over components C of
max(1, degeneracy(C)), forces (``_z_lower_bound``).  The rule that sizes
below the isolated-vertex count cannot force is the special case where each
isolated vertex is a component counting 1.  Like the scans, L(G) is
computed once per object.  The paper's own bound ceil((n - k)/2) is never
used to limit a scan: the scans are what check it.

Per-component times need no induced subgraph.  For a forcing set B and a
component C of G - B, run the rule in G from V - C: C is the only white
component, and every blue vertex outside C ∪ B lies in another component
of G - B, so it has no neighbour in C and forces nothing.  Each round then
forces exactly what B forces inside G[C ∪ B], and the times agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator

# induced_subgraph is unused here, but perfbench/tracing.py MANIFEST lists
# engine as one of its importers and fails on a missing binding.
from .graph import Graph, as_mask, components, induced_subgraph, vlist

DEFAULT_MAX_SUBSETS = 10**6  # sets one exact search call may propagate


class CapExceededError(RuntimeError):
    """The requested exact search is larger than its subset budget."""


class NoForcingSetError(ValueError):
    """No forcing set satisfies the requested size constraint."""


class NotForcingError(ValueError):
    """The supplied blue set does not force the whole graph."""


@dataclass(frozen=True)
class ForceEvent:
    """One performed force: ``forcer`` turned ``target`` blue at ``step`` (1-based)."""

    forcer: int
    target: int
    step: int


@dataclass(frozen=True)
class PropagationSchedule:
    """Full record of one synchronous run.

    ``rounds[i]`` is the mask of vertices forced at step i+1; rounds are
    disjoint, nonempty, and disjoint from ``initial``.  ``assignments`` holds
    one ForceEvent per forced vertex (a vertex forceable by several blues is
    assigned the least-id forcer).  ``succeeded`` is False iff the run
    stalled with white vertices left.
    """

    n: int
    initial: int
    rounds: tuple[int, ...]
    assignments: tuple[ForceEvent, ...]
    succeeded: bool

    @property
    def steps(self) -> int:
        """Number of synchronous rounds performed (the propagation time when
        the run succeeded)."""
        return len(self.rounds)

    @property
    def final(self) -> int:
        return self.initial | sum(self.rounds)  # the rounds are disjoint

    @property
    def residual_white(self) -> int:
        return ((1 << self.n) - 1) & ~self.final


# ---------------------------------------------------------------------------
# core rule


def _force_round(adj: tuple[int, ...], blue: int, full: int) -> int:
    """Mask of every vertex forceable in one synchronous step.

    Walks the white components one at a time; a blue neighbour u of a
    component C forces the single vertex of adj[u] & C when there is one
    (never none: u has a neighbour in C).
    """
    forced = 0
    rem = full & ~blue
    while rem:
        comp = frontier = rem & -rem
        rem ^= comp
        nbrs = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            nbrs |= nxt
            frontier = nxt & rem
            rem ^= frontier
            comp |= frontier
        bm = blue & nbrs
        while bm:
            low = bm & -bm
            bm ^= low
            x = adj[low.bit_length() - 1] & comp
            if not x & (x - 1):
                forced |= x
    return forced


def _pt_mask(
    adj: tuple[int, ...], n: int, blue: int, limit: int | None = None
) -> int | None:
    """Propagation time of a blue mask, or None if it is not a forcing set.

    With ``limit``, also None when the set needs more than ``limit`` rounds.
    Without it the limit is n, which no forcing set reaches.
    """
    full = (1 << n) - 1
    if limit is None:
        limit = n
    t = 0
    while blue != full:
        if t == limit:
            return None
        f = _force_round(adj, blue, full)
        if not f:
            return None
        blue |= f
        t += 1
    return t


def forceable(g: Graph, blue: int | Iterable[int]) -> list[tuple[int, int]]:
    """All valid forces (forcer, target) for the current blue set.

    Ordered by target then forcer.  Includes every valid pair, so one target
    may appear with several forcers.
    """
    mask = as_mask(g, blue)
    adj = g.adj
    pairs = []
    rem = g.full_mask & ~mask
    while rem:
        comp = frontier = rem & -rem
        rem ^= comp
        nbrs = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            nbrs |= nxt
            frontier = nxt & rem
            rem ^= frontier
            comp |= frontier
        bm = mask & nbrs
        while bm:
            low = bm & -bm
            bm ^= low
            u = low.bit_length() - 1
            x = adj[u] & comp
            if not x & (x - 1):
                pairs.append((u, x.bit_length() - 1))
    # Each component appends its forcers in increasing order and a target
    # lies in one component, so a stable sort by target orders by forcer too.
    pairs.sort(key=itemgetter(1))
    return pairs


def propagate(g: Graph, initial: int | Iterable[int]) -> PropagationSchedule:
    """Run the synchronous process to stall or completion."""
    start = as_mask(g, initial)
    blue = start
    full = g.full_mask
    rounds: list[int] = []
    events: list[ForceEvent] = []
    step = 0
    while blue != full:
        step += 1
        pairs = forceable(g, blue)
        if not pairs:
            break
        forced = 0
        for u, w in pairs:
            wbit = 1 << w
            if not forced & wbit:
                # least-id forcer wins: pairs are sorted by (target, forcer)
                events.append(ForceEvent(u, w, step))
                forced |= wbit
        rounds.append(forced)
        blue |= forced
    return PropagationSchedule(
        n=g.n,
        initial=start,
        rounds=tuple(rounds),
        assignments=tuple(events),
        succeeded=blue == full,
    )


def is_psd_forcing_set(g: Graph, blue: int | Iterable[int]) -> bool:
    return _pt_mask(g.adj, g.n, as_mask(g, blue)) is not None


@dataclass(frozen=True)
class ForcingForest:
    """Vertex partition induced by the assigned forces of a successful run.

    ``trees[b]`` is the mask of vertices whose forcing chain starts at the
    initial vertex b (b included); ``edges[b]`` are the (forcer, target)
    force edges inside that tree.
    """

    roots: tuple[int, ...]
    trees: dict[int, int]
    edges: dict[int, tuple[tuple[int, int], ...]]


def forcing_forest(g: Graph, schedule: PropagationSchedule) -> ForcingForest:
    """Group the assigned forces of a successful schedule by initial vertex."""
    if not schedule.succeeded:
        raise NotForcingError("schedule did not force the whole graph")
    root_of: dict[int, int] = {v: v for v in vlist(schedule.initial)}
    tree_edges: dict[int, list[tuple[int, int]]] = {v: [] for v in root_of}
    for ev in schedule.assignments:
        root = root_of[ev.forcer]
        root_of[ev.target] = root
        tree_edges[root].append((ev.forcer, ev.target))
    trees = {r: 0 for r in tree_edges}
    for v, r in root_of.items():
        trees[r] |= 1 << v
    return ForcingForest(
        roots=tuple(sorted(tree_edges)),
        trees=trees,
        edges={r: tuple(es) for r, es in tree_edges.items()},
    )


# ---------------------------------------------------------------------------
# exact optima


def _isolated_mask(g: Graph) -> int:
    mask = 0
    for v, row in enumerate(g.adj):
        if not row:
            mask |= 1 << v
    return mask


def _scan_size_k(g: Graph, k: int) -> tuple[int, int] | None:
    """Best (pt, witness_mask) over size-k blue sets, or None if none forces.

    The witness is the lexicographically least minimizer (as a sorted vertex
    tuple).  ``combinations`` yields the free vertices' subsets in that order,
    and adding the isolated set to all of them keeps it (for equal-size sets
    the least vertex of the symmetric difference decides).  So the scan keeps
    the first strict improvement: after a forcing set of time t, later sets
    are propagated for at most t - 1 rounds, and a time of 1 ends the scan
    (only the full set is faster).  Isolated vertices can never be forced,
    so only supersets of them are scanned.  The result is memoised on ``g``.
    """
    memo = g._scans
    if memo is None:
        memo = g._scans = {}
    elif k in memo:
        return memo[k]
    adj, n = g.adj, g.n
    iso = _isolated_mask(g)
    niso = iso.bit_count()
    best: tuple[int, int] | None = None
    if k >= niso:
        bits = [1 << v for v in range(n) if not iso >> v & 1]
        limit = None
        for extra in combinations(bits, k - niso):
            mask = iso + sum(extra)
            pt = _pt_mask(adj, n, mask, limit)
            if pt is not None:
                best = (pt, mask)
                if pt <= 1:  # only the full set is faster, and it has size n
                    break
                limit = pt - 1
    memo[k] = best
    return best


def _degeneracy(adj: tuple[int, ...], mask: int) -> int:
    """Degeneracy of the subgraph induced on ``mask``.

    Peels one vertex at a time over bitmasks.  A vertex of degree at most d,
    the largest least degree met so far, may go at once; when none is left,
    d rises to the least degree.
    """
    d = 0
    while mask:
        least = mask.bit_count()  # above every degree in the subgraph
        m = mask
        while m:
            low = m & -m
            m ^= low
            deg = (adj[low.bit_length() - 1] & mask).bit_count()
            if deg <= d:
                mask ^= low
                break
            if deg < least:
                least = deg
        else:
            d = least
    return d


def _z_lower_bound(g: Graph) -> int:
    """L(G): the sum over components of max(1, degeneracy), at most Z+(G).

    See the module docstring for the proof.
    """
    return sum(max(1, _degeneracy(g.adj, comp)) for comp in components(g))


def _budgeted_scans(
    g: Graph, ks: Iterable[int], max_subsets: int | None = None
) -> Iterator[tuple[int, tuple[int, int] | None]]:
    """Yield (k, ``_scan_size_k(g, k)``) for each k, charging one budget.

    Sizes below ``_z_lower_bound(g)`` yield None unscanned and uncharged.
    See the module docstring for the charge.  The isolated-vertex count and
    the lower bound are computed once per object (the ``_floor`` slot).
    """
    cap = DEFAULT_MAX_SUBSETS if max_subsets is None else max_subsets
    if g._floor is None:
        g._floor = (_isolated_mask(g).bit_count(), _z_lower_bound(g))
    niso, floor = g._floor
    spent = 0
    for k in ks:
        if k < floor:
            yield k, None
            continue
        spent += math.comb(g.n - niso, k - niso)
        if spent > cap:
            raise CapExceededError(
                f"sizes up to {k} need {spent} subsets, over the budget {cap}; raise max_subsets to override"
            )
        yield k, _scan_size_k(g, k)


def _z_and_pt(g: Graph, max_subsets: int | None = None) -> tuple[int, int, int]:
    """(Z, pt, witness): least forcing-set size, its best time, one witness."""
    for k, got in _budgeted_scans(g, range(1, g.n + 1), max_subsets):
        if got is not None:
            return k, got[0], got[1]
    raise AssertionError("the full vertex set always forces")


def psd_zero_forcing_number(
    g: Graph, *, max_subsets: int | None = None
) -> tuple[int, int]:
    """Least size of a forcing set, with one witness mask."""
    z, _, witness = _z_and_pt(g, max_subsets)
    return z, witness


def pt_plus_k(
    g: Graph, k: int, *, max_subsets: int | None = None
) -> tuple[int, int]:
    """Best propagation time over blue sets of size exactly k, with witness.

    Raises :class:`NoForcingSetError` if no size-k set forces (distinct from
    the budget error).
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"k must be in 0..{g.n}, got {k}")
    _, got = next(_budgeted_scans(g, (k,), max_subsets))
    if got is None:
        raise NoForcingSetError(f"no forcing set of size {k}")
    return got


def pt_plus(
    g: Graph, *, max_subsets: int | None = None
) -> tuple[int, int]:
    """Propagation time of the graph: best time over minimum forcing sets.

    Returns (pt, witness_mask); the witness is a minimum forcing set
    achieving it.
    """
    _, pt, witness = _z_and_pt(g, max_subsets)
    return pt, witness


def component_pt(g: Graph, blue: int | Iterable[int]) -> list[tuple[int, int]]:
    """Per-component times: (component_mask, time) for each component of G - B.

    The time of component C is the propagation time of B inside the subgraph
    induced on C plus B.  Components come back ordered by least vertex; the
    whole-graph time equals the max of the per-component times.
    """
    mask = as_mask(g, blue)
    adj, n = g.adj, g.n
    if _pt_mask(adj, n, mask) is None:
        raise NotForcingError("blue set does not force the graph")
    out = []
    for comp in components(g, mask):
        # same rounds as B inside G[comp + B]: see the module docstring
        pt = _pt_mask(adj, n, g.full_mask & ~comp)
        assert pt is not None, "a forcing set forces every component"
        out.append((comp, pt))
    return out
