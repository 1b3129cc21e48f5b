"""Positive-semidefinite forcing: the color-change rule and exact invariants.

The rule: with blue set B, let W1..Wt be the components of G - B.  A blue
vertex u forces a white vertex w at this step iff w is the only white
neighbor of u inside some component Wi (u may force once per component).
Propagation is synchronous: every forceable vertex turns blue at once, and
the round count of a successful run is the propagation time of B.

A set that never stalls is a forcing set.  There is no numeric sentinel for
"never finishes": failed runs are reported as such, and the size-k optimum
raises :class:`NoForcingSetError` when no size-k forcing set exists.

The engine's memos are bounded LRU caches keyed by graph value, so equal
graphs share them.  Every exact optimum rests on one size-k scan,
``_scan_size_k(g, k)``: Z+, pt+, pt+(G, k) and throttling scan each size
once between them.  ``_set_time`` keeps the unlimited propagation time of
one blue mask for every single-set question; the scans' round-limited
``_pt_mask`` calls rarely repeat and are not kept.

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
computed once per graph.  The paper's own bound ceil((n - k)/2) is never
used to limit a scan: the scans are what check it.

Per-component times need no induced subgraph.  For a forcing set B and a
component C of G - B, run the rule in G from V - C: C is the only white
component, and every blue vertex outside C ∪ B lies in another component
of G - B, so it has no neighbour in C and forces nothing.  Each round then
forces exactly what B forces inside G[C ∪ B], and the times agree.

The same runs tell whether B forces at all, so ``component_pt`` needs no
whole-set propagation first.  Forcing inside different components of G - B
never interacts: every component of a later white set lies inside one
component of G - B, and a blue vertex's force into it depends on that
component alone.  The run from V - C does exactly what B does inside
G[C ∪ B], so B forces G exactly when every per-component run completes.

The same locality stops a propagation at its first dead component: with B
the blue set of some round, a component C of G - B into which no vertex of
B forces.  All of C's outside neighbours are in B, so until a vertex of C
turns blue, C stays a white component with the same blue neighbours, whose
forces into C depend on C alone: there are none.  A vertex of C turns blue
only by such a force, so none ever does, and the run never completes.

Forcing is decided without propagation by forts.  A *connected PSD fort*
is a nonempty vertex set C with G[C] connected such that no vertex outside
C has exactly one neighbour in C.  Lemma: a blue set S forces G iff S meets
every connected PSD fort.  (If) Suppose S stalls, and let C be a component
of the final white set.  A white vertex outside C lies in another white
component, so it has no neighbour in C.  A blue vertex with exactly one
neighbour in C would force it, so it has none or at least two.  C is a
fort that S misses.  (Only if) Let C be a fort inside V - S, and suppose
some vertex of C turns blue; let x be one forced in the first such round,
by u.  At that round's start u is blue, so outside C, and C is white and
connected, so it lies inside x's white component, where x is u's only
white neighbour.  So x is u's only neighbour in C, against C being a
fort: no vertex of C ever turns blue, and S does not force.
``_forcing_table`` builds the answer for all 2^n masks at once (the fort
view of standard zero forcing is Brimkov, Fast and Hicks, EJOR 2019), and
the scans propagate only the sets it approves: a set that does not force
has no time to offer.

Once a scan has a time-2 set, only a set that forces in one round can beat
it.  Lemma: if S forces G in at most one round, every vertex x outside S
has a neighbour u in S whose common neighbours with x all lie in S.
(Proof) Some u in S forces x in round 1, so x is u's only neighbour in x's
white component C.  A white common neighbour y of u and x is adjacent to
x, so y lies in C, and u has a second neighbour in C: a contradiction.
``_one_round_table`` builds this condition for all 2^n masks at once.  A
set whose bit is clear would return None under a limit of one round, so
skipping it changes no answer, witness or charge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator

# induced_subgraph is unused here, but perfbench/tracing.py MANIFEST lists
# engine as one of its importers and fails on a missing binding.
from .graph import Graph, as_mask, components, induced_subgraph, vlist

__all__ = [
    "DEFAULT_MAX_SUBSETS",
    "CapExceededError",
    "ConsistencyError",
    "ForceEvent",
    "ForcingForest",
    "NoForcingSetError",
    "NotForcingError",
    "PropagationSchedule",
    "component_pt",
    "forceable",
    "forcing_forest",
    "is_psd_forcing_set",
    "propagate",
    "psd_zero_forcing_number",
    "pt_plus",
    "pt_plus_k",
]

DEFAULT_MAX_SUBSETS = 10**6  # sets one exact search call may propagate
_SCAN_MEMO_SIZE = 256  # (graph, k) scans, graph floors and one-round tables kept
_SET_TIME_MEMO_SIZE = 1 << 12  # blue-mask times kept: all masks of an order-12 graph
# Largest order given a forcing table (BENCH_fort_plane.json).  A table costs
# 0.16 ms at order 12 and 2.0 ms at 16; the scan memo pins up to 256 of them,
# 2 MB at order 16 and twice as much for each order above.  The one-round
# table memo pins as many again.
_FORT_MAX_N = 16


class ConsistencyError(RuntimeError):
    """An internally asserted invariant failed; report this as a bug."""


class CapExceededError(RuntimeError):
    """The requested exact search is larger than its subset budget."""


class NoForcingSetError(ValueError):
    """No forcing set satisfies the requested size constraint."""


class NotForcingError(ValueError):
    """The supplied blue set does not force the whole graph."""


@dataclass(frozen=True, slots=True)
class ForceEvent:
    """One performed force: ``forcer`` turned ``target`` blue at ``step`` (1-based)."""

    forcer: int
    target: int
    step: int


@dataclass(frozen=True, slots=True)
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


def _pt_mask(
    adj: tuple[int, ...], n: int, blue: int, limit: int | None = None
) -> int | None:
    """Propagation time of a blue mask, or None if it is not a forcing set.

    With ``limit``, also None when the set needs more than ``limit`` rounds.
    A white component that receives no force ends the run (module docstring).
    """
    full = (1 << n) - 1
    t = 0
    while blue != full:
        if t == limit:
            return None
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
                if not x & (x - 1):  # one vertex: u has a neighbour in comp
                    forced |= x
            if not forced & comp:
                return None
        blue |= forced
        t += 1
    return t


@functools.lru_cache(maxsize=_SET_TIME_MEMO_SIZE)
def _set_time(adj: tuple[int, ...], n: int, blue: int) -> int | None:
    """``_pt_mask(adj, n, blue)`` with no limit, memoised by value."""
    return _pt_mask(adj, n, blue)


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


def _least_id_forces(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The assigned forces of one round: the least-id forcer per target, in
    target order, i.e. the first pair of each target in :func:`forceable`'s list."""
    out = []
    last = -1
    for pair in pairs:
        if pair[1] != last:
            out.append(pair)
            last = pair[1]
    return out


def _forces(adj: tuple[int, ...], blue: int, full: int, u: int, w: int) -> bool:
    """Whether u -> w is a valid force for the blue mask ``blue``.

    For blue u and white w (the caller's guarantee): True iff w is adjacent
    to u and no other neighbour of u lies in w's component of G - blue, the
    test :func:`forceable` applies to every pair.  One BFS from w over the
    white vertices, stopped as soon as that component meets another
    neighbour of u.
    """
    if not adj[u] >> w & 1:
        return False
    white = full & ~blue
    others = adj[u] & white & ~(1 << w)
    if not others:
        return True
    seen = frontier = 1 << w
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & white & ~seen
        if frontier & others:
            return False
        seen |= frontier
    return True


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
        pairs = _least_id_forces(forceable(g, blue))
        if not pairs:
            break
        forced = 0
        for u, w in pairs:
            events.append(ForceEvent(u, w, step))
            forced |= 1 << w
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
    return _set_time(g.adj, g.n, as_mask(g, blue)) is not None


@dataclass(frozen=True, slots=True)
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


@functools.lru_cache(maxsize=_FORT_MAX_N + 1)
def _mask_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(X, LOW, K) for order n: 2^n-bit ints whose bit m speaks of mask m.

    ``X[v]`` holds the masks that contain v, ``LOW[v]`` those whose least
    vertex is v, and ``K[k]`` those of popcount k.
    """
    size = 1 << n
    ones = (1 << size) - 1
    xs = []
    for v in range(n):
        half = 1 << v  # mask by mask, bit v runs 2^v zeros, then 2^v ones
        xs.append(ones // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
    lows = []
    none_below = ones
    for x in xs:
        lows.append(none_below & x)
        none_below &= ~x
    ks = [1] + [0] * n
    for v in range(n):
        for k in range(v + 1, 0, -1):
            ks[k] |= ks[k - 1] << (1 << v)
    return tuple(xs), tuple(lows), tuple(ks)


def _forcing_table(adj: tuple[int, ...], n: int) -> int:
    """2^n-bit int whose bit S is set iff the blue mask S forces G.

    A set forces iff it meets every connected PSD fort (module docstring).
    The masks of all forts are built at once, each step one big-int
    operation on every mask: the connected masks, minus those with an
    outside vertex that has exactly one neighbour inside, closed upwards.
    Bit S of the result is then the absence of a fort inside V - S.
    """
    xs, lows, _ = _mask_planes(n)
    size = 1 << n
    ones = (1 << size) - 1
    nbrs = [vlist(row) for row in adj]
    # reach[v]: masks holding v, where v reaches the least vertex inside
    reach = list(lows)
    grown = True
    while grown:
        grown = False
        for v in range(n):
            acc = 0
            for u in nbrs[v]:
                acc |= reach[u]
            new = reach[v] | xs[v] & acc
            if new != reach[v]:
                reach[v] = new
                grown = True
    forts = ones ^ 1  # the empty mask is no fort
    for v in range(n):
        forts &= reach[v] | ~xs[v]  # connected: every member reaches
    for u in range(n):
        one = two = 0
        for w in nbrs[u]:
            two |= one & xs[w]
            one |= xs[w]
        forts &= ~(one & ~two & ~xs[u])  # u outside with exactly one neighbour
    for v in range(n):
        forts |= (forts & ~xs[v]) << (1 << v)  # now: holds a fort
    # V - S is the mask 2^n - 1 - S: read the 2^n-bit string backwards
    return ones ^ int(format(forts, f"0{size}b")[::-1], 2)


@functools.lru_cache(maxsize=_SCAN_MEMO_SIZE)
def _one_round_table(adj: tuple[int, ...], n: int) -> int:
    """2^n-bit int whose bit S is clear only if S cannot force G in one round.

    Bit S is set iff every vertex x outside S has a neighbour u in S whose
    common neighbours with x all lie in S, which every set that forces in
    at most one round satisfies (module docstring).  The converse fails, so
    a set bit still needs a run.  A few big-int operations per vertex, edge
    and common neighbour, with no loop over masks: the common neighbours of
    an edge serve both of its ends.
    """
    xs = _mask_planes(n)[0]
    ones = (1 << (1 << n)) - 1
    reached = list(xs)  # reached[x]: masks holding x, or a u as above
    for x in range(n):
        nx = adj[x]
        later = nx >> x + 1 << x + 1  # each edge once, from its lower end
        while later:
            low = later & -later
            later ^= low
            u = low.bit_length() - 1
            common = adj[u] & nx
            holds = ones  # masks holding every common neighbour of x and u
            while common:
                low = common & -common
                common ^= low
                holds &= xs[low.bit_length() - 1]
            reached[x] |= xs[u] & holds
            reached[u] |= xs[x] & holds
    table = ones
    for r in reached:
        table &= r
    return table


@functools.lru_cache(maxsize=_SCAN_MEMO_SIZE)
def _scan_floor(g: Graph) -> tuple[int, int, int | None]:
    """(isolated-vertex mask, L(G), forcing table): where every scan starts.

    The forcing table is ``_forcing_table`` for orders up to
    ``_FORT_MAX_N`` and None above.  Its least forcing size is checked
    against L(G), which is proved on its own.
    """
    iso = sum(1 << v for v, row in enumerate(g.adj) if not row)
    floor = _z_lower_bound(g)
    table = None
    if g.n <= _FORT_MAX_N:
        table = _forcing_table(g.adj, g.n)
        ks = _mask_planes(g.n)[2]
        if any(table & ks[k] for k in range(floor)):
            raise ConsistencyError(
                f"the forcing table has a set smaller than the lower bound {floor}"
            )
    return iso, floor, table


@functools.lru_cache(maxsize=_SCAN_MEMO_SIZE)
def _scan_size_k(g: Graph, k: int) -> tuple[int, int] | None:
    """Best (pt, witness_mask) over size-k blue sets, or None if none forces.

    The witness is the lexicographically least minimizer (as a sorted vertex
    tuple).  ``combinations`` yields the free vertices' subsets in that order,
    and adding the isolated set to all of them keeps it (for equal-size sets
    the least vertex of the symmetric difference decides).  So the scan keeps
    the first strict improvement: after a forcing set of time t, later sets
    are propagated for at most t - 1 rounds, and a time of 1 ends the scan
    (only the full set is faster).  Isolated vertices can never be forced,
    so only supersets of them are scanned.

    With a forcing table (``_scan_floor``), a size with no forcing set ends
    at once and a set that does not force is skipped unpropagated.  Such a
    set has no time, so the answer and the witness are unchanged.  The
    first set propagated runs with no limit and must force.  When the limit
    first drops to one round, the scan also asks for ``_one_round_table``
    and skips the sets it rules out; if no size-k set is left that both
    tables approve, the time-2 set in hand is the best, and the scan ends.
    A scan that never reaches that limit never builds the table.
    """
    adj, n = g.adj, g.n
    iso, _, table = _scan_floor(g)
    if table is not None and not table & _mask_planes(n)[2][k]:
        return None
    approved = -1 if table is None else table  # -1: every bit set
    niso = iso.bit_count()
    best: tuple[int, int] | None = None
    if k >= niso:
        bits = [1 << v for v in range(n) if not iso >> v & 1]
        limit = None
        for extra in combinations(bits, k - niso):
            mask = iso + sum(extra)
            if not approved >> mask & 1:
                continue
            pt = _pt_mask(adj, n, mask, limit)
            if pt is not None:
                best = (pt, mask)
                if pt <= 1:  # only the full set is faster, and it has size n
                    break
                limit = pt - 1
                if limit == 1 and table is not None:
                    approved = table & _one_round_table(adj, n)
                    if not approved & _mask_planes(n)[2][k]:
                        break
            elif limit is None and table is not None:
                raise ConsistencyError(
                    f"the forcing table approves {vlist(mask)}, which does not force"
                )
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
    See the module docstring for the charge, which memoised sizes pay too.
    """
    cap = DEFAULT_MAX_SUBSETS if max_subsets is None else max_subsets
    iso, floor, _ = _scan_floor(g)
    niso = iso.bit_count()
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
    raise ConsistencyError("no size up to n forces, but the full vertex set always does")


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


def _halving_bound(n: int, k: int) -> int:
    """The paper's bound pt+(G, k) <= ceil((n - k)/2)."""
    return (n - k + 1) // 2


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
    whole-graph time equals the max of the per-component times.  Raises
    :class:`NotForcingError` when some component's run stalls, which happens
    exactly when B does not force (see the module docstring).
    """
    mask = as_mask(g, blue)
    adj, n = g.adj, g.n
    out = []
    for comp in components(g, mask):
        # same rounds as B inside G[comp + B]: see the module docstring
        pt = _set_time(adj, n, g.full_mask & ~comp)
        if pt is None:
            raise NotForcingError("blue set does not force the graph")
        out.append((comp, pt))
    return out
