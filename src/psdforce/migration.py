"""Forcing-set migration: trade blue vertices for first-step targets.

Two exact moves preserve the forcing property and have checkable effects:

* single-vertex migration replaces one forcer v by its first-step target w;
* multiple-vertex migration replaces, inside one component C of G - B, the
  forcers of the first synchronous step by their targets, which lowers the
  time spent in C by exactly one.

On top of these moves sit two loops: ``shrink_max_component`` migrates into
the largest component of G - B until no component exceeds ceil((n-k)/2)
vertices, and ``balance_propagation`` migrates into the slowest component
until the two largest per-component times differ by at most one (which pins
the overall time at or below ceil((n-k)/2) steps).  Every claimed
postcondition is re-checked at runtime; a violation raises
:class:`ConsistencyError` and means an implementation bug, not a user error.

The loops propagate each blue set once to check it: the time a pass starts
from is the one measured when its set was checked, and the components of
G - B that one pass checks are the ones the next pass starts from.  (The
per-component times ``balance_propagation`` reads come from
:func:`component_pt`, which checks its input on its own.)  The checks are:

* the input forces (:class:`NotForcingError` otherwise), and every migrated
  set still forces;
* ``shrink_max_component``: the largest component strictly shrinks;
* ``balance_propagation``: every pass lowers the time by exactly one, and
  the final time is at most ceil((n-k)/2);
* ``multi_vertex_migrate``: the blue-set size is unchanged;
* ``verify_force_switch``: its four readings, each computed on its own,
  agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

# induced_subgraph is unused here, but perfbench/tracing.py MANIFEST lists
# migration as one of its importers and fails on a missing binding.
from .graph import Graph, as_mask, bridges, components, induced_subgraph, vlist
from .engine import (
    ForceEvent,
    NotForcingError,
    _pt_mask,
    component_pt,
    forceable,
)


class ConsistencyError(RuntimeError):
    """An internally asserted invariant failed; report this as a bug."""


@dataclass(frozen=True)
class MigrationStep:
    before: int
    moved_out: int
    moved_in: int
    after: int
    forces: tuple[ForceEvent, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "before": vlist(self.before),
                "moved_out": vlist(self.moved_out),
                "moved_in": vlist(self.moved_in),
                "after": vlist(self.after),
                "forces": [[f.forcer, f.target, f.step] for f in self.forces],
            },
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class MigrationTrace:
    steps: tuple[MigrationStep, ...]
    final: int

    def to_json_lines(self) -> Iterator[str]:
        for step in self.steps:
            yield step.to_json()


def _require_forcing(g: Graph, blue: int) -> int:
    """Propagation time of ``blue``; raises :class:`NotForcingError` if it
    does not force."""
    pt = _pt_mask(g.adj, g.n, blue)
    if pt is None:
        raise NotForcingError("blue set does not force the graph")
    return pt


def _assigned_into(g: Graph, blue: int, comp: int) -> list[tuple[int, int]]:
    """First-step assigned forces (forcer, target) with target in comp.

    One pair per target (least-id forcer), ordered by target.
    """
    pairs = []
    seen = 0
    for u, w in forceable(g, blue):  # sorted by (target, forcer)
        wbit = 1 << w
        if wbit & comp and not seen & wbit:
            pairs.append((u, w))
            seen |= wbit
    return pairs


# ---------------------------------------------------------------------------
# single-vertex move


def verify_force_switch(
    g: Graph, s: int | Iterable[int], v: int, w: int
) -> tuple[bool, tuple[bool, bool, bool, bool]]:
    """Check the four equivalent readings of "v -> w is a valid first force".

    For a context set S (with v, w not in S, vw an edge of G), these agree:

    (a) v -> w is a valid initial force for S + v;
    (b) deleting edge vw from G - S leaves v and w in different components;
    (c) vw is a bridge of G - S (computed independently via DFS low-points);
    (d) w -> v is a valid initial force for S + w.

    Returns (value, (a, b, c, d)) and raises :class:`ConsistencyError` if the
    four computations ever disagree.
    """
    smask = as_mask(g, s)
    if v == w:
        raise ValueError("v and w must differ")
    if smask & (1 << v) or smask & (1 << w):
        raise ValueError("v and w must lie outside the context set")
    if not g.has_edge(v, w):
        raise ValueError(f"({v},{w}) is not an edge")

    a = (v, w) in forceable(g, smask | 1 << v)
    d = (w, v) in forceable(g, smask | 1 << w)

    # (b): direct reachability with the edge removed, inside g - s
    keep = g.full_mask & ~smask
    adj = g.adj
    seen = frontier = 1 << v
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            x = low.bit_length() - 1
            row = adj[x]
            if x == v:
                row &= ~(1 << w)
            elif x == w:
                row &= ~(1 << v)
            nxt |= row
        frontier = nxt & keep & ~seen
        seen |= frontier
    b = not seen >> w & 1

    c = (min(v, w), max(v, w)) in bridges(g, smask)

    if not a == b == c == d:
        raise ConsistencyError(
            f"force-switch checks disagree for s={vlist(smask)}, v={v}, w={w}: "
            f"{(a, b, c, d)}"
        )
    return a, (a, b, c, d)


def single_vertex_migrate(
    g: Graph, blue: int | Iterable[int], v: int, w: int
) -> int:
    """Replace forcer v by its valid first-step target w; result still forces."""
    mask = as_mask(g, blue)
    if not mask >> v & 1:
        raise ValueError(f"vertex {v} is not blue")
    if mask >> w & 1:
        raise ValueError(f"vertex {w} is already blue")
    _require_forcing(g, mask)
    if (v, w) not in forceable(g, mask):
        raise ValueError(f"{v} -> {w} is not a valid first-step force")
    out = (mask & ~(1 << v)) | 1 << w
    if _pt_mask(g.adj, g.n, out) is None:
        raise ConsistencyError(
            f"migrated set {vlist(out)} lost the forcing property"
        )
    return out


def shrink_max_component(
    g: Graph, blue: int | Iterable[int]
) -> tuple[int, MigrationTrace]:
    """Migrate into the largest component of G - B until none exceeds
    ceil((n-k)/2) vertices.

    Each pass picks the first-step force (v, w) into the largest component
    with least (target, forcer), and the largest component size strictly
    decreases every pass (asserted).
    """
    cur = as_mask(g, blue)
    _require_forcing(g, cur)
    n = g.n
    k = cur.bit_count()
    bound = (n - k + 1) // 2  # ceil((n-k)/2)
    steps: list[MigrationStep] = []
    comps = components(g, cur)
    while comps:
        big = max(comps, key=lambda c: c.bit_count())
        size = big.bit_count()
        if size <= bound:
            break
        pairs = _assigned_into(g, cur, big)
        if not pairs:
            raise ConsistencyError("forcing set with no first-step force into a component")
        v, w = pairs[0]
        nxt = (cur & ~(1 << v)) | 1 << w
        if _pt_mask(g.adj, g.n, nxt) is None:
            raise ConsistencyError(f"migrated set {vlist(nxt)} lost the forcing property")
        comps = components(g, nxt)
        new_max = max(c.bit_count() for c in comps)
        if new_max >= size:
            raise ConsistencyError(
                f"largest component did not shrink: {size} -> {new_max}"
            )
        steps.append(
            MigrationStep(
                before=cur,
                moved_out=1 << v,
                moved_in=1 << w,
                after=nxt,
                forces=(ForceEvent(v, w, 1),),
            )
        )
        cur = nxt
    return cur, MigrationTrace(tuple(steps), cur)


# ---------------------------------------------------------------------------
# multiple-vertex move


def multi_vertex_migrate(
    g: Graph,
    blue: int | Iterable[int],
    component: int | Iterable[int],
    take: int | None = None,
) -> int:
    """Swap first-step forcers into component C for their targets.

    C must be exactly one component of G - B.  With ``take`` = j' < j only
    the first j' swaps (by target id) are applied; the result is a forcing
    set either way (asserted).
    """
    mask = as_mask(g, blue)
    comp = as_mask(g, component)
    _require_forcing(g, mask)
    if comp not in components(g, mask):
        raise ValueError("component is not a component of G - blue")
    pairs = _assigned_into(g, mask, comp)
    if not pairs:
        raise ConsistencyError("forcing set with no first-step force into a component")
    if take is None:
        take = len(pairs)
    if not 1 <= take <= len(pairs):
        raise ValueError(
            f"take must be in 1..{len(pairs)} (first-step forces into the component)"
        )
    out = mask
    for u, w in pairs[:take]:
        out = (out & ~(1 << u)) | 1 << w
    if out.bit_count() != mask.bit_count():
        raise ConsistencyError("migration changed the blue-set size")
    if _pt_mask(g.adj, g.n, out) is None:
        raise ConsistencyError(f"migrated set {vlist(out)} lost the forcing property")
    return out


def _component_times(g: Graph, blue: int) -> list[tuple[int, int]]:
    """(time, component_mask) per component, plus a zero-time sentinel.

    The sentinel keeps "the two slowest components" well defined when G - B
    has a single component (or none).
    """
    times = [(pt, comp) for comp, pt in component_pt(g, blue)]
    times.append((0, 0))
    times.sort(key=lambda t: (t[0], t[1].bit_count()))
    return times


def balance_propagation(
    g: Graph, blue: int | Iterable[int]
) -> tuple[int, MigrationTrace]:
    """Migrate into the slowest component until component times differ by <= 1.

    Each pass applies the full multiple-vertex swap inside the unique slowest
    component and lowers the overall propagation time by exactly one
    (asserted).  On exit the two largest per-component times (with a zero
    sentinel) differ by at most one, which forces the overall time to at
    most ceil((n-k)/2) steps (asserted).
    """
    cur = as_mask(g, blue)
    pt = _require_forcing(g, cur)
    n = g.n
    k = cur.bit_count()
    steps: list[MigrationStep] = []
    while True:
        times = _component_times(g, cur)
        if len(times) < 2:
            break
        gap = times[-1][0] - times[-2][0]
        if gap <= 1:
            break
        slow = times[-1][1]
        pairs = _assigned_into(g, cur, slow)
        if not pairs:
            raise ConsistencyError("forcing set with no first-step force into a component")
        nxt = cur
        for u, w in pairs:
            nxt = (nxt & ~(1 << u)) | 1 << w
        new_pt = _pt_mask(g.adj, n, nxt)
        if new_pt is None:
            raise ConsistencyError(f"migrated set {vlist(nxt)} lost the forcing property")
        if new_pt != pt - 1:
            raise ConsistencyError(
                f"balancing pass changed the time {pt} -> {new_pt}, expected -1"
            )
        steps.append(
            MigrationStep(
                before=cur,
                moved_out=cur & ~nxt,
                moved_in=nxt & ~cur,
                after=nxt,
                forces=tuple(ForceEvent(u, w, 1) for u, w in pairs),
            )
        )
        cur, pt = nxt, new_pt
    bound = (n - k + 1) // 2  # ceil((n-k)/2)
    if pt > bound:
        raise ConsistencyError(
            f"balanced set has time {pt}, above the halving bound {bound}"
        )
    return cur, MigrationTrace(tuple(steps), cur)
