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
the overall time at or below ceil((n-k)/2) steps).  A shrink pass is the
multiple-vertex move with j' = 1, a balancing pass the full move.  Every
claimed postcondition is re-checked at runtime; a violation raises
:class:`ConsistencyError` and means an implementation bug, not a user error.

Every check reads a set's time from the engine's value-keyed memo, so a
sweep of moves over one graph propagates each blue set once, and each force
switch is verified once per (graph, context set, unordered edge): the four
readings for w -> v are those for v -> w with (a) and (d) swapped, so one
memoised verdict loses no check (a disagreement raises and is not kept).
Equal steps, equal loop results and equal first-step forces are each one
shared frozen object, built by bounded value-keyed memos; every check still
runs on every call.  The checks are:

* the input forces (:class:`NotForcingError` otherwise), and every migrated
  set still forces;
* every multiple-vertex swap, in ``multi_vertex_migrate`` and in both
  loops, has a first-step force into its component and keeps the blue-set
  size;
* ``shrink_max_component``: the largest component strictly shrinks;
* ``balance_propagation``: every pass lowers the time by exactly one, and
  the final time is at most ceil((n-k)/2);
* ``verify_force_switch``: its four readings, each computed on its own,
  agree.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import graph
# induced_subgraph is unused here, but perfbench/tracing.py MANIFEST lists
# migration as one of its importers and fails on a missing binding.
from .graph import Graph, as_mask, bridges, components, induced_subgraph, vlist
from .engine import (
    ConsistencyError,
    ForceEvent,
    NotForcingError,
    _SET_TIME_MEMO_SIZE,
    _forces,
    _halving_bound,
    _least_id_forces,
    _set_time,
    component_pt,
    forceable,
)

__all__ = [
    "MigrationStep",
    "MigrationTrace",
    "balance_propagation",
    "multi_vertex_migrate",
    "shrink_max_component",
    "single_vertex_migrate",
    "verify_force_switch",
]


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class MigrationTrace:
    steps: tuple[MigrationStep, ...]
    final: int

    def to_json_lines(self) -> Iterator[str]:
        for step in self.steps:
            yield step.to_json()


def _require_forcing(g: Graph, blue: int) -> int:
    """Time of the input set ``blue``; :class:`NotForcingError` if it stalls."""
    pt = _set_time(g.adj, g.n, blue)
    if pt is None:
        raise NotForcingError("blue set does not force the graph")
    return pt


def _checked_time(g: Graph, out: int) -> int:
    """Time of the migrated set ``out``; :class:`ConsistencyError` if it stalls."""
    pt = _set_time(g.adj, g.n, out)
    if pt is None:
        raise ConsistencyError(f"migrated set {vlist(out)} lost the forcing property")
    return pt


@functools.lru_cache(maxsize=_SET_TIME_MEMO_SIZE)
def _first_force(u: int, w: int) -> ForceEvent:
    """``ForceEvent(u, w, 1)``, one shared frozen object per (forcer, target)."""
    return ForceEvent(u, w, 1)


def _swap_into(
    g: Graph, blue: int, comp: int, take: int | None = None
) -> tuple[MigrationStep, int]:
    """The multiple-vertex move into ``comp``, checked: (step, new time).

    The assigned first-step forces into ``comp`` are the least-id forcer per
    target, in target order; the first ``take`` of them (all by default)
    swap each forcer for its target.
    """
    pairs = [(u, w) for u, w in _least_id_forces(forceable(g, blue)) if comp >> w & 1]
    if not pairs:
        raise ConsistencyError("forcing set with no first-step force into a component")
    take = len(pairs) if take is None else take
    if not 1 <= take <= len(pairs):
        raise ValueError(
            f"take must be in 1..{len(pairs)} (first-step forces into the component)"
        )
    step = _step(blue, tuple(pairs[:take]))
    if step.after.bit_count() != blue.bit_count():
        raise ConsistencyError("migration changed the blue-set size")
    return step, _checked_time(g, step.after)


@functools.lru_cache(maxsize=_SET_TIME_MEMO_SIZE)
def _step(before: int, moves: tuple[tuple[int, int], ...]) -> MigrationStep:
    """The step that swaps each (forcer, target) of ``moves`` out of
    ``before``, in order; one shared frozen object per value."""
    out = before
    for u, w in moves:
        out = (out & ~(1 << u)) | 1 << w
    forces = tuple(_first_force(u, w) for u, w in moves)
    return MigrationStep(before, before & ~out, out & ~before, out, forces)


@functools.lru_cache(maxsize=_SET_TIME_MEMO_SIZE)
def _result(
    final: int, steps: tuple[MigrationStep, ...]
) -> tuple[int, MigrationTrace]:
    """A loop's ``(final, trace)``, one shared object per value."""
    return final, MigrationTrace(steps, final)


# ---------------------------------------------------------------------------
# single-vertex move


def verify_force_switch(
    g: Graph, s: int | Iterable[int], v: int, w: int
) -> tuple[bool, tuple[bool, bool, bool, bool]]:
    """Check the four equivalent readings of "v -> w is a valid first force".

    For a context set S (with v, w not in S, vw an edge of G), these agree:

    (a) v -> w is a valid initial force for S + v;
    (b) deleting edge vw from G - S leaves v and w in different components;
    (c) vw is a bridge of G - S;
    (d) w -> v is a valid initial force for S + w.

    Each reading is computed on its own.  (a) and (d) are one BFS each over
    the white vertices from the target (w, resp. v) that stops when it meets
    another neighbour of the forcer.  (b) is :func:`graph.is_bridge` on
    G - S, a BFS from one end that skips the edge.  (c) is a lookup in the
    bridges of G - S, found by DFS low-points.  One verdict is kept per
    unordered edge, since w -> v has the same four readings.

    Returns (value, (a, b, c, d)).  Raises ValueError if vw is not an edge of
    G or has an end in S, and :class:`ConsistencyError` if the four
    computations ever disagree.
    """
    smask = as_mask(g, s)
    lo, hi = (v, w) if v < w else (w, v)
    ok = _switch_verdict(g, smask, lo, hi)
    return ok, (ok,) * 4


@functools.lru_cache(maxsize=_SET_TIME_MEMO_SIZE)
def _switch_verdict(g: Graph, smask: int, lo: int, hi: int) -> bool:
    """The four readings of :func:`verify_force_switch` for lo < hi, checked."""
    # first, as it rejects a non-edge or an end in S before any other
    # reading; through the module: perfbench's tracer patches it there
    b = graph.is_bridge(g, lo, hi, smask)
    adj, full = g.adj, g.full_mask
    a = _forces(adj, smask | 1 << lo, full, lo, hi)
    d = _forces(adj, smask | 1 << hi, full, hi, lo)
    c = (lo, hi) in bridges(g, smask)
    if not a == b == c == d:
        raise ConsistencyError(
            f"force-switch checks disagree for s={vlist(smask)}, v={lo}, w={hi}: "
            f"{(a, b, c, d)}"
        )
    return a


def single_vertex_migrate(
    g: Graph, blue: int | Iterable[int], v: int, w: int
) -> int:
    """Replace forcer v by its valid first-step target w; result still forces."""
    mask = as_mask(g, blue)
    n = g.n
    # tested inline, as in Graph.has_edge: a sweep makes one call per force
    if not (0 <= v < n and 0 <= w < n):
        bad = w if 0 <= v < n else v
        raise ValueError(f"vertex {bad} out of range for order {n}")
    if not mask >> v & 1:
        raise ValueError(f"vertex {v} is not blue")
    if mask >> w & 1:
        raise ValueError(f"vertex {w} is already blue")
    _require_forcing(g, mask)
    if not _forces(g.adj, mask, g.full_mask, v, w):
        raise ValueError(f"{v} -> {w} is not a valid first-step force")
    out = (mask & ~(1 << v)) | 1 << w
    _checked_time(g, out)
    return out


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
    return _swap_into(g, mask, comp, take)[0].after


def shrink_max_component(
    g: Graph, blue: int | Iterable[int]
) -> tuple[int, MigrationTrace]:
    """Migrate into the largest component of G - B until none exceeds
    ceil((n-k)/2) vertices.

    Each pass is the multiple-vertex move with j' = 1 into the largest
    component, by least (target, forcer); the largest component size
    strictly decreases every pass (asserted).
    """
    cur = as_mask(g, blue)
    _require_forcing(g, cur)
    bound = _halving_bound(g.n, cur.bit_count())
    steps: list[MigrationStep] = []
    comps = components(g, cur)
    while comps:
        big = max(comps, key=lambda c: c.bit_count())
        size = big.bit_count()
        if size <= bound:
            break
        step, _ = _swap_into(g, cur, big, take=1)
        cur = step.after
        comps = components(g, cur)
        new_max = max(c.bit_count() for c in comps)
        if new_max >= size:
            raise ConsistencyError(
                f"largest component did not shrink: {size} -> {new_max}"
            )
        steps.append(step)
    return _result(cur, tuple(steps))


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
    k = cur.bit_count()
    steps: list[MigrationStep] = []
    while True:
        # (time, component) per component of G - B, slowest last, and a
        # zero-time sentinel that keeps "the two slowest" defined when G - B
        # has a single component (or none)
        times = [(t, comp) for comp, t in component_pt(g, cur)] + [(0, 0)]
        times.sort(key=lambda t: (t[0], t[1].bit_count()))
        if len(times) < 2 or times[-1][0] - times[-2][0] <= 1:
            break
        step, new_pt = _swap_into(g, cur, times[-1][1])
        if new_pt != pt - 1:
            raise ConsistencyError(
                f"balancing pass changed the time {pt} -> {new_pt}, expected -1"
            )
        steps.append(step)
        cur, pt = step.after, new_pt
    bound = _halving_bound(g.n, k)
    if pt > bound:
        raise ConsistencyError(
            f"balanced set has time {pt}, above the halving bound {bound}"
        )
    return _result(cur, tuple(steps))
