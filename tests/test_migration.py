"""Migration moves, the two rebalancing loops, and their postconditions."""

import pytest

from psdforce import (
    ConsistencyError,
    NotForcingError,
    component_pt,
    components,
    forceable,
    is_psd_forcing_set,
    parse_graph6,
    propagate,
    vlist,
    vset,
)
from psdforce.families import (
    complete,
    cycle,
    h_family,
    migration_demo_double,
    migration_demo_single,
    path,
)
from psdforce import migration
from psdforce.graph import Graph
from psdforce.migration import (
    balance_propagation,
    multi_vertex_migrate,
    shrink_max_component,
    single_vertex_migrate,
    verify_force_switch,
)


def forcing_masks(g):
    return [b for b in range(1 << g.n) if is_psd_forcing_set(g, b)]


# ---------------------------------------------------------------------------
# force switch


def test_force_switch_spot():
    ok, flags = verify_force_switch(path(3), [], 0, 1)
    assert ok and flags == (True, True, True, True)
    ok, flags = verify_force_switch(cycle(3), [], 0, 1)
    assert not ok and flags == (False, False, False, False)
    # removing a vertex can turn a cycle edge into a bridge
    assert verify_force_switch(cycle(4), [2], 0, 1)[0]


def test_force_switch_rejects():
    g = path(4)
    with pytest.raises(ValueError):
        verify_force_switch(g, [], 1, 1)
    with pytest.raises(ValueError):
        verify_force_switch(g, [1], 1, 2)
    with pytest.raises(ValueError):
        verify_force_switch(g, [2], 1, 2)
    with pytest.raises(ValueError):
        verify_force_switch(g, [], 0, 2)


def test_force_switch_agreement_sweep(classes_by_order):
    # the function cross-checks four independent computations and raises
    # ConsistencyError on any disagreement, so calling it is the assertion
    checked = 0
    for n in range(2, 6):
        for label in classes_by_order[n]:
            g = parse_graph6(label)
            for s in range(1 << n):
                for v, w in g.edges():
                    if s >> v & 1 or s >> w & 1:
                        continue
                    ok, flags = verify_force_switch(g, s, v, w)
                    assert flags == (ok,) * 4
                    checked += 1
    assert checked == 1505


# ---------------------------------------------------------------------------
# single-vertex move


def test_single_migrate_clique_with_pendant():
    # K4 on 0..3 plus pendant 4; every valid first force goes into {3}
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    b = vset([0, 1, 2])
    assert forceable(g, b) == [(0, 3), (1, 3), (2, 3)]
    out = single_vertex_migrate(g, b, 0, 3)
    assert vlist(out) == [1, 2, 3]
    assert is_psd_forcing_set(g, out)


def test_single_migrate_rejects():
    g = path(4)
    with pytest.raises(ValueError):
        single_vertex_migrate(g, [0], 1, 2)  # v not blue
    with pytest.raises(ValueError):
        single_vertex_migrate(g, [0, 1], 0, 1)  # w already blue
    with pytest.raises(NotForcingError):
        single_vertex_migrate(cycle(5), [0], 0, 1)
    with pytest.raises(ValueError):
        single_vertex_migrate(g, [0], 0, 2)  # not a first-step force


def test_single_migrate_always_forces(classes_by_order):
    for n in range(1, 6):
        for label in classes_by_order[n]:
            g = parse_graph6(label)
            for b in forcing_masks(g):
                for v, w in forceable(g, b):
                    out = single_vertex_migrate(g, b, v, w)
                    assert out.bit_count() == b.bit_count()
                    assert is_psd_forcing_set(g, out)


def test_tail_migration_lowers_pt():
    # in the two-tail family, trading the tail tip for its inner neighbor
    # speeds up every forcing triple that can make that trade
    g, names = h_family(1)
    a0, a1 = names["a0"], names["a1"]
    hits = 0
    for b in forcing_masks(g):
        if b.bit_count() != 3 or not b >> a1 & 1:
            continue
        if (a1, a0) not in forceable(g, b):
            continue
        out = single_vertex_migrate(g, b, a1, a0)
        assert propagate(g, out).steps == propagate(g, b).steps - 1
        hits += 1
    assert hits == 4


# ---------------------------------------------------------------------------
# halving the largest component


def test_shrink_path5():
    g = path(5)
    final, trace = shrink_max_component(g, [0])
    assert vlist(final) == [2]
    moves = [(vlist(s.moved_out), vlist(s.moved_in)) for s in trace.steps]
    assert moves == [([0], [1]), ([1], [2])]
    maxima = [
        max(c.bit_count() for c in components(g, s.after)) for s in trace.steps
    ]
    assert maxima == [3, 2]


def test_shrink_noop():
    final, trace = shrink_max_component(path(5), [2])
    assert vlist(final) == [2] and trace.steps == ()
    final, trace = shrink_max_component(complete(4), [0, 1, 2])
    assert vlist(final) == [0, 1, 2] and trace.steps == ()


def test_shrink_rejects_non_forcing():
    with pytest.raises(NotForcingError):
        shrink_max_component(cycle(5), [0])


def test_shrink_postcondition_sweep(classes_by_order):
    for n in range(1, 6):
        for label in classes_by_order[n]:
            g = parse_graph6(label)
            for b in forcing_masks(g):
                final, trace = shrink_max_component(g, b)
                k = b.bit_count()
                assert final.bit_count() == k
                assert is_psd_forcing_set(g, final)
                comps = components(g, final)
                if comps:
                    assert max(c.bit_count() for c in comps) <= (n - k + 1) // 2
                sizes = [
                    max(c.bit_count() for c in components(g, s.before))
                    for s in trace.steps
                ]
                assert all(a > b2 for a, b2 in zip(sizes, sizes[1:]))


# ---------------------------------------------------------------------------
# whole-component move


def _demo_double_parts():
    g, names = migration_demo_double()
    blue = vset([names["b1"], names["b2"], names["b3"]])
    comps = components(g, blue)
    assert len(comps) == 2
    right = next(c for c in comps if c >> names["v1"] & 1)
    left = next(c for c in comps if c != right)
    return g, names, blue, left, right


def test_multi_migrate_demo_double():
    g, names, blue, left, right = _demo_double_parts()
    out = multi_vertex_migrate(g, blue, right)
    assert out == vset([names["v1"], names["v2"], names["b3"]])
    assert is_psd_forcing_set(g, out)
    out = multi_vertex_migrate(g, blue, left)
    assert out == vset([names["b1"], names["b2"], names["v3"]])
    assert is_psd_forcing_set(g, out)


def test_multi_migrate_partial_take():
    g, names, blue, left, right = _demo_double_parts()
    out = multi_vertex_migrate(g, blue, right, take=1)
    assert out.bit_count() == 3
    assert is_psd_forcing_set(g, out)
    assert (out & ~blue).bit_count() == 1


def test_multi_migrate_rejects():
    g = path(5)
    with pytest.raises(ValueError):
        multi_vertex_migrate(g, [0], vset([1]))  # not a component
    comp = components(g, vset([0]))[0]
    with pytest.raises(ValueError):
        multi_vertex_migrate(g, [0], comp, take=0)
    with pytest.raises(ValueError):
        multi_vertex_migrate(g, [0], comp, take=2)
    with pytest.raises(NotForcingError):
        multi_vertex_migrate(cycle(5), [0], vset([1, 2, 3, 4]))


def test_connected_full_swap_decrements_pt(classes_by_order):
    # with G - B in one piece and pt >= 2, the whole-component swap is an
    # exact one-step speedup
    checked = 0
    for n in range(2, 6):
        for label in classes_by_order[n]:
            g = parse_graph6(label)
            for b in forcing_masks(g):
                comps = components(g, b)
                if len(comps) != 1:
                    continue
                pt = propagate(g, b).steps
                if pt < 2:
                    continue
                out = multi_vertex_migrate(g, b, comps[0])
                assert propagate(g, out).steps == pt - 1
                checked += 1
    assert checked == 183


# ---------------------------------------------------------------------------
# balancing component times


def test_balance_path7():
    g = path(7)
    final, trace = balance_propagation(g, [0])
    assert vlist(final) == [3]
    assert [vlist(s.after) for s in trace.steps] == [[1], [2], [3]]
    assert propagate(g, final).steps == 3


def test_balance_noop():
    final, trace = balance_propagation(complete(4), [0, 1, 2])
    assert vlist(final) == [0, 1, 2] and trace.steps == ()
    final, trace = balance_propagation(path(7), [3])
    assert vlist(final) == [3] and trace.steps == ()


def test_balance_demo_single():
    g, names = migration_demo_single()
    blue = vset([names["b1"], names["b2"], names["b3"]])
    assert propagate(g, blue).steps == 4
    final, trace = balance_propagation(g, blue)
    assert len(trace.steps) == 2
    assert vlist(final) == [2, 4, 7]
    assert propagate(g, final).steps == 2


def test_balance_rejects_non_forcing():
    with pytest.raises(NotForcingError):
        balance_propagation(cycle(5), [0])


def test_balance_postcondition_sweep(classes_by_order):
    for n in range(1, 6):
        for label in classes_by_order[n]:
            g = parse_graph6(label)
            for b in forcing_masks(g):
                final, trace = balance_propagation(g, b)
                k = b.bit_count()
                assert final.bit_count() == k
                assert is_psd_forcing_set(g, final)
                times = sorted([t for _, t in component_pt(g, final)] + [0])
                if len(times) >= 2:
                    assert times[-1] - times[-2] <= 1
                assert propagate(g, final).steps <= (n - k + 1) // 2
                pts = (
                    [propagate(g, b).steps]
                    + [propagate(g, s.after).steps for s in trace.steps]
                )
                assert all(x - y == 1 for x, y in zip(pts, pts[1:]))


# ---------------------------------------------------------------------------
# the runtime checks fire when a computation they cross-check is wrong


def test_force_switch_check_catches_a_missed_bridge(monkeypatch):
    assert verify_force_switch(path(4), [], 1, 2)[0]
    monkeypatch.setattr(migration, "bridges", lambda g, removed=0: set())
    with pytest.raises(ConsistencyError, match="disagree"):
        verify_force_switch(path(4), [], 1, 2)


def test_balance_check_catches_an_unchanged_time(monkeypatch):
    g = path(7)
    stuck = migration._pt_mask(g.adj, g.n, 1)  # the time of {0}, 6

    def unchanged(adj, n, blue, limit=None):
        return stuck

    monkeypatch.setattr(migration, "_pt_mask", unchanged)
    with pytest.raises(ConsistencyError, match="expected -1"):
        balance_propagation(g, {0})


def test_shrink_check_catches_a_component_that_did_not_shrink(monkeypatch):
    # the components after the first move are reported as those before it
    real = migration.components
    asked = []

    def stale(g, removed=0):
        asked.append(removed)
        return real(g, asked[0] if len(asked) == 2 else removed)

    monkeypatch.setattr(migration, "components", stale)
    with pytest.raises(ConsistencyError, match="did not shrink"):
        shrink_max_component(path(5), {0})
