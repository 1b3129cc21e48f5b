"""Propagation engine: the color change rule, Z+, and the time invariants."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdforce import (
    CapExceededError,
    NoForcingSetError,
    NotForcingError,
    component_pt,
    enumerate_graphs,
    forceable,
    forcing_forest,
    is_psd_forcing_set,
    parse_graph6,
    propagate,
    psd_zero_forcing_number,
    pt_plus,
    pt_plus_k,
    vlist,
    vset,
)
from psdforce import engine
from psdforce.extremal import throttling_number
from psdforce.families import complete, cycle, empty_graph, path
from psdforce.graph import Graph

from _oracles import ref_components, ref_first_forces, ref_pt, ref_z_and_pt


def _adj(g):
    return {v: set(g.neighbors(v)) for v in range(g.n)}


# ---------------------------------------------------------------------------
# single rounds and schedules


def test_forceable_matches_reference(classes_by_order):
    # the exact list: every valid pair, ordered by target then forcer
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            adj = _adj(g)
            for blue in range(1 << n):
                ref = sorted(
                    ref_first_forces(adj, n, vlist(blue)), key=lambda p: (p[1], p[0])
                )
                assert forceable(g, blue) == ref, (lab, vlist(blue))


def test_forceable_is_sorted():
    got = forceable(complete(3), [0, 1])
    assert got == [(0, 2), (1, 2)]


def test_path_schedule():
    sched = propagate(path(5), [2])
    assert sched.succeeded and sched.steps == 2
    assert [vlist(r) for r in sched.rounds] == [[1, 3], [0, 4]]
    assert [(e.forcer, e.target, e.step) for e in sched.assignments] == [
        (2, 1, 1), (2, 3, 1), (1, 0, 2), (3, 4, 2),
    ]


def test_stalled_schedule():
    sched = propagate(complete(4), [0, 1])
    assert not sched.succeeded
    assert vlist(sched.residual_white) == [2, 3]
    assert sched.rounds == ()


def test_least_forcer_assignment():
    # in K3 with two blues both can force vertex 2; the record credits 0
    sched = propagate(complete(3), [0, 1])
    assert [(e.forcer, e.target) for e in sched.assignments] == [(0, 2)]


def test_propagate_accepts_any_vertex_iterable():
    assert propagate(path(3), iter([1])).succeeded
    assert propagate(path(3), vset([1])).succeeded


def test_schedule_round_invariants(classes_by_order):
    for n, labels in classes_by_order.items():
        if n > 5:
            continue
        for lab in labels:
            g = parse_graph6(lab)
            for blue in range(1 << n):
                sched = propagate(g, blue)
                seen = blue
                for r in sched.rounds:
                    assert r and not r & seen  # nonempty, disjoint
                    seen |= r
                assert sched.final == seen
                assert sched.succeeded == (seen == (1 << n) - 1)


def test_forcing_forest_single_root():
    g = path(5)
    forest = forcing_forest(g, propagate(g, [2]))
    assert forest.roots == (2,)
    assert forest.trees == {2: 0b11111}
    assert forest.edges == {2: ((2, 1), (2, 3), (1, 0), (3, 4))}


def test_forcing_forest_partitions_vertices():
    g = path(5)
    forest = forcing_forest(g, propagate(g, [0, 4]))
    assert forest.roots == (0, 4)
    assert forest.trees == {0: vset([0, 1, 2]), 4: vset([3, 4])}
    assert forest.edges == {0: ((0, 1), (1, 2)), 4: ((4, 3),)}
    with pytest.raises(NotForcingError):
        forcing_forest(complete(4), propagate(complete(4), [0]))


# ---------------------------------------------------------------------------
# Z+ and times against the reference implementation


def test_engine_matches_reference_all_orders_up_to_6(classes_by_order):
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            z, pt = ref_z_and_pt(_adj(g), n)
            got_z, witness = psd_zero_forcing_number(g)
            got_pt, _ = pt_plus(g)
            assert (got_z, got_pt) == (z, pt), lab
            assert is_psd_forcing_set(g, witness)


def test_path_values():
    for n in range(2, 11):
        z, _ = psd_zero_forcing_number(path(n))
        pt, _ = pt_plus(path(n))
        assert z == 1
        assert pt == math.ceil((n - 1) / 2)


def test_complete_values():
    for n in range(3, 9):
        z, _ = psd_zero_forcing_number(complete(n))
        pt, _ = pt_plus(complete(n))
        assert (z, pt) == (n - 1, 1)


def test_tree_forcing_number_is_one(classes_by_order):
    from psdforce import is_connected

    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            if is_connected(g) and g.num_edges == n - 1:
                assert psd_zero_forcing_number(g)[0] == 1, lab


def test_isolated_vertices_must_be_blue():
    g = empty_graph(3)
    z, witness = psd_zero_forcing_number(g)
    assert z == 3 and witness == 0b111
    assert pt_plus(g) == (0, 0b111)


def test_pt_plus_k_values_and_witnesses():
    assert pt_plus_k(path(5), 1) == (2, vset([2]))
    assert pt_plus_k(path(4), 2) == (1, vset([0, 2]))  # least witness wins ties
    assert pt_plus_k(complete(4), 3)[0] == 1
    with pytest.raises(NoForcingSetError):
        pt_plus_k(empty_graph(2), 1)
    with pytest.raises(ValueError):
        pt_plus_k(path(3), 7)


def test_witness_is_lexicographically_least():
    # many pairs are one-step forcing sets; ties go to the least sorted tuple
    assert pt_plus_k(cycle(5), 2) == (1, vset([0, 2]))
    assert pt_plus_k(path(4), 2) == (1, vset([0, 2]))


def test_superset_monotonicity(classes_by_order):
    # growing a forcing set never slows propagation
    for n, labels in classes_by_order.items():
        if n > 5:
            continue
        for lab in labels:
            g = parse_graph6(lab)
            for blue in range(1 << n):
                sched = propagate(g, blue)
                if not sched.succeeded:
                    continue
                for v in range(n):
                    if blue >> v & 1:
                        continue
                    bigger = propagate(g, blue | 1 << v)
                    assert bigger.succeeded
                    assert bigger.steps <= sched.steps


def test_component_times_split(classes_by_order):
    # each component's time is B's time inside G[C + B], and the whole-graph
    # time is the max over components
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            adj = _adj(g)
            for size in range(1, min(3, n) + 1):
                for sub in combinations(range(n), size):
                    blue = vset(sub)
                    if not is_psd_forcing_set(g, blue):
                        continue
                    parts = component_pt(g, blue)
                    white = set(range(n)) - set(sub)
                    assert sorted(vlist(c) for c, _ in parts) == sorted(
                        sorted(c) for c in ref_components(adj, white)
                    )
                    for comp, t in parts:
                        keep = sorted(set(vlist(comp)) | set(sub))
                        idx = {v: i for i, v in enumerate(keep)}
                        sub_adj = {
                            idx[v]: {idx[w] for w in adj[v] if w in idx} for v in keep
                        }
                        ref = ref_pt(sub_adj, len(keep), {idx[v] for v in sub})
                        assert t == ref, (lab, sub, vlist(comp))
                    whole = propagate(g, blue).steps
                    assert max([t for _, t in parts], default=0) == whole


def test_component_pt_rejects_non_forcing():
    with pytest.raises(NotForcingError):
        component_pt(complete(4), [0, 1])


def test_k_efficient_witness_has_balanced_components(classes_by_order):
    # the two slowest components of an optimal witness differ by at most 1
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            z, _ = psd_zero_forcing_number(g)
            for k in range(z, n + 1):
                _, witness = pt_plus_k(g, k)
                times = sorted([t for _, t in component_pt(g, witness)] + [0])
                if len(times) >= 2:
                    assert times[-1] - times[-2] <= 1, (lab, k)


def test_caps_are_reported():
    # Z+ of path(13) charges its 13 single vertices
    with pytest.raises(CapExceededError):
        psd_zero_forcing_number(path(13), max_subsets=12)
    with pytest.raises(CapExceededError):
        pt_plus(path(13), max_subsets=12)
    with pytest.raises(CapExceededError):
        pt_plus_k(path(12), 6, max_subsets=100)
    # no order cap: the default budget covers the 13 sets
    z, _ = psd_zero_forcing_number(path(13))
    assert z == 1
    assert psd_zero_forcing_number(path(13), max_subsets=13)[0] == 1


# ---------------------------------------------------------------------------
# exactness beyond the enumerated orders


@st.composite
def _random_graphs(draw):
    # edge density 1/2, 1/4 or 1/8: the sparse draws bring isolated vertices
    n = draw(st.integers(7, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = -1
    for _ in range(draw(st.integers(1, 3))):
        bits &= draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@settings(max_examples=30, deadline=None)
@given(_random_graphs())
def test_engine_matches_reference_orders_7_to_9(g):
    n, adj = g.n, _adj(g)
    z, pt = ref_z_and_pt(adj, n)
    got_z, z_witness = psd_zero_forcing_number(g)
    got_pt, pt_witness = pt_plus(g)
    assert (got_z, got_pt) == (z, pt)
    assert len(vlist(z_witness)) == z == len(vlist(pt_witness))
    assert ref_pt(adj, n, vlist(pt_witness)) == pt
    for k in range(n + 1):
        # the first minimiser in combinations order is the least sorted tuple
        best = None
        for sub in combinations(range(n), k):
            t = ref_pt(adj, n, sub)
            if t is not None and (best is None or t < best[0]):
                best = (t, vset(sub))
        if best is None:
            with pytest.raises(NoForcingSetError):
                pt_plus_k(g, k)
        else:
            assert pt_plus_k(g, k) == best, k


# ---------------------------------------------------------------------------
# the per-graph scan memo


@pytest.fixture
def scanned(monkeypatch):
    """Blue masks handed to the engine's propagation-time routine."""
    masks = []
    real = engine._pt_mask

    def counting(adj, n, blue, limit=None):
        masks.append(blue)
        return real(adj, n, blue, limit)

    monkeypatch.setattr(engine, "_pt_mask", counting)
    return masks


def test_memo_serves_pt_plus_after_z(scanned):
    g = cycle(9)
    psd_zero_forcing_number(g)
    assert scanned
    scanned.clear()
    assert pt_plus(g)[0] == 2
    assert scanned == []


def test_memo_throttling_scans_only_larger_sets(scanned):
    g = path(9)
    z, _ = psd_zero_forcing_number(g)
    pt_plus(g)
    scanned.clear()
    throttling_number(g)
    assert scanned
    assert all(m.bit_count() > z for m in scanned)


def test_memo_is_per_object(scanned):
    g = cycle(8)
    first = pt_plus(g)
    scanned.clear()
    twin = Graph(g.n, g.edges())
    assert twin == g and twin is not g
    assert pt_plus(twin) == first
    assert scanned


def test_caps_hold_with_warm_memo():
    g = path(12)
    pt_plus_k(g, 6)
    with pytest.raises(CapExceededError):
        pt_plus_k(g, 6, max_subsets=100)
    big = path(13)
    psd_zero_forcing_number(big)
    with pytest.raises(CapExceededError):
        psd_zero_forcing_number(big, max_subsets=12)
    with pytest.raises(CapExceededError):
        pt_plus(big, max_subsets=12)


# ---------------------------------------------------------------------------
# the subset budget


def test_budget_bounds_the_z_scan(scanned):
    # on the 5x6 grid L = 2 < Z+: size 2 costs 435 sets, and size 3 brings
    # the total to 4,495
    grid = Graph(30, [(r * 6 + c, r * 6 + c + 1) for r in range(5) for c in range(5)]
                 + [(r * 6 + c, r * 6 + c + 6) for r in range(4) for c in range(6)])
    assert engine._z_lower_bound(grid) == 2
    with pytest.raises(CapExceededError):
        psd_zero_forcing_number(grid, max_subsets=1000)
    assert 0 < len(scanned) <= 1000
    assert max(m.bit_count() for m in scanned) == 2


def test_budget_answers_complete_30_at_its_lower_bound(scanned):
    # L(K30) = 29 = Z+: only the 30 sets of size 29 are charged
    with pytest.raises(CapExceededError):
        psd_zero_forcing_number(complete(30), max_subsets=29)
    assert scanned == []
    assert psd_zero_forcing_number(complete(30), max_subsets=30)[0] == 29


def test_budget_charges_only_supersets_of_isolated_vertices():
    # the one size-20 set that holds every isolated vertex costs 1
    assert psd_zero_forcing_number(Graph(20), max_subsets=1) == (20, (1 << 20) - 1)
    assert pt_plus(Graph(20), max_subsets=1) == (0, (1 << 20) - 1)


def test_budget_sizes_below_the_isolated_set_have_no_forcing_set():
    # C(n - i, k - i) with k < i must not reach math.comb as a negative k
    with pytest.raises(NoForcingSetError):
        pt_plus_k(Graph(20), 3)


def test_budget_sizes_below_the_isolated_set_cost_nothing(scanned):
    with pytest.raises(NoForcingSetError):
        pt_plus_k(Graph(20), 3, max_subsets=0)
    assert scanned == []


def test_lower_bound_is_computed_once_per_object(monkeypatch):
    calls = []
    real = engine._z_lower_bound

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(engine, "_z_lower_bound", counting)
    g = path(8)
    psd_zero_forcing_number(g)
    pt_plus(g)
    for k in range(1, g.n + 1):
        pt_plus_k(g, k)
    throttling_number(g)
    assert calls == [g]
    twin = Graph(g.n, g.edges())
    pt_plus(twin)
    assert len(calls) == 2 and calls[1] is twin


def test_budget_is_per_call():
    # throttling charges sizes 1 and 2, 6 + 15 = 21 sets, and stops at k = 3
    # = 2 + pt; each call has its own budget
    g = path(6)
    assert throttling_number(g, max_subsets=21)[0] == 3
    assert throttling_number(g, max_subsets=21)[0] == 3
    with pytest.raises(CapExceededError):
        throttling_number(g, max_subsets=20)


# ---------------------------------------------------------------------------
# the lower bound L(G) on Z+


def test_degeneracy_is_the_largest_least_degree_of_a_subgraph(classes_by_order):
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            ref = max(
                min((g.adj[v] & sub).bit_count() for v in vlist(sub))
                for sub in range(1, 1 << n)
            )
            assert engine._degeneracy(g.adj, g.full_mask) == ref, lab


def test_no_set_below_the_lower_bound_forces():
    # closure is monotone, so the size L - 1 scan failing rules out all
    # smaller sizes; a fresh Graph has no memo and scans for real
    for g in enumerate_graphs(7):
        g = Graph(g.n, g.edges())
        floor = engine._z_lower_bound(g)
        if floor >= 2:
            assert engine._scan_size_k(g, floor - 1) is None, g.edges()


def test_sizes_below_the_lower_bound_are_not_scanned(scanned):
    assert psd_zero_forcing_number(complete(12))[0] == 11
    assert min(m.bit_count() for m in scanned) == 11
