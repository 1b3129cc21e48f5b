"""Propagation engine: the color change rule, Z+, and the time invariants."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdforce import (
    CapExceededError,
    ConsistencyError,
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


def test_single_pair_test_matches_forceable(classes_by_order):
    # engine._forces answers one pair of forceable's list with one BFS
    checked = 0
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            for blue in range(1 << n):
                pairs = set(forceable(g, blue))
                for u in vlist(blue):
                    for w in vlist(g.full_mask & ~blue):
                        got = engine._forces(g.adj, blue, g.full_mask, u, w)
                        assert got == ((u, w) in pairs), (lab, vlist(blue), u, w)
                        checked += 1
    assert checked == 80900


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
    from psdforce.graph import is_connected

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


def test_component_pt_detects_every_stall(classes_by_order):
    # the per-component runs alone tell a non-forcing set: component_pt
    # raises exactly when the oracle's propagation stalls, and otherwise
    # its slowest component takes the oracle's whole-graph time; _pt_mask,
    # which stops at the first component that receives no force, gives the
    # oracle's time under every round limit
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            adj = _adj(g)
            for blue in range(1 << n):
                ref = ref_pt(adj, n, vlist(blue))
                assert engine._pt_mask(g.adj, n, blue) == ref, (lab, vlist(blue))
                for limit in range(n + 1):
                    want = ref if ref is not None and ref <= limit else None
                    assert engine._pt_mask(g.adj, n, blue, limit) == want
                if ref is None:
                    with pytest.raises(NotForcingError, match="does not force"):
                        component_pt(g, blue)
                else:
                    times = [t for _, t in component_pt(g, blue)]
                    assert max(times, default=0) == ref, (lab, vlist(blue))


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
def _random_graphs(draw, lo=7, hi=9):
    # edge density 1/2, 1/4 or 1/8: the sparse draws bring isolated vertices
    n = draw(st.integers(lo, hi))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = -1
    for _ in range(draw(st.integers(1, 3))):
        bits &= draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def _ref_best(g, k):
    """The oracle's (pt, witness) over size-k sets, or None if none forces.

    The first minimiser in combinations order is the least sorted tuple.
    """
    adj = _adj(g)
    best = None
    for sub in combinations(range(g.n), k):
        t = ref_pt(adj, g.n, sub)
        if t is not None and (best is None or t < best[0]):
            best = (t, vset(sub))
    return best


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
        best = _ref_best(g, k)
        if best is None:
            with pytest.raises(NoForcingSetError):
                pt_plus_k(g, k)
        else:
            assert pt_plus_k(g, k) == best, k


def test_engine_matches_reference_above_the_fort_table_orders():
    # orders 17-18 take the scan without the forcing table (engine._FORT_MAX_N);
    # sparse graphs keep Z+ <= 4, so the oracle's scans stay near a second
    assert engine._FORT_MAX_N < 17
    rng = random.Random(20261020)
    for n in (17, 17, 17, 18, 18):
        # a random forest (about one root in eight) plus up to three chords
        edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.875}
        for _ in range(rng.randint(0, 3)):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph(n, edges)
        adj = _adj(g)
        z, pt = ref_z_and_pt(adj, n)
        assert z <= 4
        got_z, z_witness = psd_zero_forcing_number(g)
        got_pt, pt_witness = pt_plus(g)
        assert (got_z, got_pt) == (z, pt)
        assert len(vlist(z_witness)) == z == len(vlist(pt_witness))
        assert ref_pt(adj, n, vlist(z_witness)) is not None
        assert ref_pt(adj, n, vlist(pt_witness)) == pt
        assert pt_plus_k(g, z) == _ref_best(g, z) == (pt, pt_witness)
        assert pt_plus_k(g, z + 1) == _ref_best(g, z + 1)


# ---------------------------------------------------------------------------
# relations that need no oracle


def _seeded_graph(rng, n, density):
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < density])


def test_one_more_blue_vertex_never_slows_the_best_time():
    """pt+(G, k + 1) <= pt+(G, k) for Z+ <= k < n.

    Proof: let B be a blue set and B' ⊇ B.  Each white component of G - B'
    lies inside one of G - B, so when u forces w from B and w is still white
    under B', u is blue under B' and its white neighbours in w's component
    of G - B' are among those in the larger one: only w, so u forces w from
    B' too.  By induction on rounds, after each round the blue set grown
    from B' contains the one grown from B.  A size-k set of time pt+(G, k)
    plus any other vertex is then a size-(k + 1) set of no larger time.
    """
    rng = random.Random(20261021)
    for density in (0.15, 0.3, 0.5, 0.7):
        for _ in range(12):
            g = _seeded_graph(rng, rng.randint(10, 16), density)
            z, _ = psd_zero_forcing_number(g)
            times = [pt_plus_k(g, k)[0] for k in range(z, g.n + 1)]
            assert times == sorted(times, reverse=True), g


def test_disjoint_union_adds_z_and_takes_the_larger_time():
    """Z+(G ⊔ H) = Z+(G) + Z+(H) and pt+(G ⊔ H) = max(pt+(G), pt+(H)).

    Proof: no edge joins the two sides, so every white component of
    G ⊔ H - S lies in one side and every forcer's neighbours in its own:
    each round acts on the sides independently.  S forces G ⊔ H in t rounds
    if and only if S ∩ V(G) forces G in t_G rounds and S ∩ V(H) forces H in
    t_H rounds, with t = max(t_G, t_H).  So the least S is a least set of
    each side, and the two sides' times are chosen independently.
    """
    rng = random.Random(20261022)
    for _ in range(100):
        g, h = (_seeded_graph(rng, rng.randint(4, 8), rng.choice((0.2, 0.4, 0.6)))
                for _ in range(2))
        union = Graph(g.n + h.n, [*g.edges(), *((u + g.n, v + g.n) for u, v in h.edges())])
        (z_g, _), (z_h, _), (z_u, _) = map(psd_zero_forcing_number, (g, h, union))
        assert z_u == z_g + z_h
        assert pt_plus(union)[0] == max(pt_plus(g)[0], pt_plus(h)[0])


# ---------------------------------------------------------------------------
# the value-keyed memos


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


def test_memo_is_per_value(scanned):
    g = cycle(8)
    first = pt_plus(g)
    scanned.clear()
    twin = Graph(g.n, g.edges())
    assert twin == g and twin is not g
    assert pt_plus(twin) == first
    assert scanned == []
    engine._scan_size_k.cache_clear()
    assert pt_plus(twin) == first
    assert scanned


def test_caps_hold_with_warm_memo():
    # a memo warmed by the same object or by an equal twin never lets a
    # call go over its budget
    g = path(12)
    pt_plus_k(g, 6)
    big = path(13)
    psd_zero_forcing_number(big)
    for h in (g, Graph(12, g.edges())):
        with pytest.raises(CapExceededError):
            pt_plus_k(h, 6, max_subsets=100)
    for h in (big, Graph(13, big.edges())):
        with pytest.raises(CapExceededError):
            psd_zero_forcing_number(h, max_subsets=12)
        with pytest.raises(CapExceededError):
            pt_plus(h, max_subsets=12)


def test_single_set_answers_are_served_from_the_memo(classes_by_order):
    # the second call on a mask propagates nothing, and both calls give the
    # oracle's answer
    info = engine._set_time.cache_info
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            adj = _adj(g)
            for blue in range(1 << n):
                ref = ref_pt(adj, n, vlist(blue))
                for served in (False, True):
                    before = info()
                    assert is_psd_forcing_set(g, blue) == (ref is not None)
                    if ref is None:
                        with pytest.raises(NotForcingError):
                            component_pt(g, blue)
                    else:
                        times = [t for _, t in component_pt(g, blue)]
                        assert max(times, default=0) == ref, (lab, vlist(blue))
                    after = info()
                    if served:
                        assert after.misses == before.misses
                        assert after.hits > before.hits


def test_every_engine_memo_is_bounded(classes_by_order):
    memos = {
        name: obj.cache_info
        for name, obj in vars(engine).items()
        if callable(getattr(obj, "cache_info", None))
    }
    required = {
        "_scan_size_k",
        "_scan_floor",
        "_set_time",
        "_mask_planes",
        "_one_round_table",
    }
    assert required <= set(memos)
    for lab in classes_by_order[6]:
        g = parse_graph6(lab)
        throttling_number(g)
        for k in range(g.n + 1):
            try:
                pt_plus_k(g, k)
            except NoForcingSetError:
                pass
        for blue in range(1 << g.n):
            is_psd_forcing_set(g, blue)
    for name, info in memos.items():
        got = info()
        assert got.maxsize is not None, name
        assert got.currsize <= got.maxsize, name
    # the sweep asked each memo for more keys than it keeps
    assert memos["_set_time"]().misses > memos["_set_time"]().maxsize
    assert memos["_scan_size_k"]().misses > memos["_scan_size_k"]().maxsize


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


def test_lower_bound_is_computed_once_per_value(monkeypatch):
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
    assert calls == [g]
    engine._scan_floor.cache_clear()
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
    # smaller sizes; the memos start empty and the classes differ, so no
    # answer comes from a memo
    for g in enumerate_graphs(7):
        floor = engine._z_lower_bound(g)
        if floor >= 2:
            assert engine._scan_size_k(g, floor - 1) is None, g.edges()


def test_sizes_below_the_lower_bound_are_not_scanned(scanned):
    assert psd_zero_forcing_number(complete(12))[0] == 11
    assert min(m.bit_count() for m in scanned) == 11


# ---------------------------------------------------------------------------
# the forcing table


def _assert_table_matches_propagation(g):
    table = engine._forcing_table(g.adj, g.n)
    for blue in range(1 << g.n):
        forces = engine._pt_mask(g.adj, g.n, blue) is not None
        assert table >> blue & 1 == forces, (g.n, g.edges(), vlist(blue))


def test_forcing_table_matches_propagation_up_to_order_7(classes_by_order):
    for labels in classes_by_order.values():
        for lab in labels:
            _assert_table_matches_propagation(parse_graph6(lab))
    for g in enumerate_graphs(7):
        _assert_table_matches_propagation(g)


@settings(max_examples=12, deadline=None)
@given(_random_graphs(8, engine._FORT_MAX_N))
def test_forcing_table_matches_propagation_up_to_the_cap(g):
    _assert_table_matches_propagation(g)


def test_mask_planes_hold_membership_least_vertex_and_popcount():
    for n in range(9):
        xs, lows, ks = engine._mask_planes(n)
        assert (len(xs), len(lows), len(ks)) == (n, n, n + 1)
        for plane in xs + lows + ks:
            assert 0 <= plane < 1 << (1 << n)
        for m in range(1 << n):
            for v in range(n):
                assert xs[v] >> m & 1 == m >> v & 1
                assert lows[v] >> m & 1 == (m & -m == 1 << v)
            for k in range(n + 1):
                assert ks[k] >> m & 1 == (m.bit_count() == k)


def test_table_check_catches_a_set_below_the_lower_bound(monkeypatch):
    # L(K5) = 4, so a table that lets {0} force contradicts tw <= Z+
    real = engine._forcing_table
    monkeypatch.setattr(engine, "_forcing_table", lambda adj, n: real(adj, n) | 1 << 1)
    with pytest.raises(ConsistencyError, match="lower bound 4"):
        psd_zero_forcing_number(complete(5))


def test_table_check_catches_an_approved_set_that_does_not_force(monkeypatch):
    # L = 2 < Z+ = 3: a table that approves every pair sends the first,
    # non-forcing pair to the unlimited propagation
    g = parse_graph6("F?Cfw")
    assert engine._z_lower_bound(g) == 2
    real = engine._forcing_table
    pairs = engine._mask_planes(g.n)[2][2]
    monkeypatch.setattr(engine, "_forcing_table", lambda adj, n: real(adj, n) | pairs)
    with pytest.raises(ConsistencyError, match=r"approves \[0, 1\]"):
        psd_zero_forcing_number(g)


def test_table_leaves_every_charge_unchanged():
    # sizes L..Z are each charged in full, though the table ends the sizes
    # below Z unpropagated: the least budget that answers is their sum
    checked = 0
    for g in enumerate_graphs(7):
        iso, floor, _ = engine._scan_floor(g)
        z, witness = psd_zero_forcing_number(g)
        if floor == z:
            continue
        i = iso.bit_count()
        need = sum(math.comb(g.n - i, k - i) for k in range(floor, z + 1))
        assert psd_zero_forcing_number(g, max_subsets=need) == (z, witness)
        with pytest.raises(CapExceededError):
            psd_zero_forcing_number(g, max_subsets=need - 1)
        checked += 1
    assert checked == 356


# ---------------------------------------------------------------------------
# the one-round table


def _assert_one_round_table_is_sound(g):
    # a clear bit must mean the set cannot finish in one round
    table = engine._one_round_table(g.adj, g.n)
    ruled_out = 0
    for blue in range(1 << g.n):
        if not table >> blue & 1:
            got = engine._pt_mask(g.adj, g.n, blue, 1)
            assert got is None, (g.edges(), vlist(blue))
            ruled_out += 1
    return ruled_out


def test_one_round_table_is_sound_up_to_order_7(classes_by_order):
    graphs = [parse_graph6(lab) for labs in classes_by_order.values() for lab in labs]
    graphs += enumerate_graphs(7)
    ruled_out = sum(_assert_one_round_table_is_sound(g) for g in graphs)
    masks = sum(1 << g.n for g in graphs)
    # a table that rules out nothing is sound too: pin how much it rules out
    assert (ruled_out, masks) == (104373, 144922)


@settings(max_examples=12, deadline=None)
@given(_random_graphs(8, engine._FORT_MAX_N))
def test_one_round_table_is_sound_up_to_the_cap(g):
    _assert_one_round_table_is_sound(g)


def test_scan_ends_when_no_size_k_set_can_force_in_one_round(scanned, monkeypatch):
    # P4 from {1} takes 2 rounds; {2} and {3} force too, but no single
    # vertex forces in one round, so the scan ends at {1} and draws no
    # further set
    drawn = []

    def counting(items, r):
        for sub in combinations(items, r):
            drawn.append(sub)
            yield sub

    monkeypatch.setattr(engine, "combinations", counting)
    g = path(4)
    table = engine._scan_floor(g)[2] & engine._one_round_table(g.adj, g.n)
    assert not table & engine._mask_planes(4)[2][1]
    assert pt_plus_k(g, 1) == _ref_best(g, 1) == (2, 0b10)
    assert scanned == [0b1, 0b10]
    assert len(drawn) == 2


def test_scan_skips_sets_that_cannot_force_in_one_round(scanned):
    # after its first time-2 set, the scan propagates only the sets that
    # both tables approve
    g = parse_graph6("FBY^G")
    best = pt_plus_k(g, 3)
    assert best == _ref_best(g, 3) and best[0] == 2
    floor_table = engine._scan_floor(g)[2]
    one_round = engine._one_round_table(g.adj, g.n)
    sets = [vset(sub) for sub in combinations(range(g.n), 3)]
    later = [m for m in sets[sets.index(best[1]) + 1:] if floor_table >> m & 1]
    propagated = scanned[scanned.index(best[1]) + 1:]
    assert propagated == [m for m in later if one_round >> m & 1]
    assert 0 < len(propagated) < len(later)


def test_scans_that_never_reach_one_round_build_no_table():
    star = Graph(16, [(0, v) for v in range(1, 16)])
    for g in (path(16), cycle(16), complete(16), star):
        psd_zero_forcing_number(g)
    assert engine._one_round_table.cache_info().misses == 0
