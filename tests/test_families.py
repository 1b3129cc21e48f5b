"""Named constructions and their structural facts."""

import itertools
import math
import tracemalloc

import pytest

from psdforce import (
    Graph,
    canonical_label,
    complement,
    is_psd_forcing_set,
    propagate,
    psd_zero_forcing_number,
    pt_plus,
    vset,
)
from psdforce.families import (
    FIXTURES,
    complete,
    cycle,
    empty_graph,
    h_family,
    lollipop,
    make_family,
    migration_demo_double,
    migration_demo_single,
    path,
)


def test_basic_shapes():
    assert path(2) == complete(2)
    assert cycle(3) == complete(3)
    assert complete(4).num_edges == 6
    assert path(6).num_edges == 5
    assert cycle(6).num_edges == 6
    assert empty_graph(4).num_edges == 0


def test_param_validation():
    for bad in (path, complete, empty_graph):
        with pytest.raises(ValueError):
            bad(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        lollipop(2, 1)
    with pytest.raises(ValueError):
        lollipop(3, 0)
    with pytest.raises(ValueError):
        h_family(-1)


def test_lollipop_shape():
    g, names = lollipop(6, 5)
    assert g.n == 11
    assert g.num_edges == 15 + 5  # clique plus path plus the joining edge
    assert names == {"v": 5, "w": 10}
    assert g.has_edge(5, 6)
    assert g.degree(10) == 1


def test_lollipop_invariants():
    for m in range(3, 7):
        for r in range(1, 6):
            g, _ = lollipop(m, r)
            z, _ = psd_zero_forcing_number(g)
            pt, _ = pt_plus(g)
            assert z == m - 1
            assert pt == math.ceil((r + 1) / 2)


def test_clique_families_match_their_edge_lists():
    for n in range(1, 61):
        assert complete(n) == Graph(n, itertools.combinations(range(n), 2))
    for m in range(3, 11):
        for r in range(1, 11):
            tail = [(m - 1 + i, m + i) for i in range(r)]
            g = Graph(m + r, [*itertools.combinations(range(m), 2), *tail])
            assert lollipop(m, r) == (g, {"v": m - 1, "w": m + r - 1})


@pytest.mark.parametrize("build", [lambda: complete(2000), lambda: lollipop(2000, 3)],
                         ids=["complete", "lollipop"])
def test_clique_families_build_rows_not_edge_lists(build):
    # the edge tuples of a 2,000-clique peak near 184 MiB; its rows take 0.6 MiB
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_h_family_shape():
    g, names = h_family(0)
    assert g.n == 8 and g.num_edges == 14
    assert set(names) == {"z", "zp", "x", "xp", "y", "yp", "a0", "b0"}
    assert g.degree(names["a0"]) == 2
    heavy = {v for v in range(8) if g.degree(v) >= 4}
    assert heavy == {names["x"], names["xp"], names["y"], names["yp"]}
    g2, names2 = h_family(2)
    assert g2.n == 12 and g2.num_edges == 18
    assert g2.has_edge(names2["a0"], names2["a1"])
    assert g2.has_edge(names2["a1"], names2["a2"])
    assert g2.has_edge(names2["b1"], names2["b2"])
    heavy2 = {v for v in range(12) if g2.degree(v) >= 4}
    assert heavy2 == {names2[k] for k in ("x", "xp", "y", "yp")}


def test_h8_is_self_complementary():
    g, _ = h_family(0)
    assert canonical_label(g) == canonical_label(complement(g))


def test_h8_values():
    g, _ = h_family(0)
    z, _ = psd_zero_forcing_number(g)
    pt, _ = pt_plus(g)
    assert (z, pt) == (3, 3)


def test_fixture_single():
    g, names = migration_demo_single()
    assert g.n == 9
    blue = vset([names["b1"], names["b2"], names["b3"]])
    sched = propagate(g, blue)
    assert sched.succeeded and sched.steps == 4
    # first round forces exactly v1, v2; swapping forcers for targets saves a step
    first = {e.target for e in sched.assignments if e.step == 1}
    assert first == {names["v1"], names["v2"]}
    swapped = vset([names["v1"], names["v2"], names["b3"]])
    assert propagate(g, swapped).steps == 3


def test_fixture_double():
    g, names = migration_demo_double()
    assert g.n == 15 and g.num_edges == 25
    bs = [names["b1"], names["b2"], names["b3"]]
    vs = [names["v1"], names["v2"], names["v3"]]
    assert is_psd_forcing_set(g, vset(bs))
    assert not is_psd_forcing_set(g, vset(vs))
    assert is_psd_forcing_set(g, vset([bs[0], bs[1], vs[2]]))
    assert is_psd_forcing_set(g, vset([vs[0], vs[1], bs[2]]))


def test_constructors_are_deterministic():
    assert migration_demo_single()[0] == migration_demo_single()[0]
    assert h_family(3)[0] == h_family(3)[0]
    assert lollipop(5, 2)[0] == lollipop(5, 2)[0]


def test_make_family():
    g, names = make_family("path:4")
    assert g == path(4) and names == {}
    g, names = make_family("lollipop:4,2")
    assert g.n == 6 and names == {"v": 3, "w": 5}
    g, names = make_family("h:1")
    assert g.n == 10
    for fixture in FIXTURES:
        g, names = make_family(fixture)
        assert names


@pytest.mark.parametrize(
    "bad",
    ["", "path", "path:", "path:x", "path:1,2", "lollipop:3", "nosuch:1"],
)
def test_make_family_rejects(bad):
    with pytest.raises(ValueError):
        make_family(bad)
