"""Graph construction and structural helpers."""

import pytest

from psdforce import (
    Graph,
    bridges,
    complement,
    components,
    disjoint_union,
    induced_subgraph,
    is_bridge,
    is_connected,
    parse_graph6,
    vlist,
    vset,
)
from psdforce.families import complete, cycle, empty_graph, lollipop, path
from psdforce.graph import as_mask

from _oracles import ref_components


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])  # out of range
    g = Graph(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.num_edges == 1


def test_basic_accessors():
    g = path(4)
    assert g.n == 4
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert sorted(g.neighbors(1)) == [0, 2]
    assert g.has_edge(2, 3) and not g.has_edge(0, 3)


def test_mask_helpers():
    assert vset([0, 2]) == 0b101
    assert vlist(0b1011) == [0, 1, 3]
    g = path(3)
    assert as_mask(g, [1, 2]) == 0b110
    assert as_mask(g, 0b011) == 0b011
    with pytest.raises(ValueError):
        as_mask(g, [3])
    with pytest.raises(ValueError):
        as_mask(g, 0b1000)


def test_components_match_reference(classes_by_order):
    for n, labels in classes_by_order.items():
        # all removal sets up to order 4, single-vertex removals beyond
        for lab in labels:
            g = parse_graph6(lab)
            adj = {v: set(g.neighbors(v)) for v in range(n)}
            removals = range(1 << n) if n <= 4 else [0] + [1 << v for v in range(n)]
            for removed in removals:
                keep = [v for v in range(n) if not removed >> v & 1]
                mine = sorted(vlist(c) for c in components(g, removed))
                ref = sorted(sorted(c) for c in ref_components(adj, keep))
                assert mine == ref


def test_connectivity():
    assert is_connected(path(5))
    assert not is_connected(empty_graph(2))
    assert is_connected(complete(1))


def test_bridges_on_known_graphs():
    assert bridges(path(4)) == {(0, 1), (1, 2), (2, 3)}
    assert bridges(cycle(4)) == set()
    g, names = lollipop(3, 1)
    assert bridges(g) == {(2, 3)}
    assert is_bridge(g, 2, 3) and not is_bridge(g, 0, 1)
    # the vertices left keep their ids
    assert bridges(cycle(4), [2]) == {(0, 1), (0, 3)}
    assert bridges(g, [3]) == set()
    assert bridges(path(4), 0b1111) == set()


def test_bridges_of_a_vertex_deleted_subgraph(classes_by_order):
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            assert bridges(g, 0) == bridges(g)
            for removed in range(1 << n):
                keep = g.full_mask & ~removed
                ref = set()
                if keep:
                    sub, remap = induced_subgraph(g, keep)
                    old = {i: v for v, i in remap.items()}
                    ref = {(old[a], old[b]) for a, b in bridges(sub)}
                assert bridges(g, removed) == ref, (lab, vlist(removed))


def test_is_bridge_agrees_with_bridges(classes_by_order):
    for labels in classes_by_order.values():
        for lab in labels:
            g = parse_graph6(lab)
            bs = bridges(g)
            for u, v in g.edges():
                assert is_bridge(g, u, v) == ((u, v) in bs)


def test_complement():
    assert complement(complete(4)) == empty_graph(4)
    g = path(4)
    assert complement(complement(g)) == g
    assert g.num_edges + complement(g).num_edges == 6


def test_disjoint_union():
    g = disjoint_union(path(2), path(3))
    assert g.n == 5
    assert list(g.edges()) == [(0, 1), (2, 3), (3, 4)]
    assert not is_connected(g)


def test_induced_subgraph():
    g = path(5)
    sub, old_to_new = induced_subgraph(g, [1, 2, 4])
    assert sub.n == 3
    assert old_to_new == {1: 0, 2: 1, 4: 2}
    assert list(sub.edges()) == [(0, 1)]
