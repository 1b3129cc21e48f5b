"""Canonical labeling and isomorph-free enumeration."""

import random

import pytest

from psdforce import (
    Graph,
    canon,
    canonical_form,
    canonical_label,
    enumerate_graphs,
    parse_graph6,
    write_graph6,
)
from psdforce.families import cycle, path

from _oracles import ref_isomorphic


def _relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_label_invariant_under_relabeling(classes_by_order):
    rng = random.Random(20260816)
    for n, labels in classes_by_order.items():
        for lab in labels:
            g = parse_graph6(lab)
            base = canonical_label(g)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_label(_relabel(g, perm)) == base


def test_canonical_form_is_isomorphic_to_input(classes_by_order):
    for n in (3, 4, 5):
        for lab in classes_by_order[n]:
            g = parse_graph6(lab)
            h = canonical_form(g)
            assert ref_isomorphic(g.n, g.edges(), h.n, h.edges())


def test_distinct_classes_are_not_isomorphic(classes_by_order):
    # brute-force check that the enumeration never merged two real classes
    for n in (3, 4, 5):
        labels = classes_by_order[n]
        graphs = [parse_graph6(lab) for lab in labels]
        for i, g in enumerate(graphs):
            for h in graphs[i + 1 :]:
                assert not ref_isomorphic(g.n, g.edges(), h.n, h.edges())


def test_label_matches_brute_force_on_pairs():
    # same-order pairs across two different constructions
    g = cycle(6)
    h = _relabel(g, [3, 0, 4, 1, 5, 2])
    assert canonical_label(g) == canonical_label(h)
    assert canonical_label(path(6)) != canonical_label(cycle(6))


def test_class_counts(classes_by_order):
    assert {n: len(v) for n, v in classes_by_order.items()} == {
        1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156,
    }
    assert sum(1 for _ in enumerate_graphs(7)) == 1044


def _grow_all_neighbourhoods(parents, n):
    # reference: attach a new vertex with every neighbourhood, no pruning
    out = set()
    for lab in parents:
        adj = parse_graph6(lab).adj
        for nbhd in range(1 << (n - 1)):
            rows = [row | (nbhd >> v & 1) << (n - 1) for v, row in enumerate(adj)]
            out.add(canonical_label(Graph._from_rows(rows + [nbhd])))
    return tuple(sorted(out))


def test_pruned_enumeration_matches_brute_force():
    ref = (write_graph6(Graph(1)),)
    assert canon._iso_classes(1) == ref
    for n in range(2, 8):
        ref = _grow_all_neighbourhoods(ref, n)
        assert canon._iso_classes(n) == ref
    # OEIS A000088
    assert [len(canon._iso_classes(n)) for n in range(1, 9)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346,
    ]


def test_enumeration_labels_few_children(monkeypatch):
    calls = 0
    label = canon.canonical_label

    def counted(g, max_n=None):
        nonlocal calls
        calls += 1
        return label(g, max_n)

    canon._iso_classes.cache_clear()
    monkeypatch.setattr(canon, "canonical_label", counted)
    assert len(canon._iso_classes(7)) == 1044
    # all-neighbourhood growth labels 11,290 children for orders 1..7
    assert calls <= 2376


def test_connected_class_counts():
    got = [sum(1 for _ in enumerate_graphs(n, connected_only=True)) for n in range(1, 8)]
    assert got == [1, 1, 2, 6, 21, 112, 853]


def test_enumeration_is_sorted_and_canonical(classes_by_order):
    for labels in classes_by_order.values():
        assert labels == sorted(labels)
        assert all(canonical_label(parse_graph6(lab)) == lab for lab in labels)


def test_caps():
    with pytest.raises(ValueError):
        canonical_form(path(11))
    with pytest.raises(ValueError):
        list(enumerate_graphs(9))
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
