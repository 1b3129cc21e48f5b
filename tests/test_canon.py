"""Canonical labeling and isomorph-free enumeration."""

import hashlib
import itertools
import random

import pytest

from psdforce import (
    ConsistencyError,
    Graph,
    canon,
    canonical_label,
    components,
    enumerate_graphs,
    parse_graph6,
    write_graph6,
)
from psdforce.canon import canonical_form
from psdforce.families import complete, cycle, path

from _oracles import ref_graph6, ref_isomorphic


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


# sha256 of the newline-joined label list of each order
LABEL_DIGESTS = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    4: "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
    5: "ba6b2702ab1d647a7964e0bb2815cb74b90f811b2cbc759e36bc8ad37c4c4bfb",
    6: "a3c0be81f949312e42271323fbf63d26ea9c17eb62bc28b00a1df42c41213ab8",
    7: "cf43d74eea2e83dd129ee163ab4ba9c0f95efd52978be61a3b45e8d9557307a0",
    8: "3e503c8c6bec0555cca2382d86a1bb2ede4f18a9e854b4caed44bad3415cacb5",
}


def test_label_lists_are_pinned():
    got = {
        n: hashlib.sha256("\n".join(canon._iso_classes(n)).encode()).hexdigest()
        for n in LABEL_DIGESTS
    }
    assert got == LABEL_DIGESTS


def test_enumeration_labels_few_children(monkeypatch):
    calls = 0
    label = canon.canonical_label

    def counted(g):
        nonlocal calls
        calls += 1
        return label(g)

    canon._iso_classes.cache_clear()
    monkeypatch.setattr(canon, "canonical_label", counted)
    assert len(canon._iso_classes(7)) == 1044
    # all-neighbourhood growth labels 11,290 children for orders 1..7, the
    # key test alone 2,376, and one neighbourhood per orbit 2+4+11+34+157+1078
    assert calls <= 1286


def _classes_up_to_7(classes_by_order):
    graphs = [parse_graph6(lab) for labels in classes_by_order.values() for lab in labels]
    return graphs + list(enumerate_graphs(7))


def test_label_is_graph6_of_canonical_form(classes_by_order):
    graphs = _classes_up_to_7(classes_by_order)
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(8, 10)
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(_relabel(g, perm))
    for g in graphs:
        assert canonical_label(g) == write_graph6(canonical_form(g))


def test_label_is_reference_graph6_of_every_tied_leaf(classes_by_order):
    # the label is packed from the search's columns; the reference encodes g
    # relabeled by each leaf from the format's definition, sharing no code
    graphs = _classes_up_to_7(classes_by_order)
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(8, 10)
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(_relabel(g, perm))
    for g in graphs:
        label = canonical_label(g)
        for leaf in canon._canonical_search(g)[0]:
            pos = {v: i for i, v in enumerate(leaf)}
            assert ref_graph6(g.n, [(pos[u], pos[v]) for u, v in g.edges()]) == label


# An asymmetric graph of order 6: the path 0-1-2-3-4 plus vertex 5 on 2 and 3.
ASYMMETRIC = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])


# (name, graph, number of orbits of its vertex sets under Aut)
ORBIT_COUNTS = [
    # binary bracelets of length 6..9 (OEIS A000029)
    *[(f"cycle{m}", cycle(m), k) for m, k in [(6, 13), (7, 18), (8, 30), (9, 46)]],
    ("path5", path(5), 20),
    ("path7", path(7), 72),
    *[(f"complete{m}", complete(m), m + 1) for m in range(1, 9)],
    *[(f"empty{m}", Graph(m), m + 1) for m in range(1, 9)],
    ("asymmetric6", ASYMMETRIC, 64),
]


@pytest.mark.parametrize("g,kept", [c[1:] for c in ORBIT_COUNTS], ids=[c[0] for c in ORBIT_COUNTS])
def test_one_neighbourhood_per_orbit(g, kept):
    gens = canon._automorphism_generators(g)
    least = [mask for mask in range(1 << g.n) if canon._least_of_orbit(mask, gens)]
    assert least[0] == 0
    assert len(least) == kept


def test_asymmetric_fixture_has_no_automorphism():
    autos = [
        p for p in itertools.permutations(range(6)) if _relabel(ASYMMETRIC, p) == ASYMMETRIC
    ]
    assert autos == [tuple(range(6))]


def test_generators_are_automorphisms(classes_by_order):
    for g in _classes_up_to_7(classes_by_order):
        for gen in canon._automorphism_generators(g):
            assert sorted(gen) == list(range(g.n))
            assert _relabel(g, gen) == g


def test_orbit_masks_check_each_generator(monkeypatch):
    # swapping the end 0 with the middle 1 of the path 0-1-2 is no automorphism;
    # a second search leaf [1, 0, 2] tying the first makes it a generator
    monkeypatch.setattr(canon, "_canonical_search", lambda g: ([[0, 1, 2], [1, 0, 2]], []))
    with pytest.raises(ConsistencyError) as exc:
        canon._automorphism_generators(path(3))
    assert str(exc.value) == "generator [1, 0, 2] is not an automorphism"


def test_connected_class_counts():
    got = [sum(len(components(g)) == 1 for g in enumerate_graphs(n)) for n in range(1, 8)]
    assert got == [1, 1, 2, 6, 21, 112, 853]


def test_enumeration_is_sorted_and_canonical(classes_by_order):
    for labels in classes_by_order.values():
        assert labels == sorted(labels)
        assert all(canonical_label(parse_graph6(lab)) == lab for lab in labels)


def test_caps():
    with pytest.raises(ValueError) as form_exc:
        canonical_form(path(11))
    with pytest.raises(ValueError) as label_exc:
        canonical_label(path(11))
    assert str(label_exc.value) == str(form_exc.value)
    assert str(form_exc.value) == "canonical labeling capped at order 10, got 11"
    with pytest.raises(ValueError):
        list(enumerate_graphs(9))
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
