"""Throttling, complement sums, catalogs, and checkpointed searches."""

import json
import os

import pytest

from psdforce import CapExceededError, vset
from psdforce.extremal import (
    ExtremalRecord,
    classify_extremal,
    graph_record,
    invariant_table,
    ng_search,
    ng_sums,
    throttling_number,
    zeta,
)
from psdforce.families import complete, empty_graph, path


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_record_round_trip():
    rec = ExtremalRecord(g6="CL", n=4, z_plus=1, pt_plus=2)
    doc = json.loads(rec.to_json())
    assert doc == {"g6": "CL", "n": 4, "z+": 1, "pt+": 2}
    assert ExtremalRecord.from_json(rec.to_json()) == rec
    rec = ExtremalRecord(g6="CL", n=4, z_plus=1, pt_plus=2, th_plus=3, ng_pt=4, ng_z=2)
    assert ExtremalRecord.from_json(rec.to_json()) == rec


def test_graph_record():
    # records keep the caller's labeling; catalogs canonicalize upstream
    rec = graph_record(path(4))
    assert (rec.g6, rec.n, rec.z_plus, rec.pt_plus) == ("Ch", 4, 1, 2)
    assert rec.th_plus is None


def test_throttling_spot_values():
    assert throttling_number(path(4)) == (3, 1, vset([1]))
    assert throttling_number(complete(1)) == (1, 1, vset([0]))
    assert throttling_number(complete(3)) == (3, 2, vset([0, 1]))
    # complete graphs: k = n-1 blues force in one step and nothing does better
    for n in range(4, 7):
        value, best_k, _ = throttling_number(complete(n))
        assert (value, best_k) == (n, n - 1)


def test_throttling_bound_sweep(classes_by_order):
    from psdforce import psd_zero_forcing_number, parse_graph6

    for n in range(1, 6):
        for label in classes_by_order[n]:
            g = parse_graph6(label)
            value, best_k, witness = throttling_number(g)
            z, _ = psd_zero_forcing_number(g)
            assert value <= (n + z + 1) // 2
            assert witness.bit_count() == best_k


def test_throttling_cap():
    with pytest.raises(CapExceededError):
        throttling_number(path(6), max_subsets=32)
    assert throttling_number(path(6), max_subsets=64) == (3, 2, vset([1, 4]))


def test_ng_sums_self_complementary_path():
    s = ng_sums(path(4))
    assert (s.pt_sum, s.z_sum) == (4, 2)
    assert s.pt_at_upper and s.z_at_lower
    assert not s.pt_at_lower and not s.z_at_upper


def test_ng_sums_complete():
    s = ng_sums(complete(4))
    assert (s.pt_sum, s.z_sum) == (1, 7)
    assert s.pt_at_lower and s.z_at_upper
    assert not s.pt_at_upper and not s.z_at_lower


def test_ng_sums_bounds_small(classes_by_order):
    from psdforce import parse_graph6

    for n in range(2, 6):
        for label in classes_by_order[n]:
            s = ng_sums(parse_graph6(label))
            assert n - 2 <= s.z_sum <= 2 * n - 1
            assert 1 <= s.pt_sum and 2 * s.pt_sum <= n + 4


def test_catalog_k1():
    recs = classify_extremal(1)
    assert [(r.g6, r.n, r.pt_plus) for r in recs] == [("A_", 2, 1)]


def test_catalog_k2():
    recs = classify_extremal(2)
    assert [(r.g6, r.n, r.pt_plus) for r in recs] == [
        ("BG", 3, 1),
        ("BW", 3, 1),
        ("Bw", 3, 1),
        ("CL", 4, 2),
    ]


def test_catalog_k3_matches_frozen():
    recs = classify_extremal(3)
    lines = [rec.to_json() for rec in recs]
    with open(os.path.join(DATA, "extremal_k3.jsonl"), encoding="utf-8") as fh:
        frozen = fh.read().splitlines()
    assert lines == frozen
    assert len(lines) == 16


def test_catalog_rejects_bad_k():
    with pytest.raises(ValueError):
        classify_extremal(0)
    with pytest.raises(ValueError):
        classify_extremal(5)


def test_zeta_spot_values():
    assert zeta(4, 1) == (2, ["CL"])
    assert zeta(5, 2) == (2, ["D@S", "DL{", "DR[", "D`["])
    # with every vertex needed, nothing propagates
    assert zeta(4, 4) == (0, ["C?"])


def test_zeta_rejects_bad_args():
    with pytest.raises(ValueError):
        zeta(3, 0)
    with pytest.raises(ValueError):
        zeta(3, 4)


def test_ng_search_order4():
    res = ng_search(4)
    assert res.histogram == {1: 2, 2: 8, 4: 1}
    assert res.max_sum == 4
    assert res.threshold == 4
    assert res.attained
    assert res.attaining == ("CL",)


def test_ng_search_order5_threshold_open():
    res = ng_search(5)
    assert res.threshold == 4
    assert res.attained == (4 in res.histogram)
    assert sum(res.histogram.values()) == 34


def test_checkpoint_round_trip(tmp_path):
    ck = str(tmp_path)
    first = invariant_table(3, checkpoint_dir=ck)
    files = sorted(os.listdir(ck))
    assert files == ["invariants.n1.jsonl", "invariants.n2.jsonl", "invariants.n3.jsonl"]
    with open(os.path.join(ck, "invariants.n3.jsonl"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert json.loads(lines[-1]) == {"done": 4}
    second = invariant_table(3, checkpoint_dir=ck)
    assert second == first


def test_checkpoint_ignores_incomplete(tmp_path):
    ck = str(tmp_path)
    clean = invariant_table(2, checkpoint_dir=ck)
    bad = os.path.join(ck, "invariants.n2.jsonl")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write('{"g6":"A?","n":2,"z+":9,"pt+":9}\n')  # no done marker
    again = invariant_table(2, checkpoint_dir=ck)
    assert again == clean
    with open(bad, encoding="utf-8") as fh:
        assert json.loads(fh.read().splitlines()[-1]) == {"done": 2}


def test_checkpoint_ignores_garbage(tmp_path):
    ck = str(tmp_path)
    clean = invariant_table(1, checkpoint_dir=ck)
    with open(os.path.join(ck, "invariants.n1.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("not json\n")
    assert invariant_table(1, checkpoint_dir=ck) == clean


def test_pool_matches_serial():
    # jobs=2 fans the labels of each order out to a Pool; results keep order
    assert invariant_table(6, jobs=2) == invariant_table(6)
    assert ng_search(6, jobs=2) == ng_search(6)
