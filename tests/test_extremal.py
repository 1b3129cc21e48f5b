"""Throttling, complement sums, catalogs, and checkpointed searches."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys

import pytest

from psdforce import CapExceededError, canon, extremal, vlist, vset
from psdforce.canon import canonical_label, enumerate_graphs
from psdforce.engine import _z_and_pt
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
from psdforce.graph import Graph, complement, is_connected, parse_graph6, write_graph6

from _oracles import ref_adj, ref_pt, ref_radius, ref_z_and_pt

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_record_round_trip():
    rec = ExtremalRecord(g6="CL", n=4, z_plus=1, pt_plus=2)
    doc = json.loads(rec.to_json())
    assert doc == {"g6": "CL", "n": 4, "z+": 1, "pt+": 2}
    assert ExtremalRecord.from_json(rec.to_json()) == rec


def test_record_is_frozen():
    # catalogs hand out the table's own records; editing one must not
    # silently change the table
    rec = classify_extremal(1)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.pt_plus = 0


def test_graph_record():
    # records keep the caller's labeling; catalogs canonicalize upstream
    rec = graph_record(path(4))
    assert (rec.g6, rec.n, rec.z_plus, rec.pt_plus) == ("Ch", 4, 1, 2)


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
    # sizes 1 and 2 cost 6 + 15 sets; size 3 cannot beat 2 + pt = 3
    with pytest.raises(CapExceededError):
        throttling_number(path(6), max_subsets=20)
    assert throttling_number(path(6), max_subsets=21) == (3, 2, vset([1, 4]))


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


def test_zeta_reports_a_forcing_number_no_graph_has(monkeypatch):
    # on valid input every k in 1..n is attained: the path has Z+ = 1, K_a
    # beside a path on n - a vertices has a (2 <= a <= n - 1, since Z+ adds
    # over components) and the edgeless graph has n
    for n in range(3, 8):
        for a in range(2, n):
            clique = [(u, v) for v in range(a) for u in range(v)]
            tail = [(v, v + 1) for v in range(a, n - 1)]
            assert _z_and_pt(Graph(n, clique + tail))[0] == a
    # so only a table missing a row reaches the error
    monkeypatch.setattr(extremal, "_records_for_orders",
                        lambda orders, jobs=1, checkpoint_dir=None: [graph_record(complete(4))])
    with pytest.raises(ValueError) as exc:
        zeta(4, 1)
    assert str(exc.value) == "no graph of order 4 has forcing number 1"


def test_trees_are_the_graphs_of_forcing_number_one():
    """Z+(G) = 1 exactly when G is a tree, and then pt+(G) is its radius.

    Z+(G) >= tw(G) (Barioli et al., J. Graph Theory 2013), and Z+ adds over
    components, each of which needs a blue vertex.  So Z+(G) = 1 makes G
    connected with treewidth at most 1: a tree.  In a tree, two white
    neighbours of a blue vertex never share a white component, since a white
    path between them would close a cycle; so every blue vertex forces all
    its white neighbours each round.  From a single vertex v, round t then
    colours exactly the vertices at distance t from v: {v} forces, in
    ecc(v) rounds, and the best single vertex takes the radius.

    So the Z+ = 1 row of the tightness census counts the trees with
    radius ceil((n - 1)/2).  A tree's radius is ceil(diam/2), and
    diam <= n - 1.  At even n only the path reaches n/2.  At odd n >= 3 the
    path and the trees of diameter n - 2 reach (n - 1)/2; the latter are the
    path on n - 1 vertices with a leaf on one of its n - 3 inner vertices,
    (n - 3)/2 classes up to reflection, so (n - 1)/2 in all.  At n = 1 the
    single vertex is tight, with time 0 = ceil(0/2).
    """
    for rec in invariant_table(7):
        g = parse_graph6(rec.g6)
        tree = g.num_edges == g.n - 1 and is_connected(g)
        assert (rec.z_plus == 1) == tree, rec.g6
        if tree:
            assert rec.pt_plus == ref_radius(ref_adj(g.n, g.edges()), g.n), rec.g6
    with open(os.path.join(DATA, "tightness_census.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    tight = {row["n"]: row["tight"] for row in rows if row["z+"] == 1}
    assert tight == {n: 1 if n % 2 == 0 or n == 1 else (n - 1) // 2 for n in range(1, 9)}


def test_invariant_table_matches_the_oracle_at_orders_7_and_8():
    # every order-7 class and a seeded sample of the order-8 classes: the
    # oracle's (Z+, pt+), and each pt+ witness takes pt+ rounds under it
    order8 = random.Random(8).sample(canon._iso_classes(8), 1000)
    records = extremal._records_for_orders((7,)) + [
        graph_record(parse_graph6(lab)) for lab in order8]
    assert len(records) == 1044 + 1000
    for rec in records:
        g = parse_graph6(rec.g6)
        adj = ref_adj(g.n, g.edges())
        assert (rec.z_plus, rec.pt_plus) == ref_z_and_pt(adj, g.n), rec.g6
        z, pt, witness = _z_and_pt(g)
        assert (witness.bit_count(), ref_pt(adj, g.n, vlist(witness))) == (z, pt), rec.g6


def _brute_force_zeta(n, k):
    # reference: scan every class of the order afresh, no invariant table
    best = -1
    witnesses = []
    for g in enumerate_graphs(n):
        z, pt, _ = _z_and_pt(g)
        if z != k:
            continue
        if pt > best:
            best = pt
            witnesses = [write_graph6(g)]
        elif pt == best:
            witnesses.append(write_graph6(g))
    return best, witnesses


def test_zeta_matches_brute_force(tmp_path):
    ck = str(tmp_path)
    for n in range(1, 7):
        for k in range(1, n + 1):
            best, witnesses = _brute_force_zeta(n, k)
            if best < 0:
                with pytest.raises(ValueError, match="no graph of order"):
                    zeta(n, k, checkpoint_dir=ck)
            else:
                assert zeta(n, k, checkpoint_dir=ck) == (best, witnesses)


def test_ng_search_matches_per_class_sums(classes_by_order):
    for n, labels in classes_by_order.items():
        sums = {lab: ng_sums(parse_graph6(lab)).pt_sum for lab in labels}
        hist = {}
        for s in sums.values():
            hist[s] = hist.get(s, 0) + 1
        threshold = n // 2 + 2
        res = ng_search(n)
        assert res.histogram == hist
        assert res.attaining == tuple(
            sorted(lab for lab, s in sums.items() if s == threshold)
        )


def test_complement_labels_are_an_involution():
    table = invariant_table(7)
    for n in range(1, 8):
        labels = [rec.g6 for rec in table if rec.n == n]
        co = {lab: canonical_label(complement(parse_graph6(lab))) for lab in labels}
        assert set(co.values()) == set(labels)
        assert all(co[co[lab]] == lab for lab in labels)


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


def _trailer(n, text):
    # the trailer a complete order-n checkpoint with this text ends in: the
    # record count and the SHA-256 of the order and the record lines
    records = text.splitlines()[:-1]
    body = "".join(line + "\n" for line in [str(n), *records])
    return {"done": len(records), "sha256": hashlib.sha256(body.encode()).hexdigest()}


def test_checkpoint_round_trip(tmp_path):
    ck = str(tmp_path)
    first = invariant_table(3, checkpoint_dir=ck)
    files = sorted(os.listdir(ck))
    assert files == ["invariants.n1.jsonl", "invariants.n2.jsonl", "invariants.n3.jsonl"]
    with open(os.path.join(ck, "invariants.n3.jsonl"), encoding="utf-8") as fh:
        text = fh.read()
    trailer = json.loads(text.splitlines()[-1])
    assert trailer["done"] == 4
    assert trailer == _trailer(3, text)
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
        text = fh.read()
    trailer = json.loads(text.splitlines()[-1])
    assert trailer["done"] == 2
    assert trailer == _trailer(2, text)


def test_checkpoint_digest_does_not_load_hashlib(tmp_path):
    # hashlib loads OpenSSL, about 3.5 MB of peak RSS; the digest comes from
    # the interpreter's lean builtin SHA-256 module instead
    code = (
        "import sys; from psdforce.extremal import invariant_table; "
        f"invariant_table(3, checkpoint_dir={str(tmp_path)!r}); "
        "print('hashlib' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", check=True
    )
    assert out.stdout == "False\n"
    assert len(os.listdir(tmp_path)) == 3


def test_an_order_past_the_enumeration_cap_fails_before_any_work(tmp_path, monkeypatch):
    def no_records(g):
        raise AssertionError("a record was computed")

    monkeypatch.setattr(extremal, "graph_record", no_records)
    past = canon.ENUM_MAX_N + 1
    message = f"enumeration supports 1 <= n <= {canon.ENUM_MAX_N}, got {past}"
    ck = tmp_path / "ck"
    with pytest.raises(ValueError, match=message):
        invariant_table(past, checkpoint_dir=str(ck))
    assert not ck.exists()
    # nor does a checkpoint of that order get around the cap
    ck.mkdir()
    record = ExtremalRecord(write_graph6(empty_graph(past)), past, past, 0)
    extremal._write_checkpoint(str(ck / f"invariants.n{past}.jsonl"), past, [record])
    with pytest.raises(ValueError, match=message):
        zeta(past, past, checkpoint_dir=str(ck))
    with pytest.raises(ValueError, match=message):
        ng_search(past, checkpoint_dir=str(ck))
    assert os.listdir(ck) == [f"invariants.n{past}.jsonl"]


def test_checkpoint_without_a_digest_is_recomputed(tmp_path):
    # a file with the older {"done": N} trailer is recomputed once and
    # rewritten with its digest
    ck = str(tmp_path)
    clean = invariant_table(3, checkpoint_dir=ck)
    path = os.path.join(ck, "invariants.n3.jsonl")
    with open(path, encoding="utf-8") as fh:
        right = fh.read()
    records = right.splitlines()[:-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in records) + '{"done": 4}\n')
    assert invariant_table(3, checkpoint_dir=ck) == clean
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == right


def test_checkpoint_ignores_garbage(tmp_path):
    ck = str(tmp_path)
    clean = invariant_table(1, checkpoint_dir=ck)
    with open(os.path.join(ck, "invariants.n1.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("not json\n")
    assert invariant_table(1, checkpoint_dir=ck) == clean


def test_checkpoint_ignores_a_garbled_record(tmp_path):
    # a broken record line above a valid trailer recomputes the order
    ck = str(tmp_path)
    clean = invariant_table(3, checkpoint_dir=ck)
    path = os.path.join(ck, "invariants.n3.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[0] = lines[0].replace(":", "", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert invariant_table(3, checkpoint_dir=ck) == clean
    assert invariant_table(3) == clean


@pytest.mark.parametrize("old,new", [
    ('"z+":1', '"z+":"1"'),
    ('"pt+":1', '"pt+":true'),
    ('"n":3', '"n":3.0'),
    ('"g6":"BW"', '"g6":7'),
    ('"z+":1', '"z+":2'),
], ids=["str-z", "bool-pt", "float-n", "int-g6", "wrong-z"])
def test_checkpoint_ignores_a_field_of_the_wrong_type(tmp_path, old, new):
    # a record that parses but holds a wrongly typed field, or a well-typed
    # wrong value that no longer matches the digest, recomputes the order
    # and rewrites its file
    ck = str(tmp_path)
    clean = invariant_table(3, checkpoint_dir=ck)
    path = os.path.join(ck, "invariants.n3.jsonl")
    with open(path, encoding="utf-8") as fh:
        right = fh.read()
    line = '{"g6":"BW","n":3,"z+":1,"pt+":1}'
    assert line in right
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(right.replace(line, line.replace(old, new)))
    assert invariant_table(3, checkpoint_dir=ck) == clean
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == right


def test_checkpoint_recomputes_an_edited_byte_that_is_not_utf8(tmp_path):
    # a byte that does not decode recomputes and rewrites the order, as an
    # ASCII edit does; a checkpoint path that cannot be read still raises
    ck = str(tmp_path)
    invariant_table(3, checkpoint_dir=ck)
    path = os.path.join(ck, "invariants.n3.jsonl")
    with open(path, "rb") as fh:
        right = fh.read()
    with open(path, "wb") as fh:
        fh.write(right[:3] + b"\xff" + right[4:])
    assert zeta(3, 1, checkpoint_dir=ck) == (1, ["BW"])
    with open(path, "rb") as fh:
        assert fh.read() == right
    os.remove(path)
    os.mkdir(path)
    with pytest.raises(OSError):
        zeta(3, 1, checkpoint_dir=ck)


def test_checkpoint_ignores_records_of_another_order(tmp_path):
    # an order-2 file copied over the order-3 one has a valid trailer but
    # the wrong records; the order is recomputed and rewritten
    ck = str(tmp_path)
    clean = invariant_table(3, checkpoint_dir=ck)
    n2 = os.path.join(ck, "invariants.n2.jsonl")
    n3 = os.path.join(ck, "invariants.n3.jsonl")
    with open(n3, encoding="utf-8") as fh:
        right = fh.read()
    with open(n2, encoding="utf-8") as src, open(n3, "w", encoding="utf-8") as dst:
        dst.write(src.read())
    assert invariant_table(3, checkpoint_dir=ck) == clean
    with open(n3, encoding="utf-8") as fh:
        assert fh.read() == right


def test_records_come_straight_from_the_enumerated_graphs(monkeypatch):
    # one graph_record per class and no label parsed again: the record
    # labels are canon's own, in canon's order
    for n in range(1, 7):
        canon._iso_classes(n)
    records, parses = [], []
    real = extremal.graph_record

    def counting(g):
        records.append(g)
        return real(g)

    def no_parse(text):
        parses.append(text)
        return parse_graph6(text)

    monkeypatch.setattr(extremal, "graph_record", counting)
    monkeypatch.setattr(extremal, "parse_graph6", no_parse)
    table = invariant_table(6)
    assert len(records) == len(table) == 208
    assert parses == []
    for n in range(1, 7):
        assert tuple(r.g6 for r in table if r.n == n) == canon._iso_classes(n)


def test_partly_checkpointed_survey(tmp_path, monkeypatch):
    # orders whose files are gone are recomputed, by one Pool, and only
    # their files are rewritten; two CPUs, so jobs=2 is not clamped to one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ck = str(tmp_path)
    cold = invariant_table(6, jobs=2, checkpoint_dir=ck)
    path = {n: os.path.join(ck, f"invariants.n{n}.jsonl") for n in range(1, 7)}
    before = {}
    for n, p in path.items():
        with open(p, encoding="utf-8") as fh:
            before[n] = fh.read()
    os.remove(path[3])
    os.remove(path[5])
    starts, enumerated, written = [], [], []
    real_pool, real_enum, real_write = (
        multiprocessing.Pool, extremal.enumerate_graphs, extremal._write_checkpoint)

    def counting(*args, **kwargs):
        starts.append(args)
        return real_pool(*args, **kwargs)

    def enumerating(n):
        enumerated.append(n)
        return real_enum(n)

    def writing(p, *args):
        written.append(p)
        return real_write(p, *args)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    monkeypatch.setattr(extremal, "enumerate_graphs", enumerating)
    monkeypatch.setattr(extremal, "_write_checkpoint", writing)
    assert invariant_table(6, jobs=2, checkpoint_dir=ck) == cold
    assert len(starts) == 1
    assert enumerated == [3, 5]
    assert written == [path[3], path[5]]
    for n, p in path.items():
        with open(p, encoding="utf-8") as fh:
            assert fh.read() == before[n]


def test_pool_matches_serial():
    # jobs=2 fans the labels of each order out to a Pool; results keep order
    assert invariant_table(6, jobs=2) == invariant_table(6)
    assert ng_search(6, jobs=2) == ng_search(6)


def test_one_pool_per_search(tmp_path, monkeypatch):
    # a search opens one Pool for all its orders, and none when every order
    # is read back from its checkpoint; two CPUs, so jobs=2 is not clamped
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    starts = []
    real = multiprocessing.Pool

    def counting(*args, **kwargs):
        starts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    ck = str(tmp_path)
    cold = invariant_table(6, jobs=2, checkpoint_dir=ck)
    assert len(starts) == 1
    assert invariant_table(6, jobs=2, checkpoint_dir=ck) == cold
    assert len(starts) == 1
    ng_search(6, jobs=2)
    assert len(starts) == 2


def test_library_jobs_are_clamped_to_the_cpu_count(monkeypatch):
    # a stand-in Pool records its size and starts no process
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert invariant_table(5, jobs=10**6) == invariant_table(5)
    assert ng_search(5, jobs=64) == ng_search(5)
    assert sizes == [3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no Pool
    assert invariant_table(5, jobs=8) == invariant_table(5)
    assert sizes == [3, 3]


# ---------------------------------------------------------------------------
# the complement pairs of ng_search, and the checkpoint writer


PAIRS_OF_ORDER_6 = 156 // 2  # no class of order 6 is self-complementary


def _sealed(n, lines):
    # these lines ended by the trailer that matches them, as a checkpoint is written
    text = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(f"{n}\n{text}".encode()).hexdigest()
    return text + json.dumps({"done": len(lines), "sha256": digest}) + "\n"


def _counting_labels(monkeypatch):
    calls = []
    real = canon.canonical_label

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(canon, "canonical_label", counting)
    return calls


def test_a_resumed_ng_search_labels_no_complement(tmp_path, monkeypatch, capsys):
    ck = str(tmp_path)
    cold = ng_search(6, checkpoint_dir=ck)
    assert sorted(os.listdir(ck)) == ["complements.n6.jsonl", "invariants.n6.jsonl"]
    with open(os.path.join(ck, "complements.n6.jsonl"), encoding="utf-8") as fh:
        text = fh.read()
    assert text == _sealed(6, text.splitlines()[:-1])
    calls = _counting_labels(monkeypatch)
    assert ng_search(6, checkpoint_dir=ck) == cold == ng_search(6)
    assert len(calls) == PAIRS_OF_ORDER_6  # the search without a checkpoint
    calls.clear()
    assert ng_search(6, checkpoint_dir=ck) == cold
    assert calls == []
    assert capsys.readouterr().err == ""  # a missing file and a clean resume are quiet


def test_complement_pairs_are_each_class_and_its_complement(tmp_path):
    ck = str(tmp_path)
    self_complementary = {}
    for n in range(1, 7):
        ng_search(n, checkpoint_dir=ck)
        with open(os.path.join(ck, f"complements.n{n}.jsonl"), encoding="utf-8") as fh:
            pairs = [json.loads(line) for line in fh.read().splitlines()[:-1]]
        labels = [rec.g6 for rec in invariant_table(n) if rec.n == n]
        # one line per unordered pair, in table order, each class in one line
        firsts = [a for a, _ in pairs]
        assert firsts == sorted(firsts, key=labels.index)
        assert sorted(lab for p in pairs for lab in set(p)) == sorted(labels)
        for first, second in pairs:
            assert labels.index(first) <= labels.index(second)
            assert second == canonical_label(complement(parse_graph6(first)))
        self_complementary[n] = sum(a == b for a, b in pairs)
    assert self_complementary == {1: 1, 2: 0, 3: 0, 4: 1, 5: 2, 6: 0}


def test_complement_pairs_with_and_without_a_pool(tmp_path, monkeypatch):
    # jobs=1 and jobs=2 agree, and a fully resumed jobs=2 search opens no
    # Pool; two CPUs, so jobs=2 is not clamped to one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    starts = []
    real = multiprocessing.Pool

    def counting(*args, **kwargs):
        starts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    serial = ng_search(6, checkpoint_dir=str(tmp_path / "serial"))
    ck = str(tmp_path / "pool")
    assert ng_search(6, jobs=2, checkpoint_dir=ck) == serial
    assert len(starts) == 1
    calls = _counting_labels(monkeypatch)
    assert ng_search(6, jobs=2, checkpoint_dir=ck) == serial
    assert len(starts) == 1
    assert calls == []


def _edit_label(lines):
    first = json.loads(lines[0])
    first[0] = first[0][:-1] + ("?" if first[0][-1] != "?" else "@")
    return [json.dumps(first, separators=(",", ":")), *lines[1:-1]]  # digest kept


@pytest.mark.parametrize("corrupt", [
    lambda lines, n5: [*_edit_label(lines), lines[-1]],
    lambda lines, n5: _sealed(6, [*lines[:-1], lines[0]]).splitlines(),
    lambda lines, n5: _sealed(6, lines[1:-1]).splitlines(),
    lambda lines, n5: _sealed(6, [lines[0].replace(json.loads(lines[0])[0], "D??"),
                                  *lines[1:-1]]).splitlines(),
    lambda lines, n5: n5,
    lambda lines, n5: lines[:-1],
    lambda lines, n5: [*lines[:-1], json.dumps({"done": len(lines) - 1})],
    lambda lines, n5: _sealed(6, ['["A?"]', *lines[1:-1]]).splitlines(),
], ids=["edited-label", "class-twice", "class-missing", "label-of-order-5", "order-5-file",
        "no-trailer", "old-trailer", "one-label"])
def test_a_complements_file_that_is_not_the_pairing_is_recomputed(
        tmp_path, monkeypatch, capsys, corrupt):
    # the pairs are labelled again, with one note on stderr, and the file
    # is rewritten byte for byte
    ck = str(tmp_path)
    ng_search(5, checkpoint_dir=ck)
    cold = ng_search(6, checkpoint_dir=ck)
    n5, n6 = (tmp_path / f"complements.n{n}.jsonl" for n in (5, 6))
    right = n6.read_text(encoding="utf-8")
    lines = corrupt(right.splitlines(), n5.read_text(encoding="utf-8").splitlines())
    n6.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    calls = _counting_labels(monkeypatch)
    assert ng_search(6, checkpoint_dir=ck) == cold
    assert len(calls) == PAIRS_OF_ORDER_6
    assert n6.read_text(encoding="utf-8") == right
    assert capsys.readouterr().err == f"note: checkpoint {n6} does not check out; recomputing it\n"


def test_an_edited_invariants_byte_prints_one_note(tmp_path, capsys):
    ck = str(tmp_path)
    clean = invariant_table(3, checkpoint_dir=ck)
    path = os.path.join(ck, "invariants.n3.jsonl")
    with open(path, encoding="utf-8") as fh:
        right = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(right.replace('"pt+":1', '"pt+":2', 1))
    assert capsys.readouterr().err == ""
    assert invariant_table(3, checkpoint_dir=ck) == clean
    err = capsys.readouterr().err
    assert err == f"note: checkpoint {path} does not check out; recomputing it\n"
    assert invariant_table(3, checkpoint_dir=ck) == clean
    assert capsys.readouterr() == ("", "")


def test_two_writers_of_one_checkpoint_both_succeed(tmp_path, monkeypatch):
    # another run finishes a write of the same path while this one is
    # between its write and its rename: each moves its own temporary file,
    # and the file holds the bytes of one write
    path = str(tmp_path / "invariants.n3.jsonl")
    records = [rec for rec in invariant_table(3) if rec.n == 3]
    extremal._write_checkpoint(str(tmp_path / "alone"), 3, records)
    with open(tmp_path / "alone", encoding="utf-8") as fh:
        alone = fh.read()
    os.remove(tmp_path / "alone")
    real = os.replace
    moved = []

    def interleaved(src, dst):
        moved.append(src)
        if len(moved) == 1:
            extremal._write_checkpoint(path, 3, records)
        real(src, dst)

    monkeypatch.setattr(os, "replace", interleaved)
    extremal._write_checkpoint(path, 3, records)
    assert len(set(moved)) == 2
    assert os.listdir(tmp_path) == ["invariants.n3.jsonl"]
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == alone


def test_a_failed_checkpoint_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        ng_search(3, checkpoint_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_a_checkpoint_with_no_records_is_recomputed(tmp_path, capsys):
    # every order has a class, so a sealed file without records is not a table
    ck = str(tmp_path)
    extremal._write_checkpoint(os.path.join(ck, "invariants.n3.jsonl"), 3, [])
    assert invariant_table(3, checkpoint_dir=ck) == invariant_table(3)
    assert capsys.readouterr().err.startswith("note: checkpoint ")
    assert ng_search(3, checkpoint_dir=ck) == ng_search(3)
