"""graph6 encoding and decoding."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdforce import (
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    canonical_label,
    enumerate_graphs,
    parse_graph6,
    read_graph6_lines,
    write_graph6,
)
from psdforce.canon import CANON_MAX_N, canonical_form
from psdforce.families import complete, empty_graph, path
from psdforce.graph import _g6_header

from _oracles import ref_graph6


KNOWN = [
    ("@", empty_graph(1)),
    ("A?", empty_graph(2)),
    ("A_", path(2)),
    ("Bw", complete(3)),
    ("DhC", path(5)),
]


@pytest.mark.parametrize("text,graph", KNOWN, ids=[t for t, _ in KNOWN])
def test_known_encodings(text, graph):
    assert write_graph6(graph) == text
    assert parse_graph6(text) == graph


def test_round_trip_all_small_classes(classes_by_order):
    order7 = [write_graph6(g) for g in enumerate_graphs(7)]
    for labels in [*classes_by_order.values(), order7]:
        for lab in labels:
            assert write_graph6(parse_graph6(lab)) == lab


def _random_graph(n, edge_bits):
    # bit i of edge_bits keeps the i-th pair (u, v), u < v, in column order
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = [p for i, p in enumerate(pairs) if edge_bits >> i & 1]
    return Graph(n, edges)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_round_trip_random(data):
    # n beyond 62 exercises the long three-sextet header
    n = data.draw(st.integers(min_value=1, max_value=70))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n * (n - 1) // 2) - 1))
    g = _random_graph(n, bits)
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_accepted_text_is_what_write_graph6_writes_back(data):
    # the CLI labels each graph it reads by its own text.  n beyond 62 needs
    # the long header, which a quarter of the smaller orders also try, and a
    # quarter of the draws keep their padding bits: both must be refused
    n = data.draw(st.integers(min_value=1, max_value=70))
    if n > 62 or data.draw(st.integers(0, 3)) == 0:
        header = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    else:
        header = chr(63 + n)
    nbits = n * (n - 1) // 2
    nchars = -(-nbits // 6)
    body = data.draw(st.lists(st.integers(0, 63), min_size=nchars, max_size=nchars))
    if body and data.draw(st.integers(0, 3)):
        body[-1] &= ~((1 << 6 * nchars - nbits) - 1)  # clear the padding bits
    text = header + "".join(chr(63 + x) for x in body)
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert write_graph6(g) == text


def _check_against_reference(g):
    # write_graph6 and canonical_label share one packer and parse_graph6 its
    # table; the reference shares neither
    text = ref_graph6(g.n, list(g.edges()))
    assert write_graph6(g) == text
    assert parse_graph6(text) == g
    if g.n <= CANON_MAX_N:
        form = canonical_form(g)
        assert canonical_label(g) == ref_graph6(form.n, list(form.edges()))


def test_codec_matches_the_format_definition_on_every_small_class():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            _check_against_reference(g)


def test_codec_matches_the_format_definition_on_random_graphs():
    # orders 1..100 cross the 62/63 header boundary and every body length mod 6
    rng = random.Random(20261019)
    for n in range(1, 101):
        density = rng.random()
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < density])
        _check_against_reference(g)


def test_codec_matches_the_format_definition_on_a_large_sparse_graph():
    rng = random.Random(1019)
    n = 1200
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
    _check_against_reference(Graph(n, [(u, v) for u, v in edges if u != v]))
    # columns longer than the 4096 bits parse_graph6 reads at a time
    g = Graph(4200, [(0, 4199), (4098, 4199), (17, 4100), (4099, 4100)])
    assert parse_graph6(write_graph6(g)) == g


def test_long_header_starts_at_63():
    assert write_graph6(empty_graph(62)).startswith("}")
    assert write_graph6(empty_graph(63)).startswith("~")


def test_long_header_ends_at_graph6_max_n():
    # a first sextet of 63 would read as '~~', the 8-byte form
    assert GRAPH6_MAX_N == 258047
    assert _g6_header(GRAPH6_MAX_N) == "~}~~"
    for n in (GRAPH6_MAX_N + 1, 262143, 262144):
        with pytest.raises(ValueError, match=f"^graph order {n} beyond graph6 range "
                                             r"\(at most 258047\)$"):
            _g6_header(n)


def test_write_refuses_an_order_past_the_header_at_once():
    # the body of order 258048 has 33 billion bits, so the header is checked
    # first: a stand-in with no adjacency would fail on any body bit
    for g in (SimpleNamespace(n=GRAPH6_MAX_N + 1), Graph(GRAPH6_MAX_N + 1)):
        with pytest.raises(ValueError, match="^graph order 258048 beyond graph6 range"):
            write_graph6(g)


# (text, message, byte offset) of every way parse_graph6 rejects its input
MALFORMED = [
    ("", "empty graph6 string", 0),
    ("\x1c", "character '\\x1c' outside graph6 range", 0),  # below the range
    ("\x7f", "character '\\x7f' outside graph6 range", 0),
    ("~~", "graph order beyond supported range", 0),
    ("~?", "truncated extended-order header", 2),
    ("~???", "extended header used for small order", 0),
    # the largest 4-byte header, n = 258047, with no body after it
    ("~}~~", "truncated graph6 body", 4),
    ("?", "graph order must be >= 1, got 0", 0),
    ("B", "truncated graph6 body", 1),
    ("Bww", "trailing data after graph6 body", 2),
    ("AO", "nonzero padding bits", 1),  # after the single n=2 edge bit
    ("D?@", "nonzero padding bits", 2),  # n=5: 10 bits in two bytes
]


@pytest.mark.parametrize("bad,message,offset", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_parse_rejects_malformed(bad, message, offset):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(bad)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} (byte {offset})"


def test_parse_error_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("Bw\x05")
    assert exc.value.offset == 2
    assert str(exc.value) == "character '\\x05' outside graph6 range (byte 2)"


def test_read_lines_skips_blanks_and_comments():
    lines = ["# corpus", "", "A_", "  ", "Bw", "# done"]
    got = list(read_graph6_lines(lines))
    assert [(i, write_graph6(g)) for i, g in got] == [(3, "A_"), (5, "Bw")]


def test_read_lines_error_carries_line_number():
    with pytest.raises(Graph6Error) as exc:
        list(read_graph6_lines(["A_", "!!bad"]))
    assert exc.value.offset == 0
    assert str(exc.value) == "line 2: character '!' outside graph6 range (byte 0)"
