"""graph6 encoding and decoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdforce import Graph, Graph6Error, parse_graph6, read_graph6_lines, write_graph6
from psdforce.families import complete, empty_graph, path


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
    for labels in classes_by_order.values():
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


def test_long_header_starts_at_63():
    assert write_graph6(empty_graph(62)).startswith("}")
    assert write_graph6(empty_graph(63)).startswith("~")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "\x1c",  # below the printable range
        "\x7f",
        "B",  # body truncated
        "Bww",  # trailing data
        "AO",  # nonzero padding bits after the single n=2 edge bit
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_parse_error_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("Bw\x05")
    assert "2" in str(exc.value) or "offset" in str(exc.value).lower()


def test_read_lines_skips_blanks_and_comments():
    lines = ["# corpus", "", "A_", "  ", "Bw", "# done"]
    got = list(read_graph6_lines(lines))
    assert [(i, write_graph6(g)) for i, g in got] == [(3, "A_"), (5, "Bw")]


def test_read_lines_error_carries_line_number():
    with pytest.raises(Graph6Error) as exc:
        list(read_graph6_lines(["A_", "!!bad"]))
    assert "2" in str(exc.value)
