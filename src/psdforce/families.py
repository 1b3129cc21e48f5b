"""Constructors for named graph families and worked example graphs.

Family constructors are deterministic: the same parameters always produce
the same vertex numbering.  Constructors of parameterized families with
distinguished vertices also return a name -> vertex map, which the CLI
accepts in --blue arguments.
"""

from __future__ import annotations

from .graph import Graph, complement

__all__ = [
    "FIXTURES",
    "complete",
    "cycle",
    "empty_graph",
    "h_family",
    "lollipop",
    "make_family",
    "migration_demo_double",
    "migration_demo_single",
    "path",
]

NameMap = dict[str, int]


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return complement(Graph(n))  # n rows, not n(n-1)/2 edge tuples


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("empty graph needs n >= 1")
    return Graph(n)


def lollipop(m: int, r: int) -> tuple[Graph, NameMap]:
    """Clique on 0..m-1 plus a pendant path of r vertices hung off vertex m-1.

    Named vertices: "v" is the clique vertex carrying the path, "w" is the
    far end of the path.
    """
    if m < 3:
        raise ValueError("lollipop needs clique size m >= 3")
    if r < 1:
        raise ValueError("lollipop needs path length r >= 1")
    rows = list(Graph(m + r, [(m - 1 + i, m + i) for i in range(r)]).adj)
    for v, row in enumerate(complete(m).adj):
        rows[v] |= row
    return Graph._from_rows(rows), {"v": m - 1, "w": m + r - 1}


# Core of the balanced two-tail family: a self-complementary graph on eight
# vertices.  The 2k+8 member hangs a k-vertex tail off each of a0 and b0.
_H_CORE_NAMES = ["z", "zp", "x", "xp", "y", "yp", "a0", "b0"]
_H_CORE_EDGES = [
    ("z", "y"), ("y", "b0"), ("b0", "xp"), ("xp", "zp"),
    ("zp", "yp"), ("yp", "a0"), ("a0", "x"), ("x", "z"),
    ("z", "zp"), ("x", "y"), ("x", "yp"), ("xp", "y"),
    ("xp", "yp"), ("y", "yp"),
]


def h_family(k: int) -> tuple[Graph, NameMap]:
    """Order 2k+8 member of the two-tail family (k >= 0).

    Vertices: the eight core vertices z, zp, x, xp, y, yp, a0, b0 are
    0..7; tail vertices a1..ak are 8..7+k and b1..bk are 8+k..7+2k.
    """
    if k < 0:
        raise ValueError("h_family needs k >= 0")
    names: NameMap = {nm: i for i, nm in enumerate(_H_CORE_NAMES)}
    for i in range(1, k + 1):
        names[f"a{i}"] = 7 + i
        names[f"b{i}"] = 7 + k + i
    edges = [(names[u], names[v]) for u, v in _H_CORE_EDGES]
    for i in range(1, k + 1):
        edges.append((names[f"a{i - 1}"], names[f"a{i}"]))
        edges.append((names[f"b{i - 1}"], names[f"b{i}"]))
    return Graph(8 + 2 * k, edges), names


def migration_demo_single() -> tuple[Graph, NameMap]:
    """Nine-vertex demo graph whose complement of {b1,b2,b3} is connected.

    With blue set {b1, b2, b3}, the first synchronous step forces exactly
    v1 and v2, so swapping the two forcers for their targets gives
    {v1, v2, b3} and lowers the propagation time by one.
    """
    edges = [
        (6, 7), (7, 8), (8, 5), (5, 2), (2, 1), (1, 0), (0, 3), (3, 6),
        (6, 4), (4, 2), (7, 5), (1, 4), (4, 7), (3, 4), (4, 5),
    ]
    return Graph(9, edges), {"b1": 0, "b2": 3, "b3": 6, "v1": 1, "v2": 4}


def migration_demo_double() -> tuple[Graph, NameMap]:
    """Fifteen-vertex demo graph where G - {b1,b2,b3} has two components.

    {b1, b2, b3} forces; its first step sends v1, v2 into the right
    component and v3 into the left one.  Swapping inside one component at a
    time yields the forcing sets {v1, v2, b3} and {b1, b2, v3}, but swapping
    both sides at once ({v1, v2, v3}) does not force.
    """
    edges = [
        (3, 4), (4, 5), (5, 8), (8, 11), (11, 10), (10, 9), (9, 6), (6, 3),
        (4, 7), (7, 10), (10, 6), (6, 7), (7, 8), (8, 3), (3, 7),
        (3, 0), (0, 1), (1, 4), (1, 2), (2, 5),
        (9, 12), (12, 13), (13, 10), (13, 14), (14, 11),
    ]
    names = {"b1": 8, "b2": 7, "b3": 6, "v1": 11, "v2": 10, "v3": 3}
    return Graph(15, edges), names


FIXTURES = {
    "figure3": migration_demo_single,
    "figure4": migration_demo_double,
}


def make_family(spec: str) -> tuple[Graph, NameMap]:
    """Build a family member from a "name:params" string.

    Accepted: path:n, cycle:n, complete:n, empty:n, lollipop:m,r, h:k
    (alias h_family:k), and the fixture names.
    """
    if spec in FIXTURES:
        return FIXTURES[spec]()
    name, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"family spec {spec!r} needs name:params")
    try:
        params = [int(p) for p in rest.split(",")] if rest else []
    except ValueError:
        raise ValueError(f"family spec {spec!r} has non-integer parameters") from None
    simple = {"path": path, "cycle": cycle, "complete": complete, "empty": empty_graph}
    if name in simple:
        if len(params) != 1:
            raise ValueError(f"family {name!r} takes one parameter")
        return simple[name](params[0]), {}
    if name == "lollipop":
        if len(params) != 2:
            raise ValueError("family 'lollipop' takes two parameters m,r")
        return lollipop(*params)
    if name in ("h", "h_family"):
        if len(params) != 1:
            raise ValueError(f"family {name!r} takes one parameter k")
        return h_family(params[0])
    raise ValueError(f"unknown family {name!r}")
