import pytest

from psdforce import engine, enumerate_graphs, graph, migration, write_graph6


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with every functools cache of engine, migration and
    graph empty, so no answer memoised in one test answers the next.

    canon's class cache is kept: it holds no engine answer and is expensive
    to rebuild.
    """
    for mod in (engine, migration, graph):
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


@pytest.fixture(scope="session")
def classes_by_order():
    """Canonical graph6 labels of every isomorphism class, orders 1..6."""
    return {
        n: [write_graph6(g) for g in enumerate_graphs(n)] for n in range(1, 7)
    }
