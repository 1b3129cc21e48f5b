import pytest

from psdforce import engine, enumerate_graphs, write_graph6


@pytest.fixture(autouse=True)
def cold_engine_memos():
    """Start every test with the engine's value-keyed memos empty.

    canon's class cache is kept: it holds no engine answer and is expensive
    to rebuild.
    """
    for memo in (
        engine._scan_size_k,
        engine._scan_floor,
        engine._set_time,
        engine._one_round_table,
    ):
        memo.cache_clear()


@pytest.fixture(scope="session")
def classes_by_order():
    """Canonical graph6 labels of every isomorphism class, orders 1..6."""
    return {
        n: [write_graph6(g) for g in enumerate_graphs(n)] for n in range(1, 7)
    }
