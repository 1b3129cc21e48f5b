"""Package-wide properties: the result records, what importing loads, and
what the sources may contain."""

import ast
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import psdforce
from psdforce.engine import ForceEvent, forcing_forest, propagate
from psdforce.extremal import graph_record, ng_search, ng_sums
from psdforce.families import migration_demo_single, path
from psdforce.migration import balance_propagation

SRC = Path(psdforce.__file__).resolve().parent


def _records():
    """One real instance of each result record type, with a field to replace
    and a new value for it."""
    g, names = migration_demo_single()
    blue = [names["b1"], names["b2"], names["b3"]]
    schedule = propagate(g, blue)
    _, trace = balance_propagation(g, blue)
    return [
        (ForceEvent(forcer=0, target=1, step=1), "step", 2),
        (schedule, "succeeded", False),
        (forcing_forest(g, schedule), "roots", ()),
        (trace.steps[0], "forces", ()),
        (trace, "final", 0),
        (graph_record(path(4)), "pt_plus", 0),
        (ng_sums(path(4)), "pt_sum", 0),
        (ng_search(4), "attained", False),
    ]


RECORDS = _records()
IDS = [type(rec).__name__ for rec, _, _ in RECORDS]


def test_every_record_type_is_covered():
    assert sorted(IDS) == [
        "ExtremalRecord", "ForceEvent", "ForcingForest", "MigrationStep",
        "MigrationTrace", "NGSearchResult", "NGSums", "PropagationSchedule",
    ]
    assert RECORDS[3][0].forces and RECORDS[4][0].steps  # the trace moved


@pytest.mark.parametrize("rec, field, value", RECORDS, ids=IDS)
def test_record_is_slotted(rec, field, value):
    # no per-instance dict: a migration sweep keeps ~300k of these alive
    assert not hasattr(rec, "__dict__")
    assert type(rec).__slots__ == tuple(f.name for f in dataclasses.fields(rec))


@pytest.mark.parametrize("rec, field, value", RECORDS, ids=IDS)
def test_record_is_frozen(rec, field, value):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, field, value)


@pytest.mark.parametrize("rec, field, value", RECORDS, ids=IDS)
def test_record_pickles(rec, field, value):
    # Pool workers send records back pickled
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec
    assert repr(back) == repr(rec)


@pytest.mark.parametrize("rec, field, value", RECORDS, ids=IDS)
def test_record_replace(rec, field, value):
    new = dataclasses.replace(rec, **{field: value})
    assert getattr(new, field) == value
    assert new != rec
    assert dataclasses.replace(new, **{field: getattr(rec, field)}) == rec


def test_record_repr_and_hash_are_unchanged():
    ev = ForceEvent(forcer=0, target=1, step=1)
    assert repr(ev) == "ForceEvent(forcer=0, target=1, step=1)"
    assert hash(ev) == hash((0, 1, 1))
    assert dataclasses.asdict(ev) == {"forcer": 0, "target": 1, "step": 1}


def test_import_does_not_load_multiprocessing():
    # only a search with jobs > 1 opens a Pool and pays for its import
    code = "import sys, psdforce, psdforce.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", check=True
    )
    assert out.stdout == "False\n"


def test_sources_hold_no_assert_statements():
    # the consistency checks are plain ``if`` tests, so they also run under
    # ``python -O``, which strips assert statements
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) == 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_namespace_exports_exactly_its_public_names():
    assert sorted(psdforce.__all__) == [
        "CANON_MAX_N", "CapExceededError", "ConsistencyError", "DEFAULT_MAX_SUBSETS",
        "ENUM_MAX_N", "ExtremalRecord", "FIXTURES", "ForceEvent", "ForcingForest",
        "GRAPH6_MAX_N", "Graph", "Graph6Error", "MigrationStep", "MigrationTrace",
        "NGSearchResult", "NoForcingSetError", "NotForcingError", "PropagationSchedule",
        "balance_propagation", "bridges", "canonical_label", "classify_extremal",
        "complement", "complete", "component_pt", "components", "cycle", "empty_graph",
        "enumerate_graphs", "forceable", "forcing_forest", "graph_record", "h_family",
        "invariant_table", "is_bridge", "is_psd_forcing_set", "lollipop", "make_family",
        "migration_demo_double", "migration_demo_single", "multi_vertex_migrate",
        "ng_search", "parse_graph6", "path", "propagate", "psd_zero_forcing_number",
        "pt_plus", "pt_plus_k", "read_graph6_lines", "shrink_max_component",
        "single_vertex_migrate", "throttling_number", "verify_force_switch", "vlist",
        "vset", "write_graph6", "zeta",
    ]
    assert all(hasattr(psdforce, name) for name in psdforce.__all__)


@pytest.mark.parametrize("module, name", [
    ("extremal", "ng_pt_sum"), ("extremal", "ng_z_sum"), ("extremal", "ng_sums"),
    ("extremal", "NGSums"), ("canon", "canonical_form"), ("graph", "is_connected"),
    ("graph", "induced_subgraph"), ("graph", "disjoint_union"),
])
def test_module_level_names_are_not_reexported(module, name):
    assert not hasattr(psdforce, name)
    assert callable(getattr(importlib.import_module(f"psdforce.{module}"), name))


def test_module_export_lists_partition_the_namespace():
    # each public name is declared in the __all__ of the module defining it,
    # and the package exports those lists and nothing else
    modules = [
        importlib.import_module(f"psdforce.{name}")
        for name in ["canon", "engine", "extremal", "families", "graph", "migration"]
    ]
    for mod in modules:
        for name in mod.__all__:
            obj = vars(mod)[name]
            if callable(obj):
                assert obj.__module__ == mod.__name__, name
    exported = [name for mod in modules for name in mod.__all__]
    assert len(exported) == len(set(exported)) == 57
    assert set(exported) == set(psdforce.__all__)
    public = {
        name for name, obj in vars(psdforce).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(psdforce.__all__)


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    library = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert capsys.readouterr().out == "1 2 [2] 2 True\n"
