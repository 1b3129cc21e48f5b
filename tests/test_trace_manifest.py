"""The benchmark's trace manifest still matches the package's bindings.

``perfbench/tracing.py`` wraps the functions its ``MANIFEST`` names in every
module that binds them, and refuses to install when a binding moved or went
missing.  Installing it here makes a dropped import fail the test suite, not
only the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import psdforce
from psdforce import cli
from psdforce.families import path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "psdforce_trace_manifest_check", ROOT / "perfbench" / "tracing.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_manifest_installs():
    assert Path(psdforce.__file__).resolve().parent == ROOT / "src" / "psdforce"
    tracing = _load_tracing()
    before = psdforce.engine.pt_plus
    tracer = tracing.Tracer()
    tracer.install()  # raises ManifestError when the manifest is out of date
    try:
        assert psdforce.engine.pt_plus is not before
    finally:
        tracer.uninstall()
    assert psdforce.engine.pt_plus is before


def test_trace_sees_the_command_layer(capsys):
    # the parser binds set_defaults(fn=cmd_*) when it is built, so a parser
    # built before the tracer was installed would call the unwrapped commands
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    cli._parser.cache_clear()
    tracer.install()
    try:
        assert cli.main(["compute", "--family", "path:4", "--json"]) == 0
    finally:
        tracer.uninstall()
        cli._parser.cache_clear()
    assert capsys.readouterr().out == '{"g6":"Ch","n":4,"z+":1,"pt+":2,"witness":[1]}\n'
    spans = tracer.summary()
    assert spans["cli.cmd_compute"]["calls"] == 1
    assert spans["cli.build_parser"]["calls"] == 1


def test_trace_sees_the_bridge_reading_of_a_force_switch():
    # verify_force_switch calls is_bridge through the graph module, which is
    # where the tracer patches it
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert psdforce.migration.verify_force_switch(path(4), [], 1, 2)[0]
    finally:
        tracer.uninstall()
    assert tracer.summary()["graph.is_bridge"]["calls"] == 1
