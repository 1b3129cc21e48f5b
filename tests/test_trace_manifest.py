"""The benchmark's trace manifest still matches the package's bindings.

``perfbench/tracing.py`` wraps the functions its ``MANIFEST`` names in every
module that binds them, and refuses to install when a binding moved or went
missing.  Installing it here makes a dropped import fail the test suite, not
only the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import psdforce

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
