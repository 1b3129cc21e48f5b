"""In-memory span tracing of psdforce's public functions, for the traced run.

``Tracer.install()`` replaces each function named in ``MANIFEST`` by a
wrapper, in the module that defines it and in every module that imported it
by name (``from .engine import forceable`` binds a second reference, so
patching only ``engine.forceable`` would miss calls made from ``migration``).
The package namespace is patched too when it re-exports the function.
``Tracer.uninstall()`` puts every original back.

Installation fails loudly (``ManifestError``) when a named function is
missing from a module that should hold it, or when a psdforce module holds it
under that name without being listed.  Either would otherwise leave a layer
metric silently at zero after a rename or a moved import.

Each call records one span (name, start, end, parent) in flat arrays.  A
generator function records one span per resumption, so the work a consumer
pulls out of ``enumerate_graphs`` is charged to it.  ``Tracer.summary()``
computes each span's self time and sums calls and self time per name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

PACKAGE = "psdforce"

# defining module -> public function -> other psdforce modules that import
# it by name.  vset, vlist and as_mask are left out: they are O(1) bit-set
# conversions called millions of times per workload; wrapping them would
# double the traced run's time and memory and would feed no layer metric.
MANIFEST: dict[str, dict[str, tuple[str, ...]]] = {
    "graph": {
        "write_graph6": ("canon", "extremal", "cli"),
        "parse_graph6": ("canon", "extremal", "cli"),
        "read_graph6_lines": ("cli",),
        "components": ("canon", "engine", "migration", "cli"),
        "is_connected": (),
        "is_bridge": (),
        "bridges": ("migration",),
        "complement": ("extremal",),
        "disjoint_union": (),
        "induced_subgraph": ("engine", "migration"),
    },
    "canon": {
        "canonical_form": (),
        "canonical_label": (),
        "enumerate_graphs": ("extremal",),
    },
    "engine": {
        "forceable": ("migration",),
        "propagate": ("cli",),
        "is_psd_forcing_set": ("cli",),
        "forcing_forest": (),
        "psd_zero_forcing_number": ("cli",),
        "pt_plus_k": ("cli",),
        "pt_plus": ("cli",),
        "component_pt": ("migration", "cli"),
    },
    "extremal": {
        "graph_record": (),
        "throttling_number": ("cli",),
        "ng_sums": (),
        "ng_pt_sum": (),
        "ng_z_sum": (),
        "invariant_table": (),
        "classify_extremal": ("cli",),
        "zeta": ("cli",),
        "ng_search": ("cli",),
    },
    "migration": {
        "verify_force_switch": (),
        "single_vertex_migrate": (),
        "shrink_max_component": ("cli",),
        "multi_vertex_migrate": (),
        "balance_propagation": ("cli",),
    },
    "cli": {
        "cmd_compute": (),
        "cmd_simulate": (),
        "cmd_migrate": (),
        "cmd_family": (),
        "cmd_extremal": (),
        "cmd_ng": (),
        "cmd_verify_bounds": (),
        "build_parser": (),
        "main": (),
    },
}

# Work counters read off a function's result: span name -> (counter, f(result)).
RESULT_COUNTERS = {
    "engine.propagate": ("engine.propagate.rounds", lambda r: len(r.rounds)),
    "migration.shrink_max_component": ("migration.passes", lambda r: len(r[1].steps)),
    "migration.balance_propagation": ("migration.passes", lambda r: len(r[1].steps)),
}


class ManifestError(RuntimeError):
    """A function named in MANIFEST is not where the manifest says it is."""


def _modules() -> dict[str, object]:
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MANIFEST}
    mods[""] = importlib.import_module(PACKAGE)
    return mods


def _sites(mods: dict[str, object]) -> list[tuple[str, object, str, object]]:
    """(span name, module, attribute, original) for every binding to patch."""
    out = []
    problems = []
    for defmod, funcs in MANIFEST.items():
        for fname, importers in funcs.items():
            orig = getattr(mods[defmod], fname, None)
            if not inspect.isfunction(orig):
                problems.append(f"{defmod}.{fname} is missing or not a function")
                continue
            listed = {defmod, *importers}
            for mname in sorted(listed):
                if getattr(mods[mname], fname, None) is not orig:
                    problems.append(f"{mname}.{fname} does not hold {defmod}.{fname}")
            for mname, mod in mods.items():
                if mname and mname not in listed and getattr(mod, fname, None) is orig:
                    problems.append(
                        f"{mname}.{fname} imports {defmod}.{fname} but is not listed"
                    )
            for mname, mod in mods.items():
                if getattr(mod, fname, None) is orig:
                    out.append((f"{defmod}.{fname}", mod, fname, orig))
    if problems:
        raise ManifestError("trace manifest out of date: " + "; ".join(problems))
    return out


class Tracer:
    """Spans and counters of one traced pass; patches psdforce while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = RESULT_COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self._count(name + ".yields", 1)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self._count(counter[0], counter[1](result))
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[str, object] = {}
        for name, mod, attr, orig in _sites(_modules()):
            if name not in wrappers:
                wrappers[name] = self._wrap(name, orig)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrappers[name])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self_s.

        A span's self time is its duration minus the spans of other modules
        it called, directly or through functions of its own module: a layer
        is a module, so ``cli.main`` keeps the time of ``cli.cmd_compute``
        and ``canon.canonical_label`` the time of ``canon.canonical_form``,
        while neither keeps the engine or graph work beneath them.
        """
        layer = [name.partition(".")[0] for name in self.names]
        count = len(self.name_id)
        own = array("d", (self.end[i] - self.start[i] for i in range(count)))
        for i in range(count):
            p = self.parent[i]
            if p < 0 or layer[self.name_id[p]] == layer[self.name_id[i]]:
                continue
            d = self.end[i] - self.start[i]
            outer = layer[self.name_id[p]]
            while p >= 0 and layer[self.name_id[p]] == outer:
                own[p] -= d
                p = self.parent[p]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += own[i]
        return out
