"""The four benchmark workloads: seeded inputs, one timed pass, exactness checks.

A workload object is built from a seed (that is the set-up the benchmark
times as ``setup_s``).  ``reset()`` prepares a cold pass outside the timed
region, ``run()`` is the timed pass and returns a ``Pass``, and
``check(p)`` compares the pass's outputs with references outside the timed
region and returns (attempted, failed) operation counts.

Every call into psdforce goes through a module attribute looked up at call
time (``mods.extremal.invariant_table``), so the traced run's wrappers see
the top-level calls too.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# OEIS A000088: isomorphism classes of graphs on n vertices, n = 1..8.
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
NG7_HISTOGRAM = {1: 2, 2: 368, 3: 414, 4: 252, 5: 8}
MIGRATE7_FORCING_SETS = 72936
MIGRATE7_SINGLE_MIGRATIONS = 232510


def load_package(root: Path) -> SimpleNamespace:
    """Import psdforce from ``root/src`` (never an installed copy)."""
    src = root / "src"
    if not (src / "psdforce" / "__init__.py").is_file():
        raise FileNotFoundError(f"no psdforce sources under {src}")
    sys.path.insert(0, str(src))
    import psdforce
    from psdforce import canon, cli, engine, extremal, families, graph, migration

    if Path(psdforce.__file__).resolve().parent != (src / "psdforce").resolve():
        raise ImportError(f"imported psdforce from {psdforce.__file__}, not {src}")
    return SimpleNamespace(
        package=psdforce, canon=canon, cli=cli, engine=engine,
        extremal=extremal, families=families, graph=graph, migration=migration,
    )


def clear_caches(mods: SimpleNamespace) -> None:
    """Empty every functools cache in psdforce, so each pass starts cold."""
    for mod in vars(mods).values():
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


@dataclass
class Pass:
    """Outputs of one timed pass, and what the harness timed inside it."""

    outputs: object
    items: int
    # (start, end) perf_counter times of each item; None: every item waits
    # for the whole pass
    item_spans: list[tuple[float, float]] | None = None
    # named (start, end) perf_counter windows inside the pass
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)


def _relabel(g, perm):
    return type(g)(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class Catalog8:
    """invariant_table(8) then the k=4 catalog: enumeration plus Z+/pt+ scans."""

    name = "catalog8"

    def __init__(self, mods, seed: int, root: Path):
        self.mods = mods
        self.root = root

    def reset(self) -> None:
        clear_caches(self.mods)

    def run(self) -> Pass:
        ext = self.mods.extremal
        table = ext.invariant_table(8)
        catalog = ext.classify_extremal(4, table=table)
        return Pass(outputs=(table, catalog), items=len(table))

    def check(self, p: Pass) -> tuple[int, int]:
        table, catalog = p.outputs
        frozen = (self.root / "tests" / "data" / "extremal_k4.jsonl").read_text()
        counts = [sum(1 for r in table if r.n == n) for n in range(1, 9)]
        failed = (tuple(counts) != CLASS_COUNTS) + (
            [r.to_json() for r in catalog] != frozen.splitlines()
        )
        return 2, failed


def _corpus(families, graph, seed: int) -> list[str]:
    """Seeded graph6 corpus of orders 10..12, every graph randomly relabeled.

    Thirteen named family members, then three random graphs for each of the
    81 strata (order 10, 11, 12) x (edge density 0.1 .. 0.9) x (shape: plain
    G(n, p), 1..3 isolated vertices added, or a disjoint union of two random
    parts).  The strata are the same at every seed, so the corpus's total
    work varies little between seeds.
    """
    rng = random.Random(seed)
    Graph = graph.Graph

    def gnp(n: int, p: float):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        return Graph(n, edges)

    graphs = [families.path(n) for n in (10, 11, 12)]
    graphs += [families.cycle(n) for n in (10, 11, 12)]
    graphs += [families.complete(10), families.complete(12), families.empty_graph(11)]
    graphs += [families.lollipop(4, 7)[0], families.lollipop(6, 6)[0]]
    graphs += [families.h_family(1)[0], families.h_family(2)[0]]
    for _ in range(3):
        for n in (10, 11, 12):
            for tenths in range(1, 10):
                p = tenths / 10
                graphs.append(gnp(n, p))
                iso = rng.randint(1, 3)
                graphs.append(graph.disjoint_union(gnp(n - iso, p), Graph(iso)))
                a = rng.randint(3, n - 3)
                graphs.append(graph.disjoint_union(gnp(a, p), gnp(n - a, p)))
    return [graph.write_graph6(_relabel(g, _random_perm(rng, g.n))) for g in graphs]


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location(
        "psdforce_bench_oracles", root / "tests" / "_oracles.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Corpus12:
    """Each corpus graph through ``compute --throttle`` and ``verify-bounds``."""

    name = "corpus12"
    ORACLE_SAMPLE = 6  # graphs per pass cross-checked against tests/_oracles.py

    def __init__(self, mods, seed: int, root: Path):
        self.mods = mods
        self.root = root
        self.corpus = _corpus(mods.families, mods.graph, seed)
        self._oracles = None
        self._sample_rng = random.Random(seed + 1)

    def reset(self) -> None:
        clear_caches(self.mods)

    def run(self) -> Pass:
        results = []
        spans = []
        clock = time.perf_counter
        for g6 in self.corpus:
            out = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc1 = self.mods.cli.main(["compute", "--throttle", "--json", "--g6", g6])
                    mark = out.tell()
                    rc2 = self.mods.cli.main(["verify-bounds", "--json", "--g6", g6])
            except (Exception, SystemExit):  # a failed item, counted in check()
                results.append(None)
            else:
                text = out.getvalue()
                results.append((rc1, text[:mark], rc2, text[mark:]))
            spans.append((t0, clock()))
        return Pass(outputs=results, items=len(self.corpus), item_spans=spans)

    def check(self, p: Pass) -> tuple[int, int]:
        if self._oracles is None:
            self._oracles = _load_oracles(self.root)
        size = min(self.ORACLE_SAMPLE, len(self.corpus))
        sample = set(self._sample_rng.sample(range(len(self.corpus)), size))
        failed = 0
        for i, (g6, res) in enumerate(zip(self.corpus, p.outputs)):
            if res is None:
                failed += 2
                continue
            rc1, out1, rc2, out2 = res
            ok1, ok2 = rc1 == 0, rc2 == 0
            try:
                comp = json.loads(out1)
                bounds = json.loads(out2)
            except json.JSONDecodeError:
                failed += 2
                continue
            n, z = comp["n"], comp["z+"]
            ok1 = ok1 and comp["g6"] == g6 and comp["th+"] <= (n + z + 1) // 2
            ok1 = ok1 and comp["th+"] <= z + comp["pt+"]
            ok2 = ok2 and bounds["z+"] == z and bounds["violations"] == []
            if i in sample:
                g = self.mods.graph.parse_graph6(g6)
                adj = self._oracles.ref_adj(n, list(g.edges()))
                ok1 = ok1 and self._oracles.ref_z_and_pt(adj, n) == (z, comp["pt+"])
                witness = comp["witness"]
                ok1 = ok1 and len(witness) == z
                ok1 = ok1 and self._oracles.ref_pt(adj, n, set(witness)) == comp["pt+"]
            failed += (not ok1) + (not ok2)
        return 2 * len(self.corpus), failed


class Migrate7:
    """Every migration move from every PSD forcing set of every order-7 class."""

    name = "migrate7"

    def __init__(self, mods, seed: int, root: Path):
        self.mods = mods
        rng = random.Random(seed)
        self.graphs = [
            _relabel(g, _random_perm(rng, g.n)) for g in mods.canon.enumerate_graphs(7)
        ]

    def reset(self) -> None:
        clear_caches(self.mods)

    def run(self) -> Pass:
        eng = self.mods.engine
        mig = self.mods.migration
        per_graph = []
        spans = []
        clock = time.perf_counter
        for g in self.graphs:
            t0 = clock()
            rows = []
            for b in range(1 << g.n):
                forces = []
                try:
                    if not eng.is_psd_forcing_set(g, b):
                        continue
                    for v, w in eng.forceable(g, b):
                        out = mig.single_vertex_migrate(g, b, v, w)
                        switch, _ = mig.verify_force_switch(g, b & ~(1 << v), v, w)
                        forces.append((v, w, out, switch))
                    shrunk = mig.shrink_max_component(g, b)
                    balanced = mig.balance_propagation(g, b)
                except Exception:  # a failed set, counted in check()
                    rows.append((b, None))
                    continue
                rows.append((b, (forces, shrunk, balanced)))
            per_graph.append(rows)
            spans.append((t0, clock()))
        items = sum(len(rows) for rows in per_graph)
        return Pass(outputs=per_graph, items=items, item_spans=spans)

    def check(self, p: Pass) -> tuple[int, int]:
        eng = self.mods.engine
        comps_of = self.mods.graph.components
        attempted = failed = sets = moves = 0
        for g, rows in zip(self.graphs, p.outputs):
            n = g.n
            for b, res in rows:
                sets += 1
                if res is None:
                    attempted += 1
                    failed += 1
                    continue
                forces, (s_final, s_trace), (b_final, _) = res
                bound = (n - b.bit_count() + 1) // 2
                for v, w, out, switch in forces:
                    moves += 1
                    attempted += 2
                    failed += out != (b & ~(1 << v)) | 1 << w or not eng.is_psd_forcing_set(g, out)
                    failed += switch is not True
                attempted += 2
                sizes = [
                    max(c.bit_count() for c in comps_of(g, st.before)) for st in s_trace.steps
                ]
                final_comps = comps_of(g, s_final)
                ok = eng.is_psd_forcing_set(g, s_final) and s_final.bit_count() == b.bit_count()
                ok = ok and max((c.bit_count() for c in final_comps), default=0) <= bound
                ok = ok and all(x > y for x, y in zip(sizes, sizes[1:]))
                failed += not ok
                times = sorted([t for _, t in eng.component_pt(g, b_final)] + [0])
                ok = len(times) < 2 or times[-1] - times[-2] <= 1
                ok = ok and eng.propagate(g, b_final).steps <= bound
                failed += not (ok and b_final.bit_count() == b.bit_count())
        # the set and move counts are exact for every relabeling
        failed += sets != MIGRATE7_FORCING_SETS
        failed += moves != MIGRATE7_SINGLE_MIGRATIONS
        return attempted + 2, failed


class Survey7:
    """ng_search(7) and invariant_table(7) on two processes, cold then resumed."""

    name = "survey7"

    def __init__(self, mods, seed: int, root: Path):
        self.mods = mods
        self.root = root
        self.jobs = min(2, os.cpu_count() or 1)
        self.work = root / ".perfbench_work" / f"survey7-{os.getpid()}"
        self.ckpt = self.work / "ckpt"

    def reset(self) -> None:
        clear_caches(self.mods)
        shutil.rmtree(self.ckpt, ignore_errors=True)
        self.ckpt.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            self.work.parent.rmdir()

    def run(self, jobs: int | None = None, resume: bool = True) -> Pass:
        ext = self.mods.extremal
        jobs = self.jobs if jobs is None else jobs
        d = str(self.ckpt)
        clock = time.perf_counter
        t0 = clock()
        ng_cold = ext.ng_search(7, jobs=jobs, checkpoint_dir=d)
        t1 = clock()
        table_cold = ext.invariant_table(7, jobs=jobs, checkpoint_dir=d)
        t2 = clock()
        phases = {"ng_search.cold_s": (t0, t1), "invariant_table.cold_s": (t1, t2)}
        if not resume:
            return Pass(outputs=None, items=0, phases=phases)
        ng_res = ext.ng_search(7, jobs=jobs, checkpoint_dir=d)
        t3 = clock()
        table_res = ext.invariant_table(7, jobs=jobs, checkpoint_dir=d)
        t4 = clock()
        phases["ng_search.resume_s"] = (t2, t3)
        phases["invariant_table.resume_s"] = (t3, t4)
        items = 2 * (sum(ng_cold.histogram.values()) + len(table_cold))
        return Pass(outputs=(ng_cold, table_cold, ng_res, table_res), items=items, phases=phases)

    def checkpoint_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.ckpt.iterdir())

    def check(self, p: Pass) -> tuple[int, int]:
        ng_cold, table_cold, ng_res, table_res = p.outputs
        frozen = (self.root / "tests" / "data" / "extremal_k3.jsonl").read_text()
        counts = [sum(1 for r in table_cold if r.n == n) for n in range(1, 8)]
        catalog = self.mods.extremal.classify_extremal(3, table=table_cold)
        cold_json = [r.to_json() for r in table_cold]
        table_ok = tuple(counts) == CLASS_COUNTS[:7] and (
            [r.to_json() for r in catalog] == frozen.splitlines()
        )
        failed = (
            (ng_cold.histogram != NG7_HISTOGRAM)
            + (not table_ok)
            + (ng_res != ng_cold)
            + ([r.to_json() for r in table_res] != cold_json)
        )
        return 4, failed


WORKLOADS = {w.name: w for w in (Catalog8, Corpus12, Migrate7, Survey7)}

