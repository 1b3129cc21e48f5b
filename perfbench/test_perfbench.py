"""Self-tests of the benchmark harness (stdlib unittest; about 15 s).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODS = workloads.load_package(run.ROOT)


def _bindings() -> dict[tuple[str, str], object]:
    mods = tracing._modules()
    return {
        (mname, fname): getattr(mod, fname, None)
        for funcs in tracing.MANIFEST.values()
        for fname in funcs
        for mname, mod in mods.items()
    }


class SeededInputs(unittest.TestCase):
    def test_corpus_repeats_per_seed(self):
        a = workloads.Corpus12(MODS, 7, run.ROOT).corpus
        b = workloads.Corpus12(MODS, 7, run.ROOT).corpus
        c = workloads.Corpus12(MODS, 8, run.ROOT).corpus
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), 256)  # p95 has 12 samples beyond it
        orders = {MODS.graph.parse_graph6(s).n for s in a}
        self.assertEqual(orders, {10, 11, 12})

    def test_relabelings_repeat_per_seed(self):
        a = workloads.Migrate7(MODS, 3, run.ROOT).graphs
        b = workloads.Migrate7(MODS, 3, run.ROOT).graphs
        c = workloads.Migrate7(MODS, 4, run.ROOT).graphs
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), 1044)
        self.assertEqual(len({MODS.canon.canonical_label(g) for g in a}), 1044)


class Small(workloads.Corpus12):
    """The corpus workload cut to its first graphs."""

    def __init__(self, *args, corrupt: bool = False):
        super().__init__(*args)
        self.corpus = self.corpus[:4]
        self.corrupt = corrupt

    def run(self):
        p = super().run()
        if self.corrupt:
            rc1, out1, rc2, out2 = p.outputs[1]
            doc = json.loads(out1)
            doc["z+"] += 1
            p.outputs[1] = (rc1, json.dumps(doc), rc2, out2)
        return p


class CorruptedResults(unittest.TestCase):
    def test_clean_pass_has_no_failures(self):
        r = run.Run(Small(MODS, 1, run.ROOT), speed.SpeedProbe())
        r.one_pass()
        self.assertEqual((r.attempted, r.failed), (8, 0))

    def test_corrupted_pass_fails(self):
        r = run.Run(Small(MODS, 1, run.ROOT, corrupt=True), speed.SpeedProbe())
        r.one_pass()
        self.assertEqual(r.attempted, 8)
        self.assertGreater(r.failed, 0)

    def test_catalog_check_rejects_a_wrong_table(self):
        wl = workloads.Catalog8(MODS, 1, run.ROOT)
        table = MODS.extremal.invariant_table(6)
        catalog = MODS.extremal.classify_extremal(4, table=table)
        attempted, failed = wl.check(workloads.Pass((table, catalog), len(table)))
        self.assertEqual((attempted, failed), (2, 2))

    def test_migration_check_counts_a_wrong_move(self):
        wl = workloads.Migrate7(MODS, 1, run.ROOT)
        wl.graphs = wl.graphs[:3]
        p = wl.run()
        _, base = wl.check(p)
        b, (forces, shrunk, balanced) = next(
            row for rows in p.outputs for row in rows if row[1][0]
        )
        v, w, out, switch = forces[0]
        forces[0] = (v, w, out ^ 1 << v, switch)
        _, failed = wl.check(p)
        self.assertEqual(failed, base + 1)

    def test_survey_check_rejects_a_changed_resume(self):
        wl = workloads.Survey7(MODS, 1, run.ROOT)
        try:
            wl.reset()
            p = wl.run()
            self.assertEqual(wl.check(p), (4, 0))
            ng_cold, table_cold, ng_res, table_res = p.outputs
            p.outputs = (ng_cold, table_cold, ng_res, table_res[:-1])
            self.assertEqual(wl.check(p), (4, 1))
        finally:
            wl.close()


class Wrappers(unittest.TestCase):
    def test_install_patches_every_site_and_uninstall_restores(self):
        before = _bindings()
        tracer = tracing.Tracer()
        with tracer:
            during = _bindings()
            self.assertIsNot(MODS.migration.forceable, MODS.engine.forceable.__wrapped__)
            self.assertIs(MODS.migration.forceable, MODS.engine.forceable)
            self.assertIs(MODS.cli.pt_plus, MODS.engine.pt_plus)
        after = _bindings()
        self.assertEqual(before, after)
        changed = [k for k in before if before[k] is not None and before[k] is during[k]]
        self.assertEqual(changed, [])

    def test_counts_spans_of_a_small_enumeration(self):
        workloads.clear_caches(MODS)
        tracer = tracing.Tracer()
        with tracer:
            graphs = list(MODS.canon.enumerate_graphs(5))
        summary = tracer.summary()
        self.assertEqual(len(graphs), 34)
        self.assertEqual(tracer.counters["canon.enumerate_graphs.yields"], 34)
        self.assertEqual(summary["canon.canonical_label"]["calls"], 2 + 8 + 32 + 176)
        for row in summary.values():
            self.assertGreaterEqual(row["self_s"], -1e-9)

    def test_missing_function_fails_loudly(self):
        orig = MODS.engine.pt_plus
        del MODS.engine.pt_plus
        try:
            with self.assertRaisesRegex(tracing.ManifestError, "engine.pt_plus"):
                tracing.Tracer().install()
        finally:
            MODS.engine.pt_plus = orig
        self.assertEqual(_bindings()[("cli", "pt_plus")], orig)

    def test_unlisted_importer_fails_loudly(self):
        MODS.extremal.forceable = MODS.engine.forceable
        try:
            with self.assertRaisesRegex(tracing.ManifestError, "extremal.forceable"):
                tracing.Tracer().install()
        finally:
            del MODS.extremal.forceable


class Metrics(unittest.TestCase):
    def test_percentile(self):
        values = list(range(1, 201))
        self.assertEqual(run.percentile(values, 50), 100)
        self.assertEqual(run.percentile(values, 95), 190)
        self.assertEqual(run.percentile([3.0], 95), 3.0)

    def test_speed_correction(self):
        probe = speed.SpeedProbe()
        self.assertEqual(probe.corrected(1.0, 3.0), 2.0)  # no samples: raw
        ref = speed.REF_S
        probe.starts = [1.0 + 0.01 * i for i in range(200)]
        probe.durs = [2 * ref] * 100 + [ref] * 100  # half speed, then full
        self.assertAlmostEqual(probe.corrected(1.0, 1.995), 0.5 * 0.995 - 100 * ref)
        self.assertAlmostEqual(probe.corrected(2.0, 2.995), 0.995 - 100 * ref)

    def test_probe_samples_while_installed(self):
        with speed.SpeedProbe() as probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.2:
                pass
        count = len(probe.durs)
        self.assertGreater(count, 5)
        time.sleep(0.05)
        self.assertEqual(len(probe.durs), count)

    def test_benchmark_json_names_every_emitted_metric(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layer_map = json.loads((HERE / "layer_map.json").read_text())
        wl = workloads.Survey7(MODS, 1, run.ROOT)
        try:
            r, m = run.per_layer(wl)
        finally:
            wl.close()
        self.assertEqual(r.failed, 0)
        declared = {x["name"]: x["unit"] for x in bench["per_layer"]}
        self.assertEqual(declared, {k: u for k, (_, u) in m.items()})
        self.assertEqual(set(layer_map["metrics"]), set(declared))
        self.assertEqual(set(layer_map["workloads"]), {w["name"] for w in bench["workloads"]})
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
