"""psdforce benchmark: one workload per process, seeded, checked, traced on request.

    python3 perfbench/run.py --workload catalog8 --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of it that holds ``src/`` and
``tests/``).  The package is imported from ``src/``; nothing is installed.

With ``--trace 0`` the run measures set-up (several fresh processes, each
importing psdforce and generating the workload's inputs; median), then
repeats cold timed passes of the workload until the next pass would end
after ``--seconds`` of timed work (at least one pass), checking every pass's
outputs outside the timed region.  It prints the end-to-end metrics, each
the median over passes: wall_s, items_per_s, and the p50 and p95 of the
pass's per-item latencies (an item of catalog8 or survey7 waits for its
whole pass).  Times are corrected for the host's CPU speed (``speed.py``).

With ``--trace 1`` it runs one untraced pass, then one pass with every
public psdforce function wrapped (see ``tracing.py``), and prints the
per-layer metrics of the traced pass, its span times scaled to reference
seconds by the pass's speed.  survey7 takes its phase times from the
untraced pass and adds one serial pass for the pool efficiency.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (operations checked against references over every pass) and
``metrics``.  ``--out PATH`` also writes that object with the environment
(Python version, nproc, commit, seed) and the per-pass times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
ITEM_MARGIN_S = 0.25  # an item's speed is read over probes this far around it

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready.

    Each child reports its own speed (see ``report_setup``), which corrects
    the interval the same way as the timed passes.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().split()
            t1 = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or len(line) != 3 or line[0] != "ready":
            raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
        out.append((t1 - t0) * float(line[1]) - int(line[2]) * speed.REF_S)
    return out


def report_setup(args) -> int:
    """Build the workload's inputs, then print "ready <speed> <probes>"."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        mods = workloads.load_package(ROOT)
        workloads.WORKLOADS[args.workload](mods, args.seed, ROOT)
        t1 = time.perf_counter()
    print(f"ready {probe.speed(t0, t1)} {len(probe.durs)}", flush=True)
    return 0


class Run:
    """Timed passes of one workload with their checked operation counts.

    Times are corrected for the host's CPU speed (see ``speed.py``); the
    raw seconds of each pass are kept alongside.
    """

    def __init__(self, wl, probe: SpeedProbe) -> None:
        self.wl = wl
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.rates: list[float] = []
        self.p50_ms: list[float] = []
        self.p95_ms: list[float] = []

    def one_pass(self, tracer: tracing.Tracer | None = None) -> workloads.Pass | None:
        self.wl.reset()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                p = self.wl.run()
            else:
                with tracer:
                    p = self.wl.run()
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        t1 = time.perf_counter()
        wall = self.probe.corrected(t0, t1)
        attempted, failed = self.wl.check(p)
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"{self.wl.name}: {failed} of {attempted} checks failed", file=sys.stderr)
        self.walls.append(wall)
        self.raw_walls.append(t1 - t0)
        self.rates.append(p.items / wall)
        if p.item_spans is None:  # an item of a batch waits for its whole pass
            item_ms = [wall * 1e3]
        else:
            corrected = self.probe.corrected
            item_ms = [corrected(a, b, ITEM_MARGIN_S) * 1e3 for a, b in p.item_spans]
        self.p50_ms.append(percentile(item_ms, 50))
        self.p95_ms.append(percentile(item_ms, 95))
        return p


def end_to_end(args, wl) -> tuple[Run, dict]:
    setups = measure_setup(args.workload, args.seed)
    with SpeedProbe() as probe:
        run = Run(wl, probe)
        # stop before a pass that would end after --seconds of raw timed work
        while not run.walls or sum(run.raw_walls) + statistics.median(
                run.raw_walls) <= args.seconds:
            if run.one_pass() is None:
                break
    if not run.walls:
        return run, {}
    metrics = {
        "wall_s": (statistics.median(run.walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (statistics.median(run.rates), "1/s"),
        "item_p50_ms": (statistics.median(run.p50_ms), "ms"),
        "item_p95_ms": (statistics.median(run.p95_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return run, metrics


def per_layer(wl) -> tuple[Run, dict]:
    tracer = tracing.Tracer()
    survey = isinstance(wl, workloads.Survey7)
    with SpeedProbe() as probe:
        run = Run(wl, probe)
        plain = run.one_pass()
        traced = run.one_pass(tracer) if plain is not None else None
        if traced is None:
            return run, {}
        if survey:
            bytes_written = wl.checkpoint_bytes()  # written by the traced pass
            wl.reset()
            serial = wl.run(jobs=1, resume=False)
    s = tracer.summary()
    c = tracer.counters
    factor = run.walls[1] / run.raw_walls[1]  # span times to reference seconds

    def calls(name: str) -> int:
        return s.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return s.get(name, {}).get("self_s", 0.0) * factor

    m: dict[str, tuple[float, str]] = {}
    for name in (
        "canon.canonical_label", "extremal.graph_record",
        "engine.psd_zero_forcing_number", "engine.pt_plus", "engine.pt_plus_k",
        "extremal.throttling_number", "engine.forceable", "engine.propagate",
        "engine.is_psd_forcing_set", "engine.component_pt", "graph.components",
        "migration.verify_force_switch", "migration.single_vertex_migrate",
        "migration.shrink_max_component", "migration.balance_propagation",
        "cli.main", "graph.parse_graph6",
    ):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    labels = calls("canon.canonical_label")
    classes = c.get("canon.enumerate_graphs.yields", 0)
    m["canon.canonical_label.us_per_call"] = (
        self_s("canon.canonical_label") / labels * 1e6 if labels else 0.0, "us")
    m["canon.enumerate_graphs.self_s"] = (self_s("canon.enumerate_graphs"), "s")
    m["canon.enumerate_graphs.classes"] = (classes, "count")
    m["canon.kept_ratio"] = (classes / labels if labels else 0.0, "ratio")
    m["engine.propagate.rounds"] = (c.get("engine.propagate.rounds", 0), "count")
    m["migration.passes"] = (c.get("migration.passes", 0), "count")

    def phase_s(p: workloads.Pass, name: str) -> float:
        return probe.corrected(*p.phases[name]) if survey else 0.0

    for name in ("ng_search.cold_s", "ng_search.resume_s",
                 "invariant_table.cold_s", "invariant_table.resume_s"):
        m["extremal." + name] = (phase_s(plain, name), "s")
    m["extremal.checkpoint_bytes"] = (bytes_written if survey else 0, "B")
    efficiency = 0.0
    if survey:
        cold = ("ng_search.cold_s", "invariant_table.cold_s")
        efficiency = sum(phase_s(serial, k) for k in cold) / (
            wl.jobs * sum(phase_s(plain, k) for k in cold))
    m["extremal.pool.efficiency"] = (efficiency, "ratio")
    m["trace.overhead_frac"] = (run.walls[1] / run.walls[0] - 1, "ratio")
    m["bench.raw_wall_s"] = (run.raw_walls[0], "s")
    m["bench.cpu_speed"] = (run.walls[0] / run.raw_walls[0], "ratio")
    m["trace.spans"] = (len(tracer.name_id), "count")
    m["bench.items"] = (traced.items, "count")
    return run, m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", metavar="PATH", help="also write the result with its environment")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        return report_setup(args)

    try:
        mods = workloads.load_package(ROOT)
    except (ImportError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](mods, args.seed, ROOT)
    try:
        run, metrics = per_layer(wl) if args.trace else end_to_end(args, wl)
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()
    if not metrics:
        print(f"error: no pass of {args.workload} completed", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        doc = dict(result, environment=environment(args), pass_wall_s=run.walls,
                   pass_raw_wall_s=run.raw_walls)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


if __name__ == "__main__":
    sys.exit(main())
