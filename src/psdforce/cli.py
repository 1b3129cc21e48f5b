"""Command line front end.

Subcommands: compute, simulate, migrate1, migrate2, family, extremal, ng,
verify-bounds.  Data goes to stdout and is byte-deterministic for fixed
input and flags; timings, warnings, and other run metadata go to stderr.
Exit status is 0 only if every requested computation completed and every
checked postcondition held; 1 is a user error, a failed check or a stdout
closed before all output was written, 2 a rejected command line, and 3 an
internal consistency failure (a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from itertools import groupby
from operator import attrgetter

from .engine import (
    DEFAULT_MAX_SUBSETS,
    CapExceededError,
    ConsistencyError,
    NoForcingSetError,
    _halving_bound,
    component_pt,
    is_psd_forcing_set,
    propagate,
    psd_zero_forcing_number,
    pt_plus,
    pt_plus_k,
)
from .extremal import classify_extremal, ng_search, throttling_number, zeta
from .families import FIXTURES, make_family
# components is unused, but perfbench/tracing.py MANIFEST lists cli as an importer
from .graph import (
    Graph,
    Graph6Error,
    components,
    parse_graph6,
    read_graph6_lines,
    vlist,
    write_graph6,
)
from .migration import balance_propagation, shrink_max_component


class CliError(Exception):
    """Fatal usage or input problem; message printed to stderr, exit 1."""


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _vset_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vlist(mask)) + "}"


def _jline(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# input plumbing


def _add_io(p: argparse.ArgumentParser, *, families_only: bool = False) -> None:
    """The one graph source, and --json."""
    src = p.add_mutually_exclusive_group(required=True)
    if not families_only:
        src.add_argument("--g6", metavar="STR", help="one graph6 string")
        src.add_argument(
            "--file", metavar="PATH", help="file of graph6 lines ('-' for stdin)"
        )
    src.add_argument("--family", metavar="SPEC", help="family spec, e.g. path:5 or lollipop:6,5")
    src.add_argument("--fixture", dest="family", choices=sorted(FIXTURES), help="named example graph")
    p.add_argument("--json", action="store_true", help="JSON lines instead of text")


def _add_survey(p: argparse.ArgumentParser) -> None:
    """--jobs, --checkpoint and --json of the exhaustive surveys."""
    p.add_argument("--jobs", type=_job_count, default=1,
                   help="worker processes (clamped to the CPU count)")
    p.add_argument("--checkpoint", metavar="DIR", default=None)
    p.add_argument("--json", action="store_true")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-subsets", type=_budget, default=None, metavar="M",
                   help="most sets one exact search may propagate "
                        f"(default {DEFAULT_MAX_SUBSETS:,}); over it, the graph is skipped")


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _budget(text: str) -> int:
    """--max-subsets value: at least 0."""
    return _int_at_least(text, 0)


def _job_count(text: str) -> int:
    """--jobs value: at least 1; the library clamps it to the CPU count."""
    return _int_at_least(text, 1)


def _load_inputs(args) -> list[tuple[str, Graph, dict[str, int]]]:
    """Resolve the one chosen source into (label, graph, name map) triples."""
    if getattr(args, "g6", None) is not None:
        label = args.g6.strip()  # parse_graph6 takes only write_graph6's output
        try:
            return [(label, parse_graph6(label), {})]
        except Graph6Error as e:
            raise CliError(f"--g6: {e}") from None
    if getattr(args, "file", None) is not None:
        stdin = args.file == "-"
        try:
            with open(0 if stdin else args.file, encoding="ascii", closefd=not stdin) as f:
                lines = f.readlines()
            # parse_graph6 accepts only the text write_graph6 writes back
            return [(lines[i - 1].strip(), g, {}) for i, g in read_graph6_lines(lines)]
        except OSError as e:
            raise CliError(str(e)) from None
        except ValueError as e:  # UnicodeDecodeError or Graph6Error
            raise CliError(f"{args.file}: {e}") from None
    try:  # --fixture stores its name in args.family too
        g, names = make_family(args.family)
        return [(write_graph6(g), g, dict(names))]
    except ValueError as e:
        raise CliError(str(e)) from None


def _load_single(args) -> tuple[str, Graph, dict[str, int]]:
    got = _load_inputs(args)
    if len(got) != 1:
        raise CliError(f"this command needs exactly one graph, got {len(got)}")
    return got[0]


def _parse_blue(spec: str, g: Graph, names: dict[str, int]) -> int:
    """Comma-separated vertex ids or family vertex names -> bitmask."""
    mask = 0
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.isdecimal():
            v = int(tok)
        elif tok in names:
            v = names[tok]
        else:
            hint = f"; known names: {', '.join(sorted(names))}" if names else ""
            raise CliError(f"unknown vertex {tok!r}{hint}")
        if not 0 <= v < g.n:
            raise CliError(f"vertex {v} out of range for order {g.n}")
        mask |= 1 << v
    return mask


def _table_lines(rows: Iterable[dict], columns: list[str]) -> Iterator[str]:
    """The lines of a table of the rows (dicts), one column per name; none
    for no rows."""
    rendered = [[str(row.get(c, "")) for c in columns] for row in rows]
    if not rendered:
        return
    widths = [max(map(len, cells)) for cells in zip(columns, *rendered)]
    for r in [columns, *rendered]:
        yield "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()


def _print(args, json_lines: Iterable[str], text_lines: Iterable[str]) -> None:
    """Print the JSON lines with --json, else the text lines; only the chosen
    source is iterated, so a lazy other one is never rendered."""
    for line in json_lines if args.json else text_lines:
        print(line)


def _per_graph(args, row) -> tuple[list[dict], int]:
    """``row(label, g)`` of each input graph, in input order: (rows, skipped).

    A graph over its subset budget is skipped with a warning on stderr.
    """
    rows = []
    skipped = 0
    for label, g, _names in _load_inputs(args):
        try:
            rows.append(row(label, g))
        except CapExceededError as e:
            _note(f"warning: {label}: skipped: {e}")
            skipped += 1
    return rows, skipped


def _emit(args, rows: list[dict], columns: list[str], cells=None) -> None:
    """JSON lines with --json, else a table of ``cells(row)`` (default: the row)."""
    _print(args, map(_jline, rows), _table_lines(map(cells, rows) if cells else rows, columns))


def _survey(args, search, *params):
    """``search(*params)`` with --jobs and --checkpoint; its input and I/O
    errors end in one line."""
    try:
        return search(*params, jobs=args.jobs, checkpoint_dir=args.checkpoint)
    except (ValueError, OSError) as e:
        raise CliError(str(e)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args) -> int:
    def row(label: str, g: Graph) -> dict:
        # the witness is a minimum forcing set, so its size is Z+
        pt, witness = pt_plus(g, max_subsets=args.max_subsets)
        out = {"g6": label, "n": g.n, "z+": witness.bit_count(),
               "pt+": pt, "witness": vlist(witness)}
        if args.throttle:
            out["th+"], _, _ = throttling_number(g, max_subsets=args.max_subsets)
        return out

    rows, skipped = _per_graph(args, row)
    _emit(args, rows,
          ["g6", "n", "z+", "pt+", "witness"] + (["th+"] if args.throttle else []),
          lambda r: dict(r, witness=_vset_str(sum(1 << v for v in r["witness"]))))
    _note(f"compute: {len(rows)} graph(s), {skipped} skipped")
    return 1 if skipped else 0


def cmd_simulate(args) -> int:
    label, g, names = _load_single(args)
    blue = _parse_blue(args.blue, g, names)
    sched = propagate(g, blue)
    json_lines = [_jline({"g6": label, "n": g.n, "initial": vlist(blue)})]
    text_lines = [f"graph {label} (n={g.n})  initial {_vset_str(blue)}"]
    steps = groupby(sched.assignments, key=attrgetter("step"))  # step order, one per round
    for (i, events), forced in zip(steps, sched.rounds):
        forces = list(events)
        json_lines.append(_jline({"step": i, "forces": [[e.forcer, e.target] for e in forces],
                                  "new_blue": vlist(forced)}))
        moves = " ".join(f"{e.forcer}->{e.target}" for e in forces)
        text_lines.append(f"step {i}: {moves}  new blue {_vset_str(forced)}")
    json_lines.append(_jline({"forcing": sched.succeeded,
                              "pt": sched.steps if sched.succeeded else None,
                              "residual": vlist(sched.residual_white)}))
    text_lines.append(f"forcing: yes  pt={sched.steps}" if sched.succeeded
                      else f"forcing: no  residual {_vset_str(sched.residual_white)}")
    _print(args, json_lines, text_lines)
    return 0


def cmd_migrate(args, algorithm: int) -> int:
    label, g, names = _load_single(args)
    blue = _parse_blue(args.blue, g, names)
    if not is_psd_forcing_set(g, blue):
        residual = propagate(g, blue).residual_white
        raise CliError(
            f"blue set {_vset_str(blue)} is not a PSD forcing set of {label}: "
            f"propagation stalls with white {_vset_str(residual)}"
        )
    bound = _halving_bound(g.n, blue.bit_count())
    loop = shrink_max_component if algorithm == 1 else balance_propagation
    final, trace = loop(g, blue)
    per_comp = component_pt(g, final)
    # the sentinel 0 mirrors the balancing loop's gap test and times final = V
    times = sorted([t for _, t in per_comp] + [0])
    if algorithm == 1:
        key, name = "max_component", "max component"
        value = max((c.bit_count() for c, _ in per_comp), default=0)
        ok = value <= bound
    else:
        key, name = "gap", "time gap"
        value = times[-1] - times[-2] if per_comp else 0
        ok = value <= 1 and times[-1] <= bound
    summary = {"final": vlist(final), "pt": times[-1], "bound": bound, key: value, "ok": ok}
    text_lines = [f"graph {label} (n={g.n})  blue {_vset_str(blue)}  bound {bound}"]
    for i, step in enumerate(trace.steps, start=1):
        moves = " ".join(f"{e.forcer}->{e.target}@{e.step}" for e in step.forces)
        text_lines.append(
            f"pass {i}: out {_vset_str(step.moved_out)} "
            f"in {_vset_str(step.moved_in)} -> {_vset_str(step.after)}"
            + (f"  forces {moves}" if moves else "")
        )
    if not trace.steps:
        text_lines.append("no migration needed")
    text_lines.append(f"final {_vset_str(final)}  pt={times[-1]}  {name}={value}  "
                      f"postcondition {'ok' if ok else 'VIOLATED'}")
    _print(args, [*trace.to_json_lines(), _jline(summary)], text_lines)
    return 0 if ok else 1


def cmd_family(args) -> int:
    label, g, names = _load_single(args)
    names = dict(sorted(names.items()))
    _print(args, [_jline({"g6": label, "n": g.n, "names": names})],
           [label, *(f"{name} = {v}" for name, v in names.items())])
    return 0


def cmd_extremal(args) -> int:
    t0 = time.monotonic()
    if args.k is not None:
        records = _survey(args, classify_extremal, args.k)
        _emit(args, [r.doc() for r in records], ["g6", "n", "z+", "pt+"])
        _note(f"extremal k={args.k}: {len(records)} graphs "
              f"in {time.monotonic() - t0:.2f}s")
        return 0
    n, k = args.zeta
    value, witnesses = _survey(args, zeta, n, k)
    _print(args, [_jline({"n": n, "k": k, "zeta": value, "witnesses": witnesses})],
           [f"zeta({n},{k}) = {value}", *witnesses])
    _note(f"zeta({n},{k}) in {time.monotonic() - t0:.2f}s")
    return 0


def cmd_ng(args) -> int:
    t0 = time.monotonic()
    res = _survey(args, ng_search, args.n)
    verdict = "attained" if res.attained else "not attained"
    _print(args, [_jline(dataclasses.asdict(res))], [
        f"order {res.n}: pt+ sum histogram",
        *(f"sum {s}: {c}" for s, c in res.histogram.items()),
        f"threshold {res.threshold} {verdict}"
        + (f" by {' '.join(res.attaining)}" if res.attaining else ""),
    ])
    _note(f"ng n={args.n} in {time.monotonic() - t0:.2f}s")
    return 0


def cmd_verify_bounds(args) -> int:
    def row(label: str, g: Graph) -> dict:
        z, _ = psd_zero_forcing_number(g, max_subsets=args.max_subsets)
        bad = []
        tight = []
        for k in range(z, g.n + 1):
            pt, _ = pt_plus_k(g, k, max_subsets=args.max_subsets)
            bound = _halving_bound(g.n, k)
            if pt > bound:
                bad.append(k)
            elif pt == bound and pt > 0:
                tight.append(k)
        return {"g6": label, "n": g.n, "z+": z, "violations": bad, "tight": tight}

    rows, skipped = _per_graph(args, row)
    _emit(args, rows, ["g6", "n", "z+", "violations", "tight"],
          lambda r: dict(r, violations=",".join(map(str, r["violations"])) or "-",
                         tight=",".join(map(str, r["tight"])) or "-"))
    violations = sum(len(r["violations"]) for r in rows)
    _note(f"verify-bounds: {len(rows)} graph(s), {violations} violation(s), "
          f"{skipped} skipped")
    return 0 if violations == 0 and skipped == 0 else 1


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="psdforce",
        description="PSD zero forcing: exact invariants, simulation, "
                    "migration, and extremal catalogs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Z+, pt+, and optionally th+ per graph")
    _add_io(p)
    _add_budget(p)
    p.add_argument("--throttle", action="store_true", help="also compute th+")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("simulate", help="run the propagation from a blue set")
    _add_io(p)
    p.add_argument("--blue", required=True, metavar="SET",
                   help="comma-separated vertex ids or fixture names")
    p.set_defaults(fn=cmd_simulate)

    for algorithm, help_ in ((1, "shrink the largest white component"),
                             (2, "balance per-component times")):
        p = sub.add_parser(f"migrate{algorithm}", help=help_)
        _add_io(p)
        p.add_argument("--blue", required=True, metavar="SET")
        p.set_defaults(fn=lambda a, algorithm=algorithm: cmd_migrate(a, algorithm))

    p = sub.add_parser("family", help="emit a family graph and its name map")
    _add_io(p, families_only=True)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("extremal", help="slow-propagation catalogs and zeta")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=int,
                      help="catalog of graphs with pt+ = n - k (1..4)")
    mode.add_argument("--zeta", type=int, nargs=2, metavar=("N", "K"),
                      help="max pt+ over order-N graphs with Z+ = K")
    _add_survey(p)
    p.set_defaults(fn=cmd_extremal)

    p = sub.add_parser("ng", help="graph-plus-complement time sums for one order")
    p.add_argument("--n", type=int, required=True)
    _add_survey(p)
    p.set_defaults(fn=cmd_ng)

    p = sub.add_parser("verify-bounds",
                       help="check pt+(G,k) <= ceil((n-k)/2) over a corpus")
    _add_io(p)
    _add_budget(p)
    p.set_defaults(fn=cmd_verify_bounds)

    return top


# A cache, not a global: perfbench empties psdforce's caches before each pass,
# so a pass builds the parser once, as a fresh process does, and a traced pass
# builds it under the tracer, binding set_defaults(fn=cmd_*) to traced cmd_*.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit status; callable repeatedly."""
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a write the buffer held back fails here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: stop quietly
        # the interpreter flushes stdout at exit; point it at devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, NoForcingSetError) as e:
        _note(f"error: {e}")
        return 1
    except ConsistencyError as e:  # an implementation bug, not a user error
        _note(f"internal error: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
