"""End-to-end command line behavior: output bytes and exit codes."""

import contextlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from psdforce import cli, engine, extremal
from psdforce.cli import build_parser, main
from psdforce.families import path
from psdforce.graph import write_graph6
from psdforce.migration import ConsistencyError


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a rejected command line, or --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_table(capsys):
    code, out, err = run(capsys, "compute", "--family", "path:5")
    assert code == 0
    assert out == (
        "g6   n  z+  pt+  witness\n"
        "DhC  5  1   2    {2}\n"
    )
    assert "1 graph(s), 0 skipped" in err


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--family", "path:5", "--json")
    assert code == 0
    assert out == '{"g6":"DhC","n":5,"z+":1,"pt+":2,"witness":[2]}\n'


@pytest.mark.parametrize("flags", [[], ["--throttle"]], ids=["plain", "throttle"])
def test_compute_walks_the_scans_once_per_row(capsys, monkeypatch, tmp_path, flags):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("DhC\nCh\nBw\nC?\n", encoding="ascii")
    rows = []
    real = engine._z_and_pt

    def counting(g, max_subsets=None):
        rows.append(write_graph6(g))
        return real(g, max_subsets)

    monkeypatch.setattr(engine, "_z_and_pt", counting)
    code, out, _ = run(capsys, "compute", "--file", str(corpus), "--json", *flags)
    assert code == 0
    assert rows == ["DhC", "Ch", "Bw", "C?"]
    # Z+ is read off the witness, a minimum forcing set
    assert [json.loads(ln)["z+"] for ln in out.splitlines()] == [1, 1, 2, 4]


def test_json_formats_no_table_cell(capsys, monkeypatch):
    # --json iterates only the JSON lines, so no table line or cell is built
    def table_lines(rows, columns):
        raise AssertionError("a table was rendered")
        yield

    def vset_str(mask):
        raise AssertionError("a table cell was formatted")

    monkeypatch.setattr(cli, "_table_lines", table_lines)
    monkeypatch.setattr(cli, "_vset_str", vset_str)
    assert run(capsys, "compute", "--family", "path:5", "--json")[:2] == (
        0, '{"g6":"DhC","n":5,"z+":1,"pt+":2,"witness":[2]}\n')
    assert run(capsys, "verify-bounds", "--family", "path:3", "--json")[:2] == (
        0, '{"g6":"Bg","n":3,"z+":1,"violations":[],"tight":[1,2]}\n')
    assert run(capsys, "extremal", "--k", "1", "--json")[:2] == (
        0, '{"g6":"A_","n":2,"z+":1,"pt+":1}\n')
    with pytest.raises(AssertionError, match="a table was rendered"):
        main(["compute", "--family", "path:5"])


def test_compute_throttle(capsys):
    code, out, _ = run(capsys, "compute", "--family", "path:4", "--throttle", "--json")
    assert code == 0
    assert out == '{"g6":"Ch","n":4,"z+":1,"pt+":2,"witness":[1],"th+":3}\n'


def test_compute_cap_skips(capsys):
    # Z+ of DhC (path 5) costs its 5 single vertices
    code, out, err = run(capsys, "compute", "--g6", "DhC", "--max-subsets", "2")
    assert code == 1
    assert out == ""
    assert "skipped" in err


@contextlib.contextmanager
def _descriptor_0(data: bytes | None):
    """Descriptor 0 reads ``data`` inside the block (is closed for None)."""
    saved = os.dup(0)
    try:
        if data is None:
            os.close(0)
        else:
            r, w = os.pipe()
            os.write(w, data)
            os.close(w)
            os.dup2(r, 0)
            os.close(r)
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)


def test_compute_file_and_stdin(capsys, tmp_path):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("# two graphs\nDhC\n\nCh\n", encoding="ascii")
    code, out, _ = run(capsys, "compute", "--file", str(corpus), "--json")
    assert code == 0
    assert [json.loads(ln)["g6"] for ln in out.splitlines()] == ["DhC", "Ch"]

    with _descriptor_0(b"DhC\n"):
        code, out2, _ = run(capsys, "compute", "--file", "-", "--json")
    assert code == 0
    assert out2 == out.splitlines()[0] + "\n"


@pytest.mark.parametrize("data,err", [
    (b"\xff\n", "-: 'ascii' codec can't decode byte 0xff in position 0: ordinal not in range(128)"),
    (None, "[Errno 9] Bad file descriptor"),
], ids=["not-ascii", "closed"])
def test_bad_stdin_is_a_one_line_error(capsys, data, err):
    with _descriptor_0(data):
        assert run(capsys, "compute", "--file", "-") == (1, "", f"error: {err}\n")


def test_stdin_splits_lines_as_a_file_does(capsys, tmp_path):
    corpus = tmp_path / "cr.g6"
    corpus.write_bytes(b"DhC\rCh\n")
    from_file = run(capsys, "compute", "--file", str(corpus))
    with _descriptor_0(corpus.read_bytes()):
        assert run(capsys, "compute", "--file", "-") == from_file
    assert from_file[0] == 0 and len(from_file[1].splitlines()) == 3


def test_file_label_is_the_input_text(capsys, tmp_path, monkeypatch):
    # parse_graph6 accepts only the text write_graph6 writes back, so the
    # CLI encodes no graph it read
    big = write_graph6(path(63))
    corpus = tmp_path / "graphs.g6"
    corpus.write_bytes(b" DhC \r\n" + big.encode() + b"\n")

    def refuse(g):
        raise AssertionError("write_graph6 called on an input graph")

    monkeypatch.setattr(cli, "write_graph6", refuse)
    code, out, _ = run(capsys, "compute", "--file", str(corpus), "--json")
    assert code == 0
    assert [json.loads(ln)["g6"] for ln in out.splitlines()] == ["DhC", big]


def test_compute_file_reports_bad_line(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("DhC\nB\n", encoding="ascii")
    code, out, err = run(capsys, "compute", "--file", str(corpus))
    assert code == 1
    assert "line 2" in err


def test_compute_file_not_ascii_is_a_user_error(capsys, tmp_path):
    corpus = tmp_path / "latin.g6"
    corpus.write_bytes(b"DhC\nCh\xe9\n")
    code, out, err = run(capsys, "compute", "--file", str(corpus))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {corpus}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_compute_file_bad_line_names_the_offset_once(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("DhC\nB!\n", encoding="ascii")
    code, _, err = run(capsys, "compute", "--file", str(corpus))
    assert code == 1
    assert err == (
        f"error: {corpus}: line 2: character '!' outside graph6 range (byte 1)\n"
    )


def test_simulate_table(capsys):
    code, out, _ = run(capsys, "simulate", "--g6", "DhC", "--blue", "2")
    assert code == 0
    assert out == (
        "graph DhC (n=5)  initial {2}\n"
        "step 1: 2->1 2->3  new blue {1,3}\n"
        "step 2: 1->0 3->4  new blue {0,4}\n"
        "forcing: yes  pt=2\n"
    )


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "--g6", "DhC", "--blue", "2", "--json")
    assert code == 0
    assert out == (
        '{"g6":"DhC","n":5,"initial":[2]}\n'
        '{"step":1,"forces":[[2,1],[2,3]],"new_blue":[1,3]}\n'
        '{"step":2,"forces":[[1,0],[3,4]],"new_blue":[0,4]}\n'
        '{"forcing":true,"pt":2,"residual":[]}\n'
    )


def test_simulate_stall_is_reported_not_fatal(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "complete:4", "--blue", "0,1")
    assert code == 0
    assert out.endswith("forcing: no  residual {2,3}\n")


def test_simulate_fixture_names(capsys):
    code, out, _ = run(
        capsys, "simulate", "--fixture", "figure3", "--blue", "b1,b2,b3", "--json"
    )
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"g6": "Hk[go[D", "n": 9, "initial": [0, 3, 6]}
    assert json.loads(lines[-1]) == {"forcing": True, "pt": 4, "residual": []}


def test_migrate1_trace(capsys):
    code, out, _ = run(capsys, "migrate1", "--family", "path:5", "--blue", "0")
    assert code == 0
    assert out == (
        "graph DhC (n=5)  blue {0}  bound 2\n"
        "pass 1: out {0} in {1} -> {1}  forces 0->1@1\n"
        "pass 2: out {1} in {2} -> {2}  forces 1->2@1\n"
        "final {2}  pt=2  max component=2  postcondition ok\n"
    )


def test_migrate1_json(capsys):
    code, out, _ = run(capsys, "migrate1", "--family", "path:5", "--blue", "0", "--json")
    assert code == 0
    assert out == (
        '{"before":[0],"moved_out":[0],"moved_in":[1],"after":[1],"forces":[[0,1,1]]}\n'
        '{"before":[1],"moved_out":[1],"moved_in":[2],"after":[2],"forces":[[1,2,1]]}\n'
        '{"final":[2],"pt":2,"bound":2,"max_component":2,"ok":true}\n'
    )


def test_migrate1_noop(capsys):
    code, out, _ = run(capsys, "migrate1", "--family", "path:5", "--blue", "2", "--json")
    assert code == 0
    assert out == '{"final":[2],"pt":2,"bound":2,"max_component":2,"ok":true}\n'
    code, out, _ = run(capsys, "migrate1", "--family", "path:5", "--blue", "2")
    assert "no migration needed" in out


def test_migrate2_fixture(capsys):
    code, out, _ = run(
        capsys, "migrate2", "--fixture", "figure3", "--blue", "b1,b2,b3", "--json"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert json.loads(lines[-1]) == {
        "final": [2, 4, 7], "pt": 2, "bound": 3, "gap": 0, "ok": True,
    }


def test_migrate2_path(capsys):
    code, out, _ = run(capsys, "migrate2", "--family", "path:7", "--blue", "0")
    assert code == 0
    assert out.endswith("final {3}  pt=3  time gap=0  postcondition ok\n")


def test_migrate_rejects_non_forcing(capsys):
    code, out, err = run(capsys, "migrate1", "--family", "cycle:5", "--blue", "0")
    assert code == 1
    assert out == ""
    assert "not a PSD forcing set" in err and "stalls" in err


@pytest.mark.parametrize("command,loop", [
    ("migrate1", "shrink_max_component"),
    ("migrate2", "balance_propagation"),
])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_migrate_reads_one_summary_after_its_loop(capsys, monkeypatch, command, loop, flags):
    # after the loop: one component_pt call, and no propagate or components
    calls = []

    def logged(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in (loop, "component_pt", "propagate", "components"):
        monkeypatch.setattr(cli, name, logged(name))
    code, out, _ = run(capsys, command, "--family", "path:7", "--blue", "0", *flags)
    assert code == 0
    assert ('"moved_in"' if flags else "pass 1:") in out  # the loop moved the set
    assert calls == [loop, "component_pt"]


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(g, blue):
        raise ConsistencyError("balancing pass changed the time 6 -> 6, expected -1")

    monkeypatch.setattr(cli, "balance_propagation", broken)
    code, out, err = run(capsys, "migrate2", "--family", "path:7", "--blue", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: balancing pass")


def _scan_too_slow(g, ks, max_subsets=None):
    # every size k reports time n, which breaks the throttling bound
    for k in ks:
        yield k, (g.n, (1 << k) - 1)


def _scan_never_forces(g, ks, max_subsets=None):
    for k in ks:
        yield k, None


# (module, name, replacement, argv, start of the message): each check of the
# engine and extremal layers, broken by a patched scan
BROKEN_SCANS = [
    (extremal, "_budgeted_scans", _scan_too_slow,
     ["compute", "--family", "path:5", "--throttle"], "throttling 6 above bound 3"),
    (extremal, "_budgeted_scans", _scan_never_forces,
     ["compute", "--family", "path:5", "--throttle"], "no size up to n forces"),
    (engine, "_budgeted_scans", _scan_never_forces,
     ["compute", "--family", "path:5"], "no size up to n forces"),
    (extremal, "_z_and_pt", lambda g, max_subsets=None: (1, g.n, 1),
     ["extremal", "--zeta", "4", "1"], "zeta(4, 1) = 4, above the bound"),
]


@pytest.mark.parametrize(
    "module,name,broken,argv,message",
    BROKEN_SCANS,
    ids=["throttle-bound", "throttle-no-size", "compute", "zeta"],
)
def test_layer_checks_exit_as_internal_errors(
    capsys, monkeypatch, module, name, broken, argv, message
):
    monkeypatch.setattr(module, name, broken)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"internal error: {message}")


def test_survey_input_errors_are_user_errors(capsys):
    assert run(capsys, "ng", "--n", "9") == (
        1, "", "error: enumeration supports 1 <= n <= 8, got 9\n")
    assert run(capsys, "extremal", "--k", "0") == (
        1, "", "error: catalog supports 1 <= k <= 4, got 0\n")


def test_other_value_errors_propagate(monkeypatch):
    # a ValueError that no input check raised is a bug: it keeps its traceback
    def broken(g, *, max_subsets=None):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "pt_plus", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["compute", "--family", "path:3"])


# Each flag is followed by the same command without it, so a flag's value
# left behind in the reused parser would show.
REPEATED_COMMANDS = [
    ["compute", "--family", "path:5", "--throttle"],
    ["compute", "--family", "path:5"],
    ["compute", "--g6", "DhC", "--max-subsets", "2", "--json"],
    ["compute", "--g6", "DhC", "--json"],
    ["verify-bounds", "--family", "path:6"],
    ["compute", "--family", "path:3", "--max-subsets", "-1"],
    ["verify-bounds", "--help"],
    ["extremal", "--k", "0"],
]


def test_repeated_calls_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # --help wraps to the terminal width
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for argv in REPEATED_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "psdforce.cli", *argv],
                              capture_output=True, encoding="utf-8", env=env, timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [r[0] for r in fresh] == [0, 0, 1, 0, 0, 2, 0, 1]

    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        reused = [run(capsys, *argv) for argv in REPEATED_COMMANDS]
    finally:
        cli._parser.cache_clear()
    assert reused == fresh
    assert len(builds) == 1


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "--family", "lollipop:4,2", "--json")
    assert code == 0
    assert out == '{"g6":"E~CG","n":6,"names":{"v":3,"w":5}}\n'


def test_family_table(capsys):
    code, out, _ = run(capsys, "family", "--fixture", "figure4")
    assert code == 0
    assert out == (
        "NkSg_sT?_E_D?C?A_?g\n"
        "b1 = 8\nb2 = 7\nb3 = 6\nv1 = 11\nv2 = 10\nv3 = 3\n"
    )


def test_extremal_catalog(capsys):
    code, out, _ = run(capsys, "extremal", "--k", "2", "--json")
    assert code == 0
    assert [json.loads(ln)["g6"] for ln in out.splitlines()] == ["BG", "BW", "Bw", "CL"]


def test_extremal_zeta(capsys):
    code, out, _ = run(capsys, "extremal", "--zeta", "4", "1", "--json")
    assert code == 0
    assert out == '{"n":4,"k":1,"zeta":2,"witnesses":["CL"]}\n'


def test_extremal_needs_one_mode(capsys):
    # a rejected command line: argparse's mutually exclusive group, exit 2
    code, _, err = run(capsys, "extremal", "--k", "1", "--zeta", "3", "1")
    assert code == 2
    assert err.endswith(
        "psdforce extremal: error: argument --zeta: not allowed with argument --k\n")
    code, _, err = run(capsys, "extremal")
    assert code == 2
    assert err.endswith("psdforce extremal: error: one of the arguments --k --zeta is required\n")
    assert "(--k K | --zeta N K)" in err


def test_ng_json(capsys):
    code, out, _ = run(capsys, "ng", "--n", "4", "--json")
    assert code == 0
    assert out == (
        '{"n":4,"histogram":{"1":2,"2":8,"4":1},"max_sum":4,'
        '"threshold":4,"attained":true,"attaining":["CL"]}\n'
    )


def test_surveys_resume_from_the_catalog_checkpoint(capsys, monkeypatch, tmp_path):
    # extremal --k 3 leaves the order 1..6 tables in D; ng and zeta at
    # order 6 read them back and compute no invariants
    d = str(tmp_path)
    cold_ng = run(capsys, "ng", "--n", "6")
    cold_zeta = run(capsys, "extremal", "--zeta", "6", "2")
    assert run(capsys, "extremal", "--k", "3", "--checkpoint", d)[0] == 0
    # a complete-looking file of the old per-survey layout is not read
    with open(os.path.join(d, "ng.n6.jsonl"), "w", encoding="utf-8") as fh:
        fh.write('{"g6":"E???","n":6,"z+":6,"pt+":0,"ng_pt":9,"ng_z":9}\n{"done":1}\n')
    calls = []
    real = extremal.graph_record

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(extremal, "graph_record", counting)
    assert run(capsys, "ng", "--n", "6", "--checkpoint", d)[:2] == cold_ng[:2]
    warm_zeta = run(capsys, "extremal", "--zeta", "6", "2", "--checkpoint", d)
    assert warm_zeta[:2] == cold_zeta[:2]
    assert calls == []


def test_checkpointed_zeta_ignores_an_edited_value(capsys, tmp_path):
    # a well-typed but wrong value no longer matches the file's digest, so
    # the order is computed again instead of trusted
    d = str(tmp_path)
    assert run(capsys, "ng", "--n", "3", "--checkpoint", d)[0] == 0
    path = Path(d, "invariants.n3.jsonl")
    text = path.read_text(encoding="utf-8")
    line = '{"g6":"BW","n":3,"z+":1,"pt+":1}'
    assert line in text
    path.write_text(text.replace(line, line.replace('"z+":1', '"z+":2')), encoding="utf-8")
    code, out, _ = run(capsys, "extremal", "--zeta", "3", "1", "--checkpoint", d, "--json")
    assert (code, out) == (0, '{"n":3,"k":1,"zeta":1,"witnesses":["BW"]}\n')
    assert path.read_text(encoding="utf-8") == text


def test_jobs_rejected_below_one_and_clamped(capsys, monkeypatch):
    # parsing fails or clamps before any worker pool could start
    for cmd in (["extremal", "--k", "1"], ["ng", "--n", "3"]):
        for bad in ("0", "-2", "two"):
            with pytest.raises(SystemExit) as exc:
                main(cmd + ["--jobs", bad])
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert build_parser().parse_args(["ng", "--n", "3", "--jobs", "64"]).jobs == 3
    assert build_parser().parse_args(["extremal", "--k", "1", "--jobs", "2"]).jobs == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["ng", "--n", "3", "--jobs", "8"]).jobs == 1


def test_verify_bounds_table(capsys):
    code, out, err = run(capsys, "verify-bounds", "--family", "path:6")
    assert code == 0
    assert out == (
        "g6    n  z+  violations  tight\n"
        "EhCG  6  1   -           1,4,5\n"
    )
    assert "0 violation(s), 0 skipped" in err


def test_verify_bounds_reports_a_violation(capsys, monkeypatch):
    real = cli.pt_plus_k

    def late_at_1(g, k, **kw):
        pt, witness = real(g, k, **kw)
        return pt + 9 * (k == 1), witness

    monkeypatch.setattr(cli, "pt_plus_k", late_at_1)
    code, out, err = run(capsys, "verify-bounds", "--family", "path:6")
    assert code == 1
    assert out == (
        "g6    n  z+  violations  tight\n"
        "EhCG  6  1   1           4,5\n"
    )
    assert err == "verify-bounds: 1 graph(s), 1 violation(s), 0 skipped\n"
    code, out, _ = run(capsys, "verify-bounds", "--family", "path:6", "--json")
    assert code == 1
    assert out == '{"g6":"EhCG","n":6,"z+":1,"violations":[1],"tight":[4,5]}\n'


def test_compute_budget_applies_without_throttle(capsys):
    code, out, err = run(capsys, "compute", "--family", "path:5", "--max-subsets", "1")
    assert code == 1
    assert out == ""
    assert "skipped" in err
    code, out, _ = run(capsys, "compute", "--family", "path:5", "--max-subsets", "5")
    assert code == 0
    assert out.startswith("g6 ")


@pytest.mark.parametrize("command", ["compute", "verify-bounds"])
def test_negative_budget_rejected_at_parse_time(capsys, command):
    for bad in ("-5", "-1", "five"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "path:3", "--max-subsets", bad])
        assert exc.value.code == 2
        assert "--max-subsets" in capsys.readouterr().err
    # 0 is a valid budget: it parses, then skips every graph that needs a scan
    code, out, err = run(capsys, command, "--family", "path:3", "--max-subsets", "0")
    assert code == 1
    assert out == ""
    assert "skipped" in err


@pytest.mark.parametrize("command", ["simulate", "migrate1", "migrate2"])
@pytest.mark.parametrize("flag", ["--max-n", "--max-subsets"])
def test_cap_flags_only_where_a_search_runs(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "path:4", "--blue", "0", flag, "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "verify-bounds"])
def test_order_cap_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "path:4", "--max-n", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_bounds_skip_fails(capsys):
    code, out, err = run(
        capsys, "verify-bounds", "--family", "path:5", "--max-subsets", "2"
    )
    assert code == 1
    assert "1 skipped" in err


def _over_budget(label, k, need):
    return (f"warning: {label}: skipped: sizes up to {k} need {need} subsets, "
            "over the budget 6; raise max_subsets to override\n")


# path 6, triangle, path 4, cycle 5 and path 2 at a budget of 6 subsets: each
# command keeps some graphs and skips others, in input order
PARTLY_SKIPPED = "EhCG\nBw\nCh\nDhc\nA_\n"
PARTLY_SKIPPED_RUNS = {
    "compute": (
        "g6    n  z+  pt+  witness\n"
        "EhCG  6  1   3    {2}\n"
        "Bw    3  2   1    {0,1}\n"
        "Ch    4  1   2    {1}\n"
        "A_    2  1   1    {0}\n",
        '{"g6":"EhCG","n":6,"z+":1,"pt+":3,"witness":[2]}\n'
        '{"g6":"Bw","n":3,"z+":2,"pt+":1,"witness":[0,1]}\n'
        '{"g6":"Ch","n":4,"z+":1,"pt+":2,"witness":[1]}\n'
        '{"g6":"A_","n":2,"z+":1,"pt+":1,"witness":[0]}\n',
        _over_budget("Dhc", 2, 10) + "compute: 4 graph(s), 1 skipped\n",
    ),
    "compute --throttle": (
        "g6  n  z+  pt+  witness  th+\n"
        "Bw  3  2   1    {0,1}    3\n"
        "A_  2  1   1    {0}      2\n",
        '{"g6":"Bw","n":3,"z+":2,"pt+":1,"witness":[0,1],"th+":3}\n'
        '{"g6":"A_","n":2,"z+":1,"pt+":1,"witness":[0],"th+":2}\n',
        _over_budget("EhCG", 2, 21) + _over_budget("Ch", 2, 10)
        + _over_budget("Dhc", 2, 10) + "compute: 2 graph(s), 3 skipped\n",
    ),
    "verify-bounds": (
        "g6  n  z+  violations  tight\n"
        "Bw  3  2   -           2\n"
        "Ch  4  1   -           1,2,3\n"
        "A_  2  1   -           1\n",
        '{"g6":"Bw","n":3,"z+":2,"violations":[],"tight":[2]}\n'
        '{"g6":"Ch","n":4,"z+":1,"violations":[],"tight":[1,2,3]}\n'
        '{"g6":"A_","n":2,"z+":1,"violations":[],"tight":[1]}\n',
        _over_budget("EhCG", 2, 15) + _over_budget("Dhc", 2, 10)
        + "verify-bounds: 3 graph(s), 0 violation(s), 2 skipped\n",
    ),
}


@pytest.mark.parametrize("command", sorted(PARTLY_SKIPPED_RUNS))
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_partly_skipped_corpus(capsys, tmp_path, command, json_flag):
    corpus = tmp_path / "mixed.g6"
    corpus.write_text(PARTLY_SKIPPED, encoding="ascii")
    text, jsonl, err = PARTLY_SKIPPED_RUNS[command]
    argv = [*command.split(), "--file", str(corpus), "--max-subsets", "6", *json_flag]
    assert run(capsys, *argv) == (1, jsonl if json_flag else text, err)


@pytest.mark.parametrize("command", [["compute"], ["family"], ["simulate", "--blue", "b1,b2,b3"]],
                         ids=["compute", "family", "simulate"])
@pytest.mark.parametrize("name", ["figure3", "figure4"])
def test_fixture_flag_is_the_family_flag(capsys, command, name):
    # --fixture NAME and --family NAME build the same graph with the same names
    via_fixture = run(capsys, *command, "--fixture", name)
    assert via_fixture[0] == 0 and via_fixture[1]
    assert run(capsys, *command, "--family", name) == via_fixture


def test_blue_parse_errors(capsys):
    code, _, err = run(capsys, "simulate", "--family", "path:4", "--blue", "9")
    assert code == 1 and "out of range" in err
    code, _, err = run(capsys, "simulate", "--fixture", "figure3", "--blue", "nope")
    assert code == 1 and "unknown vertex 'nope'" in err and "b1" in err


def test_blue_skips_empty_tokens(capsys):
    got = run(capsys, "simulate", "--family", "path:4", "--blue", "0,,3")
    assert got == run(capsys, "simulate", "--family", "path:4", "--blue", "0,3")
    assert got[0] == 0


def test_blue_rejects_non_decimal_digits(capsys):
    # '\u00b2' passes str.isdigit but is no base-10 vertex id
    code, _, err = run(capsys, "simulate", "--family", "path:3", "--blue", "\u00b2")
    assert code == 1
    assert err == "error: unknown vertex '\u00b2'\n"


# (command line, message) of each input error that ends in one line; {tmp}
# is the test's own directory, which holds two.g6
USER_ERRORS = [
    (["compute", "--file", "{tmp}/missing.g6"],
     "[Errno 2] No such file or directory: '{tmp}/missing.g6'"),
    (["compute", "--family", "bogus:3"], "unknown family 'bogus'"),
    (["simulate", "--file", "{tmp}/two.g6", "--blue", "0"],
     "this command needs exactly one graph, got 2"),
    (["extremal", "--zeta", "3", "5"], "need 1 <= k <= n, got k=5, n=3"),
    (["compute", "--family", "lollipop:4"], "family 'lollipop' takes two parameters m,r"),
    (["family", "--family", "h:1,2"], "family 'h' takes one parameter k"),
    (["family", "--family", "empty:258048"],
     "graph order 258048 beyond graph6 range (at most 258047)"),
    # the checkpoint directory is made before the first order is computed
    (["ng", "--n", "3", "--checkpoint", "{tmp}/two.g6"],
     "[Errno 17] File exists: '{tmp}/two.g6'"),
    (["extremal", "--k", "1", "--checkpoint", "{tmp}/two.g6/sub"],
     "[Errno 20] Not a directory: '{tmp}/two.g6/sub'"),
    (["extremal", "--k", "5"], "catalog supports 1 <= k <= 4, got 5"),
    (["ng", "--n", "9"], "enumeration supports 1 <= n <= 8, got 9"),
]


@pytest.mark.parametrize(
    "argv,message", USER_ERRORS,
    ids=["unopenable-file", "unknown-family", "two-graphs", "zeta-k-above-n",
         "family-arity", "h-family-arity", "past-graph6-order", "checkpoint-is-a-file",
         "checkpoint-under-a-file", "catalog-k-above-4", "ng-n-above-8"],
)
def test_input_errors_end_in_one_line(capsys, tmp_path, argv, message):
    (tmp_path / "two.g6").write_text("DhC\nCh\n", encoding="ascii")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message.format(tmp=tmp_path)}\n")


def test_g6_label_is_the_input_text(capsys):
    # parse_graph6 accepts only the text write_graph6 writes back
    code, out, _ = run(capsys, "compute", "--g6", " DhC\n", "--json")
    assert code == 0
    assert json.loads(out)["g6"] == "DhC"


def test_graph6_parse_error(capsys):
    code, _, err = run(capsys, "compute", "--g6", "~~~")
    assert code == 1 and "byte 0" in err


def test_sources_are_exclusive():
    with pytest.raises(SystemExit):
        main(["compute", "--g6", "DhC", "--family", "path:4"])


def test_stdout_byte_determinism(capsys):
    argv = ("compute", "--fixture", "figure4", "--json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert json.loads(first[1])["z+"] == 3
    third = run(capsys, "ng", "--n", "5", "--json")
    fourth = run(capsys, "ng", "--n", "5", "--json")
    assert third[1] == fourth[1]


def _readme_examples():
    # (argv, stdout) of each "$ psdforce ..." line in README's sh blocks: the
    # lines after it, up to a blank line or the end of the block
    examples, in_sh, out = [], False, None
    readme = Path(__file__).resolve().parent.parent / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh, out = line == "```sh", None
        elif in_sh and line.startswith("$ psdforce "):
            out = []
            examples.append((shlex.split(line)[2:], out))
        elif out is not None and line:
            out.append(line + "\n")
        else:
            out = None
    return [(argv, "".join(lines)) for argv, lines in examples]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "argv,expected", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_examples_are_exact(capsys, argv, expected):
    assert len(README_EXAMPLES) == 7
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected)
