import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from idealcrystal.cli import _config_from_args, build_parser
from idealcrystal.config import RunConfig
from idealcrystal.crystal import recover_crystal
from idealcrystal.generators import gen_ideal_crystal
from idealcrystal.pointset import WindowedSet, load_points, serialize
from idealcrystal.report import SCHEMA_VERSION, build_report

PKG = [sys.executable, "-m", "idealcrystal"]


def run(*args, stdin=None):
    return subprocess.run(
        PKG + list(args), input=stdin, capture_output=True, text=True,
        timeout=300,
    )


def test_usage_error_exits_1():
    r = run()
    assert r.returncode == 1


def test_help_exits_0():
    r = run("--help")
    assert r.returncode == 0
    assert "analyze" in r.stdout and "roundtrip" in r.stdout


def test_generate_to_stdout_csv():
    r = run("generate", "crystal", "--basis", "1", "--radius", "5")
    assert r.returncode == 0
    S = load_points(r.stdout, "csv")
    assert len(S) == 11
    assert S.radius == 5.0
    assert "generated" in r.stderr


def test_generate_crystal_residues_default_to_origin():
    r = run("generate", "crystal", "--basis", "1,0;0,1", "--radius", "3",
            "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["generator"]["residues"] == [[0.0, 0.0]]
    assert len(doc["points"]) == 29


@pytest.mark.parametrize("residues", ["0", "0,0;0.5"])
def test_generate_crystal_residue_width_mismatch_exits_1(residues):
    r = run("generate", "crystal", "--basis", "1,0;0,1", "--residues",
            residues, "--radius", "3")
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ["crystal", "--radius", "inf"],
    ["crystal", "--radius", "nan"],
    ["crystal", "--radius", "1e19"],
    ["poisson", "--intensity", "nan", "--radius", "5"],
    ["poisson", "--radius", "1e300"],
    # arrays past numpy's size limit used to fail numpy's own ValueError
    ["poisson", "--intensity", "1e15", "--radius", "1000"],
    ["cut_project", "--radius", "1e19"],
])
def test_generate_unbuildable_window_exits_1(args):
    # each used to end in a traceback, or for 1e19 to print one wrapped point
    r = run("generate", *args)
    assert r.returncode == 1, r.stderr[-200:]
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, \
        r.stderr[-200:]
    assert r.stdout == ""


@pytest.mark.parametrize("basis, message", [
    ("1e200,0;0,1e200", "error: |det| = inf or floor inf overflows float64"),
    ("1e-300", "error: radius 1 needs lattice coordinates past int64"),
], ids=["det-overflow", "inverse-overflow"])
def test_generate_overflowing_basis_exits_1_without_warning(basis, message):
    # numpy used to print a RuntimeWarning (overflow in det, norm or
    # multiply) before the error line
    r = run("generate", "crystal", "--basis", basis, "--radius", "1")
    assert r.returncode == 1
    assert r.stderr.startswith(message) and r.stderr.count("\n") == 1, \
        r.stderr
    assert r.stdout == ""


def test_generate_json_with_metadata(tmp_path):
    out = tmp_path / "set.json"
    r = run("generate", "poisson", "--intensity", "1", "--radius", "30",
            "--seed", "4", "--format", "json", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 1 and doc["radius"] == 30.0
    assert doc["generator"]["kind"] == "poisson"
    S = load_points(out.read_bytes(), "json")
    assert len(S) == len(doc["points"])
    # atomic write leaves no temp droppings
    assert [p.name for p in tmp_path.iterdir()] == ["set.json"]


def test_analyze_crystal_exit_0(tmp_path):
    src = tmp_path / "c.csv"
    r = run("generate", "crystal", "--basis", "2", "--residues", "0;0.5",
            "--radius", "40", "--out", str(src))
    assert r.returncode == 0
    a = run("analyze", str(src))
    assert a.returncode == 0
    rep = json.loads(a.stdout)
    assert rep["verdict"] == "crystal"
    assert abs(abs(rep["det"]) - 2.0) < 1e-9
    assert rep["residues"] == [[0.0], [0.5]]
    assert rep["coverage_in"] == 1.0 and rep["coverage_out"] == 1.0


def test_analyze_no_crystal_exit_3(tmp_path):
    src = tmp_path / "p.csv"
    run("generate", "poisson", "--intensity", "1", "--radius", "60",
        "--seed", "3", "--out", str(src))
    a = run("analyze", str(src))
    assert a.returncode == 3
    rep = json.loads(a.stdout)
    assert rep["verdict"] == "no-crystal"
    assert rep["basis"] is None


def test_analyze_stdin_dash():
    gen = run("generate", "crystal", "--basis", "1", "--radius", "30")
    a = run("analyze", "-", "--format", "csv", stdin=gen.stdout)
    assert a.returncode == 0
    assert json.loads(a.stdout)["verdict"] == "crystal"


def test_analyze_text_output(tmp_path):
    src = tmp_path / "c.csv"
    run("generate", "crystal", "--basis", "1", "--radius", "30",
        "--out", str(src))
    a = run("analyze", str(src), "--output", "text")
    assert a.returncode == 0
    assert a.stdout.startswith("verdict: crystal\n")


def test_analyze_missing_file_exit_1():
    a = run("analyze", "/nonexistent/points.csv")
    assert a.returncode == 1
    assert "error:" in a.stderr


def test_analyze_malformed_input_exit_1(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("# radius: 5\n1.0\nnot-a-number\n")
    a = run("analyze", str(src))
    assert a.returncode == 1
    assert "error:" in a.stderr


@pytest.mark.parametrize("text", [
    "1e160,0\n0,0\n",
    "".join(f"{x * 1e160!r},{y * 1e160!r}\n"
            for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y <= 25),
], ids=["two-points", "scaled-disc"])
def test_analyze_window_with_overflowing_squares(tmp_path, text):
    # the squares of 1e160 overflow, the norms do not: the window loads and
    # the run ends in a staged verdict
    src = tmp_path / "big.csv"
    src.write_text(text)
    a = run("analyze", str(src))
    assert a.returncode == 3, a.stderr
    assert a.stderr == ""
    rep = json.loads(a.stdout)
    assert rep["verdict"] == "no-crystal" and rep["stage"]


def test_analyze_window_without_measurable_scales_exits_3(tmp_path):
    # only the rim 27.5 <= |x| <= 30 of the unit square lattice: D cannot be
    # measured near the origin, which is a staged verdict, not an error
    S = gen_ideal_crystal(np.eye(2), [[0.0, 0.0]], 30.0)
    rim = S.points[np.linalg.norm(S.points, axis=1) >= 27.5]
    src = tmp_path / "rim.csv"
    src.write_text(serialize(WindowedSet(rim, 30.0), "csv"))
    a = run("analyze", str(src))
    assert a.returncode == 3, a.stderr
    rep = json.loads(a.stdout)
    assert rep["stage"] == "input" and "core_margin" not in rep["reason"]


def test_analyze_bad_json_exit_1():
    # each used to end in a traceback instead of "error: ..."
    for text in ['{"radius": "abc", "points": [[1.0]]}',
                 '{"radius": [1], "points": [[1.0]]}',
                 '{"points": [[%s]]}' % ("7" * 400),
                 '{"points": [[%s]]}' % ("7" * 4400),
                 '{"points": %s%s}' % ("[" * 100_000, "]" * 100_000)]:
        a = run("analyze", "-", "--format", "json", stdin=text)
        assert a.returncode == 1, text[:40]
        assert a.stderr.startswith("error:"), a.stderr[-200:]


@pytest.mark.parametrize("depth", [31, 40])
def test_analyze_nesting_limit_does_not_depend_on_the_stack(tmp_path, depth):
    # a fresh process has the interpreter's default recursion limit, under
    # which json.loads reads far more than 40 levels; the limit is the file
    # format's, so this gives what load_points gives inside a hypothesis
    # test (tests/test_pointset.py). 31 levels in the generator value make
    # the document 32 deep, at the limit
    src = tmp_path / "nested.json"
    src.write_text('{"points": [[1.0]], "generator": %s}'
                   % ("[" * depth + "1" + "]" * depth))
    a = run("analyze", str(src))
    if depth < 32:
        assert a.returncode == 3, a.stderr[-200:]
        assert json.loads(a.stdout)["stage"] == "input"
    else:
        assert a.returncode == 1
        assert a.stderr == "error: JSON nested deeper than 32 levels\n"


def test_analyze_non_utf8_file_exit_1(tmp_path):
    src = tmp_path / "latin1.csv"
    src.write_bytes(b"\xff# radius: 5\n1.0\n2.0\n")
    a = run("analyze", str(src))
    assert a.returncode == 1
    assert a.stderr.startswith("error:") and "UTF-8" in a.stderr, a.stderr[-200:]


def test_analyze_non_utf8_stdin_exit_1():
    for fmt, data in (("csv", b"1.0\n\xe9\n"),
                      ("json", b'{"points": [[1.0]], "label": "\xff"}')):
        a = subprocess.run(PKG + ["analyze", "-", "--format", fmt], input=data,
                           capture_output=True, timeout=300)
        assert a.returncode == 1, fmt
        assert a.stderr.startswith(b"error:") and b"UTF-8" in a.stderr, a.stderr


def test_out_of_memory_exits_1_with_an_error_line(monkeypatch, capsys):
    from idealcrystal import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_analyze", exhausted)
    assert cli.main(["analyze", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_analyze_bad_config_exit_1(tmp_path):
    src = tmp_path / "c.csv"
    run("generate", "crystal", "--basis", "1", "--radius", "30",
        "--out", str(src))
    # r_max must be positive, and at most R/2 = 15
    for r_max in ("0", "45"):
        a = run("analyze", str(src), "--r-max", r_max)
        assert a.returncode == 1, r_max
        assert a.stderr.startswith("error: ") and "r_max" in a.stderr
    # the window decides r_min and how few points suffice, and paper-cone
    # uses the paper's cones; none of them is a flag
    for flag in ("--r-min", "--min-points", "--cone-scale"):
        a = run("analyze", str(src), flag, "5")
        assert a.returncode == 1, flag
        assert "unrecognized arguments" in a.stderr


def test_analyze_report_to_file(tmp_path):
    src = tmp_path / "c.csv"
    run("generate", "crystal", "--basis", "1", "--radius", "30",
        "--out", str(src))
    out = tmp_path / "report.json"
    a = run("analyze", str(src), "--out", str(out))
    assert a.returncode == 0
    assert a.stdout == ""
    assert json.loads(out.read_text())["verdict"] == "crystal"


def test_roundtrip_crystal_exit_0():
    r = run("roundtrip", "crystal", "--basis", "1,0;0.3,1.1",
            "--residues", "0,0;0.5,0.55", "--radius", "40")
    assert r.returncode == 0
    assert "verdict" in r.stdout and "crystal" in r.stdout
    rows = dict(line.split(None, 1) for line in r.stdout.splitlines())
    assert rows["ratio_integer"] == "True"
    assert rows["residue_count_consistent"] == "True"


def test_roundtrip_aperiodic_exit_3():
    r = run("roundtrip", "cut_project", "--radius", "300")
    assert r.returncode == 3
    assert "no-crystal" in r.stdout


def test_roundtrip_mismatch_exit_2(monkeypatch, capsys):
    # recovery is handed only the even points of Z, so it reports det 2
    # against a generating det of 1: ratio 0.5 is not an integer factor and
    # the comparison must fail loudly
    from idealcrystal import cli

    recover = cli.recover_crystal

    def even_points_only(S, config):
        return recover(WindowedSet(S.points[S.points[:, 0] % 2 == 0],
                                   S.radius), config)

    monkeypatch.setattr(cli, "recover_crystal", even_points_only)
    assert cli.main(["roundtrip", "crystal", "--basis", "1", "--residues",
                     "0", "--radius", "30"]) == 2
    rows = dict(line.split(None, 1)
                for line in capsys.readouterr().out.splitlines())
    assert rows["recovered_det"] == "2"
    assert rows["ratio_integer"] == "False"


def test_reports_deterministic_across_runs(tmp_path):
    src = tmp_path / "c.csv"
    run("generate", "crystal", "--basis", "1,0;0,1", "--residues",
        "0,0;0.5,0.5", "--radius", "25", "--out", str(src))
    outs = []
    for _ in range(3):
        a = run("analyze", str(src))
        assert a.returncode == 0
        rep = json.loads(a.stdout)
        rep.pop("timings_ms")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_report_flags_are_analyze_flags_only(tmp_path):
    # roundtrip prints a table and writes no report, so it refuses the
    # report's destination and format instead of ignoring them
    out = tmp_path / "F"
    r = run("roundtrip", "crystal", "--basis", "1,0;0,1", "--residues", "0,0",
            "--radius", "12", "--out", str(out), "--output", "text")
    assert r.returncode == 1
    assert "unrecognized arguments" in r.stderr
    assert r.stdout == ""
    assert not out.exists()


def test_generate_seeded_determinism():
    a = run("generate", "poisson", "--seed", "9", "--radius", "40")
    b = run("generate", "poisson", "--seed", "9", "--radius", "40")
    c = run("generate", "poisson", "--seed", "10", "--radius", "40")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


@pytest.mark.parametrize("cmd", ["generate", "roundtrip"])
def test_negative_seed_exits_1(cmd):
    r = run(cmd, "poisson", "--seed", "-1")
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "seed" in r.stderr
    assert "Traceback" not in r.stderr


def test_seed_is_a_generator_flag_only(tmp_path):
    # recovery reads no seed: analyze refuses the flag and the config echo
    # omits it, while generate and roundtrip still seed the generator
    src = tmp_path / "p.csv"
    g = run("generate", "poisson", "--radius", "60", "--seed", "3",
            "--out", str(src))
    assert g.returncode == 0
    assert run("analyze", str(src), "--seed", "3").returncode == 1
    a = run("analyze", str(src))
    assert a.returncode == 3
    assert "seed" not in json.loads(a.stdout)["config"]
    r = run("roundtrip", "poisson", "--radius", "60", "--seed", "3")
    assert r.returncode == 3
    assert "no-crystal" in r.stdout


def test_analysis_flags_and_config_echo_are_run_config_fields():
    # a setting lives in RunConfig, in the flags of both analysis commands
    # and in the report's config block, or in none of them
    want = [f.name for f in fields(RunConfig)]
    assert want == ["strategy", "r_max", "tol_exact"]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {cmd: {a.dest for a in p._actions} for cmd, p in sub.choices.items()}
    report_io = {"help", "input", "format", "output", "out"}
    assert dests["analyze"] - report_io == set(want)
    assert dests["roundtrip"] - dests["generate"] == set(want)
    S = gen_ideal_crystal([[1.0]], [[0.0]], 10.0)
    rep = build_report(recover_crystal(S), RunConfig())
    assert list(rep["config"]) == want


def test_readme_names_the_run_config_flags_and_schema_version():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    m = re.search(r"Analysis flags mirror `RunConfig`:(.*?)\.", text, re.S)
    assert m is not None
    assert re.findall(r"`(--[a-z-]+)`", m.group(1)) == [
        "--" + f.name.replace("_", "-") for f in fields(RunConfig)
    ]
    assert re.findall(r"`schema_version` (\d+)", text) == [str(SCHEMA_VERSION)]


def test_config_flags_default_to_run_config():
    for argv in (["analyze", "in.csv"], ["roundtrip", "crystal"]):
        args = build_parser().parse_args(argv)
        assert _config_from_args(args) == RunConfig()


def test_analyze_coordinates_past_1e154_are_refused_at_input(tmp_path):
    # neighbour distances square coordinate differences, so at this scale D
    # and the minimum separation overflow; the run stops at input and says
    # why instead of reporting D = inf
    g = np.arange(-5.0, 6.0)
    pts = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    pts = pts[np.linalg.norm(pts, axis=1) <= 5.0] * 1e160
    assert len(pts) == 81
    src = tmp_path / "huge.csv"
    np.savetxt(src, pts, delimiter=",", fmt="%.17g")
    a = run("analyze", str(src))
    assert a.returncode == 3, a.stderr
    rep = json.loads(a.stdout)
    assert rep["stage"] == "input"
    assert "overflow" in rep["reason"] and "5e+160" in rep["reason"]
    assert "inf" not in a.stdout.lower()


def test_generate_perturbed_on_a_skewed_basis_stays_small():
    # a valid basis (|det| / prod |B_j| = 1.8e-4) whose shortest vector,
    # 2 B_1 - B_3, is 20 times shorter than its rows: the amplitude guard
    # once scanned a box of 1,899^3 coordinate vectors (51 GiB) for it. The
    # address-space cap turns such an allocation into a failed run
    basis = ("2.3645548320042318,0.22669885643799229,1.1624211875584574;"
             "-1.0882117291190974,0.16647643241807342,-0.8665073572768981;"
             "4.7352368687852655,0.4135933741212294,2.382762180605139")

    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    r = subprocess.run(
        PKG + ["generate", "perturbed", "--basis", basis, "--amplitude",
               "0.01", "--freqs", "1.4142135623730951,0,0", "--radius", "2"],
        capture_output=True, text=True, timeout=300, preexec_fn=cap,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert r.returncode == 0, r.stderr
    assert len(load_points(r.stdout, "csv")) > 0


def test_analyze_seed_79_under_paper_cone_stays_small(tmp_path):
    # the criterion-1 seed-79 crystal (p = 3, ~3e5 points) has no candidate
    # in a paper-cone axis cone, and the run stages at basis-selection. The
    # 1 GiB address-space cap is at least twice what the run needs (with
    # CPython 3.11, numpy 2.4 and scipy 1.17 it passes at 448 MiB and runs
    # out while parsing at 384 MiB), so a run that forms a whole-window
    # table or scans a coordinate box fails here
    from scipy.stats import special_ortho_group

    rng = np.random.default_rng(90_000 + 79)
    Q = special_ortho_group.rvs(3, random_state=79)
    B = Q @ np.diag(rng.uniform(0.9, 1.1, 3))
    R = 40.0 * float(np.linalg.norm(B, axis=1).max())
    S = gen_ideal_crystal(B, np.zeros((1, 3)), R)
    assert len(S) > 250_000
    src = tmp_path / "c1-seed79.json"
    src.write_text(serialize(S, "json"))

    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    r = subprocess.run(
        PKG + ["analyze", str(src), "--strategy", "paper-cone"],
        capture_output=True, text=True, timeout=300, preexec_fn=cap,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert r.returncode == 3, r.stderr
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "no-crystal"
    assert rep["stage"] == "basis-selection"
