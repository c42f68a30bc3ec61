import json
import os
import subprocess
import sys

import numpy as np
import pytest

from idealcrystal._util import query_workers
from idealcrystal.errors import ConfigError
from idealcrystal.pointset import load_points

PKG = [sys.executable, "-m", "idealcrystal"]


def run(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        PKG + list(args), input=stdin, capture_output=True, text=True,
        env=env, timeout=300,
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


def test_analyze_bad_config_exit_1(tmp_path):
    src = tmp_path / "c.csv"
    run("generate", "crystal", "--basis", "1", "--radius", "30",
        "--out", str(src))
    a = run("analyze", str(src), "--r-min", "5", "--r-max", "2")
    assert a.returncode == 1


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


def test_roundtrip_mismatch_exit_2():
    # the annulus is pinned onto the doubled period of Z, so recovery
    # reports det 2 against a generating det of 1: ratio 0.5 is not an
    # integer factor and the comparison must fail loudly
    r = run("roundtrip", "crystal", "--basis", "1", "--residues", "0",
            "--radius", "30", "--r-min", "1.5", "--r-max", "2.4")
    assert r.returncode == 2
    assert "ratio_integer" in r.stdout


def test_reports_deterministic_across_threads(tmp_path):
    src = tmp_path / "c.csv"
    run("generate", "crystal", "--basis", "1,0;0,1", "--residues",
        "0,0;0.5,0.5", "--radius", "25", "--out", str(src))
    outs = []
    for threads in ("1", "4", "2"):
        a = run("analyze", str(src), env_extra={"CRYSTAL_THREADS": threads})
        assert a.returncode == 0
        rep = json.loads(a.stdout)
        rep.pop("timings_ms")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_query_workers_default_is_one_thread(monkeypatch):
    monkeypatch.delenv("CRYSTAL_THREADS", raising=False)
    assert query_workers() == 1
    monkeypatch.setenv("CRYSTAL_THREADS", "4")
    assert query_workers() == 4
    monkeypatch.setenv("CRYSTAL_THREADS", "0")
    assert query_workers() == 1
    monkeypatch.setenv("CRYSTAL_THREADS", "all")
    with pytest.raises(ConfigError):
        query_workers()


def test_generate_seeded_determinism():
    a = run("generate", "poisson", "--seed", "9", "--radius", "40")
    b = run("generate", "poisson", "--seed", "9", "--radius", "40")
    c = run("generate", "poisson", "--seed", "10", "--radius", "40")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


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
