import json

import numpy as np
import pytest

from idealcrystal.config import RunConfig
from idealcrystal.crystal import recover_crystal
from idealcrystal.generators import gen_ideal_crystal, gen_poisson
from idealcrystal.report import (
    SCHEMA_VERSION,
    build_report,
    canonical_json,
    render_json,
    render_text,
)


def test_canonical_json_scalars():
    assert canonical_json(None) == "null"
    assert canonical_json(True) == "true"
    assert canonical_json(False) == "false"
    assert canonical_json(3) == "3"
    assert canonical_json(np.int64(3)) == "3"
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(1.0) == "1"
    assert canonical_json(np.float64(0.5)) == "0.5"
    assert canonical_json("a\nb") == '"a\\nb"'


def test_canonical_json_containers_sorted_and_compact():
    s = canonical_json({"b": [1, 2.5], "a": {"z": None, "y": "x"}})
    assert s == '{"a":{"y":"x","z":null},"b":[1,2.5]}'
    # numpy arrays serialize like lists
    assert canonical_json(np.array([1.0, 2.0])) == "[1,2]"


def test_canonical_json_is_parseable_and_lossless():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        back = json.loads(canonical_json(x))
        assert back == x


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json(object())


def test_report_fields_crystal():
    S = gen_ideal_crystal([[2.0]], [[0.0], [0.5]], 40.0)
    dec = recover_crystal(S)
    cfg = RunConfig()
    rep = build_report(dec, cfg, {"recover": 12.5})
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["verdict"] == "crystal"
    assert rep["config"] == cfg.echo()
    assert list(rep["config"]) == ["strategy", "r_max", "tol_exact"]
    assert rep["stage"] is None and rep["reason"] is None
    assert abs(abs(rep["det"]) - 2.0) < 1e-9
    assert rep["residues"] == [[0.0], [0.5]]
    assert rep["coverage_in"] == 1.0 and rep["coverage_out"] == 1.0
    assert rep["timings_ms"] == {"recover": 12.5}
    assert all(isinstance(P["T"], list) for P in rep["periods"])
    # everything must serialize
    assert render_json(rep).endswith("\n")


def test_report_fields_no_crystal():
    S = gen_poisson(1.0, 60.0, 3)
    out = recover_crystal(S)
    rep = build_report(out, RunConfig())
    assert rep["verdict"] == "no-crystal"
    assert rep["basis"] is None and rep["det"] is None
    assert rep["residues"] is None
    assert rep["stage"] in (
        "finite-type-gap", "candidate-generation", "period-verification",
        "basis-selection", "residues", "decomposition",
    )
    assert isinstance(rep["reason"], str) and rep["reason"]
    assert rep["periods"] == []
    render_json(rep)


def test_report_rejects_other_types():
    with pytest.raises(TypeError):
        build_report("verdict", RunConfig())


def test_json_bytes_identical_across_runs():
    S = gen_ideal_crystal([[1.0, 0.0], [0.3, 1.1]], [[0.0, 0.0]], 30.0)
    outs = []
    for _ in range(3):
        dec = recover_crystal(S)
        rep = build_report(dec, RunConfig(), {"recover": np.random.rand()})
        rep.pop("timings_ms")
        outs.append(render_json(rep))
    assert outs[0] == outs[1] == outs[2]


def test_timings_quarantined_under_single_key():
    S = gen_ideal_crystal([[1.0]], [[0.0]], 30.0)
    dec = recover_crystal(S)
    r1 = build_report(dec, RunConfig(), {"recover": 1.0})
    r2 = build_report(dec, RunConfig(), {"recover": 2.0})
    r1.pop("timings_ms")
    r2.pop("timings_ms")
    assert render_json(r1) == render_json(r2)


def test_text_rendering_crystal():
    S = gen_ideal_crystal([[2.0]], [[0.0], [0.5]], 40.0)
    rep = build_report(recover_crystal(S), RunConfig())
    txt = render_text(rep)
    assert txt.startswith("verdict: crystal\n")
    assert "det: " in txt
    assert "residues (2):" in txt
    assert "coverage: in=1.000000 out=1.000000" in txt


def test_text_rendering_no_crystal():
    S = gen_poisson(1.0, 60.0, 3)
    rep = build_report(recover_crystal(S), RunConfig())
    txt = render_text(rep)
    assert txt.startswith("verdict: no-crystal\n")
    assert "stage: " in txt and "reason: " in txt
