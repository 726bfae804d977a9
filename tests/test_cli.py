import ast
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere7 import cli, u2h, weyl
from sphere7.cli import main
from sphere7.fock import ELL_MAX, M_MAX, build_rho, load_representation


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def test_verify_small(tmp_path):
    code = run(tmp_path, "verify", "--m", "1..2", "--ell", "0..1")
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True
    names = {c["check"] for c in report["checks"]}
    assert {"jacobi-spinor", "cross-basis", "embedding-exact-sector",
            "rep-bracket", "commuting-diagram"} <= names


def test_verify_invalid_m(tmp_path):
    assert run(tmp_path, "verify", "--m", "0") == 2


@pytest.mark.parametrize("args, message", [
    (("verify", "--m", f"1..{M_MAX + 1}"), f"level m = {M_MAX}"),
    (("eds-check", "--samples", "0"), "samples must be >= 1"),
    (("eds-check", "--samples", "-3"), "samples must be >= 1"),
    (("eds-check", "--seed", "-1"), "seed must be >= 0"),
    (("dump-rep", "--m", "13"), "use --format binary for m = 13"),
    (("dump-rep", "--m", "13", "--format", "json"), "--format binary"),
    (("verify", "--m", ""), "invalid literal for int()"),
    (("eds-check", "--h", "inf"), "h must be in (0, 1), got inf"),
    (("eds-check", "--h", "nan"), "h must be in (0, 1), got nan"),
    # the chart points of a step overflow from about h = 1e155
    (("eds-check", "--h", "1e155"), "h must be in (0, 1), got 1e+155"),
    (("verify", "--mutate", "xyz"), "mutate must be k-bracket, got 'xyz'"),
    (("verify", "--m", "1..1", "--ell", f"0..{ELL_MAX + 1}"),
     f"ell = {ELL_MAX + 1} is above the largest supported truncation "
     f"ell = {ELL_MAX}"),
    (("table", "--m", "1..1", "--ell", f"{ELL_MAX + 1}..{ELL_MAX + 1}"),
     f"ell = {ELL_MAX + 1} is above the largest supported truncation "
     f"ell = {ELL_MAX}"),
])
def test_config_out_of_range(tmp_path, capsys, args, message):
    assert run(tmp_path, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ("verify", "--m", "1..1", "--ell", "0..0"),
    ("eds-check", "--samples", "1"),
    ("transport", "path.json"),
    ("table", "--m", "1..1", "--ell", "0..0"),
    ("dump-rep", "--m", "1..1"),
])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_cannot_be_a_directory(tmp_path, monkeypatch, capsys, args,
                                        below):
    # --out names a file, or a path under one: refused before any check
    monkeypatch.chdir(tmp_path)
    pathlib.Path("path.json").write_text(json.dumps(
        {"type": "constant", "at": {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
         "m": 1}))
    pathlib.Path("afile").write_text("")
    assert main([*args, "--out", str(pathlib.Path("afile", below))]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out
    assert pathlib.Path("afile").read_text() == ""


def test_verify_mutated_fails_and_names_pair(tmp_path):
    code = run(tmp_path, "verify", "--m", "2", "--ell", "0..0",
               "--mutate", "k-bracket")
    assert code == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing
    assert any("K+" in c.get("detail", "") or "triple" in c.get("detail", "")
               for c in failing)
    rep_row, = (c for c in report["checks"]
                if c["check"] == "rep-bracket-mutated")
    assert not rep_row["passed"]
    assert "('K++', 'K+-')" in rep_row["detail"]


def test_verify_lists_failing_exact_pairs_in_pair_order(tmp_path,
                                                       monkeypatch):
    # the order must not follow the string hashes, which vary by process
    real = weyl.verify_embedding
    monkeypatch.setattr(weyl, "verify_embedding", lambda *a, **kw: {
        k: dict(v, exact=False) for k, v in real(*a, **kw).items()})
    assert run(tmp_path, "verify", "--m", "1", "--ell", "0..0") == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    row, = (c for c in report["checks"]
            if c["check"] == "embedding-exact-sector")
    failing = ast.literal_eval(row["detail"].split("failing=")[1])
    order = [f"{x}|{y}" for x, y in u2h.GENERATOR_PAIRS]
    assert len(failing) > 1 and failing == sorted(failing, key=order.index)


def test_verify_reports_a_failed_irreducibility_witness(tmp_path, capsys,
                                                        monkeypatch):
    # level 3 without the P generators leaves the span of the states the
    # K and J ladders reach from the vacuum invariant
    def reducible(m):
        rep = build_rho(m)
        if m == 3:
            rep.update({g: np.zeros(rep[g].shape)
                        for g in ("P++", "P--", "P-+", "P+-")})
        return rep

    monkeypatch.setattr("sphere7.fock.build_rho", reducible)
    assert run(tmp_path, "verify", "--m", "2..3", "--ell", "0..0") == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "verify.json").read_text())
    rows = [c for c in report["checks"] if c["check"] == "rep-commutant"]
    assert rows[0] == {"check": "rep-commutant", "detail": "m=2",
                       "value": 1, "threshold": 1, "passed": True}
    assert rows[1] == {
        "check": "rep-commutant",
        "detail": "m=3 basis states [1, 2, 4, 5, 6, 7, 8] (7 of 10) are not "
                  "reached from the vacuum along the columns with one nonzero",
        "value": None, "threshold": 1, "passed": False}


def test_verify_reports_an_off_diagonal_k(tmp_path, capsys, monkeypatch):
    # an off-diagonal rho(K+-) entry has no spectrum to compare: the
    # spectrum and witness rows fail with the reason instead of a traceback
    def skewed(m):
        rep = build_rho(m)
        if m == 3:
            k = rep["K+-"].toarray()
            k[1, 2] = 1e-3
            rep["K+-"] = k
        return rep

    monkeypatch.setattr("sphere7.fock.build_rho", skewed)
    assert run(tmp_path, "verify", "--m", "2..3", "--ell", "0..0") == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "verify.json").read_text())
    rows = {(c["check"], c["detail"][:3]): c for c in report["checks"]}
    assert rows["rep-spectrum", "m=2"]["passed"]
    for check in ("rep-spectrum", "rep-commutant"):
        assert rows[check, "m=3"] == {
            "check": check, "detail": "m=3 rho(K+-) has an off-diagonal "
            "nonzero", "value": None,
            "threshold": 1e-12 if check == "rep-spectrum" else 1,
            "passed": False}


def test_verify_runs_mirror_and_diagram_past_ell_4(tmp_path):
    assert run(tmp_path, "verify", "--m", "1..3", "--ell", "5..6") == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    rows = [(c["check"], c["detail"], c["passed"]) for c in report["checks"]
            if c["check"] in ("classical-quantum-agreement",
                              "commuting-diagram")]
    assert rows == [
        ("classical-quantum-agreement", "ell=5", True),
        ("classical-quantum-agreement", "ell=6", True),
        *[("commuting-diagram", f"m={m}", True) for m in (1, 2, 3)]]


def _failing_rows(tmp_path, capsys, *args):
    assert run(tmp_path, "verify", *args) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "verify.json").read_text())
    return [c for c in report["checks"] if not c["passed"]]


def test_verify_catches_a_corrupted_sqrt_coefficient(tmp_path, capsys,
                                                     monkeypatch):
    # b_2 off by 1/64 changes S_ell in the formal generators and in their
    # classical mirror alike; only the commuting diagram compares S_ell
    # with the operators' own series
    exact = weyl.sqrt_coefficient
    monkeypatch.setattr(
        "sphere7.weyl.sqrt_coefficient",
        lambda k: exact(k) + (Fraction(1, 64) if k == 2 else 0))
    failing = _failing_rows(tmp_path, capsys, "--m", "1..3", "--ell", "0..2")
    assert [(c["check"], c["detail"]) for c in failing] == [
        ("commuting-diagram", f"m={m}") for m in (1, 2, 3)]
    for m, row in zip((1, 2, 3), failing):
        assert row["value"] == pytest.approx(m / 32)


def test_verify_catches_a_corrupted_late_sqrt_coefficient(tmp_path, capsys,
                                                          monkeypatch):
    # b_5 enters S_ell only from ell = 5 on, so only a diagram at ell >= 5
    # sees it
    exact = weyl.sqrt_coefficient
    monkeypatch.setattr(
        "sphere7.weyl.sqrt_coefficient",
        lambda k: exact(k) + (Fraction(1, 64) if k == 5 else 0))
    failing = _failing_rows(tmp_path, capsys, "--m", "1..3", "--ell", "5..5")
    assert [(c["check"], c["detail"]) for c in failing] == [
        ("commuting-diagram", f"m={m}") for m in (1, 2, 3)]
    for m, row in zip((1, 2, 3), failing):
        assert row["value"] == pytest.approx(m / 32)


def test_verify_catches_a_corrupted_ladder_amplitude(tmp_path, capsys,
                                                     monkeypatch):
    def scaled(m):
        rep = build_rho(m)
        if m == 3:
            rep["P++"].val[0] *= 1.001
        return rep

    monkeypatch.setattr("sphere7.fock.build_rho", scaled)
    failing = _failing_rows(tmp_path, capsys, "--m", "1..3", "--ell", "0..2")
    assert [(c["check"], c["detail"]) for c in failing] == [
        ("rep-bracket", "m=3 worst=('P++', 'K--')"),
        ("rep-reality", "m=3"), ("rep-casimir", "m=3")]


def test_eds_check(tmp_path):
    assert run(tmp_path, "eds-check", "--samples", "25", "--seed", "5") == 0
    report = json.loads((tmp_path / "eds.json").read_text())
    assert report["passed"]


def test_transport_reeb(tmp_path):
    spec = {"type": "reeb_loop", "r": [0.5, 0.5, 0.5, 0.5],
            "theta": [0, 0, 0, 0], "m": 2, "steps": 2000,
            "psi_i": [1, 0, 0, 0], "psi_f": [1, 0, 0, 0]}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(spec))
    assert run(tmp_path, "transport", str(pfile)) == 0
    report = json.loads((tmp_path / "transport.json").read_text())
    assert report["result"]["holonomy_distance"] < 1e-5
    assert abs(report["probability"] - 1.0) < 1e-8


def test_transport_constant(tmp_path):
    spec = {"type": "constant", "at": {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
            "m": 2, "steps": 10, "dump_matrix": True}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(spec))
    assert run(tmp_path, "transport", str(pfile)) == 0
    report = json.loads((tmp_path / "transport.json").read_text())
    assert report["result"]["holonomy_distance"] == 0
    assert report["matrix"] == [[[float(i == j), 0.0] for j in range(4)]
                                for i in range(4)]


def test_transport_malformed(tmp_path, capsys):
    pfile = tmp_path / "bad.json"
    pfile.write_text("{not json")
    assert run(tmp_path, "transport", str(pfile)) == 2
    missing = tmp_path / "missing.json"
    assert run(tmp_path, "transport", str(missing)) == 2
    pfile2 = tmp_path / "unknown.json"
    pfile2.write_text(json.dumps({"type": "warp-drive"}))
    assert run(tmp_path, "transport", str(pfile2)) == 2
    pfile3 = tmp_path / "array.json"
    pfile3.write_text(json.dumps([1]))
    assert run(tmp_path, "transport", str(pfile3)) == 2
    pole = {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]}
    for spec in ({"type": "great_circle", "from": pole, "to": 3},
                 {"type": "great_circle_loop", "at": pole, "direction": [1]},
                 {"type": "reeb_loop", "r": 3, "theta": [0, 0, 0, 0]},
                 {"type": "piecewise", "points": [pole, [1, 0]]},
                 {"type": "piecewise", "points": 3}):
        capsys.readouterr()
        pfile3.write_text(json.dumps(spec))
        assert run(tmp_path, "transport", str(pfile3)) == 2
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("override, message", [
    ({"m": 0}, "m must be >= 1"),
    ({"steps": 1}, "steps must be >= 2"),
    ({"psi_i": [float("nan")], "psi_f": [1]}, "psi_i has a non-finite entry"),
    ({"psi_i": [1, 0, 0, 0, 0], "psi_f": [1]}, "psi_i has 5 entries"),
    ({"psi_i": [[1, 0]], "psi_f": [[1, 0, 0]]}, "psi_f must be a list"),
    ({"psi_i": [0], "psi_f": [1]}, "psi_i has zero norm"),
    ({"m": [1]}, "m must be an integer"),
    ({"m": 1.5}, "m must be an integer"),
    ({"m": True}, "m must be an integer"),
    ({"steps": "10"}, "steps must be an integer"),
    ({"at": 3}, "at must be an object with x and y"),
    ({"at": {"x": [1, 0, 0], "y": [0, 0, 0, 0]}}, "at.x must be a list of 4"),
    ({"at": {"x": [1, 0, 0, 0], "y": [0, float("inf"), 0, 0]}},
     "at.y must be a list of 4 finite numbers"),
    ({"psi_i": {"re": 1}, "psi_f": [1]}, "psi_i must be a list"),
    ({"type": "great_circle_loop", "at": {"x": [0.6, 0.8, 0, 0],
                                          "y": [0, 0, 0, 0]},
      "direction": [0, 0, 0, 0, 1, 0, 0, 0], "steps": 4},
     "4 steps are too coarse"),
    # the result is expressed in the start chart, which does not cover the
    # end point: no step count helps
    ({"type": "great_circle", "from": {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
      "to": {"x": [0, 0, 0, 0], "y": [1, 0, 0, 0]}, "steps": 1000},
     "must start and end in the s chart"),
    ({"m": M_MAX + 1}, f"level m = {M_MAX}"),
    # a chord through the origin: nan at a node for even steps, a jump
    # across the sphere for odd steps
    ({"type": "piecewise", "steps": 100,
      "points": [{"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
                 {"x": [-1, 0, 0, 0], "y": [0, 0, 0, 0]}]},
     "knots 0 and 1 are antipodal"),
    ({"type": "piecewise", "steps": 101,
      "points": [{"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
                 {"x": [0.6, 0, 0, 0], "y": [0.8, 0, 0, 0]},
                 {"x": [-0.6, 0, 0, 0], "y": [-0.8, 0, 0, 0]}]},
     "knots 1 and 2 are antipodal"),
    ({"dump_matrix": "false"}, "dump_matrix must be true or false"),
    ({"dump_matrix": 1}, "dump_matrix must be true or false"),
    ({"psi_i": [1, 0, 0, 0]}, "psi_i given without the other state"),
    ({"psi_f": [1, 0, 0, 0]}, "psi_f given without the other state"),
    # radial is relative to |direction|: 1e-13 across a unit radial part
    ({"type": "great_circle_loop", "at": {"x": [1, 0, 0, 0],
                                          "y": [0, 0, 0, 0]},
      "direction": [1, 0, 0, 0, 1e-13, 0, 0, 0]}, "direction is radial"),
    ({"type": "great_circle_loop", "at": {"x": [1, 0, 0, 0],
                                          "y": [0, 0, 0, 0]},
      "direction": [0] * 8}, "direction is radial"),
])
def test_transport_out_of_range(tmp_path, capsys, override, message):
    spec = {"type": "constant", "at": {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
            "m": 2, "steps": 10, **override}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(spec))
    assert run(tmp_path, "transport", str(pfile)) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and message in err
    assert "probability" not in out
    assert not (tmp_path / "transport.json").exists()


def test_transport_coarse_loop_through_x_zero(tmp_path):
    spec = {"type": "great_circle_loop",
            "at": {"x": [0.6, 0.8, 0, 0], "y": [0, 0, 0, 0]},
            "direction": [0, 0, 0, 0, 1, 0, 0, 0], "m": 2, "steps": 40}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(spec))
    assert run(tmp_path, "transport", str(pfile)) == 0
    report = json.loads((tmp_path / "transport.json").read_text())
    assert len(report["result"]["switches"]) == 4
    assert report["result"]["holonomy_distance"] < 1e-4


def _env_with_src():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + os.pathsep + path if path else src)


def test_coarse_transport_is_exact(tmp_path):
    # 12 steps resolve the four switches of this loop, and the transport
    # does not depend on the steps otherwise, even lifted to m = 12
    spec = {"type": "great_circle_loop",
            "at": {"x": [0.6, 0.8, 0, 0], "y": [0, 0, 0, 0]},
            "direction": [0, 0, 0, 0, 0.3, 0.1, 0.5, 0.2], "m": 12,
            "steps": 12, "psi_i": [1, 0, 0, 0], "psi_f": [1, 0, 0, 0]}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(spec))
    assert run(tmp_path, "transport", str(pfile)) == 0
    report = json.loads((tmp_path / "transport.json").read_text())
    assert len(report["result"]["switches"]) == 4
    assert abs(report["probability"] - 1.0) < 1e-12


def test_transport_prints_warnings_on_one_line(tmp_path):
    spec = tmp_path / "reeb.json"
    spec.write_text(json.dumps({
        "type": "reeb_loop", "r": [1e300] * 4, "theta": [0, 0, 0, 0],
        "m": 2, "steps": 20}))
    proc = subprocess.run(
        [sys.executable, "-m", "sphere7.cli", "transport", str(spec),
         "--out", str(tmp_path)], env=_env_with_src(), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ("warning: radius constraint violated by 2e+300; "
                           "input normalized\n")


_POLE = {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]}
_ARC = {"type": "great_circle", "from": _POLE,
        "to": {"x": [0.6, 0, 0.1, 0], "y": [0, 0.3, 0, 0.5]}}
_LOOP = {"type": "great_circle_loop", "at": _POLE,
         "direction": [1, 0, 0, 0, 1, 0, 0, 0]}


@pytest.mark.parametrize("spec, scaled", [
    ({"type": "reeb_loop", "r": [0.5] * 4, "theta": [0, 0.5, 1, 2]},
     {"r": [1e308] * 4}),
    (_ARC, {"from": {"x": [1e308, 0, 0, 0], "y": [0, 0, 0, 0]}}),
    (_ARC, {"from": {"x": [1e-200, 0, 0, 0], "y": [0, 0, 0, 0]}}),
    (_ARC, {"psi_i": [1e200, 0, 0, 0]}),
    (_ARC, {"psi_i": [1e-200, 0, 0, 0], "psi_f": [1e300, 1e300, 0, 0]}),
    (_LOOP, {"direction": [1e308, 0, 0, 0, 1e308, 0, 0, 0]}),
    ({**_LOOP, "direction": [0, 0, 0, 0, 1, 0, 0, 0]},
     {"direction": [0, 0, 0, 0, 1e-13, 0, 0, 0]}),
], ids=["reeb-r", "arc-from-huge", "arc-from-tiny", "psi-huge", "psi-tiny",
        "loop-direction-huge", "loop-direction-tiny"])
def test_transport_inputs_whose_norm_overflows_or_underflows(tmp_path, spec,
                                                             scaled):
    # each scaled spec reads as its unscaled one: a norm that overflows, or
    # underflows for a nonzero vector, is taken after dividing by the
    # largest entry
    reports = []
    for override in ({}, scaled):
        pfile = tmp_path / "path.json"
        pfile.write_text(json.dumps({"m": 3, "steps": 300, "psi_i":
                                     [1, 0, 0, 0], "psi_f": [1, 1, 0, 0],
                                     **spec, **override}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # "normalized"
            assert run(tmp_path, "transport", str(pfile)) == 0
        reports.append(json.loads((tmp_path / "transport.json").read_text()))
    want, got = reports
    assert 0.01 < want["probability"]
    assert abs(got["probability"] - want["probability"]) < 1e-12
    switches = [r["result"]["switches"] for r in reports]
    assert len(switches[0]) == len(switches[1])
    if spec["type"] == "great_circle_loop":    # through x = 0 and y = 0
        assert len(switches[0]) == 4
    for (t0, *frames0), (t1, *frames1) in zip(*switches):
        assert abs(t0 - t1) < 1e-12 and frames0 == frames1


def test_table(tmp_path):
    assert run(tmp_path, "table", "--m", "1..3", "--ell", "0..1") == 0
    text = (tmp_path / "table.csv").read_text()
    assert "trivial representation" in text
    rows = [r.split(",") for r in text.strip().splitlines() if r]
    dims = [r[1] for r in rows[1:4]]
    assert dims == ["1", "4", "10"]


def test_table_reports_the_measured_k_spectrum(tmp_path, monkeypatch):
    # the k_spectrum column reads rho(K+-): a diagonal shifted by 2i moves
    # the range by 2, and an off-diagonal entry is named, not a traceback
    def skewed(m):
        rep = build_rho(m)
        k = rep["K+-"].toarray()
        if m == 2:
            k[0, 1] = 1e-3
        else:
            k += 2j * np.eye(len(k))
        rep["K+-"] = k
        return rep

    monkeypatch.setattr("sphere7.fock.build_rho", skewed)
    assert run(tmp_path, "table", "--m", "2..3", "--ell", "0..0") == 0
    rows = [r.split(",") for r in
            (tmp_path / "table.csv").read_text().splitlines()[1:3]]
    assert [r[2] for r in rows] == [
        "rho(K+-) has an off-diagonal nonzero", "0..4"]


def test_dump_rep_roundtrip(tmp_path):
    assert run(tmp_path, "dump-rep", "--m", "2..2", "--format", "json") == 0
    header, rep = load_representation(tmp_path / "rho_m2.json")
    orig = build_rho(2)
    for g in orig:
        assert np.allclose(rep[g], orig[g].toarray())


def test_dump_rep_binary(tmp_path):
    assert run(tmp_path, "dump-rep", "--m", "2..2", "--format", "binary") == 0
    header, rep = load_representation(tmp_path / "rho_m2.json")
    assert header["mode"] == "binary"
    assert (tmp_path / "rho_m2_Kpp.bin").stat().st_size == 4 * 4 * 16
    orig = build_rho(2)
    for g in orig:
        assert np.array_equal(rep[g], orig[g].toarray())


@pytest.mark.parametrize("command, fmt", [("dump-rep", "csv"),
                                          ("verify", "binary"),
                                          ("verify", "xml")])
def test_format_the_command_does_not_write(tmp_path, capsys, command, fmt):
    assert run(tmp_path, command, "--m", "2..2", "--format", fmt) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(tmp_path.iterdir())


def test_transport_writes_json_only(tmp_path, capsys):
    spec = {"type": "constant", "at": {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
            "m": 2, "steps": 10}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(spec))
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps({"fmt": "csv"}))
    out = tmp_path / "out"
    assert run(out, "transport", str(pfile), "--config", str(cfile)) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


# a level range given as a flag or a config key is refused; m = None
# marks the refusals
@pytest.mark.parametrize("given, m", [
    ((), 1), (("--m", "3"), 3), (("--m", "3..3"), 3), ({"m_range": [4, 4]}, 4),
    (("--m", "2..5"), None), (("--m", "2..21"), None), (("--m", "1..6"), None),
    ({"m_range": [2, 5]}, None), ({"m_range": [3, 4]}, None),
])
def test_transport_runs_one_level(tmp_path, capsys, given, m):
    spec = {"type": "constant", "at": {"x": [1, 0, 0, 0], "y": [0, 0, 0, 0]},
            "steps": 10}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(spec))
    if isinstance(given, dict):
        cfile = tmp_path / "config.json"
        cfile.write_text(json.dumps(given))
        given = ("--config", str(cfile))
    out = tmp_path / "out"
    code = run(out, "transport", str(pfile), *given)
    if m is None:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "one level" in err
        assert not out.exists()
    else:
        assert code == 0
        assert json.loads((out / "transport.json").read_text())["m"] == m


@pytest.mark.parametrize("args", [
    ("verify", "--steps", "10"),
    ("eds-check", "--m", "2"),
    ("transport", "path.json", "--format", "json"),
    ("table", "--format", "csv"),
    ("dump-rep", "--ell", "0..0"),
    ("dump-rep", "--h", "1e-3"),  # not a prefix of --help
    ("eds-check", "--sam", "3"),  # not a prefix of --samples
])
def test_command_refuses_an_option_it_does_not_read(tmp_path, args):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *args)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


_FLAGS = sorted({o for c in cli.COMMANDS.values() for o in c.options
                     if o.startswith("--")})
_VALUES = ["", "a", "0", "-1", "3..1", "21", "nan", "inf", "1e155", "1e-3",
           "1..2", "json", "csv", "binary", "xml"]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)),
       flags=st.lists(st.tuples(st.sampled_from(_FLAGS),
                                st.sampled_from(_VALUES)), max_size=4))
def test_fuzzed_argv_exits_0_or_2_with_a_valid_config(tmp_path_factory,
                                                      command, flags):
    # the handlers are stubs: what is checked is the argument layer
    received = []

    def stub(cfg, **rest):
        received.append(cfg)
        return 0

    out = tmp_path_factory.getbasetemp() / "unused"
    argv = [command, *(["path.json"] if command == "transport" else []),
            *(x for flag in flags for x in flag), "--out", str(out)]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setitem(cli.COMMANDS, command,
                   cli.COMMANDS[command]._replace(handler=stub))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            assert exc.code == 2, argv
            return
    assert code in (0, 2), argv
    if code == 2:
        assert err.getvalue().startswith("config error:"), argv
        assert not received
    else:
        cfg, = received
        assert cfg.validate() is cfg
        assert math.isfinite(cfg.h) and 0 < cfg.h < 1


def _strip_timestamp(text):
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": "X"', text)


def test_determinism(tmp_path):
    d1 = tmp_path / "r1"
    assert main(["eds-check", "--samples", "10", "--seed", "11",
                 "--out", str(d1)]) == 0
    t1 = _strip_timestamp((d1 / "eds.json").read_text())
    assert main(["eds-check", "--samples", "10", "--seed", "11",
                 "--out", str(d1)]) == 0
    t2 = _strip_timestamp((d1 / "eds.json").read_text())
    assert t1 == t2


def test_config_file(tmp_path, capsys):
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps({"m_range": [1, 2], "ell_range": [0, 1],
                                 "seed": 3}))
    assert run(tmp_path, "verify", "--config", str(cfile)) == 0
    for bad in ({"not_a_key": 1}, {"m_range": 5}, [1, 2],
                {"m_range": ["a", 2]}, {"steps": "a"}, {"seed": 1.5},
                {"h": True}, {"out": 5}, {"samples": [1]},
                {"h": float("inf")}, {"mutate": "xyz"}):
        capsys.readouterr()
        cfile.write_text(json.dumps(bad))
        assert run(tmp_path, "verify", "--config", str(cfile)) == 2
        assert capsys.readouterr().err.startswith("config error:")


def test_deeply_nested_json_is_a_config_error(tmp_path, capsys):
    # json.loads raises RecursionError, not a ValueError, on deep nesting;
    # the path spec and the config file are read at different sites
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for args in (("transport", str(deep)), ("verify", "--config", str(deep))):
        capsys.readouterr()
        assert run(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "recursion" in err, err


def _normalized(out, code, stdout, stderr):
    """An op's exit code, output and report files, with the report directory,
    generated_at and config.out taken out."""
    def clean(text):
        return _strip_timestamp(text.replace(str(out), "OUT"))
    files = {}
    for f in sorted(out.iterdir()) if out.is_dir() else ():
        report = json.loads(clean(f.read_text()))
        report["config"].pop("out")
        files[f.name] = report
    return code, clean(stdout), clean(stderr), files


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # main parses with one parser built at import; an argparse refusal or a
    # config error leaves nothing behind for the calls after it
    spec = tmp_path / "reeb.json"
    spec.write_text(json.dumps({
        "type": "reeb_loop", "r": [0.5, 0.5, 0.5, 0.5], "theta": [0, 0, 0, 0],
        "m": 2, "steps": 10000, "psi_i": [1, 0, 0, 0], "psi_f": [1, 0, 0, 0]}))
    argvs = [["verify", "--steps", "3"],  # argparse refuses it
             ["verify", "--m", "0"],      # config error
             ["transport", str(spec)],
             ["verify", "--m", "1..2", "--ell", "0..0"]]
    here = []
    for i, argv in enumerate(argvs):
        out = tmp_path / f"here{i}"
        capsys.readouterr()
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        here.append(_normalized(out, code, *capsys.readouterr()))
    assert [h[0] for h in here] == [2, 2, 0, 0]
    for i, argv in enumerate(argvs):
        out = tmp_path / f"fresh{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "sphere7.cli", *argv, "--out", str(out)],
            env=_env_with_src(), capture_output=True, text=True, timeout=120)
        fresh = _normalized(out, proc.returncode, proc.stdout, proc.stderr)
        assert here[i] == fresh, argv


@pytest.mark.parametrize("argv", [["--help"], ["transport", "--help"]],
                         ids=["sphere7", "transport"])
def test_help_is_that_of_a_fresh_parser(capsys, argv):
    with pytest.raises(SystemExit):  # the shared parser refuses an argv first
        main(["verify", "--steps", "3"])
    texts = []
    for parse in (main, cli.build_parser().parse_args):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: sphere7" in texts[0]


def test_main_does_not_build_a_parser(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(tmp_path, "eds-check", "--samples", "2") == 0


def test_commands_run_without_scipy(tmp_path):
    # the level matrices are numpy entry arrays: neither the import nor a
    # verify or transport run loads scipy
    spec = tmp_path / "reeb.json"
    spec.write_text(json.dumps({
        "type": "reeb_loop", "r": [0.5, 0.5, 0.5, 0.5],
        "theta": [0, 0, 0, 0], "m": 2, "steps": 10000,
        "psi_i": [1, 0, 0, 0], "psi_f": [1, 0, 0, 0]}))
    out = str(tmp_path / "out")
    code = ("import sys\n"
            "from sphere7 import cli\n"
            f"verify = cli.main(['verify', '--m', '1..3', '--ell', '0..2', "
            f"'--out', {out!r}])\n"
            f"transport = cli.main(['transport', {str(spec)!r}, "
            f"'--out', {out!r}])\n"
            "print(verify, transport, sorted(\n"
            "    k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 0 []"
