"""Tests of the benchmark's own logic: span arithmetic, the correctness gate,
seeded input generation and the refusal to run without sources."""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from spans import Tracer, covered_length

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def _clock(*times):
    return iter(times).__next__


def test_covered_length_is_union_clipped_to_span():
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 4), (5, 9)]) == 7
    assert covered_length(0, 10, [(1, 5), (3, 7)]) == 6       # overlap
    # nested and clipped
    assert covered_length(0, 10, [(2, 3), (1, 8), (9, 12)]) == 8


def test_self_time_of_nested_spans():
    # outer [0, 10] > a [1, 4] > g [2, 3];  outer > b [5, 9]
    tr = Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 9, 10))
    outer = tr.enter("outer")
    a = tr.enter("a")
    g = tr.enter("g")
    tr.exit(g)
    tr.exit(a)
    b = tr.enter("b")
    tr.exit(b)
    tr.exit(outer)
    assert dict(tr.self_s) == {"outer": 3, "a": 2, "g": 1, "b": 4}
    assert dict(tr.calls) == {"outer": 1, "a": 1, "g": 1, "b": 1}


def test_worker_thread_spans_are_children_of_the_main_span():
    # root [0, 10]; two pool-thread spans [1, 5] and [3, 7] overlap, so the
    # root's covered part is their union [1, 7]
    tr = Tracer(clock=_clock(0, 1, 5, 3, 7, 10))
    root = tr.enter("cli.main")

    def worker():
        tr.exit(tr.enter("fock.verify_brackets"))

    for _ in range(2):
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    tr.exit(root)
    assert tr.self_s["cli.main"] == 4
    assert tr.self_s["fock.verify_brackets"] == 8
    assert tr.calls["fock.verify_brackets"] == 2


def test_install_wraps_every_reference_and_uninstall_restores():
    import sphere7.cli  # noqa: F401  (imports every layer)
    import sphere7.coframe
    import sphere7.connection
    import sphere7.fock
    original = sphere7.fock.build_rho
    assert sphere7.connection.build_rho is original
    tr = Tracer()
    tr.install()
    try:
        sphere7.fock.build_rho(2)
        sphere7.connection.build_rho(2)
        sphere7.connection.PathSpec.constant(
            sphere7.coframe.SpherePoint([1, 0, 0, 0], [0, 0, 0, 0])).point(0.5)
    finally:
        tr.uninstall()
    assert tr.calls["fock.build_rho"] == 2
    assert tr.calls["coframe.path_geometry"] == 1
    assert sphere7.fock.build_rho is original
    assert sphere7.connection.build_rho is original
    assert set(spans.ENTRY_POINTS) >= {"cli.main", "coframe.pullback"}


def test_calibration_rescales_to_nominal_speed():
    cal = run.Calibrator()
    cal.samples = [0.01, 0.02]        # slowness 0.015 = NOMINAL_S
    assert cal.normalize(2.0) == pytest.approx(2.0)
    cal.samples.append(0.04)          # slowness 0.03, twice nominal
    assert cal.normalize(2.0) == pytest.approx(1.0)
    assert cal.normalize(2.0, share=0.5) == pytest.approx(2.0 / 2 ** 0.5)


def test_percentile_summary():
    assert run.percentile_summary([3.0, 1.0, 2.0]) == {
        "n": 3, "median": 2.0, "high": None}
    assert run.percentile_summary(list(range(20)))["high"] == {
        "p": 50, "value": 9}
    assert run.percentile_summary(list(range(100)))["high"] == {
        "p": 90, "value": 89}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _verify_op(tmp_path, mutate=None, rc=0):
    inputs = workloads.make_inputs("embed-exact", 0, tmp_path)
    report = json.loads(json.dumps(inputs.expect["report"]))
    report["generated_at"] = "2000-01-01T00:00:00+00:00"
    report["config"]["out"] = str(tmp_path)
    if mutate:
        mutate(report)
    (tmp_path / "verify.json").write_text(json.dumps(report))
    return workloads.gate(inputs, rc, tmp_path)


def _row(report, check, detail_prefix=""):
    return next(r for r in report["checks"] if r["check"] == check
                and r["detail"].startswith(detail_prefix))


def test_gate_accepts_the_reference_report(tmp_path):
    assert _verify_op(tmp_path) == []


def test_gate_ignores_float_argmax_in_details(tmp_path):
    def worst_pair(rep):
        _row(rep, "rep-bracket", "m=2")["detail"] = "m=2 worst=('K++', 'P--')"
    assert _verify_op(tmp_path, worst_pair) == []


@pytest.mark.parametrize("mutate", [
    lambda rep: rep["embedding_reports"]["2"]["K++|K--"].update(
        exact=not rep["embedding_reports"]["2"]["K++|K--"]["exact"]),
    lambda rep: rep["embedding_reports"]["2"]["P++|P--"].update(
        residual_min_grade=rep["embedding_reports"]["2"]["P++|P--"]
        ["residual_min_grade"] + 2),
    lambda rep: _row(rep, "rep-commutant", "m=2").update(value=2),
    lambda rep: _row(rep, "classical-quantum-agreement").update(passed=False),
    lambda rep: _row(rep, "rep-casimir", "m=2").update(value=1e-3),
    lambda rep: rep.update(passed=False),
], ids=["exact-flag", "min-grade", "commutant", "pass-flag", "float-threshold",
        "top-passed"])
def test_gate_fails_a_corrupted_report(tmp_path, mutate):
    assert _verify_op(tmp_path, mutate)


def test_gate_fails_a_changed_exit_code(tmp_path):
    assert _verify_op(tmp_path, rc=1)


def _transport_op(tmp_path, mutate=None):
    inputs = workloads.make_inputs("transport-dense", 3, tmp_path)
    exp = inputs.expect
    switches = [[0.25 * (i + 1), a, b] for i, (a, b) in
                enumerate(exp["switches"])]
    report = {"m": exp["m"], "probability": exp["probability"] + 1e-9,
              "path": {"label": exp["label"], "t0": 0.0, "t1": 1.0,
                       "steps": exp["steps"]},
              "result": {"steps": exp["steps"], "switches": switches,
                         "start_frame": "s", "end_frame": "s",
                         "unitarity_residual": 1e-7,
                         "holonomy_distance": 1e-7}}
    if mutate:
        mutate(report)
    (tmp_path / "transport.json").write_text(json.dumps(report))
    return workloads.gate(inputs, 0, tmp_path)


def test_transport_gate(tmp_path):
    assert _transport_op(tmp_path) == []
    assert _transport_op(tmp_path, lambda r: r.update(
        probability=r["probability"] + 1e-5))
    assert _transport_op(tmp_path, lambda r: r["result"]["switches"].pop())
    assert _transport_op(tmp_path, lambda r: r["result"].update(steps=10))


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


class _SilentCli:
    @staticmethod
    def main(argv):
        return 0


@pytest.mark.parametrize("cli", [_RaisingCli, _SilentCli])
def test_an_op_that_raises_or_writes_nothing_fails(tmp_path, cli):
    inputs = workloads.make_inputs("transport-reeb", 0, tmp_path)
    runner = run.OpRunner(cli, inputs, tmp_path)
    runner.op()
    assert runner.attempted == 1
    assert len(runner.failures) == 1


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["transport-reeb", "transport-dense"])
def test_generation_is_deterministic(tmp_path, name):
    paths = []
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / sub).mkdir()
        workloads.make_inputs(name, seed, tmp_path / sub)
        paths.append((tmp_path / sub / f"{name}.json").read_bytes())
    assert paths[0] == paths[1]
    assert paths[0] != paths[2]


def test_verify_inputs_do_not_depend_on_the_seed(tmp_path):
    a = workloads.make_inputs("rep-sweep", 1, tmp_path)
    b = workloads.make_inputs("rep-sweep", 2, tmp_path)
    assert a.argv == b.argv and a.expect == b.expect


def _spec(tmp_path, name, seed):
    return workloads.make_inputs(name, seed, tmp_path).spec


def test_every_dense_loop_dips_below_the_switch_level(tmp_path):
    from sphere7.cli import _path_from_spec
    from sphere7.connection import PATCH_SWITCH_LEVEL
    assert PATCH_SWITCH_LEVEL == 0.05
    for seed in range(10):
        spec = _spec(tmp_path, "transport-dense", seed)
        path = _path_from_spec(spec, spec["steps"])
        xs = [path.point(k / spec["steps"]).x.norm()
              for k in range(spec["steps"] + 1)]
        assert min(xs) < 0.05


def test_every_reeb_loop_stays_in_its_patch(tmp_path):
    for seed in range(10):
        r = np.array(_spec(tmp_path, "transport-reeb", seed)["r"])
        assert np.hypot(r[0], r[1]) >= workloads.REEB_MIN_PATCH
        assert np.hypot(r[2], r[3]) >= workloads.REEB_MIN_PATCH


# ---------------------------------------------------------------------------
# the checkout
# ---------------------------------------------------------------------------

def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "transport-reeb", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
