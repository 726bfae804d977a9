"""One op of each benchmark workload passes the benchmark's correctness gate.

The gate compares the exact fields of the verify reports with recorded
references and checks the transport frames, switches and probability, so a
change to any of them fails here and not only in the benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from sphere7 import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_op_passes_the_gate(name, tmp_path, capsys):
    inputs = workloads.make_inputs(name, 0, tmp_path)
    out = tmp_path / "out"
    rc = cli.main(inputs.argv + ["--out", str(out)])
    capsys.readouterr()
    assert workloads.gate(inputs, rc, out) == []
