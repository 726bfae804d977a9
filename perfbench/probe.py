"""Set-up probe: import sphere7 and generate one workload's inputs.

    python3 perfbench/probe.py WORKLOAD SEED OUTDIR

run.py times whole runs of this script, from interpreter start to exit,
for the setup_s metric.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sphere7.cli  # noqa: E402,F401  (the program's own import cost)
from workloads import make_inputs  # noqa: E402

if __name__ == "__main__":
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    make_inputs(name, seed, outdir)
