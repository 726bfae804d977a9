"""Record the reference outputs of the verify workloads.

    python3 perfbench/record_reference.py

Runs one op of each verify workload with the checkout's sphere7 and writes
its exit code and report (without generated_at and config.out) to
reference/<workload>.json.  The committed files were recorded from the
initial sphere7 sources; re-record only when a change to the program is
meant to change its reports.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SCRATCH, import_program  # noqa: E402
from workloads import (REFERENCE_DIR, VERIFY_ARGS,  # noqa: E402
                       reference_record)


def main():
    cli = import_program()
    for name, argv in VERIFY_ARGS.items():
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as out:
            rc = cli.main(argv + ["--out", out])
            record = reference_record(rc, out)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{name}: exit {rc} -> {path}")


if __name__ == "__main__":
    main()
