"""sphere7 benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run measures set-up in fresh interpreters, makes one untimed
warm-up op, then makes ops one at a time for S seconds from this single
process, passing each through the correctness gate.  The last line of
standard output is the result object; the line before it is the full record
(every sample, the machine, the failures).  See README.md in this directory.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from calibrate import Calibrator
from spans import ENTRY_POINTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import sphere7.cli from this checkout's src/, refusing any other."""
    if not (SRC / "sphere7" / "__init__.py").is_file():
        raise SystemExit(f"no sphere7 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sphere7.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported sphere7 from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            lib = next((line.split()[-1] for line in fh
                        if "openblas" in line.lower()), None)
        if lib:
            cdll = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(cdll, fn):
                    threads = int(getattr(cdll, fn)())
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "sphere7").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record():
    import numpy
    import scipy
    from sphere7 import rational
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "gmpy2": rational.Q.__module__.startswith("gmpy2"),
        "SPHERE7_THREADS": os.environ.get("SPHERE7_THREADS"),
        "git_commit": _commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(name, seed, workdir):
    """Wall times of fresh interpreters that import sphere7 and generate
    the workload's inputs, one per repeat."""
    times = []
    for i in range(SETUP_REPEATS):
        out = Path(workdir) / f"setup{i}"
        out.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), name,
                        str(seed), str(out)], check=True,
                       stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def percentile_summary(values):
    """Median, sample count and the highest of the usual percentiles that
    has at least ten samples beyond it (None when there are too few)."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals), "high": None}
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            rank = max(1, -(-p * n // 100))  # nearest-rank percentile
            out["high"] = {"p": p, "value": vals[rank - 1]}
            break
    return out


class OpRunner:
    """Runs ops of one workload and gates each one."""

    def __init__(self, cli, inputs, workdir):
        self.cli = cli
        self.inputs = inputs
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.last_counts = {}

    def op(self):
        """One gated op; returns (wall seconds, cpu seconds)."""
        out = tempfile.mkdtemp(dir=self.workdir, prefix="op")
        argv = self.inputs.argv + ["--out", out]
        sink = io.StringIO()
        rc, error = None, None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # any escape fails the op
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.attempted += 1
        try:
            problems = ([error] if error
                        else workloads.gate(self.inputs, rc, out))
            if not problems:
                self.last_counts = workloads.report_counts(self.inputs, out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(problems)
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu


def rho_sizes(name):
    """Stored bytes and nonzeros of the ten level matrices at the top m,
    whether the fock layer stores them dense or sparse."""
    import numpy as np
    import scipy.sparse
    from sphere7 import fock
    nbytes = nnz = 0
    for mat in fock.build_rho(workloads.top_m(name)).values():
        if scipy.sparse.issparse(mat):
            nbytes += sum(getattr(mat, k).nbytes
                          for k in ("data", "indices", "indptr", "row", "col",
                                    "offsets") if hasattr(mat, k))
            nnz += int(mat.count_nonzero())
        else:
            nbytes += mat.nbytes
            nnz += int(np.count_nonzero(mat))
    return nbytes, nnz


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, cli):
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH, prefix=f"{args.workload}-")
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        runner = OpRunner(cli, inputs, workdir)
        runner.op()  # warm-up: caches filled, lazy set-up done
        calib = Calibrator()
        calib.sample()
        share = workloads.SPEED_SHARE[args.workload]

        def scale(seconds):
            return calib.normalize(seconds, share)

        tracer = Tracer() if args.trace else None
        raw = {"wall": [], "cpu": [], "traced": []}
        walls, cpus, traced_walls, per_op = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            # with tracing, every other op is traced, starting with the first
            traced = tracer is not None and len(traced_walls) <= len(walls)
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    wall, _ = runner.op()
                finally:
                    tracer.uninstall()
            else:
                wall, cpu = runner.op()
            calib.sample()
            if traced:
                raw["traced"].append(wall)
                traced_walls.append(scale(wall))
                per_op.append(({k: scale(v) for k, v in tracer.self_s.items()},
                               dict(tracer.calls)))
            else:
                raw["wall"].append(wall)
                raw["cpu"].append(cpu)
                walls.append(scale(wall))
                cpus.append(scale(cpu))
            if time.perf_counter() >= deadline and walls:
                break
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            SCRATCH.rmdir()

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(),
        "wall": percentile_summary(walls), "cpu": percentile_summary(cpus),
        "raw_wall": percentile_summary(raw["wall"]),
        "setup_s": setup, "wall_s": walls, "cpu_s": cpus,
        "raw": raw,
        "calibration": {"share": share, "samples": calib.samples},
        "peak_rss_mib": rss_mib,
        "fail_ratio": failed / runner.attempted,
        "failures": runner.failures[:5],
    }
    if args.trace:
        metrics = {}
        for name in ENTRY_POINTS:
            metrics[f"{name}.self_s"] = metric(
                statistics.median(s.get(name, 0.0) for s, _ in per_op), "s")
            metrics[f"{name}.calls"] = metric(
                statistics.median_low(c.get(name, 0) for _, c in per_op),
                "count")
        nbytes, nnz = rho_sizes(args.workload)
        metrics["fock.rho_stored_bytes"] = metric(nbytes, "B")
        metrics["fock.rho_nnz"] = metric(nnz, "count")
        for name, (value, unit) in runner.last_counts.items():
            metrics[name] = metric(value, unit)
        traced_median = statistics.median(traced_walls)
        metrics["trace.wall_s"] = metric(traced_median, "s")
        metrics["trace.overhead_s"] = metric(
            traced_median - statistics.median(walls), "s")
        record["traced_wall_s"] = traced_walls
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(record["wall"]["median"], "s"),
            "cpu_s": metric(record["cpu"]["median"], "s"),
            "peak_rss_mib": metric(rss_mib, "MiB"),
            "pass_ratio": metric(1.0 - record["fail_ratio"], "ratio"),
        }
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    record, result = run(args, cli)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
