"""The four benchmark workloads: seeded inputs, the CLI arguments of one op,
and the correctness gate every op passes.

An op is one ``sphere7.cli.main(argv)`` call writing into a fresh ``--out``
directory.  ``embed-exact`` and ``rep-sweep`` take no input besides their
arguments, so they do not depend on the seed; the two transport workloads
write a path spec generated from the seed, and the program sees only that
file.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# |x| and |y| of every generated Reeb torus point stay above this, so the
# loop never leaves the patch it starts in
REEB_MIN_PATCH = 0.35
# the transport gate: |probability - reference| must stay below this
PROBABILITY_TOL = 1e-6

VERIFY_ARGS = {
    "embed-exact": ["verify", "--m", "1..2", "--ell", "0..2"],
    "rep-sweep": ["verify", "--m", "1..10", "--ell", "0..0"],
}
TRANSPORT_SIZES = {  # workload: (m, steps)
    "transport-reeb": (2, 2000),
    "transport-dense": (8, 1000),
}
NAMES = tuple(VERIFY_ARGS) + tuple(TRANSPORT_SIZES)
# share of each workload's op time that runs at the speed of the main
# thread's vCPU (calibrate.py).  rep-sweep uses both vCPUs, yet its op
# times follow the kernel in full: most of its work, such as the commutant
# constraint assembly, runs on the interpreter.  transport-dense times do
# not follow it (its RK4 products and expm run on OpenBLAS threads over
# both vCPUs) and stay raw.
SPEED_SHARE = {"embed-exact": 1.0, "rep-sweep": 1.0,
               "transport-reeb": 1.0, "transport-dense": 0.0}


def top_m(name):
    """The largest level an op of this workload builds."""
    if name in TRANSPORT_SIZES:
        return TRANSPORT_SIZES[name][0]
    m_range = VERIFY_ARGS[name][2]
    return int(m_range.split("..")[-1])


@dataclass
class Inputs:
    """What one op runs and what its outputs must be."""
    name: str
    argv: list
    spec: dict = None           # transport path spec, as written
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# seeded transport specs
# ---------------------------------------------------------------------------

def _states(rng, d):
    """psi_i and psi_f as [re, im] rows.  psi_f is psi_i plus as much noise
    again, so their overlap is of order one and the probability moves to
    first order with any error of the transport."""
    psi_i = rng.standard_normal((d, 2))
    psi_f = psi_i + rng.standard_normal((d, 2))
    return {"psi_i": psi_i.tolist(), "psi_f": psi_f.tolist()}


def _as_complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def overlap_probability(psi_i, psi_f):
    """|<psi_f, psi_i>|^2 / (|psi_i|^2 |psi_f|^2).

    The connection is flat and the seven-sphere simply connected, so the
    transport around any closed loop is the identity; this overlap is then
    the exact Born probability the CLI must report.
    """
    a, b = _as_complex(psi_i), _as_complex(psi_f)
    amp = np.vdot(b, a)
    return float(abs(amp) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def reeb_spec(rng, m, steps):
    """Reeb loop from a seeded torus point with |x|, |y| >= REEB_MIN_PATCH."""
    while True:
        r = rng.uniform(0.1, 1.0, 4)
        r /= np.linalg.norm(r)
        if min(math.hypot(r[0], r[1]),
               math.hypot(r[2], r[3])) >= REEB_MIN_PATCH:
            break
    d = math.comb(m + 2, 3)
    return {"type": "reeb_loop", "r": r.tolist(),
            "theta": rng.uniform(0.0, 2 * math.pi, 4).tolist(),
            "m": m, "steps": steps, **_states(rng, d)}


def dense_spec(rng, m, steps):
    """Great-circle loop from a seeded point with y = 0 along a seeded
    direction with zero x part: it passes x = 0 and y = 0 twice each, so the
    integrator switches patch four times."""
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    direction = [0.0] * 4 + rng.standard_normal(4).tolist()
    d = math.comb(m + 2, 3)
    return {"type": "great_circle_loop",
            "at": {"x": x.tolist(), "y": [0.0] * 4},
            "direction": direction, "m": m, "steps": steps,
            **_states(rng, d)}


def _transport_expect(spec):
    if spec["type"] == "reeb_loop":
        r = spec["r"]
        start = "s" if r[0] ** 2 + r[1] ** 2 >= r[2] ** 2 + r[3] ** 2 else "n"
        return {"label": "reeb-loop", "start_frame": start, "switches": []}
    return {"label": "great-circle-loop", "start_frame": "s",
            "switches": [["s", "n"], ["n", "s"], ["s", "n"], ["n", "s"]]}


def make_inputs(name, seed, workdir):
    """Generate the workload's inputs under workdir; return the Inputs."""
    if name in VERIFY_ARGS:
        ref = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
        return Inputs(name, list(VERIFY_ARGS[name]), expect=ref)
    if name not in TRANSPORT_SIZES:
        raise ValueError(f"unknown workload {name!r}")
    m, steps = TRANSPORT_SIZES[name]
    rng = np.random.default_rng(seed)
    make = reeb_spec if name == "transport-reeb" else dense_spec
    spec = make(rng, m, steps)
    path = Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(spec))
    expect = {"exit_code": 0, "m": m, "steps": steps,
              "probability": overlap_probability(spec["psi_i"],
                                                 spec["psi_f"]),
              **_transport_expect(spec)}
    return Inputs(name, ["transport", str(path)], spec, expect)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _strip(report):
    """The report without the fields that differ between identical ops."""
    report = dict(report)
    report.pop("generated_at", None)
    report["config"] = {k: v for k, v in report.get("config", {}).items()
                        if k != "out"}
    return report


def _is_float_row(row):
    return isinstance(row["value"], float)


def exact_view(report):
    """The fields of a verify report that must match the reference exactly.

    These are the embedding grade tables and exact flags, every pass flag,
    and every check value that is not a float (the Jacobi and cross-basis
    residuals, the exact-sector failures, the commutant dimensions, the
    classical agreement).  For float-valued rows only the check name, the
    level in the detail, the threshold and the pass flag are exact: the
    "worst=" pair of rep-bracket is an argmax over float residuals.  The
    value of partial-sum-monotone is a range of formatted floats, so it is
    not compared.
    """
    report = _strip(report)
    rows = []
    for row in report["checks"]:
        if _is_float_row(row):
            row = {"check": row["check"],
                   "detail": row["detail"].split(" worst=")[0],
                   "threshold": row["threshold"], "passed": row["passed"]}
        elif row["check"] == "partial-sum-monotone":
            row = {k: v for k, v in row.items() if k != "value"}
        rows.append(row)
    report["checks"] = rows
    return json.dumps(report, sort_keys=True)


def float_failures(report):
    """Float-valued checks whose value is not below their threshold."""
    return [f"{row['check']} {row['detail']}: {row['value']!r} >= "
            f"{row['threshold']!r}"
            for row in report["checks"]
            if _is_float_row(row) and not row["value"] < row["threshold"]]


def _gate_verify(inputs, rc, outdir):
    ref = inputs.expect
    if rc != ref["exit_code"]:
        return [f"exit code {rc}, reference {ref['exit_code']}"]
    report = json.loads((Path(outdir) / "verify.json").read_text())
    problems = float_failures(report)
    if exact_view(report) != exact_view(ref["report"]):
        problems.append("exact fields differ from the reference report")
    return problems


def _gate_transport(inputs, rc, outdir):
    exp = inputs.expect
    if rc != exp["exit_code"]:
        return [f"exit code {rc}, expected {exp['exit_code']}"]
    report = json.loads((Path(outdir) / "transport.json").read_text())
    res = report["result"]
    problems = []
    got = {"m": report["m"], "label": report["path"]["label"],
           "steps": res["steps"], "path_steps": report["path"]["steps"],
           "start_frame": res["start_frame"], "end_frame": res["end_frame"],
           "switches": [sw[1:] for sw in res["switches"]]}
    want = {"m": exp["m"], "label": exp["label"], "steps": exp["steps"],
            "path_steps": exp["steps"], "start_frame": exp["start_frame"],
            "end_frame": exp["start_frame"], "switches": exp["switches"]}
    for key, value in want.items():
        if got[key] != value:
            problems.append(f"{key} {got[key]!r}, expected {value!r}")
    prob = report.get("probability")
    if not (isinstance(prob, float)
            and abs(prob - exp["probability"]) < PROBABILITY_TOL):
        problems.append(f"probability {prob!r}, reference "
                        f"{exp['probability']!r} +- {PROBABILITY_TOL}")
    return problems


def gate(inputs, rc, outdir):
    """Reasons the op's outputs are wrong; empty when they are correct."""
    if inputs.name in VERIFY_ARGS:
        return _gate_verify(inputs, rc, outdir)
    return _gate_transport(inputs, rc, outdir)


def reference_record(rc, outdir):
    """The reference file content for a verify workload's op."""
    report = json.loads((Path(outdir) / "verify.json").read_text())
    return {"exit_code": rc, "report": _strip(report)}


def report_counts(inputs, outdir):
    """Exact counts read from an op's report, as {metric: (value, unit)}:
    exact bracket pairs over all truncation orders, transport steps and
    patch switches, and the unitarity drift (a diagnostic, not gated)."""
    exact_pairs = steps = switches = 0
    drift = 0.0
    if inputs.name in VERIFY_ARGS:
        report = json.loads((Path(outdir) / "verify.json").read_text())
        exact_pairs = sum(entry["exact"]
                          for table in report["embedding_reports"].values()
                          for entry in table.values())
    else:
        report = json.loads((Path(outdir) / "transport.json").read_text())
        res = report["result"]
        steps, switches = res["steps"], len(res["switches"])
        drift = res["unitarity_residual"]
    return {"weyl.exact_pairs": (exact_pairs, "count"),
            "connection.steps": (steps, "count"),
            "connection.switches": (switches, "count"),
            "connection.unitarity_residual": (drift, "1")}
