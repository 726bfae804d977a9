"""Batch driver: every verification and simulation as a subcommand.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/config error.
Reports are deterministic for a fixed seed up to the generated_at header.
"""

import argparse
import csv
import datetime
import json
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import classical, coframe, connection, fock, u2h, weyl
from .quaternions import PatchError
from .tolerances import TAU_REP


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0
    m_range: tuple = (1, 6)
    ell_range: tuple = (0, 4)
    steps: int = 10_000
    h: float = 1e-4
    tau_rep: float = TAU_REP
    tau_sphere: float = 1e-10
    out: Path = Path("sphere7_out")
    fmt: str = "json"
    mutate: str = None
    samples: int = 100

    def validate(self):
        if self.m_range[0] < 1:
            raise ConfigError(f"m must be >= 1, got {self.m_range[0]}")
        if self.m_range[1] < self.m_range[0]:
            raise ConfigError(f"invalid m range {self.m_range}")
        if self.m_range[1] > fock.M_MAX:
            raise ConfigError(f"m = {self.m_range[1]} is above the largest "
                              f"supported level m = {fock.M_MAX}")
        if self.ell_range[0] < 0 or self.ell_range[1] < self.ell_range[0]:
            raise ConfigError(f"invalid ell range {self.ell_range}")
        if self.ell_range[1] > fock.ELL_MAX:
            raise ConfigError(f"ell = {self.ell_range[1]} is above the "
                              f"largest supported truncation "
                              f"ell = {fock.ELL_MAX}")
        if self.tau_rep <= 0 or self.tau_sphere <= 0:
            raise ConfigError("tolerances must be positive")
        # the chart points of a step overflow from about h = 1e155
        if not 0 < self.h < 1:
            raise ConfigError(f"h must be in (0, 1), got {self.h}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mutate not in (None, "k-bracket"):
            raise ConfigError(f"mutate must be k-bracket, got {self.mutate!r}")
        return self

    def ms(self):
        return range(self.m_range[0], self.m_range[1] + 1)

    def ells(self):
        return range(self.ell_range[0], self.ell_range[1] + 1)


def _parse_range(text):
    lo, dots, hi = text.partition("..")
    return (int(lo), int(hi if dots else lo))


def _is_number(v):
    """A finite int or float; bools do not count, huge ints do not overflow."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# what a JSON value must be to give a value of each RunConfig field type
_JSON_TYPES = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    Path: ("a string", lambda v: isinstance(v, str)),
    tuple: ("two integers", lambda v: isinstance(v, list) and len(v) == 2
            and all(type(x) is int for x in v)),
}


def _typed(key, value, kind):
    """A value read from JSON, checked against the type it must have."""
    what, ok = _JSON_TYPES[kind]
    if not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def _numbers(value, n, key):
    """A list of n finite numbers."""
    if not (isinstance(value, list) and len(value) == n
            and all(_is_number(v) for v in value)):
        raise ConfigError(f"{key} must be a list of {n} finite numbers, "
                          f"got {value!r}")
    return value


def _point(obj, key):
    """A sphere point from an object with x and y, four numbers each."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be an object with x and y, "
                          f"got {obj!r}")
    return coframe.SpherePoint(*(_numbers(obj.get(c), 4, f"{key}.{c}")
                                 for c in "xy"))


def _config_from_args(command, config, args):
    """The config file's RunConfig with the given options on top; args maps
    option dests to values, and loses the ones that are RunConfig fields."""
    cfg = RunConfig()
    given = set()
    if config is not None:
        raw = json.loads(Path(config).read_text())
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for k, v in raw.items():
            field = RunConfig.__dataclass_fields__.get(k)
            if field is None:
                raise ConfigError(f"unknown config key {k!r}")
            if not (v is None and field.default is None):
                v = _typed(k, v, field.type)
            setattr(cfg, k, v)
            given.add(k)
    for field in fields(RunConfig):
        v = args.pop(field.name, None)
        if v is not None:
            setattr(cfg, field.name, _parse_range(v) if field.type is tuple
                    else field.type(v))
            given.add(field.name)
    if (command == "transport" and "m_range" in given
            and cfg.m_range[0] != cfg.m_range[1]):
        raise ConfigError(f"transport runs one level, got the m range "
                          f"{cfg.m_range[0]}..{cfg.m_range[1]}")
    formats = COMMANDS[command].formats
    if cfg.fmt not in formats:
        raise ConfigError(f"{command} writes {' or '.join(formats)}, "
                          f"not {cfg.fmt}")
    if (command == "dump-rep" and cfg.fmt == "json"
            and cfg.m_range[1] > fock.JSON_DUMP_M_MAX):
        raise ConfigError(f"json dumps stop at m = {fock.JSON_DUMP_M_MAX}; "
                          f"use --format binary for m = {cfg.m_range[1]}")
    return cfg.validate()


def _write_report(cfg, name, payload):
    payload = {"generated_at": datetime.datetime.now(datetime.timezone.utc)
               .isoformat(),
               "seed": cfg.seed, **payload}
    path = cfg.out / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True,
                               default=str))
    if cfg.fmt == "csv" and "checks" in payload:
        cpath = cfg.out / f"{name}.csv"
        with open(cpath, "w", newline="") as fh:
            # every check row has the keys check, detail, value, threshold
            # and passed, in that order
            w = csv.DictWriter(fh, payload["checks"][0])
            w.writeheader()
            w.writerows(payload["checks"])
    return path


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _refused(check):
    """check() and "", or None and the reason when check raises ValueError."""
    try:
        return check(), ""
    except ValueError as exc:
        return None, f" {exc}"


def _rep_checks(m, tau):
    rep = fock.build_rho(m)
    br, pair = fock.verify_brackets(rep)
    real = fock.verify_reality(rep)
    trace = fock.verify_traceless(rep)
    rows = [
        {"check": "rep-bracket", "detail": f"m={m} worst={pair}",
         "value": br, "threshold": tau, "passed": br < tau},
        {"check": "rep-reality", "detail": f"m={m}",
         "value": real, "threshold": tau, "passed": real < tau},
        {"check": "rep-trace", "detail": f"m={m}",
         "value": trace, "threshold": tau, "passed": trace < tau},
    ]
    # a malformed rho(K+-) fails these two rows with the reason, value null
    spec_err, reason = _refused(lambda: float(np.max(np.abs(
        fock.k_spectrum(rep) - fock.expected_k_spectrum(m)))))
    rows.append({"check": "rep-spectrum", "detail": f"m={m}{reason}",
                 "value": spec_err, "threshold": 1e-12,
                 "passed": spec_err is not None and spec_err < 1e-12})
    cd, reason = _refused(lambda: fock.commutant_dimension(rep))
    rows.append({"check": "rep-commutant", "detail": f"m={m}{reason}",
                 "value": cd, "threshold": 1, "passed": cd == 1})
    cas = fock.casimir_deviation(rep)
    rows.append({"check": "rep-casimir", "detail": f"m={m}",
                 "value": cas, "threshold": 1e-8, "passed": cas < 1e-8})
    return rows


def cmd_verify(cfg):
    jac, triple = u2h.verify_jacobi("spinor", mutate=cfg.mutate)
    jac_detail = f"worst triple {triple}" if triple else ""
    exact = [("jacobi-spinor", jac_detail, jac),
             ("jacobi-vector", "", u2h.verify_jacobi("vector")[0]),
             ("cross-basis", "", u2h.cross_basis_residual()),
             ("reality-antiautomorphism", "", u2h.reality_bracket_residual())]
    checks = [{"check": name, "detail": detail, "value": str(r),
               "threshold": "0 (exact)", "passed": r == 0}
              for name, detail, r in exact]

    # pairs that must close exactly at every truncation order
    required = {f"{x}|{y}" for x, y in u2h.GENERATOR_PAIRS
                if x.startswith("J") or y.startswith("J") or "K+-" in (x, y)}
    embed_reports = {}
    prev_grades = {}
    for ell in cfg.ells():
        rep = weyl.verify_embedding(ell)
        embed_reports[ell] = rep
        bad_exact = [k for k in rep if k in required and not rep[k]["exact"]]
        checks.append({"check": "embedding-exact-sector",
                       "detail": f"ell={ell} failing={bad_exact}",
                       "value": len(bad_exact), "threshold": 0,
                       "passed": not bad_exact})
        grades = {k: v["residual_min_grade"] for k, v in rep.items()
                  if k not in required}
        mono_ok = not any(g is not None and prev_grades.get(k) is not None
                          and g < prev_grades[k] for k, g in grades.items())
        checks.append({"check": "embedding-monotone",
                       "detail": f"ell={ell}",
                       "value": "nondecreasing" if mono_ok else "decreased",
                       "threshold": "nondecreasing", "passed": mono_ok})
        prev_grades = grades

    for ell in cfg.ells():
        cl = classical.verify_classical(ell)
        qt = {k: v["residual_min_grade"] for k, v in embed_reports[ell].items()}
        ct = {k: v["residual_min_grade"] for k, v in cl.items()}
        same = qt == ct
        checks.append({"check": "classical-quantum-agreement",
                       "detail": f"ell={ell}", "value": str(same),
                       "threshold": "identical grade tables",
                       "passed": same})

    if cfg.mutate:
        rep_m = fock.build_rho(max(2, cfg.m_range[0]))
        br, pair = fock.verify_brackets(rep_m, mutate=cfg.mutate)
        checks.append({"check": "rep-bracket-mutated",
                       "detail": f"failing pair {pair}",
                       "value": br, "threshold": cfg.tau_rep,
                       "passed": br < cfg.tau_rep})

    for m in cfg.ms():
        checks.extend(_rep_checks(m, cfg.tau_rep))

    m_conv = min(cfg.m_range[1], 4)
    for m in range(max(2, cfg.m_range[0]), m_conv + 1):
        dists = [fock.partial_sum_distance(m, ell) for ell in
                 (0, 1, 2, 4, 8, 16, 32, 64)]
        mono = all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))
        checks.append({"check": "partial-sum-monotone", "detail": f"m={m}",
                       "value": f"{dists[0]:.3g}..{dists[-1]:.3g}",
                       "threshold": "nonincreasing", "passed": mono})
        interior = fock.partial_sum_distance(m, 40, block="interior")
        checks.append({"check": "partial-sum-interior", "detail":
                       f"m={m} ell=40", "value": interior,
                       "threshold": 1e-6, "passed": interior < 1e-6})

    diagram_ms = range(cfg.m_range[0], min(cfg.m_range[1], 3) + 1)
    # each ell's generators are built once and shared by the levels
    images = ({ell: weyl.embedded_generators(ell) for ell in cfg.ells()}
              if diagram_ms else {})
    for m in diagram_ms:
        worst = 0.0
        for ell, gens in images.items():
            part = fock.build_rho_partial(m, ell)
            for name, mat in fock.matrix_of_laurent(gens, m, m, m + 1).items():
                worst = max(worst, float(np.max(np.abs(
                    mat - part[name].toarray()))))
        checks.append({"check": "commuting-diagram", "detail": f"m={m}",
                       "value": worst, "threshold": 1e-12,
                       "passed": worst < 1e-12})

    ok = all(row["passed"] for row in checks)
    path = _write_report(cfg, "verify", {"config": cfg.__dict__,
                                         "checks": checks,
                                         "embedding_reports": embed_reports,
                                         "passed": ok})
    for row in checks:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"[{status}] {row['check']} {row.get('detail','')} "
              f"value={row['value']}")
    print(f"report: {path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# eds-check
# ---------------------------------------------------------------------------

def cmd_eds_check(cfg):
    # half-length tangents away from the chart edges keep the second-order
    # truncation constant well under the absolute threshold
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(cfg.samples):
        p = coframe.random_point(rng, min_patch=0.35)
        u = coframe.random_unit_tangent(rng, p, length=0.5)
        v = coframe.random_unit_tangent(rng, p, length=0.5)
        worst = max(worst, float(coframe.eds_residual(p, u, v, h=cfg.h).max()))
    p = coframe.random_point(rng, min_patch=0.35)
    u = coframe.random_unit_tangent(rng, p, length=0.5)
    v = coframe.random_unit_tangent(rng, p, length=0.5)
    r1 = float(coframe.eds_residual(p, u, v, h=1e-3).max())
    r2 = float(coframe.eds_residual(p, u, v, h=5e-4).max())
    order = float(np.log2(r1 / r2))
    checks = [
        {"check": "eds-residual", "detail": f"{cfg.samples} samples h={cfg.h}",
         "value": worst, "threshold": 1e-6, "passed": worst < 1e-6},
        {"check": "eds-order", "detail": "h=1e-3 vs 5e-4",
         "value": order, "threshold": "[1.8, 2.2]",
         "passed": 1.8 <= order <= 2.2},
    ]
    ok = all(c["passed"] for c in checks)
    path = _write_report(cfg, "eds", {"config": cfg.__dict__,
                                      "checks": checks, "passed": ok})
    for row in checks:
        print(f"[{'PASS' if row['passed'] else 'FAIL'}] {row['check']} "
              f"value={row['value']}")
    print(f"report: {path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _path_from_spec(spec, steps):
    kind = spec.get("type")
    if kind == "great_circle":
        return connection.PathSpec.great_circle(
            _point(spec.get("from"), "from"), _point(spec.get("to"), "to"),
            steps)
    if kind == "great_circle_loop":
        return connection.PathSpec.great_circle_loop(
            _point(spec.get("at"), "at"),
            np.array(_numbers(spec.get("direction"), 8, "direction")), steps)
    if kind == "reeb_loop":
        t0 = coframe.ToricPoint(_numbers(spec.get("r"), 4, "r"),
                                _numbers(spec.get("theta"), 4, "theta"))
        return connection.PathSpec.reeb_loop(t0, steps)
    if kind == "piecewise":
        pts = spec.get("points")
        if not isinstance(pts, list):
            raise ConfigError(f"points must be a list, got {pts!r}")
        return connection.PathSpec.piecewise(
            [_point(q, f"points[{i}]") for i, q in enumerate(pts)], steps)
    if kind == "constant":
        return connection.PathSpec.constant(_point(spec.get("at"), "at"),
                                            steps)
    raise ConfigError(f"unknown path type {kind!r}")


def _state_from_json(obj, d, key):
    """A state of dimension d from numbers or [re, im] rows, zero-padded."""
    shape_error = ConfigError(f"{key} must be a list of numbers or "
                              "[re, im] rows")
    rows = obj if isinstance(obj, list) else [None]
    flat = [x for v in rows for x in (v if isinstance(v, list) else [v])]
    if not all(type(x) in (int, float) for x in flat):
        raise shape_error
    if not all(_is_number(x) for x in flat):
        raise ConfigError(f"{key} has a non-finite entry")
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        arr = arr[:, 0] + 1j * arr[:, 1]
    elif arr.ndim != 1:
        raise shape_error
    if len(arr) > d:
        raise ConfigError(f"{key} has {len(arr)} entries, dim(m) is {d}")
    if not np.any(arr):
        raise ConfigError(f"{key} has zero norm")
    v = np.zeros(d, dtype=complex)
    v[: len(arr)] = arr
    return v


def cmd_transport(cfg, path_file):
    try:
        spec = json.loads(Path(path_file).read_text())
        if not isinstance(spec, dict):
            raise ConfigError("path spec must be a JSON object")
        m = _typed("m", spec.get("m", cfg.m_range[0]), int)
        steps = _typed("steps", spec.get("steps", cfg.steps), int)
        replace(cfg, m_range=(m, m), steps=steps).validate()
        path = _path_from_spec(spec, steps)
        dump_matrix = _typed("dump_matrix", spec.get("dump_matrix", False),
                             bool)
        given = [k for k in ("psi_i", "psi_f") if k in spec]
        if len(given) == 1:
            raise ConfigError(f"{given[0]} given without the other state")
        states = [_state_from_json(spec[k], fock.dim(m), k) for k in given]
    except (OSError, KeyError, ValueError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result = connection.parallel_transport(path, m)
    except PatchError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    payload = {"config": cfg.__dict__, "path": path.to_json(), "m": m,
               "result": result.to_json()}
    if dump_matrix:
        payload["matrix"] = [[[float(v.real), float(v.imag)] for v in row]
                             for row in result.matrix]
    if states:
        payload["probability"] = result.probability(*states)
    rpath = _write_report(cfg, "transport", payload)
    print(json.dumps(payload["result"], indent=1, sort_keys=True))
    if "probability" in payload:
        print(f"probability: {payload['probability']}")
    print(f"report: {rpath}")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(cfg):
    rep_rows = []
    for m in cfg.ms():
        rep = fock.build_rho(m)
        br, _ = fock.verify_brackets(rep)
        spec, reason = _refused(lambda: fock.k_spectrum(rep))
        rep_rows.append({
            "m": m, "dim": fock.dim(m),
            "k_spectrum": (reason.strip() if spec is None
                           else f"{spec[0]:g}..{spec[-1]:g}"),
            "bracket_residual": br,
            "reality_residual": fock.verify_reality(rep),
            "note": "trivial representation" if m == 1 else "",
        })
    emb_rows = []
    for ell in cfg.ells():
        rep = weyl.verify_embedding(ell)
        finite = [v["residual_min_grade"] for v in rep.values()
                  if v["residual_min_grade"] is not None]
        emb_rows.append({
            "ell": ell,
            "exact_pairs": sum(1 for v in rep.values() if v["exact"]),
            "min_residual_grade": min(finite) if finite else "",
            "max_residual_grade": max(finite) if finite else "",
        })
    tpath = cfg.out / "table.csv"
    with open(tpath, "w", newline="") as fh:
        w = csv.writer(fh)
        # each block's header is its rows' keys
        w.writerow(rep_rows[0])
        w.writerows(r.values() for r in rep_rows)
        w.writerow([])
        w.writerow(emb_rows[0])
        w.writerows(r.values() for r in emb_rows)
    _write_report(cfg, "table", {"config": cfg.__dict__,
                                 "representations": rep_rows,
                                 "embedding": emb_rows})
    print(f"table: {tpath}")
    return 0


def cmd_dump_rep(cfg):
    for m in cfg.ms():
        path = fock.dump_representation(m, cfg.out, mode=cfg.fmt)
        print(f"dumped m={m}: {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the options of the commands; a dest that names a RunConfig field sets it
_OPTIONS = {
    "--m": dict(dest="m_range", help="level range, e.g. 2 or 1..6"),
    "--ell": dict(dest="ell_range", help="truncation range, e.g. 0..4"),
    "--steps": dict(type=int, help="resolution of transport's switch scan"),
    "--h": dict(type=float, help="finite-difference step, 0 < h < 1"),
    "--seed": dict(type=int, help="RNG seed"),
    "--samples": dict(type=int, help="random sample count"),
    "--format": dict(dest="fmt", metavar="FORMAT"),  # help: its formats
    "--mutate": dict(help="k-bracket corrupts one structure constant"),
    "path_file": dict(help="JSON path specification"),
    "--out": dict(help="report directory"),
    "--config": dict(help="RunConfig JSON file"),
}

# each command takes its options, --out and --config, and writes a report
# in one of its formats, chosen by --format or by fmt in the config file
Command = namedtuple("Command", "help handler options formats")
COMMANDS = {
    "verify": Command("run the verification suites", cmd_verify,
                      ("--m", "--ell", "--format", "--mutate"),
                      ("json", "csv")),
    "eds-check": Command("coframe identity residuals", cmd_eds_check,
                         ("--h", "--seed", "--samples", "--format"),
                         ("json", "csv")),
    # --m and --steps stand in for a spec without m or steps
    "transport": Command("parallel transport along a path", cmd_transport,
                         ("path_file", "--m", "--steps"), ("json",)),
    "table": Command("summary tables", cmd_table, ("--m", "--ell"),
                     ("json", "csv")),
    "dump-rep": Command("dump representation matrices", cmd_dump_rep,
                        ("--m", "--format"), ("json", "binary")),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="sphere7", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # no prefixes: --h of a command without --h would mean --help
        sp = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for option in command.options + ("--out", "--config"):
            kw = _OPTIONS[option]
            if option == "--format":
                kw = dict(kw, help=" or ".join(command.formats))
            sp.add_argument(option, **kw)
    return ap


# built once: parsing leaves the parser as it was, so every main call in a
# process shares it, and the handler is still looked up in COMMANDS per call
PARSER = build_parser()


def main(argv=None):
    args = vars(PARSER.parse_args(argv))
    command = args.pop("command")
    try:
        cfg = _config_from_args(command, args.pop("config"), args)
        cfg.out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, RecursionError) as exc:
        # ConfigError, JSONDecodeError, or a config file nested too deeply
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    with warnings.catch_warnings():   # one line per warning, in this run
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        # what is left is the positional path_file of transport
        return COMMANDS[command].handler(cfg, **args)


if __name__ == "__main__":
    sys.exit(main())
