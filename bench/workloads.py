"""Workload definitions: seeded problem files, CLI commands and output checks.

Each workload has a fixed shape (dimension, algebra, lattice size and
expression templates).  The seed only draws the expression amplitudes, the
lattice offsets and the gauge-check random seed, so every seed gives a
problem of the same cost.  All output checks are independent of the code
under test: they read the CLI reports and compare against the tolerance
ladder in the README "Conventions" section or against closed-form oracles.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

# Tolerance ladder (README "Conventions").
TOL_EXACT = 1e-12
TOL_ANALYTIC = 1e-6
TOL_FD = 1e-3
TOL_GAUGE = 1e-5
TOL_DRIFT = 1e-8
TOL_EXPM = 1e-6

# Exit codes allowed by the CLI contract; anything else (a traceback is 1)
# fails every operation of the command.
ALLOWED_EXITS = (0, 2, 64, 70)

COFRAME_4D = [
    ["1 + {a0}*sin(x2)", "{a1}*x3", "0", "0"],
    ["0", "1 + {a2}*cos(x1)", "0", "{a3}*x1*x4"],
    ["{a4}*x4^2", "0", "exp({a5}*x1)", "0"],
    ["0", "0", "{a6}*sin(x1 + x2)", "1 + {a7}*x3^2"],
]
GAUGE_4D = [
    ["{b0}*x2", "0", "{b1}*x4", "0"],
    ["0", "{b2}*sin(x3)", "0", "{b3}*x1"],
    ["{b4}*x3*x4", "0", "0", "{b5}*cos(x2)"],
    ["0", "{b6}*x1^2", "{b7}*x2", "0"],
]
COFRAME_3D = [
    ["1 + {a0}*sin(x2)", "{a1}*x3", "0"],
    ["0", "1 + {a2}*cos(x1)", "{a3}*x1*x3"],
    ["{a4}*x2^2", "0", "exp({a5}*x1)"],
]
GAUGE_3D = [
    ["{b0}*x2", "0", "{b1}*x3"],
    ["0", "{b2}*sin(x3)", "{b3}*x1"],
    ["{b4}*x1*x2", "{b5}*cos(x3)", "0"],
]
# The README 2-D su(2) example with its amplitudes drawn from the seed.
COFRAME_2D = [["1", "0"], ["0", "1 + {a0}*sin(x1)"]]
GAUGE_2D = [["{b0}*x2", "0"], ["0", "{b1}*sin(x2)"], ["{b2}*x2^2", "0"]]
README_PATH_V = ["sin({v0}*x1)", "{v1}*x1", "cos({v2}*x1)"]

# so(3) generators of the su2_as_so3 rep, (T_a)_ij = -eps_{a i j}, built
# here so that the lift oracle does not depend on the package.
EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in itertools.permutations(range(3)):
    EPS3[_i, _j, _k] = np.linalg.det(np.eye(3)[[_i, _j, _k]])
SO3 = -EPS3


def _fill(template, amps):
    return [[entry.format(**amps) for entry in row] for row in template]


def _amps(rng, prefix, count, lo, hi):
    return {f"{prefix}{i}": f"{rng.uniform(lo, hi):.4f}" for i in range(count)}


def _lattice(rng, n, steps):
    off = [round(rng.uniform(-0.15, 0.15), 4) for _ in range(n)]
    return {"min": [o - 0.5 for o in off], "max": [o + 0.5 for o in off],
            "steps": [steps] * n}


def lattice_points(lattice):
    """Expected point set of a lattice, rounded so it compares with report rows."""
    axes = [np.linspace(lo, hi, s) for lo, hi, s in
            zip(lattice["min"], lattice["max"], lattice["steps"])]
    return {tuple(round(float(x), 9) for x in p) for p in itertools.product(*axes)}


def _shape(lattice):
    return "x".join(str(s) for s in lattice["steps"])


def _key(point):
    return tuple(round(float(x), 9) for x in point)


# ---------------------------------------------------------------------------
# commands and checks


@dataclass
class Command:
    """One cold CLI invocation.  ``check(returncode, out_path)`` returns the
    number of failed operations out of ``ops``."""

    label: str
    args: list
    out: str | None
    ops: int
    check: object


@dataclass
class Plan:
    """Everything one run of a workload executes."""

    timed: list  # Commands making one round
    setup_problems: list  # problem files loaded by the set-up probe
    sizes: dict
    ops_per_round: int
    untimed: list = field(default_factory=list)  # Commands run once, after the window
    probe: list = field(default_factory=list)  # conformance probe Commands


def _write(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
    return path


def _read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def read_csv_report(path):
    """Rebuild the per-point rows of a flattened CSV curvature report."""
    try:
        with open(path, newline="") as f:
            text = f.read()
    except OSError:
        return None
    rows = {}
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["key", "value"]:
        return None
    for line in reader:
        if len(line) != 2 or not line[0].startswith("per_point["):
            continue  # a malformed line leaves its row incomplete, which fails it
        key, value = line
        idx, _, rest = key[len("per_point["):].partition("]")
        name, _, sub = rest.lstrip(".").partition("[")
        try:
            row = rows.setdefault(int(idx), {})
            if sub:
                row.setdefault(name, []).append(float(value))
            else:
                row[name] = float(value)
        except ValueError:
            continue
    return [rows[i] for i in sorted(rows)]


def curvature_row_ok(row, cross_tol):
    """The per-point invariants of a curvature report row."""
    try:
        values = [row["cross_check_max"], row["connection_torsion"],
                  row["connection_antisymmetry"], row["scalar_curvature"],
                  row["einstein_residual_norm"], row["yang_mills_residual_norm"]]
        values += list(np.ravel(row["ricci"]))
        values = [float(v) for v in values]
    except (KeyError, TypeError, ValueError):
        return False
    if not all(math.isfinite(v) for v in values):
        return False
    cross, torsion, antisymmetry = values[:3]
    return cross <= cross_tol and torsion <= TOL_EXACT and antisymmetry <= TOL_EXACT


def rows_by_point(rows):
    """Report rows keyed by their point; rows without a readable point are dropped."""
    seen = {}
    for row in rows or ():
        try:
            seen[_key(row["point"])] = row
        except (KeyError, TypeError, ValueError):
            continue
    return seen


def check_curvature_rows(rows, expected, cross_tol):
    """Failed operations of a sweep: missing points plus failing rows."""
    if rows is None:
        return len(expected)
    seen = rows_by_point(rows)
    failed = 0
    for point in expected:
        row = seen.get(point)
        if row is None or not curvature_row_ok(row, cross_tol):
            failed += 1
    return failed


def curvature_check(expected, cross_tol, fmt):
    def check(returncode, out):
        if returncode not in ALLOWED_EXITS:
            return len(expected)
        if fmt == "csv":
            rows = read_csv_report(out)
        else:
            report = _read_json(out)
            rows = None if report is None else report.get("per_point")
        return check_curvature_rows(rows, expected, cross_tol)
    return check


def gauge_check(expected):
    def check(returncode, out):
        report = _read_json(out)
        if returncode not in ALLOWED_EXITS or report is None:
            return len(expected)
        seen = rows_by_point(report.get("per_point"))
        failed = 0
        for point in expected:
            row = seen.get(point, {})
            ok = (report.get("passed") is True
                  and row.get("deextra_residual", math.inf) <= TOL_GAUGE
                  and row.get("gauge_covariance_residual", math.inf) <= TOL_GAUGE)
            failed += not ok
        return failed
    return check


# ---------------------------------------------------------------------------
# workloads


def _curvature_problem(algebra, coframe, gauge, where, deriv_mode="analytic"):
    fields = {"chart": {"n": len(coframe)}, "coframe": coframe, "gauge": gauge, **where}
    if deriv_mode != "analytic":
        fields["deriv_mode"] = deriv_mode
    return {"algebra": algebra, "fields": fields}


def plan_sweep4d(seed, work, smoke=False):
    rng = random.Random(seed)
    coframe = _fill(COFRAME_4D, _amps(rng, "a", 8, 0.05, 0.25))
    gauge = _fill(GAUGE_4D, _amps(rng, "b", 8, 0.1, 0.4))
    lattice = _lattice(rng, 4, 3 if smoke else 5)
    algebra = {"builtin": "u1_su2", "n": 4}
    problem = _write(os.path.join(work, "sweep4d.json"),
                     _curvature_problem(algebra, coframe, gauge, {"lattice": lattice}))
    expected = lattice_points(lattice)
    out = os.path.join(work, "sweep4d.out.json")
    timed = Command("curvature-4d", ["curvature", "--input", problem, "--out", out],
                    out, len(expected), curvature_check(expected, TOL_ANALYTIC, "json"))

    # Untimed: a few lattice points again in fd mode; they must agree with
    # the analytic rows within the fd rung of the ladder.
    sample = rng.sample(sorted(expected), 3)
    fd_problem = _write(os.path.join(work, "sweep4d_fd.json"),
                        _curvature_problem(algebra, coframe, gauge,
                                           {"points": [list(p) for p in sample]}, "fd"))
    fd_out = os.path.join(work, "sweep4d_fd.out.json")
    fd_cmd = Command("curvature-4d-fd-sample",
                     ["curvature", "--input", fd_problem, "--out", fd_out], fd_out,
                     len(sample), fd_sample_check(sample, out))
    return Plan(timed=[timed], setup_problems=[problem],
                sizes={"n": 4, "N": 8, "algebra": "u1_su2", "lattice": _shape(lattice),
                       "points": len(expected), "format": "json"},
                ops_per_round=len(expected), untimed=[fd_cmd])


def fd_sample_check(sample, analytic_out):
    """Compare fd-mode rows with the analytic rows of the last timed round."""
    def check(returncode, out):
        if returncode not in ALLOWED_EXITS:
            return len(sample)
        fd = _read_json(out)
        ref = _read_json(analytic_out)
        if fd is None or ref is None:
            return len(sample)
        fd_rows = rows_by_point(fd.get("per_point"))
        ref_rows = rows_by_point(ref.get("per_point"))
        failed = 0
        for point in sample:
            a, b = fd_rows.get(point), ref_rows.get(point)
            ok = (a is not None and b is not None and curvature_row_ok(a, TOL_FD)
                  and curvature_row_ok(b, TOL_ANALYTIC)
                  and max(abs(a[k] - b[k]) for k in (
                      "scalar_curvature", "einstein_residual_norm",
                      "yang_mills_residual_norm")) <= TOL_FD
                  and np.abs(np.array(a["ricci"]) - np.array(b["ricci"])).max() <= TOL_FD)
            failed += not ok
        return failed
    return check


def plan_sweep3d_fd(seed, work, smoke=False):
    rng = random.Random(seed)
    coframe = _fill(COFRAME_3D, _amps(rng, "a", 6, 0.05, 0.25))
    gauge = _fill(GAUGE_3D, _amps(rng, "b", 6, 0.1, 0.4))
    lattice = _lattice(rng, 3, 3 if smoke else 6)
    problem = _write(os.path.join(work, "sweep3d_fd.json"),
                     _curvature_problem({"builtin": "su2", "n": 3}, coframe, gauge,
                                        {"lattice": lattice}, "fd"))
    expected = lattice_points(lattice)
    out = os.path.join(work, "sweep3d_fd.out.csv")
    timed = Command("curvature-3d-fd", ["curvature", "--input", problem, "--out", out,
                                        "--format", "csv"],
                    out, len(expected), curvature_check(expected, TOL_FD, "csv"))
    return Plan(timed=[timed], setup_problems=[problem],
                sizes={"n": 3, "N": 6, "algebra": "su2", "lattice": _shape(lattice),
                       "points": len(expected), "deriv_mode": "fd", "format": "csv"},
                ops_per_round=len(expected))


def plan_fiber2d(seed, work, smoke=False):
    rng = random.Random(seed)
    coframe = _fill(COFRAME_2D, _amps(rng, "a", 1, 0.1, 0.3))
    gauge = _fill(GAUGE_2D, _amps(rng, "b", 3, 0.1, 0.4))
    lattice = _lattice(rng, 2, 4 if smoke else 10)
    problem_obj = _curvature_problem({"builtin": "su2", "n": 2}, coframe, gauge,
                                     {"lattice": lattice})
    problem_obj["rep"] = "su2_as_so3"
    problem_obj["options"] = {"seed": rng.randrange(1 << 16)}
    problem = _write(os.path.join(work, "fiber2d.json"), problem_obj)
    expected = lattice_points(lattice)
    out = os.path.join(work, "fiber2d.out.json")
    timed = Command("gauge-check", ["gauge-check", "--input", problem, "--out", out],
                    out, len(expected), gauge_check(expected))
    return Plan(timed=[timed], setup_problems=[problem],
                sizes={"n": 2, "N": 5, "algebra": "su2", "rep": "su2_as_so3",
                       "lattice": _shape(lattice), "points": len(expected)},
                ops_per_round=len(expected),
                probe=conformance_probe(rng, work))


def conformance_probe(rng, work):
    """gauge-check and curvature on a few points at n = 3 and n = 4 (untimed).

    Every subcommand must work for every chart dimension the input format
    accepts; the timed workloads only reach gauge-check at n = 2.
    """
    cmds = []
    shapes = {3: (COFRAME_3D, GAUGE_3D, 6), 4: (COFRAME_4D, GAUGE_4D[:3], 8)}
    for n, (cf_t, g_t, count) in shapes.items():
        coframe = _fill(cf_t, _amps(rng, "a", count, 0.05, 0.25))
        gauge = _fill(g_t, _amps(rng, "b", count, 0.1, 0.4))
        points = [[round(rng.uniform(-0.4, 0.4), 4) for _ in range(n)] for _ in range(2)]
        expected = {_key(p) for p in points}
        obj = _curvature_problem({"builtin": "su2", "n": n}, coframe, gauge,
                                 {"points": points})
        obj["rep"] = "su2_as_so3"
        obj["options"] = {"seed": rng.randrange(1 << 16)}
        problem = _write(os.path.join(work, f"probe{n}d.json"), obj)
        out = os.path.join(work, f"probe{n}d.gauge.json")
        cmds.append(Command(f"gauge-check-n{n}",
                            ["gauge-check", "--input", problem, "--out", out],
                            out, len(points), gauge_check(expected)))
        out = os.path.join(work, f"probe{n}d.curv.json")
        cmds.append(Command(f"curvature-n{n}",
                            ["curvature", "--input", problem, "--out", out],
                            out, len(points), curvature_check(expected, TOL_ANALYTIC, "json")))
    return cmds


def plan_cold_cmds(seed, work, smoke=False):
    rng = random.Random(seed)
    # su(2) over a 2-D central block, structure constants scaled by s and
    # k = lam * I; the cosmological constant is then 3 s^2 / (4 lam).
    s = round(rng.uniform(0.5, 2.0), 4)
    lam = round(rng.uniform(0.5, 2.0), 4)
    c = [[A + 2, B + 2, C + 2, s * EPS3[A, B, C]]
         for A, B, C in itertools.permutations(range(3))]
    algebra = {"n": 2, "r": 3, "c": c, "h_b": [[1.0, 0.0], [0.0, 1.0]],
               "h_k": (lam * np.eye(3)).tolist()}
    vproblem = _write(os.path.join(work, "validate.json"), {"algebra": algebra})
    vout = os.path.join(work, "validate.out.json")

    ident_seed = rng.randrange(1 << 16)
    iout = os.path.join(work, "identities.out.json")

    v_amps = _amps(rng, "v", 3, 1.0, 3.0)
    xi = [round(rng.uniform(-1.5, 1.5), 4) for _ in range(3)]
    steps = 100 if smoke else 1000
    paths = [{"g0": "identity", "v": [e.format(**v_amps) for e in README_PATH_V],
              "steps": steps},
             {"g0": "identity", "v": [repr(x) for x in xi], "steps": steps}]
    lproblem = _write(os.path.join(work, "lift.json"),
                      {"rep": "su2_as_so3", "paths": paths})
    lout = os.path.join(work, "lift.out.json")

    timed = [
        Command("validate", ["validate", "--input", vproblem, "--out", vout], vout, 1,
                validate_check(3 * s * s / (4 * lam))),
        Command("identities", ["identities", "--n", "6", "--seed", str(ident_seed),
                               "--out", iout], iout, 1, identities_check),
        Command("lift", ["lift", "--input", lproblem, "--out", lout], lout, 1,
                lift_check(xi)),
    ]
    return Plan(timed=timed, setup_problems=[vproblem, lproblem],
                sizes={"commands": ["validate", "identities --n 6", "lift"],
                       "validate_algebra": "inline su2, n=2, r=3",
                       "identities_N": 6, "lift_paths": 2, "lift_steps": steps},
                ops_per_round=len(timed))


def validate_check(cosmological):
    def check(returncode, out):
        report = _read_json(out)
        ok = (returncode == 0 and report is not None and report.get("passed") is True
              and all(c["passed"] for c in report.get("checks", []))
              and abs(report.get("cosmological_constant", math.inf) - cosmological)
              <= TOL_EXACT * max(1.0, abs(cosmological)))
        return int(not ok)
    return check


def identities_check(returncode, out):
    report = _read_json(out)
    ok = (returncode == 0 and report is not None and report.get("passed") is True
          and report.get("max_residual", math.inf) <= TOL_EXACT)
    return int(not ok)


def lift_check(xi):
    """Drift of both paths, and the constant-velocity path against expm(xi)."""
    from scipy.linalg import expm

    target = expm(np.einsum("a,aij->ij", np.array(xi), SO3))

    def check(returncode, out):
        report = _read_json(out)
        if returncode != 0 or report is None or len(report.get("paths", [])) != 2:
            return 1
        readme, const = report["paths"]
        try:
            ok = (readme["drift"] <= TOL_DRIFT and const["drift"] <= TOL_DRIFT
                  and np.abs(np.array(const["final"]) - target).max() <= TOL_EXPM)
        except (KeyError, TypeError, ValueError):
            ok = False
        return int(not ok)
    return check


WORKLOADS = {
    "sweep4d": plan_sweep4d,
    "sweep3d_fd": plan_sweep3d_fd,
    "fiber2d": plan_fiber2d,
    "cold_cmds": plan_cold_cmds,
}
