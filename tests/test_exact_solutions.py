"""Exact solutions of the Einstein-Yang-Mills system, checked end to end.

Each fixture is a known solution written as a problem file and run through
``kkgeom curvature``; both residual blocks must vanish to the rung of the
derivative mode, and a negative control (the same fields with one sign
flipped) must not.

The BPST instanton is the one fixture whose c A A terms are non-zero: the
field strength and the fiber-fiber connection block both carry them, and
the direct and closed-form routes share them, so the cross-check between
the routes cannot catch an error there.  Yang-Mills is conformally
invariant in four dimensions and a self-dual field has no stress tensor, so
the instanton of scale rho on flat R^4 solves the system on a conformally
flat base as well: here the ball model of hyperbolic space of radius L,
e^a = 2L / (1 - |x|^2) dx^a, whose curvature balances the su(2)
cosmological term at L = 2.
"""

import json

import numpy as np
import pytest

from kkgeom.cli import EXIT_OK, main

EPSILON = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
RHO2 = "0.36"  # rho = 0.6
DENOM = f"({RHO2} + x1^2 + x2^2 + x3^2 + x4^2)"

TOL = {"analytic": 1e-12, "fd": 1e-9}
CONTROL_FLOOR = 1e-2


def bpst_gauge(sign=1):
    """A^i_j = 2 (eps_ijk x_k + delta_ij x4) / D and A^i_4 = -2 x_i / D, with
    D = rho^2 + |x|^2, every entry one term times ``sign``, written without a
    leading ``+`` (the expression grammar has no unary plus)."""
    def term(coefficient, var):
        coefficient *= sign
        return f"{'-' if coefficient < 0 else ''}{abs(coefficient)}*{var}/{DENOM}"

    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if i == j:
                row.append(term(2, "x4"))
            else:
                k = 3 - i - j
                row.append(term(2 * EPSILON[(i, j, k)], f"x{k + 1}"))
        row.append(term(-2, f"x{i + 1}"))
        rows.append(row)
    return rows


def bpst_problem(deriv_mode, sign=1):
    conformal = "4/(1 - x1^2 - x2^2 - x3^2 - x4^2)"  # 2L / (1 - |x|^2), L = 2
    points = np.random.default_rng(4).uniform(-0.45, 0.45, size=(12, 4))
    fields = {
        "chart": {"n": 4},
        "coframe": [[conformal if a == mu else "0" for mu in range(4)] for a in range(4)],
        "gauge": bpst_gauge(sign),
        "points": points.tolist(),
    }
    if deriv_mode != "analytic":
        fields["deriv_mode"] = deriv_mode
    return {"algebra": {"builtin": "su2", "n": 4}, "fields": fields}


def run_curvature(tmp_path, problem):
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    code = main(["curvature", "--input", str(path), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_bpst_instanton_solves_einstein_yang_mills(tmp_path, deriv_mode):
    code, report = run_curvature(tmp_path, bpst_problem(deriv_mode))
    assert code == EXIT_OK
    summary = report["summary"]
    assert summary["points"] == 12
    assert summary["max_einstein_residual"] <= TOL[deriv_mode]
    assert summary["max_yang_mills_residual"] <= TOL[deriv_mode]


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_bpst_negative_control_is_not_a_solution(tmp_path, deriv_mode):
    # A -> -A flips the linear part of F but not its c A A part, so the
    # field is no longer self-dual
    code, report = run_curvature(tmp_path, bpst_problem(deriv_mode, sign=-1))
    assert code == EXIT_OK  # the two routes still agree; the residuals are data
    summary = report["summary"]
    assert summary["max_einstein_residual"] > CONTROL_FLOOR
    assert summary["max_yang_mills_residual"] > CONTROL_FLOOR
