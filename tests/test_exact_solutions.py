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

Three product solutions fix the sign of Lambda and the coupling of the two
blocks.  At A = 0 the base Einstein tensor must equal Lambda b, so the su(2)
constant Lambda = 3/4 needs a negatively curved base: H^2 x H^2, each factor
of curvature -3/4.  A u(1) fiber has Lambda = 0, and a magnetic field B on
the sphere of a product of equal radii R solves the system at B = 2/R, both
on S^2 x H^2 and, with the Lorentzian base metric diag(-1, 1, 1, 1), on
AdS^2 x S^2 (Bertotti-Robinson).
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


def diagonal_problem(algebra, coframe, gauge, low, high, deriv_mode):
    """A problem with the diagonal coframe ``coframe`` on 12 fixed-seed points
    drawn from the box [low, high] (one bound per axis)."""
    points = np.random.default_rng(5).uniform(low, high, size=(12, 4))
    fields = {
        "chart": {"n": 4},
        "coframe": [[e if a == mu else "0" for mu in range(4)] for a, e in enumerate(coframe)],
        "gauge": gauge,
        "points": points.tolist(),
    }
    if deriv_mode != "analytic":
        fields["deriv_mode"] = deriv_mode
    return {"algebra": algebra, "fields": fields}


def magnetic_s2_h2(deriv_mode, BR=2.0):
    """u(1) on S^2 x H^2 of radius R = 1.3, A_2 = -B R^2 cos(x1) with B = BR / R;
    off the poles of the sphere, sin(x1) = 0."""
    R = 1.3
    return diagonal_problem({"builtin": "abelian", "n": 4, "r": 1},
                            [f"{R}", f"{R}*sin(x1)", f"{R}", f"{R}*exp(x3)"],
                            [["0", f"-{BR * R}*cos(x1)", "0", "0"]],
                            [0.8, -1, -1, -1], [2.3, 1, 1, 1], deriv_mode)


def bertotti_robinson(deriv_mode, BR=2.0):
    """u(1) on AdS^2 x S^2 of radius R = 1.2 with b = diag(-1, 1, 1, 1),
    A_4 = -B R^2 cos(x3) with B = BR / R; off the poles, sin(x3) = 0."""
    R = 1.2
    algebra = {"builtin": "abelian", "n": 4, "r": 1,
               "h_b": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist()}
    return diagonal_problem(algebra,
                            [f"{R}*cosh(x2)", f"{R}", f"{R}", f"{R}*sin(x3)"],
                            [["0", "0", "0", f"-{BR * R}*cos(x3)"]],
                            [-1, -1, 0.8, -1], [1, 1, 2.3, 1], deriv_mode)


def su2_h2_h2(deriv_mode, a=3 ** 0.5 / 2):
    """su(2), k = I (Lambda = 3/4), A = 0 on H^2 x H^2, each factor
    dx^2 + exp(2 a x) dy^2 of curvature -a^2."""
    return diagonal_problem({"builtin": "su2", "n": 4}, ["1", f"exp({a}*x1)", "1", f"exp({a}*x3)"],
                            [["0"] * 4] * 3, [-1] * 4, [1] * 4, deriv_mode)


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@pytest.mark.parametrize("solution", [magnetic_s2_h2, bertotti_robinson, su2_h2_h2])
def test_product_solution_solves_einstein_yang_mills(tmp_path, solution, deriv_mode):
    code, report = run_curvature(tmp_path, solution(deriv_mode))
    assert code == EXIT_OK
    summary = report["summary"]
    assert summary["points"] == 12
    assert summary["max_einstein_residual"] <= TOL[deriv_mode]
    assert summary["max_yang_mills_residual"] <= TOL[deriv_mode]


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@pytest.mark.parametrize("solution,change", [
    (magnetic_s2_h2, {"BR": 2.2}),  # 1.1 B
    (bertotti_robinson, {"BR": 1.0}),
    (bertotti_robinson, {"BR": 2 ** 0.5}),
    (su2_h2_h2, {"a": 1.0}),  # base curvature -1 against Lambda = 3/4
], ids=["s2_h2-1.1B", "bertotti_robinson-BR1", "bertotti_robinson-BRsqrt2", "h2_h2-a1"])
def test_product_negative_control_is_not_a_solution(tmp_path, solution, change, deriv_mode):
    code, report = run_curvature(tmp_path, solution(deriv_mode, **change))
    assert code == EXIT_OK  # the two routes still agree; the residuals are data
    assert report["summary"]["max_einstein_residual"] > CONTROL_FLOOR
