"""Property tests: a multi-block sweep agrees, row by row, with the same
pipeline run on each point alone (a batch of one), for random fields over
the built-in algebras and chart dimensions 2..5.  ``curvature`` is drawn in
both derivative modes; ``gauge-check`` over every built-in representation.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kkgeom import kkcurv, liealg
from kkgeom.basegeo import geometry_at_point, load_fields
from kkgeom.bundle import builtin_rep, verify_deextra, verify_gauge_covariance
from kkgeom.cli import EXIT_OK, main

ALGEBRAS = [{"builtin": "abelian", "r": 1}, {"builtin": "abelian", "r": 2},
            {"builtin": "su2"}, {"builtin": "u1_su2"}]
REPS = [("u1_as_so2", {"builtin": "abelian", "r": 1}),
        ("su2_as_so3", {"builtin": "su2"}),
        ("product", {"builtin": "u1_su2"})]
# |term| <= 1.2 on the sampled box, so with amplitudes <= 0.15 a coframe
# with unit diagonal stays diagonally dominant (invertible) up to n = 5
TERMS = ["sin({u})", "cos({u})", "{u}*{v}", "{u}^2", "exp(0.3*{u})"]
LADDER = {"analytic": 1e-6, "fd": 1e-3}
TOL_GAUGE = 1e-5
# The gauge-covariance residual nests two h = 1e-4 fiber differences, so a
# rounding-level change in the group element moves it by up to ~1e-8 (README
# "Conventions"); 1e-7 is ten times the largest such move measured, between
# the scipy and the numpy matrix exponential on the benchmark problems.
GAUGE_ROUNDING = 1e-7
SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def draw_fields(draw, algebra):
    """Random expression coframe and gauge on the algebra's chart, and
    33..48 random points (two blocks)."""
    n = algebra["n"]
    r = liealg.load_spec(algebra).r
    var = st.integers(1, n).map(lambda i: f"x{i}")

    def entry(diagonal):
        term = draw(st.sampled_from(TERMS)).format(u=draw(var), v=draw(var))
        amp = draw(st.floats(-0.15, 0.15))
        return f"{int(diagonal)} + ({amp:.4f})*{term}"

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(33, 48))
    return {
        "chart": {"n": n},
        "coframe": [[entry(a == mu) for mu in range(n)] for a in range(n)],
        "gauge": [[entry(False) for _ in range(n)] for _ in range(r)],
        "points": rng.uniform(-0.5, 0.5, size=(count, n)).tolist(),
    }


@st.composite
def sweeps(draw):
    n = draw(st.integers(2, 5))
    algebra = dict(draw(st.sampled_from(ALGEBRAS)), n=n)
    fields = draw_fields(draw, algebra)
    fields["deriv_mode"] = draw(st.sampled_from(sorted(LADDER)))
    return {"algebra": algebra, "fields": fields}


@st.composite
def gauge_checks(draw):
    n = draw(st.integers(2, 5))
    rep, algebra = draw(st.sampled_from(REPS))
    algebra = dict(algebra, n=n)
    return {"algebra": algebra, "fields": draw_fields(draw, algebra), "rep": rep,
            "options": {"seed": draw(st.integers(0, 2**16 - 1))}}


def report_rows(command, problem):
    """The per-point rows of ``kkgeom COMMAND`` on ``problem``, which must pass."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w") as f:
            json.dump(problem, f)
        assert main([command, "--input", path, "--out", out]) == EXIT_OK
        with open(out) as f:
            return json.load(f)["per_point"]


def batch_of_one(coframe, gauge, spec, point, deriv_mode):
    geom = geometry_at_point(coframe, gauge, spec, point, deriv_mode=deriv_mode)
    conn = kkcurv.assemble_omega(geom, spec)
    direct = kkcurv.curvature_direct(conn)
    closed = kkcurv.ricci_closed_form(geom, spec)
    res = kkcurv.eym_residuals(closed)
    return {
        "scalar_curvature": direct.scalar,
        "ricci": direct.ricci,
        "einstein_residual_norm": res.einstein_norm,
        "yang_mills_residual_norm": res.ym_norm,
        "cross_check_max": max(kkcurv.cross_check(direct, closed).values()),
        "connection_antisymmetry": conn.antisymmetry_residual(),
        "connection_torsion": conn.torsion_residual(),
    }


@SETTINGS
@given(sweeps())
def test_block_sweep_matches_batch_of_one(problem):
    rows = report_rows("curvature", problem)
    spec = liealg.load_spec(problem["algebra"])
    _, coframe, gauge, points = load_fields(problem["fields"], spec)
    deriv_mode = problem["fields"]["deriv_mode"]
    assert [row["point"] for row in rows] == points.tolist()
    for row, point in zip(rows, points):
        assert row["cross_check_max"] <= LADDER[deriv_mode]
        for key, want in batch_of_one(coframe, gauge, spec, point, deriv_mode).items():
            assert np.abs(np.array(row[key]) - want).max() <= 1e-12, key


@SETTINGS
@given(gauge_checks())
def test_block_gauge_check_matches_batch_of_one(problem):
    rows = report_rows("gauge-check", problem)
    spec = liealg.load_spec(problem["algebra"])
    rep = builtin_rep(problem["rep"])
    _, coframe, gauge, points = load_fields(problem["fields"], spec)
    # per sorted point, in order: r normals for the group element, r for s
    draws = np.random.default_rng(problem["options"]["seed"]).normal(
        size=(len(points), 2, spec.r))
    assert [row["point"] for row in rows] == points.tolist()
    for row, point, (xi, s) in zip(rows, points, draws):
        assert row["deextra_residual"] <= TOL_GAUGE
        assert row["gauge_covariance_residual"] <= TOL_GAUGE
        geom = geometry_at_point(coframe, gauge, spec, point)
        g = rep.exp(xi)
        assert abs(row["deextra_residual"] - verify_deextra(geom, g, spec, s=0.25 * s)) <= 1e-12
        assert (abs(row["gauge_covariance_residual"] - verify_gauge_covariance(geom, g, spec))
                <= GAUGE_ROUNDING)
