"""Property test: a multi-block curvature sweep agrees, row by row, with the
same pipeline run on each point alone (a batch of one), for random fields
over every built-in algebra, chart dimensions 2..5 and both derivative modes.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kkgeom import kkcurv, liealg
from kkgeom.basegeo import geometry_at_point, load_fields
from kkgeom.cli import EXIT_OK, main

ALGEBRAS = [{"builtin": "abelian", "r": 1}, {"builtin": "abelian", "r": 2},
            {"builtin": "su2"}, {"builtin": "u1_su2"}]
# |term| <= 1.2 on the sampled box, so with amplitudes <= 0.15 a coframe
# with unit diagonal stays diagonally dominant (invertible) up to n = 5
TERMS = ["sin({u})", "cos({u})", "{u}*{v}", "{u}^2", "exp(0.3*{u})"]
LADDER = {"analytic": 1e-6, "fd": 1e-3}


@st.composite
def sweeps(draw):
    n = draw(st.integers(2, 5))
    algebra = dict(draw(st.sampled_from(ALGEBRAS)), n=n)
    r = liealg.load_spec(algebra).r
    var = st.integers(1, n).map(lambda i: f"x{i}")

    def entry(diagonal):
        term = draw(st.sampled_from(TERMS)).format(u=draw(var), v=draw(var))
        amp = draw(st.floats(-0.15, 0.15))
        return f"{int(diagonal)} + ({amp:.4f})*{term}"

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(33, 48))  # two blocks
    fields = {
        "chart": {"n": n},
        "coframe": [[entry(a == mu) for mu in range(n)] for a in range(n)],
        "gauge": [[entry(False) for _ in range(n)] for _ in range(r)],
        "points": rng.uniform(-0.5, 0.5, size=(count, n)).tolist(),
        "deriv_mode": draw(st.sampled_from(sorted(LADDER))),
    }
    return {"algebra": algebra, "fields": fields}


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


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweeps())
def test_block_sweep_matches_batch_of_one(problem):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w") as f:
            json.dump(problem, f)
        assert main(["curvature", "--input", path, "--out", out]) == EXIT_OK
        with open(out) as f:
            rows = json.load(f)["per_point"]

    spec = liealg.load_spec(problem["algebra"])
    _, coframe, gauge, points = load_fields(problem["fields"], spec)
    deriv_mode = problem["fields"]["deriv_mode"]
    assert [row["point"] for row in rows] == points.tolist()
    for row, point in zip(rows, points):
        assert row["cross_check_max"] <= LADDER[deriv_mode]
        for key, want in batch_of_one(coframe, gauge, spec, point, deriv_mode).items():
            assert np.abs(np.array(row[key]) - want).max() <= 1e-12, key
