"""Property tests: a multi-block sweep agrees, row by row, with the same
pipeline run on each point alone (a batch of one), for random fields and
chart dimensions 2..5.  ``curvature`` is drawn over the built-in algebras in
both derivative modes.  ``lift`` is drawn over generated compact algebras
with no ``rep`` entry, so it acts through the rep that ``algebra_rep``
derives: direct sums of su(2) blocks (scaled constants, scaled k) and
u(1)s, in a drawn basis order, and su(3).  ``gauge-check`` needs no rep:
it is drawn over those and over so(2,1) (scaled constants), su(2) with a
drawn diagonal k and su(2) + so(2,1).  Over the compact algebras, the Ad
that ``gauge-check`` forms as exp(ad_u) is checked against Ad through the
derived rep.
"""

import itertools
import json
import os
import random
import tempfile

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kkgeom import gauge, kkcurv, liealg
from kkgeom.basegeo import geometry_at_point, load_fields
from kkgeom.bundle import _identity_padded, adjoint_of, algebra_rep
from kkgeom.cli import EXIT_OK, main
from kkgeom.gauge import verify_deextra, verify_gauge_covariance

ALGEBRAS = [{"builtin": "abelian", "r": 1}, {"builtin": "abelian", "r": 2},
            {"builtin": "su2"}, {"builtin": "u1_su2"}]
EPSILON3 = liealg.su2_algebra(0).c  # the su(2) constants epsilon_ijk, (3, 3, 3)
# so(2,1): [e0, e1] = -e2, [e1, e2] = e0, [e2, e0] = e1, Ad-invariant k = diag(1, 1, -1)
SO21 = EPSILON3 * np.array([1.0, 1.0, -1.0])[:, None, None]
# totally antisymmetric su(3) constants f_abc of the Gell-Mann basis (1-based)
SU3_F = {(1, 2, 3): 1.0, (1, 4, 7): 0.5, (1, 5, 6): -0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5,
         (3, 4, 5): 0.5, (3, 6, 7): -0.5, (4, 5, 8): 3 ** 0.5 / 2, (6, 7, 8): 3 ** 0.5 / 2}
# |term| <= 1.2 on the sampled box, so with amplitudes <= 0.15 a coframe
# with unit diagonal stays diagonally dominant (invertible) up to n = 5
TERMS = ["sin({u})", "cos({u})", "{u}*{v}", "{u}^2", "exp(0.3*{u})"]
LADDER = {"analytic": 1e-6, "fd": 1e-3}
TOL_GAUGE = 1e-5
# The gauge-covariance residual takes one h = 1e-4 fiber difference, of phi,
# and sits at a rounding floor of ~3e-12 (README "Conventions"): the largest
# residual over the 16 examples of the generated algebras was 5.6e-12 (3.0e-12
# over 40 examples of the built-in reps), and block and batch-of-one values
# agreed bit for bit, so any rounding-level move stays well below 1e-10.
GAUGE_ROUNDING = 1e-10
# Ad of |u| ~ 1 through the derived rep (a pseudo-inverse of the generators)
# and through exp(ad_u) agree to 1.4e-15 at most on the generated algebras (measured)
AD_ROUTES = 1e-12
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


def su3_constants():
    """The (8, 8, 8) fiber constants c^c_ab = f_abc of su(3)."""
    c = np.zeros((8, 8, 8))
    for abc, f in SU3_F.items():
        for perm in itertools.permutations(range(3)):
            a, b, cc = (abc[i] - 1 for i in perm)
            c[cc, a, b] = f * np.linalg.det(np.eye(3)[list(perm)])
    return c


# fiber shapes of the generated algebras: su(3), or direct sums of su(2)
# blocks (3) and u(1)s (1)
FIBERS = [[1, 1], [3, 3], "su3", [1, 3], [3], [1], [3, 1, 1], [3, 3, 1]]
FIBER_IDS = [f if f == "su3" else "+".join("su2" if b == 3 else "u1" for b in f)
             for f in FIBERS]


@st.composite
def compact_algebras(draw, n, blocks=None):
    """An inline compact algebra over an n-dimensional chart, with an
    Ad-invariant k, of the fiber shape ``blocks`` (drawn from FIBERS if
    None): su(3) with k = I, or a direct sum of su(2) blocks and u(1)s,
    each su(2) with its constants and k scaled, each u(1) with its k scaled,
    the fiber basis in a drawn order."""
    if blocks is None:
        blocks = draw(st.sampled_from(FIBERS))
    if blocks == "su3":
        c, k = su3_constants(), np.eye(8)
    else:
        r = sum(blocks)
        c, k, start = np.zeros((r, r, r)), np.zeros((r, r)), 0
        for size in blocks:
            fiber = slice(start, start + size)
            if size == 3:
                c[fiber, fiber, fiber] = draw(st.floats(0.3, 2.0)) * EPSILON3
            k[fiber, fiber] = draw(st.floats(0.3, 3.0)) * np.eye(size)
            start += size
        order = draw(st.permutations(range(r)))
        c, k = c[np.ix_(order, order, order)], k[np.ix_(order, order)]
    return inline_algebra(c, n, k)


def inline_algebra(c, n, k=None):
    """The wire format of the algebra with fiber constants ``c`` (r, r, r)
    over an n-dimensional chart, with fiber metric ``k`` (default I)."""
    triplets = [[n + int(A), n + int(B), n + int(C), float(c[A, B, C])]
                for A, B, C in zip(*np.nonzero(c))]
    return {"n": n, "r": len(c), "c": triplets,
            **({} if k is None else {"h_k": np.asarray(k).tolist()})}


def su2_so21_algebra(n):
    """su(2) + so(2,1) over an n-dimensional chart, k = diag(1, 1, 1, 1, 1, -1)."""
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3], c[3:, 3:, 3:] = EPSILON3, SO21
    return inline_algebra(c, n, np.diag([1.0] * 5 + [-1.0]))


@st.composite
def gauge_checks(draw):
    n = draw(st.integers(2, 5))
    family = draw(st.sampled_from(["compact", "so21", "su2-diagonal-k", "su2+so21"]))
    if family == "compact":
        algebra = draw(compact_algebras(n))
    elif family == "so21":
        # u ~ N(0, 1) in a basis scaled by c is a boost of c |u|: the residual's
        # rounding grows like eps |Ad_g0|^4 and passes 1e-5 near c = 2 (README)
        algebra = inline_algebra(draw(st.floats(0.3, 1.0)) * SO21, n, np.diag([1.0, 1.0, -1.0]))
    elif family == "su2-diagonal-k":
        algebra = inline_algebra(EPSILON3, n, np.diag([draw(st.floats(0.3, 3.0)) for _ in "abc"]))
    else:
        algebra = su2_so21_algebra(n)
    return {"algebra": algebra, "fields": draw_fields(draw, algebra),
            "options": {"seed": draw(st.integers(0, 2**16 - 1))}}


def report(command, problem):
    """The report of ``kkgeom COMMAND`` on ``problem``, which must pass."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w") as f:
            json.dump(problem, f)
        assert main([command, "--input", path, "--out", out]) == EXIT_OK
        with open(out) as f:
            return json.load(f)


def batch_of_one(coframe, gauge, spec, point, deriv_mode):
    geom = geometry_at_point(coframe, gauge, spec, point, deriv_mode=deriv_mode)
    conn = kkcurv.assemble_omega(geom)
    direct = kkcurv.curvature_direct(conn)
    closed = kkcurv.ricci_closed_form(geom)
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
    rows = report("curvature", problem)["per_point"]
    spec = liealg.load_spec(problem["algebra"])
    coframe, gauge, points, _ = load_fields(problem["fields"], spec)
    deriv_mode = problem["fields"]["deriv_mode"]
    assert [row["point"] for row in rows] == points.tolist()
    for row, point in zip(rows, points):
        assert row["cross_check_max"] <= LADDER[deriv_mode]
        for key, want in batch_of_one(coframe, gauge, spec, point, deriv_mode).items():
            assert np.abs(np.array(row[key]) - want).max() <= 1e-12, key


@settings(SETTINGS, max_examples=16)
@given(gauge_checks())
def test_block_gauge_check_matches_batch_of_one(problem):
    rows = report("gauge-check", problem)["per_point"]
    spec = liealg.load_spec(problem["algebra"])
    coframe, gauge_field, points, _ = load_fields(problem["fields"], spec)
    # per sorted point, in order: r normals for u of g0 = exp(u), r for s
    rng = random.Random(problem["options"]["seed"])
    draws = np.array([[[rng.gauss(0.0, 1.0) for _ in range(spec.r)] for _ in range(2)]
                      for _ in points])
    assert [row["point"] for row in rows] == points.tolist()
    for row, point, (u, s) in zip(rows, points, draws):
        assert row["deextra_residual"] <= TOL_GAUGE
        assert row["gauge_covariance_residual"] <= TOL_GAUGE
        geom = geometry_at_point(coframe, gauge_field, spec, point)
        assert abs(row["deextra_residual"] - verify_deextra(geom, s=0.25 * s)) <= 1e-12
        assert (abs(row["gauge_covariance_residual"] - verify_gauge_covariance(geom, u))
                <= GAUGE_ROUNDING)


@pytest.mark.parametrize("fiber", FIBERS, ids=FIBER_IDS)
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_ad_through_the_rep_is_exp_of_ad(fiber, data):
    # two routes to Ad_exp(u): conjugation g T g^-1 in the rep that
    # algebra_rep derives, and exp(ad_u) as gauge-check forms it
    n = data.draw(st.integers(2, 5))
    spec = liealg.load_spec(data.draw(compact_algebras(n, fiber)))
    u = np.random.default_rng(spec.r + n).normal(size=(4, spec.r))
    want = adjoint_of(algebra_rep(spec).exp(u), n)
    got = _identity_padded(gauge._adjoint(spec, u), n)
    assert got.shape == want.shape == (4, spec.N, spec.N)
    assert np.abs(got - want).max() <= AD_ROUTES


@pytest.mark.parametrize("fiber", FIBERS, ids=FIBER_IDS)
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_algebra_rep_is_orthogonal_on_generated_algebras(fiber, data):
    # k is Ad-invariant, so every generator is antisymmetric and exp is orthogonal
    spec = liealg.load_spec(data.draw(compact_algebras(data.draw(st.integers(2, 5)), fiber)))
    rep = algebra_rep(spec)
    assert np.abs(rep.T + np.swapaxes(rep.T, 1, 2)).max() <= 1e-14
    assert rep.closure_residual() <= 1e-12
    xi = np.random.default_rng(spec.r).normal(size=(4, spec.r))
    assert rep.exp(xi).manifold_residual() <= 1e-13


@pytest.mark.parametrize("fiber", FIBERS, ids=FIBER_IDS)
@settings(SETTINGS, max_examples=3)
@given(data=st.data())
def test_constant_velocity_lift_matches_the_exponential(fiber, data):
    algebra = data.draw(compact_algebras(data.draw(st.integers(2, 5)), fiber))
    xi = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=algebra["r"],
                            max_size=algebra["r"]))
    problem = {"algebra": algebra, "paths": [{"v": [[0.0] + xi, [1.0] + xi], "steps": 200}]}
    (row,) = report("lift", problem)["paths"]
    rep = algebra_rep(liealg.load_spec(algebra))
    want = scipy.linalg.expm(rep.algebra_element(np.array(xi)))
    assert np.abs(np.array(row["final"]) - want).max() < 1e-8
    assert row["drift"] < 1e-8


@pytest.mark.parametrize("fiber", FIBERS, ids=FIBER_IDS)
@settings(SETTINGS, max_examples=3)
@given(data=st.data())
def test_closed_form_lambda_terms_are_the_cosmological_constant(fiber, data):
    # on a flat base with no field the closed form holds its cosmological
    # terms alone: scalar 2 Lambda and Einstein block -Lambda I
    n = data.draw(st.integers(2, 5))
    spec = liealg.load_spec(data.draw(compact_algebras(n, fiber)))
    coframe, gauge, points, _ = load_fields({"chart": {"n": n}, "points": [[0.1] * n]}, spec)
    closed = kkcurv.ricci_closed_form(geometry_at_point(coframe, gauge, spec, points))
    lam = liealg.cosmological_constant(spec)
    assert closed.scalar.tolist() == [2 * lam]
    assert np.array_equal(closed.ein_base, -lam * np.eye(n)[None])
    # and Lambda is -1/8 of the Killing form paired with k^-1
    killing = np.einsum("abg,bae->ge", spec.fiber_c(), spec.fiber_c())
    assert abs(lam + 0.125 * np.sum(killing * spec.k_inv())) <= 1e-14 * max(1.0, abs(lam))
