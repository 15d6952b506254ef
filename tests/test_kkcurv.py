import numpy as np
import pytest

from kkgeom.basegeo import (ChartSpec, CoframeField, GaugeField,
                            base_curvature_from_geometry, geometry_at_point)
from kkgeom.kkcurv import (assemble_omega, cross_check, curvature_direct,
                           eym_residuals, ricci_closed_form)
from kkgeom.liealg import (abelian_algebra, cosmological_constant,
                           su2_algebra, u1_su2_algebra)


def flat_geometry(spec, n=2, point=None):
    chart = ChartSpec(n)
    rows = [["1" if a == mu else "0" for mu in range(n)] for a in range(n)]
    cof = CoframeField(chart, rows)
    gauge = GaugeField.zero(chart, spec.r)
    point = np.zeros(n) if point is None else point
    return geometry_at_point(cof, gauge, spec, point)


def random_configuration(rng, spec, n):
    """Analytic coframe + gauge with small coefficients (stays nondegenerate)."""
    chart = ChartSpec(n)
    funcs = ["sin(x{})", "cos(x{})", "x{}^2", "x{}*x{}"]
    def entry(base):
        f = funcs[int(rng.integers(len(funcs)))]
        args = [int(rng.integers(n)) + 1 for _ in range(f.count("{}"))]
        return f"{base} + {0.2 * float(rng.uniform(-1, 1)):.6f}*{f.format(*args)}"
    cof = CoframeField(chart, [[entry("1" if a == mu else "0")
                                for mu in range(n)] for a in range(n)])
    gauge = GaugeField(chart, [[entry("0") for _ in range(n)]
                               for _ in range(spec.r)])
    return cof, gauge


def both_routes(geom):
    """The direct and the closed-form curvature at one point."""
    return curvature_direct(assemble_omega(geom)), ricci_closed_form(geom)


# ---------------------------------------------------------------------------


def test_connection_invariants():
    spec = su2_algebra(2)
    rng = np.random.default_rng(0)
    cof, gauge = random_configuration(rng, spec, 2)
    geom = geometry_at_point(cof, gauge, spec, np.array([0.3, -0.4]))
    conn = assemble_omega(geom)
    assert conn.antisymmetry_residual() < 1e-12
    assert conn.torsion_residual() < 1e-12


def test_curvature_antisymmetry():
    spec = u1_su2_algebra(2)
    rng = np.random.default_rng(1)
    cof, gauge = random_configuration(rng, spec, 2)
    geom = geometry_at_point(cof, gauge, spec, np.array([0.2, 0.5]))
    curv = curvature_direct(assemble_omega(geom))
    assert curv.antisymmetry_residual(spec) < 1e-12


def test_flat_abelian_everything_vanishes():
    spec = abelian_algebra(2, 2)
    geom = flat_geometry(spec)
    curv = curvature_direct(assemble_omega(geom))
    assert np.abs(curv.ricci).max() < 1e-14
    res = eym_residuals(ricci_closed_form(geom))
    assert res.einstein_norm < 1e-14
    assert res.ym_norm < 1e-14


def test_flat_su2_closed_form_values():
    # flat base, A = 0: the fiber bracket alone curves the total space
    spec = su2_algebra(2)
    geom = flat_geometry(spec)
    direct = curvature_direct(assemble_omega(geom))
    closed = ricci_closed_form(geom)
    assert abs(direct.scalar - 1.5) < 1e-12
    assert abs(closed.scalar - 1.5) < 1e-12
    assert np.allclose(direct.ricci[2:, 2:], 0.5 * np.eye(3), atol=1e-12)
    assert np.allclose(closed.ric_fiber, 0.5 * np.eye(3), atol=1e-12)
    assert np.abs(direct.ricci[:2, :2]).max() < 1e-12
    assert np.abs(direct.ricci[:2, 2:]).max() < 1e-12


def test_flat_su2_einstein_block_is_lambda_term():
    spec = su2_algebra(2)
    geom = flat_geometry(spec)
    res = eym_residuals(ricci_closed_form(geom))
    lam = cosmological_constant(spec)  # 3/4
    assert np.allclose(res.einstein_block, -lam * np.eye(2), atol=1e-12)
    assert res.ym_norm < 1e-14


def test_lambda_scaling_in_einstein_block():
    for scale in (0.5, 2.0):
        spec = su2_algebra(2, k=scale * np.eye(3))
        geom = flat_geometry(spec)
        res = eym_residuals(ricci_closed_form(geom))
        lam = cosmological_constant(spec)
        assert np.allclose(res.einstein_block, -lam * np.eye(2), atol=1e-12)


def test_base_block_embeds_base_curvature():
    # A = 0: the base-base Ricci block reduces to the base Ricci tensor
    spec = su2_algebra(2)
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0"], ["0", "sin(x1)"]])
    gauge = GaugeField.zero(chart, spec.r)
    geom = geometry_at_point(cof, gauge, spec, np.array([1.1, 0.3]))
    direct = curvature_direct(assemble_omega(geom))
    base = base_curvature_from_geometry(geom)
    assert np.abs(direct.ricci[:2, :2] - base.ricci).max() < 1e-12
    assert np.abs(direct.ricci[:2, 2:]).max() < 1e-12  # no mixed block


def test_trace_identities():
    spec = su2_algebra(3)
    rng = np.random.default_rng(2)
    cof, gauge = random_configuration(rng, spec, 3)
    geom = geometry_at_point(cof, gauge, spec, np.array([0.2, -0.1, 0.4]))
    curv = curvature_direct(assemble_omega(geom))
    N = spec.N
    assert abs(curv.scalar - np.trace(curv.ricci)) < 1e-12
    assert abs(np.trace(curv.einstein) - (1 - N / 2) * curv.scalar) < 1e-12


@pytest.mark.parametrize("builder,n", [
    (su2_algebra, 2), (su2_algebra, 3), (su2_algebra, 4),
    (u1_su2_algebra, 2), (u1_su2_algebra, 3),
])
def test_direct_equals_closed_form_analytic(builder, n):
    spec = builder(n)
    rng = np.random.default_rng(100 * n + spec.r)
    for _ in range(3):
        cof, gauge = random_configuration(rng, spec, n)
        point = rng.uniform(-0.5, 0.5, size=n)
        geom = geometry_at_point(cof, gauge, spec, point)
        worst = max(cross_check(*both_routes(geom)).values())
        assert worst < 1e-6


def test_direct_equals_closed_form_fd():
    spec = su2_algebra(2)
    rng = np.random.default_rng(9)
    cof, gauge = random_configuration(rng, spec, 2)
    point = np.array([0.25, -0.35])
    geom = geometry_at_point(cof, gauge, spec, point, deriv_mode="fd",
                             fd_step=1e-3)
    worst = max(cross_check(*both_routes(geom)).values())
    assert worst < 1e-3


def test_ym_block_tracks_gauge_divergence():
    # a single-component abelian gauge field with nonconstant F has a
    # nonzero current block; a constant-F configuration does not
    spec = abelian_algebra(2, 1)
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0"], ["0", "1"]])
    const = GaugeField(chart, [["0", "x1"]])  # F = dx1 /\ dx2
    geom = geometry_at_point(cof, const, spec, np.array([0.3, 0.1]))
    assert eym_residuals(ricci_closed_form(geom)).ym_norm < 1e-12
    quad = GaugeField(chart, [["0", "x1^2"]])  # F = 2 x1 dx1 /\ dx2
    geom = geometry_at_point(cof, quad, spec, np.array([0.3, 0.1]))
    res = eym_residuals(ricci_closed_form(geom))
    assert abs(res.ym_norm - 2.0) < 1e-12  # div F = F^{12}_{,1} = 2
    # the signed block is -d_a F^{a2}: the sign is a convention no norm sees
    assert np.abs(res.ym_block - np.array([[0.0, -2.0]])).max() < 1e-12


@pytest.mark.parametrize("builder,b,k", [
    (su2_algebra, [[2.0, 0.3], [0.3, 1.0]], None),
    (su2_algebra, [[-1.0, 0.0], [0.0, 1.0]], None),
    (u1_su2_algebra, [[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]],
     np.diag([1.5, 0.4, 0.4, 0.4])),
], ids=["non-diagonal", "lorentzian", "u1-su2-fiber-metric"])
def test_invariants_hold_for_a_non_euclidean_base_metric(builder, b, k):
    # the metric blocks reach gamma, the raised F and both curvature routes
    # only through spec.b and spec.k; a mismatch anywhere shows in these
    # residuals, in either derivative mode
    n = len(b)
    spec = builder(n, b=np.array(b), k=k)
    rng = np.random.default_rng(12)
    cof, gauge = random_configuration(rng, spec, n)
    points = rng.uniform(-0.5, 0.5, size=(6, n))
    for deriv_mode, cross_tol in (("analytic", 1e-6), ("fd", 1e-3)):
        geom = geometry_at_point(cof, gauge, spec, points, deriv_mode=deriv_mode)
        conn = assemble_omega(geom)
        assert geom.torsion_residual().max() <= 1e-12
        assert geom.metricity_residual().max() <= 1e-12
        assert conn.torsion_residual().max() <= 1e-12
        assert conn.antisymmetry_residual().max() <= 1e-12
        assert max(np.max(v) for v in cross_check(*both_routes(geom)).values()) <= cross_tol
