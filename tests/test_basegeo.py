import dataclasses
import itertools
import math

import numpy as np
import pytest

from kkgeom import fieldexpr
from kkgeom.basegeo import (ChartSpec, CoframeField, GaugeField, _d_frame_2form,
                            _fd_gradient, _fd_stencil, _frame_2form, _gamma_from_C,
                            _ProviderMatrix, _quadratic, base_curvature_from_geometry,
                            geometry_at_point, load_fields)
from kkgeom.errors import (DegenerateCoframeError, EvalDomainError, NonFiniteGeometryError,
                           StructuralError)
from kkgeom.fieldexpr import FieldProvider, Num
from kkgeom.kkcurv import assemble_omega
from kkgeom.liealg import LieAlgebraSpec, abelian_algebra, su2_algebra, u1_su2_algebra


def sphere_coframe(radius="1"):
    chart = ChartSpec(2)
    return CoframeField(chart, [[radius, "0"], ["0", f"{radius}*sin(x1)"]])


def random_coframe(rng, n):
    """A perturbed-identity analytic coframe, safely nondegenerate."""
    funcs = ["sin(x{})", "cos(x{})", "x{}^2", "x{}"]
    entries = []
    for a in range(n):
        row = []
        for mu in range(n):
            f = funcs[int(rng.integers(len(funcs)))].format(int(rng.integers(n)) + 1)
            coef = 0.2 * float(rng.uniform(-1, 1))
            base = "1" if a == mu else "0"
            row.append(f"{base} + {coef}*{f}")
        entries.append(row)
    return CoframeField(ChartSpec(n), entries)


def base_geometry(cof, point):
    """The frame geometry of ``cof`` with the Euclidean base metric, no gauge."""
    spec = abelian_algebra(cof.n, 0)
    return geometry_at_point(cof, GaugeField.zero(cof.chart, 0), spec, point)


# ---------------------------------------------------------------------------


def test_frame_matrix_identity_coframe():
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0"], ["0", "1"]])
    geom = base_geometry(cof, np.array([0.3, 0.7]))
    assert np.allclose(geom.E, np.eye(2))
    assert np.allclose(geom.E_inv, np.eye(2))


def test_sphere_frame_at_equator_and_pole():
    cof = sphere_coframe()
    geom = base_geometry(cof, np.array([math.pi / 2, 0.2]))
    assert np.allclose(geom.E, np.eye(2), atol=1e-12)
    with pytest.raises(DegenerateCoframeError):
        base_geometry(cof, np.array([0.0, 0.2]))


def test_degeneracy_check_is_scale_free_and_does_not_overflow():
    # |det e| against max|e|^n would overflow here; the test compares the
    # determinant of e / max|e| instead (pytest turns any warning into an error)
    point = np.array([0.1, 0.2])
    sheared = CoframeField(ChartSpec(2), [["1", "1e160*x1^2"], ["0", "1"]])
    with pytest.raises(DegenerateCoframeError) as info:
        base_geometry(sheared, point)  # det e = 1, but e is ill-conditioned
    assert info.value.det < 1e-300
    assert "det(e / max|e|) = 1.000e-316" in str(info.value)
    huge = CoframeField(ChartSpec(2), [["1e200", "0"], ["0", "1e200"]])
    geom = base_geometry(huge, point)
    assert np.array_equal(geom.E_inv, 1e-200 * np.eye(2))


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_overflowing_geometry_names_the_first_point(deriv_mode):
    # e = x1 I is well conditioned everywhere, but at x1 = 1e-200 the frame
    # 2-forms E^-T X E^-1 overflow; the error names that point and the
    # arrays, and no numpy warning escapes (pytest turns one into an error)
    spec = su2_algebra(2)
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["x1", "0"], ["0", "x1"]])
    gauge = GaugeField(chart, [["x2", "0"], ["0", "x1*x2"], ["1", "x2"]])
    points = np.array([[0.5, 0.2], [1e-200, 0.3], [1e-200, 0.4]])
    with pytest.raises(NonFiniteGeometryError) as info:
        geometry_at_point(cof, gauge, spec, points, deriv_mode=deriv_mode)
    assert info.value.point == (1e-200, 0.3)
    assert "F" in info.value.fields
    assert str(info.value).startswith("frame geometry is not finite at point (1e-200, 0.3) (")
    geometry_at_point(cof, gauge, spec, points[:1], deriv_mode=deriv_mode)


def test_anholonomy_fd_oracle():
    # C^a_bc from the definition: finite-difference the coframe matrix
    rng = np.random.default_rng(0)
    cof = random_coframe(rng, 3)
    point = np.array([0.4, -0.2, 0.7])
    C = base_geometry(cof, point).C
    h = 1e-6
    E = cof.matrix(point)
    Einv = np.linalg.inv(E)
    dE = np.zeros((3, 3, 3))
    for nu in range(3):
        up, dn = point.copy(), point.copy()
        up[nu] += h
        dn[nu] -= h
        dE[:, :, nu] = (cof.matrix(up) - cof.matrix(dn)) / (2 * h)
    T = np.zeros((3, 3, 3))
    for mu in range(3):
        for nu in range(3):
            T[:, mu, nu] = dE[:, nu, mu] - dE[:, mu, nu]
    want = np.einsum("amn,mb,nc->abc", T, Einv, Einv)
    assert np.abs(C - want).max() < 1e-8


def test_levi_civita_sphere_coefficient():
    cof = sphere_coframe()
    x1 = 1.1
    gamma = base_geometry(cof, np.array([x1, 0.5])).gamma
    # gamma^1_{2,2} = -cos(x1)/sin(x1); the lowered tensor is antisymmetric
    assert abs(gamma[0, 1, 1] + math.cos(x1) / math.sin(x1)) < 1e-12
    low = np.einsum("ad,dbc->abc", np.eye(2), gamma)
    assert np.abs(low + np.transpose(low, (1, 0, 2))).max() < 1e-12


def test_geometry_takes_the_base_dimension_from_the_algebra():
    # the base metric comes from the spec alone, so its size must fit the chart
    cof = sphere_coframe()
    with pytest.raises(StructuralError, match="base dimension 3"):
        geometry_at_point(cof, GaugeField.zero(cof.chart, 0), abelian_algebra(3, 0),
                          np.array([1.0, 0.2]))


def test_gauge_rows_must_match_the_algebra():
    # a potential written for su(2) has 3 rows; u(1)+su(2) needs one per fiber direction
    cof = CoframeField(ChartSpec(2), [["1", "0"], ["0", "1"]])
    gauge = GaugeField(cof.chart, [["0.3*x2", "0"], ["0", "x1"], ["0", "0"]])
    for deriv_mode in ("analytic", "fd"):
        with pytest.raises(StructuralError, match="3 rows, the algebra's fiber dimension is 4"):
            geometry_at_point(cof, gauge, u1_su2_algebra(2), np.array([0.1, 0.2]),
                              deriv_mode=deriv_mode)


def test_levi_civita_unique():
    # perturbing the connection breaks torsion or metricity
    rng = np.random.default_rng(1)
    cof = random_coframe(rng, 3)
    spec = abelian_algebra(3, 0)
    geom = geometry_at_point(cof, GaugeField.zero(cof.chart, 0), spec, np.array([0.2, 0.4, -0.1]))
    assert geom.torsion_residual() < 1e-12
    assert geom.metricity_residual() < 1e-12
    bent = dataclasses.replace(geom, gamma=geom.gamma + 1e-3 * rng.normal(size=geom.gamma.shape))
    assert bent.torsion_residual() + bent.metricity_residual() > 1e-4


def test_residuals_on_random_coframes():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        for _ in range(5):
            cof = random_coframe(rng, n)
            point = rng.uniform(-0.5, 0.5, size=n)
            spec = abelian_algebra(n, 0)
            geom = geometry_at_point(cof, GaugeField.zero(cof.chart, 0), spec, point)
            assert geom.torsion_residual() <= 1e-10
            assert geom.metricity_residual() <= 1e-10


def test_sphere_scalar_curvature():
    cof = sphere_coframe()
    for x1 in np.linspace(0.4, math.pi - 0.4, 7):
        curv = base_curvature_from_geometry(base_geometry(cof, np.array([x1, 0.3])))
        assert abs(curv.scalar - 2.0) < 1e-8
        assert np.abs(curv.einstein).max() < 1e-8


def test_sphere_radius_scaling():
    # R = 2 / radius^2
    cof = sphere_coframe(radius="3")
    curv = base_curvature_from_geometry(base_geometry(cof, np.array([1.0, 0.2])))
    assert abs(curv.scalar - 2.0 / 9.0) < 1e-10


def test_product_flat_times_sphere():
    chart = ChartSpec(4)
    entries = [["1", "0", "0", "0"],
               ["0", "1", "0", "0"],
               ["0", "0", "1", "0"],
               ["0", "0", "0", "sin(x3)"]]
    cof = CoframeField(chart, entries)
    curv = base_curvature_from_geometry(base_geometry(cof, np.array([0.1, 0.2, 1.0, 0.4])))
    assert abs(curv.scalar - 2.0) < 1e-10
    assert np.allclose(np.diag(curv.ricci), [0, 0, 1, 1], atol=1e-10)


def riemann_oracle(geom):
    """Base curvature components R[a, c, d, e] of the 2-form
    d gamma + gamma /\\ gamma, term by term as in the definition."""
    g, dg, C = geom.gamma, geom.dgamma, geom.C
    return (
        np.swapaxes(dg, -2, -1)
        - dg
        + np.einsum("...acf,...fde->...acde", g, C)
        + np.einsum("...afd,...fce->...acde", g, g)
        - np.einsum("...afe,...fcd->...acde", g, g)
    )


# a non-diagonal base metric on each chart dimension, positive definite
NON_DIAGONAL_B = {2: [[1.5, 0.3], [0.3, 0.8]],
                  3: [[1.2, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 1.4]],
                  4: [[1.3, 0.2, 0.0, -0.2], [0.2, 1.0, 0.1, 0.0],
                      [0.0, 0.1, 0.7, 0.25], [-0.2, 0.0, 0.25, 1.1]]}


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_base_curvature_matches_the_riemann_oracle(n, deriv_mode):
    # b^-1 is contracted into each term without forming R; the oracle forms
    # R and then contracts it, over a batch of points with a non-diagonal b
    rng = np.random.default_rng(10 + n)
    cof = random_coframe(rng, n)
    spec = abelian_algebra(n, 0, b=np.array(NON_DIAGONAL_B[n]))
    points = rng.uniform(-0.4, 0.4, size=(3, n))
    geom = geometry_at_point(cof, GaugeField.zero(cof.chart, 0), spec, points,
                             deriv_mode=deriv_mode)
    curv = base_curvature_from_geometry(geom)
    ric = np.einsum("...acde,ce->...ad", riemann_oracle(geom), spec.b_inv())
    scalar = np.trace(ric, axis1=-2, axis2=-1)
    assert curv.ricci.shape == (3, n, n)
    assert np.abs(curv.ricci - ric).max() <= 1e-14
    assert np.abs(curv.scalar - scalar).max() <= 1e-14
    assert np.abs(curv.einstein - (ric - 0.5 * scalar[:, None, None] * np.eye(n))).max() <= 1e-14


def test_analytic_and_fd_modes_agree():
    rng = np.random.default_rng(3)
    cof = random_coframe(rng, 3)
    spec = su2_algebra(3)
    gauge = GaugeField(cof.chart,
                       [["0.3*x2", "0.1*x1^2", "0"],
                        ["0.1*x3", "0.2*sin(x2)", "0.1*x1"],
                        ["0", "0.05*x1*x2", "0.1*x2"]])
    point = np.array([0.3, -0.2, 0.5])
    ga = geometry_at_point(cof, gauge, spec, point, deriv_mode="analytic")
    gf = geometry_at_point(cof, gauge, spec, point, deriv_mode="fd", fd_step=1e-3)
    for name in ("C", "gamma", "A", "F"):
        assert np.abs(getattr(ga, name) - getattr(gf, name)).max() < 1e-9
    for name in ("dC", "dgamma", "dA", "dF"):
        assert np.abs(getattr(ga, name) - getattr(gf, name)).max() < 1e-6


@pytest.mark.parametrize("points", [np.array([0.3, -0.2, 0.5]), np.zeros((0, 3)),
                                    np.array([[0.3, -0.2, 0.5], [0.1, 0.2, -0.4]])])
def test_fd_mode_without_fiber(points):
    # r = 0: A and F are empty arrays, and the stencil must still difference them
    cof = random_coframe(np.random.default_rng(4), 3)
    spec = abelian_algebra(3, 0)
    no_gauge = GaugeField.zero(cof.chart, 0)
    ga = geometry_at_point(cof, no_gauge, spec, points)
    gf = geometry_at_point(cof, no_gauge, spec, points, deriv_mode="fd")
    for name in ("A", "dA", "F", "dF"):
        assert getattr(gf, name).shape == getattr(ga, name).shape
        assert getattr(gf, name).size == 0
    for name in ("dC", "dgamma"):
        assert np.abs(getattr(ga, name) - getattr(gf, name)).max(initial=0.0) < 1e-6


def fd_problem():
    rng = np.random.default_rng(5)
    cof = random_coframe(rng, 3)
    spec = su2_algebra(3)
    gauge = GaugeField(cof.chart,
                       [["0.3*x2", "0.1*x1^2", "0"],
                        ["0.1*x3", "0.2*sin(x2)", "0.1*x1"],
                        ["0", "0.05*x1*x2", "0.1*x2"]])
    return cof, gauge, spec, rng.uniform(-0.4, 0.4, size=(5, 3))


def test_fd_mode_evaluates_no_second_partials(monkeypatch):
    # second partials come only from the order-2 fill: the fd route never
    # asks for it, the analytic route asks once per provider matrix
    cof, gauge, spec, points = fd_problem()
    orders = []
    fill = _ProviderMatrix._fill

    def recording(self, point, order, fd_step=None):
        orders.append(order)
        return fill(self, point, order, fd_step)

    monkeypatch.setattr(_ProviderMatrix, "_fill", recording)
    geom = geometry_at_point(cof, gauge, spec, points, deriv_mode="fd")
    assert geom.dF.shape == (5, 3, 3, 3, 3)
    assert sorted(orders) == [0, 0, 1, 1]
    orders.clear()
    geometry_at_point(cof, gauge, spec, points)
    assert sorted(orders) == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_geometry_is_frozen(deriv_mode):
    cof, gauge, spec, points = fd_problem()
    geom = geometry_at_point(cof, gauge, spec, points, deriv_mode=deriv_mode)
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.dgamma = np.zeros_like(geom.dgamma)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_fd_stencil_differentiates_a_quartic_exactly(dim):
    # the fourth-order stencil's error term is a fifth derivative
    rng = np.random.default_rng(dim)
    a, b, c = rng.uniform(-1, 1, size=(3, dim))

    def quartic(x):  # x[..., dim]
        return (x @ a) ** 4 + (x @ b) ** 3 * (x @ c) + 2.0 * (x @ c) ** 2 - x @ b

    def gradient(x):
        xa, xb, xc = (x @ v[:, None] for v in (a, b, c))  # (..., 1)
        return (4.0 * xa**3 * a + 3.0 * xb**2 * xc * b + xb**3 * c + 4.0 * xc * c - b)

    h = 0.05
    points = rng.uniform(-1, 1, size=(6, dim))
    rows = points[:, None, :] + _fd_stencil(dim, h)
    assert rows.shape == (6, 1 + 4 * dim, dim)
    assert np.array_equal(rows[:, 0], points)
    got = _fd_gradient(quartic(rows), 1, h)
    assert np.abs(got - gradient(points)).max() < 1e-10


def coordinate_field_strength(spec, gauge, point):
    """Independent oracle: F^alpha_{mu nu} straight from the definition,
    using the providers' own exact partials."""
    r, n = spec.r, gauge.chart.n
    A = gauge.matrix(point)
    dA = gauge.d_matrix(point)  # dA[alpha, mu, nu] = d_nu A^alpha_mu
    cf = spec.fiber_c()
    F = np.zeros((r, n, n))
    for al in range(r):
        for mu in range(n):
            for nu in range(n):
                F[al, mu, nu] = dA[al, nu, mu] - dA[al, mu, nu]
                for be in range(r):
                    for ga in range(r):
                        F[al, mu, nu] += cf[al, be, ga] * A[be, mu] * A[ga, nu]
    return F


def test_field_strength_against_coordinate_oracle():
    rng = np.random.default_rng(4)
    for spec in (su2_algebra(2), u1_su2_algebra(2)):
        chart = ChartSpec(2)
        cof = CoframeField(chart, [["1+0.1*x2^2", "0.1*x1"],
                                   ["0", "1+0.2*sin(x1)"]])
        entries = [[f"{0.3 * float(rng.uniform(-1, 1)):.3f}*x1*x2",
                    f"{0.3 * float(rng.uniform(-1, 1)):.3f}*sin(x{1 + al % 2})"]
                   for al in range(spec.r)]
        gauge = GaugeField(chart, entries)
        point = np.array([0.6, -0.4])
        geom = geometry_at_point(cof, gauge, spec, point)
        Fc = np.einsum("abc,bm,cn->amn", geom.F, geom.E, geom.E)
        want = coordinate_field_strength(spec, gauge, point)
        assert np.abs(Fc - want).max() < 1e-11
        assert np.abs(geom.F + np.swapaxes(geom.F, 1, 2)).max() < 1e-12


def test_abelian_field_strength_example():
    # A^1 = x1 dx2 gives F^1_{12} = 1
    spec = abelian_algebra(2, 1)
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0"], ["0", "1"]])
    gauge = GaugeField(chart, [["0", "x1"]])
    geom = geometry_at_point(cof, gauge, spec, np.array([0.7, 0.1]))
    assert abs(geom.F[0, 0, 1] - 1.0) < 1e-14
    # constant F has vanishing derivatives: the connection's field-strength
    # blocks (all of dW here, flat frame and abelian fiber) stay constant
    assert np.abs(assemble_omega(geom).dW).max() < 1e-12


def test_bianchi_identity_fd():
    # cyclic sum of D_lambda F_{mu nu} vanishes; derivatives by FD of the
    # coordinate-oracle field strength
    spec = su2_algebra(3)
    chart = ChartSpec(3)
    gauge = GaugeField(chart,
                       [["0.3*x2", "0.1*x1^2", "0.2*x3"],
                        ["0.1*x3", "0.2*sin(x2)", "0"],
                        ["0.05*x1*x2", "0", "0.1*x2"]])
    point = np.array([0.4, -0.3, 0.6])
    cf = spec.fiber_c()
    h = 1e-5
    dF = np.zeros((3, 3, 3, 3))  # dF[al, mu, nu, lam]
    for lam in range(3):
        up, dn = point.copy(), point.copy()
        up[lam] += h
        dn[lam] -= h
        dF[:, :, :, lam] = (coordinate_field_strength(spec, gauge, up)
                            - coordinate_field_strength(spec, gauge, dn)) / (2 * h)
    A = gauge.matrix(point)
    F = coordinate_field_strength(spec, gauge, point)
    covar = dF + np.einsum("abg,bl,gmn->amnl", cf, A, F)
    cyc = (covar
           + np.transpose(covar, (0, 3, 1, 2))
           + np.transpose(covar, (0, 2, 3, 1)))
    assert np.abs(cyc).max() < 1e-6


def test_geometry_f_raising_consistency():
    spec = su2_algebra(2, b=2.0 * np.eye(2))
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0"], ["0", "1"]])
    gauge = GaugeField(chart, [["0", "x1"], ["0", "0"], ["0", "0"]])
    geom = geometry_at_point(cof, gauge, spec, np.array([0.2, 0.3]))
    # the connection's e^gamma coefficients omega^a_c = -(1/2) F_gamma^a_c, with
    # c raised by h as well, are -(1/2) F_gamma^{ac}: both-up components carry
    # two inverse-metric factors of 1/2
    W_up = np.einsum("axc,xb->abc", assemble_omega(geom).W, spec.h_inv())
    assert abs(-2.0 * W_up[0, 1, 2] - geom.F[0, 0, 1] * 0.25) < 1e-14


def test_chart_validation():
    with pytest.raises(StructuralError):
        ChartSpec(1)


def test_load_fields_lattice_sorted():
    spec = su2_algebra(2)
    data = {
        "chart": {"n": 2},
        "gauge": [["0", "x1"], ["0", "0"], ["0", "0"]],
        "lattice": {"min": [0, 0], "max": [1, 1], "steps": [3, 2]},
    }
    chart, coframe, gauge, points = load_fields(data, spec)
    assert len(points) == 6
    assert [tuple(p) for p in points] == sorted(tuple(p) for p in points)
    # default coframe is the identity
    assert np.allclose(coframe.matrix(points[0]), np.eye(2))


def test_load_fields_params():
    spec = abelian_algebra(2, 1)
    data = {
        "chart": {"n": 2},
        "coframe": [["1", "0"], ["0", "1"]],
        "gauge": [["0", "q*x1"]],
        "params": {"q": 2.5},
        "points": [[0.3, 0.4]],
    }
    _, coframe, gauge, points = load_fields(data, spec)
    assert gauge.matrix(points[0])[0, 1] == 2.5 * 0.3


# ---------------------------------------------------------------------------
# The batched matmul kernels against the einsum formulas they re-associate.
# These oracles are the contractions as the geometry wrote them before; the
# kernels must agree with them to rounding, for any algebra the input format
# accepts (c need not be antisymmetric), any chart size and any batch.


def einsum_frame_2form(X, Einv):
    return np.einsum("...amn,...mb,...nc->...abc", X, Einv, Einv)


def einsum_d_frame_2form(X, dX, Einv, dEinv):
    """dX[..., a, mu, nu, rho] and dEinv[..., mu, b, rho], rho last."""
    return (np.einsum("...amnr,...mb,...nc->...abcr", dX, Einv, Einv)
            + np.einsum("...amn,...mbr,...nc->...abcr", X, dEinv, Einv)
            + np.einsum("...amn,...mb,...ncr->...abcr", X, Einv, dEinv))


def einsum_gamma_from_C(C, b, binv):
    Cl = np.einsum("ad,...dbc->...abc", b, C)
    gl = 0.5 * (Cl + np.moveaxis(Cl, -1, -3) - np.moveaxis(Cl, -3, -1))
    return np.einsum("ad,...dbc->...abc", binv, gl)


def einsum_geometry(cof, gauge, spec, point):
    """The analytic frame geometry, every contraction an einsum."""
    E, dE, d2E = cof.matrix(point), cof.d_matrix(point), cof.d2_matrix(point)
    Am, dAm, d2Am = gauge.matrix(point), gauge.d_matrix(point), gauge.d2_matrix(point)
    cf, b = spec.fiber_c(), spec.b
    binv, Einv = np.linalg.inv(b), np.linalg.inv(E)
    T = np.swapaxes(dE, -2, -1) - dE
    Fc = (np.swapaxes(dAm, -2, -1) - dAm
          + np.einsum("abg,...bm,...gn->...amn", cf, Am, Am))
    dEinv = -np.einsum("...mx,...xyr,...ya->...mar", Einv, dE, Einv)
    dT = np.swapaxes(d2E, -3, -2) - d2E
    dA = (np.einsum("...amr,...mb->...abr", dAm, Einv)
          + np.einsum("...am,...mbr->...abr", Am, dEinv))
    dFc = (np.swapaxes(d2Am, -3, -2) - d2Am
           + np.einsum("abg,...bmr,...gn->...amnr", cf, dAm, Am)
           + np.einsum("abg,...bm,...gnr->...amnr", cf, Am, dAm))
    C = einsum_frame_2form(T, Einv)
    dC = np.einsum("...abcr,...rd->...abcd", einsum_d_frame_2form(T, dT, Einv, dEinv), Einv)
    return {
        "E": E, "E_inv": Einv, "C": C, "gamma": einsum_gamma_from_C(C, b, binv),
        "A": np.einsum("...am,...mb->...ab", Am, Einv), "F": einsum_frame_2form(Fc, Einv),
        "dC": dC,
        "dgamma": np.moveaxis(einsum_gamma_from_C(np.moveaxis(dC, -1, 0), b, binv), 0, -1),
        "dA": np.einsum("...abr,...rd->...abd", dA, Einv),
        "dF": np.einsum("...abcr,...rd->...abcd",
                        einsum_d_frame_2form(Fc, dFc, Einv, dEinv), Einv),
    }


BATCHES = [(), (0,), (4,)]  # one point, an empty batch, a block


def random_inline_spec(rng, n, r):
    """An inline algebra with random, not antisymmetric, structure constants
    and a non-diagonal base metric."""
    N = n + r
    b = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    return LieAlgebraSpec(n, r, 0.5 * rng.normal(size=(N, N, N)), b @ b.T, 2.0 * np.eye(r))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_matmul_kernels_match_einsum(n, r):
    rng = np.random.default_rng(10 * n + r)
    c = rng.normal(size=(r, r, r))
    b = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    binv = np.linalg.inv(b)
    for batch in BATCHES:
        Einv = np.eye(n) + 0.2 * rng.normal(size=batch + (n, n))
        dEinv = rng.normal(size=batch + (n, n, n))  # [mu, a, rho]
        A = rng.normal(size=batch + (r, n))
        dA = rng.normal(size=batch + (r, n, n))  # [al, mu, rho]
        for X in (rng.normal(size=batch + (n, n, n)), rng.normal(size=batch + (r, n, n))):
            dX = rng.normal(size=X.shape + (n,))
            assert np.abs(_frame_2form(X, Einv) - einsum_frame_2form(X, Einv)).max(
                initial=0.0) < 1e-13
            got = np.moveaxis(_d_frame_2form(X, np.moveaxis(dX, -1, -4), Einv,
                                             np.moveaxis(dEinv, -1, -3)), -4, -1)
            assert got.shape == dX.shape
            assert np.abs(got - einsum_d_frame_2form(X, dX, Einv, dEinv)).max(
                initial=0.0) < 1e-13
        C = rng.normal(size=batch + (n, n, n))
        assert np.abs(_gamma_from_C(C, b, binv) - einsum_gamma_from_C(C, b, binv)).max(
            initial=0.0) < 1e-13
        quad = _quadratic(c, A, A)
        assert quad.shape == batch + (r, n, n)
        assert np.abs(quad - np.einsum("abg,...bm,...gn->...amn", c, A, A)).max(
            initial=0.0) < 1e-13
        dA_r = np.moveaxis(dA, -1, -3)
        for got, want in ((_quadratic(c, dA_r, A[..., None, :, :]),
                           np.einsum("abg,...bmr,...gn->...amnr", c, dA, A)),
                          (_quadratic(c, A[..., None, :, :], dA_r),
                           np.einsum("abg,...bm,...gnr->...amnr", c, A, dA))):
            assert np.abs(np.moveaxis(got, -4, -1) - want).max(initial=0.0) < 1e-13


def random_gauge(rng, spec, chart):
    funcs = ["sin(x{})", "x{}*x{}", "cos(x{})", "x{}"]
    n = chart.n
    entries = [[f"{0.3 * float(rng.uniform(-1, 1)):.4f}*"
                + funcs[int(rng.integers(len(funcs)))].format(*rng.integers(1, n + 1, size=2))
                if rng.uniform() < 0.7 else "0" for _ in range(n)] for _ in range(spec.r)]
    return GaugeField(chart, entries)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_geometry_matches_einsum_formulas(n, r):
    rng = np.random.default_rng(100 + 10 * n + r)
    cof = random_coframe(rng, n)
    spec = random_inline_spec(rng, n, r)
    gauge = random_gauge(rng, spec, cof.chart)
    for batch in BATCHES:
        point = rng.uniform(-0.5, 0.5, size=batch + (n,))
        geom = geometry_at_point(cof, gauge, spec, point)
        for name, want in einsum_geometry(cof, gauge, spec, point).items():
            got = getattr(geom, name)
            assert got.shape == want.shape, name
            assert np.abs(got - want).max(initial=0.0) < 1e-13, name


# ---------------------------------------------------------------------------
# The fused provider fill


def fill_problem():
    """A 3 x 3 coframe with literal entries, a parameter-only entry and
    parametrised expressions, as a field file would give it."""
    params = {"q": 1.5, "w": -0.25}
    rows = [["1 + q*x1", "0", "2.5"],
            ["w", "sin(x2)*x3^2", "exp(w*x1)"],
            ["x2", "q*x1*x2*x3 - x3", "1"]]
    chart = ChartSpec(3)
    return CoframeField(chart, [[FieldProvider(e, n=3, params=params) for e in row]
                                for row in rows])


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("batch", [(), (0,), (4,), (2, 5)])
def test_fused_fill_equals_per_entry_provider_calls(order, batch):
    cof = fill_problem()
    point = np.random.default_rng(order).uniform(-1, 1, size=batch + (3,))
    want = np.empty(batch + (3, 3) + (3,) * order)
    for a, row in enumerate(cof.entries):
        for mu, p in enumerate(row):
            for nus in itertools.product(range(3), repeat=order):
                method = (p.evaluate, p.partial, p.partial2)[order]
                want[(..., a, mu) + nus] = method(*nus, point)
    got = cof._fill(point, order)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


SQRT_X1 = [["1 + sqrt(x1)", "0"], ["0", "1"]]
SQRT_X2 = [["1", "0"], ["0", "1 + sqrt(x2)"]]


@pytest.mark.parametrize("deriv_mode,coframe,points,message", [
    # the value holds at x1 = 0 and its partial does not; in fd mode the
    # stencil leaves the domain first
    ("analytic", SQRT_X1, [[0.5, 0.1], [0.0, 0.25], [0.2, 0.3]],
     "coframe[0][0] = 1+sqrt(x1) at point [0.0, 0.25]: 0.5/sqrt(x1): "
     "divide by zero encountered in divide"),
    ("fd", SQRT_X1, [[0.5, 0.1], [0.0, 0.25], [0.2, 0.3]],
     "coframe[0][0] = 1+sqrt(x1) at point [0.0, 0.25]: fails on its fd stencil row "
     "[-0.002, 0.25] (fd_step 0.001): 1+sqrt(x1): invalid value encountered in sqrt"),
    # the value fails at the input point itself: no stencil row is named
    ("analytic", SQRT_X1, [[0.5, 0.1], [-0.1, 0.25]],
     "coframe[0][0] = 1+sqrt(x1) at point [-0.1, 0.25]: 1+sqrt(x1): "
     "invalid value encountered in sqrt"),
    ("fd", SQRT_X1, [[0.5, 0.1], [-0.1, 0.25]],
     "coframe[0][0] = 1+sqrt(x1) at point [-0.1, 0.25]: 1+sqrt(x1): "
     "invalid value encountered in sqrt"),
    # a later entry and its partial in the second direction
    ("analytic", SQRT_X2, [[0.5, 0.1], [0.25, 0.0]],
     "coframe[1][1] = 1+sqrt(x2) at point [0.25, 0.0]: 0.5/sqrt(x2): "
     "divide by zero encountered in divide"),
    ("fd", SQRT_X2, [[0.5, 0.1], [0.25, 0.0]],
     "coframe[1][1] = 1+sqrt(x2) at point [0.25, 0.0]: fails on its fd stencil row "
     "[0.25, -0.002] (fd_step 0.001): 1+sqrt(x2): invalid value encountered in sqrt"),
], ids=["analytic", "fd", "analytic-value", "fd-value", "analytic-second-entry",
        "fd-second-entry"])
def test_domain_error_message_in_both_modes(deriv_mode, coframe, points, message):
    cof = CoframeField(ChartSpec(2), coframe)
    gauge = GaugeField.zero(cof.chart, 3)
    with pytest.raises(EvalDomainError) as info:
        geometry_at_point(cof, gauge, su2_algebra(2), np.array(points), deriv_mode=deriv_mode)
    assert str(info.value) == message


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_fill_calls_each_closure_once_per_block(monkeypatch, deriv_mode):
    # one closure call per non-literal entry and distinct partial per block,
    # none for literal trees, and no per-entry evaluation
    calls, literal = {}, {}
    compiled = FieldProvider.compiled

    def counting(self, multi):
        node, fn = compiled(self, multi)
        key = (id(self), multi)
        literal[key] = isinstance(node, Num)

        def counted(point):
            calls[key] = calls.get(key, 0) + 1
            return fn(point)
        return node, counted

    def per_entry(*args):
        raise AssertionError("a block evaluated its providers one entry at a time")

    monkeypatch.setattr(FieldProvider, "compiled", counting)
    monkeypatch.setattr(fieldexpr, "_run", per_entry)
    cof = fill_problem()
    spec = su2_algebra(3)
    gauge = GaugeField(cof.chart, [["0.3*x2", "0", "0.1*x1^2"],
                                   ["0", "0.2*sin(x3)", "0"],
                                   ["0.05*x1*x2", "0", "0.1"]])
    points = np.random.default_rng(7).uniform(0.1, 0.5, size=(6, 3))
    for block in (points[:3], points[3:]):
        geometry_at_point(cof, gauge, spec, block, deriv_mode=deriv_mode)
    orders = {len(multi) for _, multi in literal}
    assert orders == ({0, 1, 2} if deriv_mode == "analytic" else {0, 1})
    assert any(literal.values()) and not all(literal.values())
    assert {key: calls.get(key, 0) for key in literal} == {
        key: 0 if is_literal else 2 for key, is_literal in literal.items()}
