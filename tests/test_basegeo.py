import dataclasses
import math

import numpy as np
import pytest

from kkgeom.basegeo import (ChartSpec, CoframeField, GaugeField, _fd_gradient,
                            _fd_stencil, base_curvature_from_geometry,
                            geometry_at_point, load_fields)
from kkgeom.errors import DegenerateCoframeError, StructuralError
from kkgeom.fieldexpr import FieldProvider
from kkgeom.kkcurv import assemble_omega
from kkgeom.liealg import abelian_algebra, su2_algebra, u1_su2_algebra


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
    return geometry_at_point(cof, None, abelian_algebra(cof.n, 0), point)


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
        geometry_at_point(cof, None, abelian_algebra(3, 0), np.array([1.0, 0.2]))


def test_levi_civita_unique():
    # perturbing the connection breaks torsion or metricity
    rng = np.random.default_rng(1)
    cof = random_coframe(rng, 3)
    spec = abelian_algebra(3, 0)
    geom = geometry_at_point(cof, None, spec, np.array([0.2, 0.4, -0.1]))
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
            geom = geometry_at_point(cof, None, spec, point)
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


def test_analytic_and_fd_modes_agree():
    rng = np.random.default_rng(3)
    cof = random_coframe(rng, 3)
    spec = su2_algebra(3)
    gauge = GaugeField(spec, cof.chart,
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
    ga = geometry_at_point(cof, None, spec, points)
    gf = geometry_at_point(cof, None, spec, points, deriv_mode="fd")
    for name in ("A", "dA", "F", "dF"):
        assert getattr(gf, name).shape == getattr(ga, name).shape
        assert getattr(gf, name).size == 0
    for name in ("dC", "dgamma"):
        assert np.abs(getattr(ga, name) - getattr(gf, name)).max(initial=0.0) < 1e-6


def fd_problem():
    rng = np.random.default_rng(5)
    cof = random_coframe(rng, 3)
    spec = su2_algebra(3)
    gauge = GaugeField(spec, cof.chart,
                       [["0.3*x2", "0.1*x1^2", "0"],
                        ["0.1*x3", "0.2*sin(x2)", "0.1*x1"],
                        ["0", "0.05*x1*x2", "0.1*x2"]])
    return cof, gauge, spec, rng.uniform(-0.4, 0.4, size=(5, 3))


def test_fd_mode_evaluates_no_second_partials(monkeypatch):
    cof, gauge, spec, points = fd_problem()

    def forbidden(self, *args):
        raise AssertionError("fd mode evaluated a second partial")

    monkeypatch.setattr(FieldProvider, "partial2", forbidden)
    geom = geometry_at_point(cof, gauge, spec, points, deriv_mode="fd")
    assert geom.dF.shape == (5, 3, 3, 3, 3)
    with pytest.raises(AssertionError, match="second partial"):
        geometry_at_point(cof, gauge, spec, points)


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
        gauge = GaugeField(spec, chart, entries)
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
    gauge = GaugeField(spec, chart, [["0", "x1"]])
    geom = geometry_at_point(cof, gauge, spec, np.array([0.7, 0.1]))
    assert abs(geom.F[0, 0, 1] - 1.0) < 1e-14
    # constant F has vanishing derivatives: the connection's field-strength
    # blocks (all of dW here, flat frame and abelian fiber) stay constant
    assert np.abs(assemble_omega(geom, spec).dW).max() < 1e-12


def test_bianchi_identity_fd():
    # cyclic sum of D_lambda F_{mu nu} vanishes; derivatives by FD of the
    # coordinate-oracle field strength
    spec = su2_algebra(3)
    chart = ChartSpec(3)
    gauge = GaugeField(spec, chart,
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
    gauge = GaugeField(spec, chart, [["0", "x1"], ["0", "0"], ["0", "0"]])
    geom = geometry_at_point(cof, gauge, spec, np.array([0.2, 0.3]))
    # the connection's e^gamma coefficients omega^a_c = -(1/2) F_gamma^a_c, with
    # c raised by h as well, are -(1/2) F_gamma^{ac}: both-up components carry
    # two inverse-metric factors of 1/2
    W_up = np.einsum("axc,xb->abc", assemble_omega(geom, spec).W, spec.h_inv())
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
