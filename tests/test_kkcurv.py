import json

import numpy as np
import pytest

from kkgeom.basegeo import (CoframeField, GaugeField,
                            base_curvature_from_geometry, geometry_at_point)
from kkgeom.cli import EXIT_OK, main
from kkgeom.kkcurv import (assemble_omega, cross_check, curvature_direct,
                           eym_residuals, ricci_closed_form, riemann_direct)
from kkgeom.liealg import (abelian_algebra, cosmological_constant,
                           su2_algebra, u1_su2_algebra)


def flat_geometry(spec, n=2, point=None):
    rows = [["1" if a == mu else "0" for mu in range(n)] for a in range(n)]
    cof = CoframeField(n, rows)
    gauge = GaugeField.zero(n, spec.r)
    point = np.zeros(n) if point is None else point
    return geometry_at_point(cof, gauge, spec, point)


def random_configuration(rng, spec, n):
    """Analytic coframe + gauge with small coefficients (stays nondegenerate)."""
    funcs = ["sin(x{})", "cos(x{})", "x{}^2", "x{}*x{}"]
    def entry(base):
        f = funcs[int(rng.integers(len(funcs)))]
        args = [int(rng.integers(n)) + 1 for _ in range(f.count("{}"))]
        return f"{base} + {0.2 * float(rng.uniform(-1, 1)):.6f}*{f.format(*args)}"
    cof = CoframeField(n, [[entry("1" if a == mu else "0")
                            for mu in range(n)] for a in range(n)])
    gauge = GaugeField(n, [[entry("0") for _ in range(n)]
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


def omega_oracle(conn):
    """Omega^A_{C; D E} of d omega + omega /\\ omega, one einsum per term,
    straight from W, K and dW (the fiber-direction derivatives vanish)."""
    W, K, dW = conn.W, conn.K, conn.dW
    n, N = dW.shape[-1], W.shape[-1]
    d = np.zeros(W.shape + (N,))  # d[A, C, E, D] = d_D W[A, C, E]
    d[..., :n] = dW
    return (np.einsum("...aced->...acde", d) - d
            + np.einsum("...acb,...bde->...acde", W, K)
            + np.einsum("...abd,...bce->...acde", W, W)
            - np.einsum("...abe,...bcd->...acde", W, W))


def test_curvature_antisymmetry():
    # Omega^{AB} + Omega^{BA} = 0 after raising with h
    spec = u1_su2_algebra(2)
    rng = np.random.default_rng(1)
    cof, gauge = random_configuration(rng, spec, 2)
    geom = geometry_at_point(cof, gauge, spec, np.array([0.2, 0.5]))
    up = np.einsum("...axcd,xb->...abcd", riemann_direct(assemble_omega(geom)), spec.h_inv())
    assert np.abs(up + np.swapaxes(up, -4, -3)).max() < 1e-12


ORACLE_CASES = pytest.mark.parametrize("builder,n,b,k", [
    (su2_algebra, 2, None, None),
    (su2_algebra, 3, None, None),
    (u1_su2_algebra, 4, [[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.5, 0.2], [0.1, 0.0, 0.2, 0.8]],
     np.diag([1.5, 0.4, 0.4, 0.4])),
], ids=["su2-n2", "su2-n3", "u1-su2-n4-metric"])


def oracle_geometry(builder, n, b, k, deriv_mode):
    """A random configuration at five points of the algebra ``builder(n, b, k)``."""
    spec = builder(n, b=None if b is None else np.array(b), k=k)
    rng = np.random.default_rng(40 + n)
    cof, gauge = random_configuration(rng, spec, n)
    points = rng.uniform(-0.5, 0.5, size=(5, n))
    return geometry_at_point(cof, gauge, spec, points, deriv_mode=deriv_mode)


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@ORACLE_CASES
def test_riemann_and_ricci_match_the_einsum_oracle(builder, n, b, k, deriv_mode):
    # riemann_direct is the oracle's Omega; curvature_direct, which never
    # forms Omega, is its h^-1 trace
    geom = oracle_geometry(builder, n, b, k, deriv_mode)
    spec = geom.spec
    conn = assemble_omega(geom)
    omega = riemann_direct(conn)
    assert omega.shape == (5,) + (spec.N,) * 4
    assert np.abs(omega - omega_oracle(conn)).max() <= 1e-14
    trace = np.einsum("...axcb,xb->...ac", omega, spec.h_inv())
    curv = curvature_direct(conn)
    assert np.abs(curv.ricci - trace).max() <= 1e-14
    assert np.abs(curv.scalar - np.trace(trace, axis1=-2, axis2=-1)).max() <= 1e-14


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
    cof = CoframeField(2, [["1", "0"], ["0", "sin(x1)"]])
    gauge = GaugeField.zero(2, spec.r)
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
    cof = CoframeField(2, [["1", "0"], ["0", "1"]])
    const = GaugeField(2, [["0", "x1"]])  # F = dx1 /\ dx2
    geom = geometry_at_point(cof, const, spec, np.array([0.3, 0.1]))
    assert eym_residuals(ricci_closed_form(geom)).ym_norm < 1e-12
    quad = GaugeField(2, [["0", "x1^2"]])  # F = 2 x1 dx1 /\ dx2
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


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@ORACLE_CASES
def test_closed_form_matches_the_einsum_oracle(builder, n, b, k, deriv_mode):
    # the closed form's matmul raisings and contractions against the einsum
    # definitions: F_g^{ac} = k_gd F^d_xy b^xa b^yc, its divergence over c, and
    # t4[d, a] = c^g_{al d} A^al_c F_g^{ac}
    geom = oracle_geometry(builder, n, b, k, deriv_mode)
    spec, binv, g = geom.spec, geom.spec.b_inv(), geom.gamma
    cf = spec.fiber_c()
    Fup = np.einsum("gd,...dxy,xa,yc->...gac", spec.k, geom.F, binv, binv)
    div = np.einsum("gd,...dxyc,xa,yc->...ga", spec.k, geom.dF, binv, binv)
    t2 = np.einsum("...abc,...dbc->...da", g, Fup)
    t3 = np.einsum("...cbc,...dab->...da", g, Fup)
    t4 = np.einsum("gxd,...xc,...gac->...da", cf, geom.A, Fup)
    closed = ricci_closed_form(geom)
    base = base_curvature_from_geometry(geom)
    FF = np.einsum("...bac,...bdc->...ad", Fup, geom.F)
    assert np.abs(closed.ric_base - (base.ricci - 0.5 * FF)).max() <= 1e-14
    want = 0.5 * np.swapaxes(div + t2 + t3 - t4, -2, -1)
    assert np.abs(closed.ric_mixed - want).max() <= 1e-14
    cc = np.einsum("abg,bde,ge->ad", cf, cf, spec.k_inv())
    want = 0.25 * np.einsum("...dbc,...abc->...ad", Fup, geom.F) - 0.25 * cc
    assert np.abs(closed.ric_fiber - want).max() <= 1e-14
    # ff and the scalar: ff is the trace of FF; cc is cached, read-only, on the spec
    ff = np.einsum("...abc,...abc->...", Fup, geom.F)
    assert np.abs(closed.scalar - (base.scalar - 0.25 * ff - 0.25 * np.trace(cc))).max() <= 1e-14
    assert np.abs(spec.fiber_cc() - cc).max(initial=0.0) <= 1e-15
    assert spec.fiber_cc() is spec.fiber_cc() and not spec.fiber_cc().flags.writeable


def connection_oracle(geom):
    """W, K and dW of the block connection, each block an einsum (or a copy)
    of its definition; every other block is zero."""
    spec = geom.spec
    n, N = spec.n, spec.N
    cf, binv, k = spec.fiber_c(), spec.b_inv(), spec.k
    batch = geom.point.shape[:-1]
    W, K = np.zeros(batch + (N, N, N)), np.zeros(batch + (N, N, N))
    dW = np.zeros(batch + (N, N, N, n))
    W[..., :n, :n, :n] = geom.gamma
    # the e^gamma coefficient -(1/2) F_gamma^a_b, fiber index lowered with k and
    # first base index raised with b^-1, and omega^a_gamma, its e^b coefficient
    W[..., :n, :n, n:] = -0.5 * np.einsum("xa,gd,...dxb->...abg", binv, k, geom.F)
    W[..., :n, n:, :n] = np.einsum("...abg->...agb", W[..., :n, :n, n:])
    W[..., n:, :n, :n] = -0.5 * np.einsum("...acb->...abc", geom.F)
    W[..., n:, n:, n:] = -0.5 * np.einsum("agb->abg", cf)
    W[..., n:, n:, :n] = np.einsum("abg,...bc->...agc", cf, geom.A)
    dW[..., :n, :n, :n, :] = geom.dgamma
    dW[..., :n, :n, n:, :] = -0.5 * np.einsum("xa,gd,...dxbe->...abge", binv, k, geom.dF)
    dW[..., :n, n:, :n, :] = np.einsum("...abge->...agbe", dW[..., :n, :n, n:, :])
    dW[..., n:, :n, :n, :] = -0.5 * np.einsum("...acbe->...abce", geom.dF)
    dW[..., n:, n:, :n, :] = np.einsum("abg,...bce->...agce", cf, geom.dA)
    K[..., :n, :n, :n] = geom.C
    K[..., n:, :n, :n] = geom.F
    K[..., n:, n:, n:] = cf
    K[..., n:, :n, n:] = -np.einsum("abg,...bc->...acg", cf, geom.A)
    K[..., n:, n:, :n] = np.einsum("abg,...bc->...agc", cf, geom.A)
    return W, K, dW


def antisymmetry_oracle(W, hinv):
    up = np.einsum("...axc,xb->...abc", W, hinv)
    return np.abs(up + np.einsum("...abc->...bac", up)).max(axis=(-3, -2, -1))


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@ORACLE_CASES
def test_connection_matches_the_einsum_oracle(builder, n, b, k, deriv_mode):
    # the matmul assembly of W, K and dW, and the antisymmetry residual,
    # against einsum forms of their definitions
    geom = oracle_geometry(builder, n, b, k, deriv_mode)
    conn = assemble_omega(geom)
    for name, want in zip(("W", "K", "dW"), connection_oracle(geom)):
        got = getattr(conn, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-14, name
    hinv = geom.spec.h_inv()
    assert np.abs(conn.antisymmetry_residual() - antisymmetry_oracle(conn.W, hinv)).max() <= 1e-14
    # a W that is far from antisymmetric after raising, so the residual is O(1)
    bent = conn._replace(W=conn.W + np.random.default_rng(3).normal(size=conn.W.shape))
    want = antisymmetry_oracle(bent.W, hinv)
    assert want.min() > 0.1
    assert np.abs(bent.antisymmetry_residual() - want).max() <= 1e-14


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_curvature_command_runs_without_einsum(tmp_path, monkeypatch, deriv_mode):
    # the curvature pipeline (geometry, assembly, both routes, residuals) is
    # matmuls only: the command succeeds with numpy.einsum unavailable
    def no_einsum(*args, **kwargs):
        raise AssertionError("numpy.einsum called on the curvature path")

    problem = {
        "algebra": {"builtin": "u1_su2", "n": 3},
        "fields": {
            "chart": {"n": 3},
            "coframe": [["1 + 0.1*x2^2", "0.1*x1", "0"], ["0", "1 + 0.2*sin(x1)", "0"],
                        ["0.1*x3", "0", "exp(0.1*x1)"]],
            "gauge": [["0.3*x2", "0.1*x1", "0"], ["0.1*x1*x2", "0.2*sin(x2)", "0.1*x3"],
                      ["0.1*x2^2", "0", "0.2*x1"], ["0", "0.1*cos(x3)", "0.3*x2"]],
            "lattice": {"min": [-0.5, -0.5, -0.5], "max": [0.5, 0.5, 0.5], "steps": [2, 2, 3]},
            "deriv_mode": deriv_mode,
        },
    }
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    monkeypatch.setattr(np, "einsum", no_einsum)
    assert main(["curvature", "--input", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["summary"]["points"] == 12
