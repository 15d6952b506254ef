"""Acceptance gate: the ten headline guarantees, each with its stated
tolerance and runtime budget.  Every test prints a one-line pass report so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist."""

import itertools
import json
import time
import zlib

import numpy as np
import pytest
from scipy.linalg import expm

from grammar_corpus import CASES, INVALID, PARAM_VALUES, VALID
from kkgeom.basegeo import (CoframeField, GaugeField,
                            base_curvature_from_geometry, geometry_at_point)
from kkgeom.bundle import PathSpec, adjoint_of, builtin_rep, lift_path
from kkgeom.cli import main as cli_main
from kkgeom.errors import ExprSyntaxError, UnknownIdentifierError
from kkgeom.exterior import check_identities
from kkgeom.fieldexpr import diff, evaluate, parse
from kkgeom.gauge import verify_gauge_covariance
from kkgeom.kkcurv import (assemble_omega, cross_check, curvature_direct,
                           eym_residuals, ricci_closed_form)
from kkgeom.liealg import (LieAlgebraSpec, abelian_algebra,
                           cosmological_constant, su2_algebra, u1_su2_algebra,
                           validate_spec)


def report(name, detail):
    print(f"PASS {name}: {detail}")


def timed(budget):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"
        return elapsed

    return check


def random_coframe(rng, n):
    funcs = ["sin(x{})", "cos(x{})", "x{}^2", "x{}"]
    entries = []
    for a in range(n):
        row = []
        for mu in range(n):
            f = funcs[int(rng.integers(len(funcs)))].format(int(rng.integers(n)) + 1)
            coef = 0.2 * float(rng.uniform(-1, 1))
            row.append(f"{'1' if a == mu else '0'} + {coef}*{f}")
        entries.append(row)
    return CoframeField(n, entries)


def random_configuration(rng, spec, n):
    funcs = ["sin(x{})", "cos(x{})", "x{}^2", "x{}*x{}"]

    def entry(base):
        f = funcs[int(rng.integers(len(funcs)))]
        args = [int(rng.integers(n)) + 1 for _ in range(f.count("{}"))]
        return f"{base} + {0.2 * float(rng.uniform(-1, 1)):.6f}*{f.format(*args)}"

    cof = CoframeField(n, [[entry("1" if a == mu else "0")
                            for mu in range(n)] for a in range(n)])
    gauge = GaugeField(n, [[entry("0") for _ in range(n)] for _ in range(spec.r)])
    return cof, gauge


def flat_geometry(spec, n=2):
    rows = [["1" if a == mu else "0" for mu in range(n)] for a in range(n)]
    cof = CoframeField(n, rows)
    return geometry_at_point(cof, GaugeField.zero(n, spec.r), spec, np.zeros(n))


def worst_cross_check(geom):
    direct = curvature_direct(assemble_omega(geom))
    return max(cross_check(direct, ricci_closed_form(geom)).values())


# ---------------------------------------------------------------------------


def test_01_identity_suite():
    done = timed(10)
    worst = 0.0
    for N in (3, 4, 5):
        worst = max(worst, check_identities(N).max_residual)
    for N in (6, 7, 8):
        worst = max(worst, check_identities(N, trials=500, seed=N).max_residual)
    assert worst <= 1e-12
    report("identity suite", f"N=3..8 max residual {worst:.1e} in {done():.1f}s")


def test_02_hypothesis_validation():
    done = timed(1)
    for builder in (su2_algebra, u1_su2_algebra):
        for n in (2, 3):
            rep = validate_spec(builder(n), tol=1e-12)
            assert rep.passed
    # give [g1, g2] a spurious g2 component (full 0-based indices 3, 4)
    spec = su2_algebra(2)
    c = spec.c.copy()
    c[3, 3, 4] += 0.5
    c[3, 4, 3] -= 0.5
    bad = validate_spec(LieAlgebraSpec(spec.n, spec.r, c, spec.b, spec.k),
                        tol=1e-12)
    failing = [chk for chk in bad.checks if not chk.passed]
    assert failing
    for chk in failing:
        assert all(3 <= i <= 5 for i in chk.worst_indices[:3])
    report("hypothesis validation",
           f"su2/u1_su2 pass at 1e-12; mutation caught by "
           f"{[c.name for c in failing]} in {done():.2f}s")


def test_03_cosmological_constant():
    done = timed(1)
    spec = su2_algebra(2)
    lam = cosmological_constant(spec)
    cf = spec.fiber_c()
    kinv = np.linalg.inv(spec.k)
    brute = 0.0
    for al, be, ga, ep in itertools.product(range(3), repeat=4):
        brute += -0.125 * cf[al, be, ga] * cf[be, al, ep] * kinv[ga, ep]
    assert abs(lam - 0.75) < 1e-14
    assert abs(lam - brute) < 1e-14
    for lam_scale in (0.5, 2.0, 10.0):
        scaled = cosmological_constant(su2_algebra(2, k=lam_scale * np.eye(3)))
        assert abs(scaled - lam / lam_scale) < 1e-14
    report("cosmological constant",
           f"lambda = {lam} vs brute force |diff| < 1e-14; scaling ok "
           f"in {done():.2f}s")


def test_04_levi_civita_contract():
    done = timed(30)
    rng = np.random.default_rng(4)
    worst = 0.0
    count = 0
    for n in (2, 3, 4):
        spec = abelian_algebra(n, 0)
        no_gauge = GaugeField.zero(n, 0)
        for _ in range(17 if n < 4 else 16):
            cof = random_coframe(rng, n)
            point = rng.uniform(-0.5, 0.5, size=n)
            geom = geometry_at_point(cof, no_gauge, spec, point)
            worst = max(worst, geom.torsion_residual(), geom.metricity_residual())
            count += 1
    assert count == 50
    assert worst <= 1e-10
    sphere = CoframeField(2, [["1", "0"], ["0", "sin(x1)"]])
    no_gauge = GaugeField.zero(sphere.n, 0)
    sph_err = 0.0
    for x1 in np.linspace(0.3, np.pi - 0.3, 20):
        curv = base_curvature_from_geometry(
            geometry_at_point(sphere, no_gauge, abelian_algebra(2, 0), np.array([x1, 0.4])))
        sph_err = max(sph_err, abs(curv.scalar - 2.0))
    assert sph_err <= 1e-8
    report("Levi-Civita contract",
           f"50 coframes worst residual {worst:.1e}; sphere |R-2| {sph_err:.1e} "
           f"in {done():.1f}s")


def test_05_central_cross_check():
    done = timed(120)
    rng = np.random.default_rng(5)
    builders = [(su2_algebra, 2), (su2_algebra, 3), (su2_algebra, 4),
                (u1_su2_algebra, 2), (u1_su2_algebra, 3)]
    worst_analytic = 0.0
    worst_fd = 0.0
    count = 0
    for builder, n in builders:
        spec = builder(n)
        for _ in range(5):
            cof, gauge = random_configuration(rng, spec, n)
            point = rng.uniform(-0.5, 0.5, size=n)
            geom = geometry_at_point(cof, gauge, spec, point)
            worst_analytic = max(worst_analytic, worst_cross_check(geom))
            count += 1
            if count % 5 == 0:  # spot-check the FD fallback as well
                geom_fd = geometry_at_point(cof, gauge, spec, point,
                                            deriv_mode="fd", fd_step=1e-3)
                worst_fd = max(worst_fd, worst_cross_check(geom_fd))
    assert count == 25
    assert worst_analytic <= 1e-6
    assert worst_fd <= 1e-3
    report("central cross-check",
           f"25 configs: analytic {worst_analytic:.1e} (<=1e-6), "
           f"fd {worst_fd:.1e} (<=1e-3) in {done():.1f}s")


def test_06_eym_residual_sanity():
    done = timed(5)
    abelian = abelian_algebra(2, 2)
    res = eym_residuals(ricci_closed_form(flat_geometry(abelian)))
    assert res.einstein_norm <= 1e-12
    assert res.ym_norm <= 1e-12
    spec = su2_algebra(2)
    res = eym_residuals(ricci_closed_form(flat_geometry(spec)))
    lam = cosmological_constant(spec)
    pattern = np.abs(res.einstein_block + lam * np.eye(2)).max()
    assert pattern <= 1e-10
    assert res.ym_norm <= 1e-12
    report("EYM residual sanity",
           f"abelian residuals <=1e-12; su2 einstein block = -lambda*I to "
           f"{pattern:.1e} in {done():.2f}s")


def test_07_gauge_covariance():
    done = timed(30)
    rep = builtin_rep("su2_as_so3")
    spec = rep.spec
    cof = CoframeField(2, [["1 + 0.1*x2^2", "0.1*x1"],
                           ["0", "1 + 0.2*sin(x1)"]])
    gauge = GaugeField(2,
                       [["0.3*x2", "0.1*x1"],
                        ["0.1*x1*x2", "0.2*sin(x2)"],
                        ["0.1*x2^2", "0"]])
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        point = rng.uniform(-0.4, 0.4, size=2)
        geom = geometry_at_point(cof, gauge, spec, point)
        worst = max(worst, verify_gauge_covariance(geom, rng.normal(size=3)))
    assert worst <= 1e-5
    h_err = 0.0
    for _ in range(100):
        S = adjoint_of(rep.exp(rng.normal(size=3)), spec.n)
        h_err = max(h_err, np.abs(S.T @ spec.h @ S - spec.h).max())
    assert h_err <= 1e-8
    report("gauge covariance",
           f"curve residual {worst:.1e} (<=1e-5); S^T h S = h to {h_err:.1e} "
           f"in {done():.1f}s")


def test_08_path_lifting():
    done = timed(10)
    rep = builtin_rep("su2_as_so3")
    xi = np.array([0.3, -0.7, 0.5])
    out = lift_path(PathSpec(rep, lambda t: np.tile(xi, (len(t), 1)),
                             rep.identity_element()), 1000)
    exp_err = np.abs(out[-1].matrix - expm(rep.algebra_element(xi))).max()
    assert exp_err <= 1e-8

    def v(t):
        return np.stack([np.sin(3 * t), t, np.cos(2 * t)], axis=-1)

    def final(steps):
        return lift_path(PathSpec(rep, v, rep.identity_element()), steps)[-1].matrix

    ref = final(4000)
    errs = [np.abs(final(s) - ref).max() for s in (50, 100, 200)]
    order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
    assert order >= 3.8

    rng = np.random.default_rng(8)
    g0 = rep.exp(rng.normal(size=3))
    forward = lift_path(PathSpec(rep, v, g0), 400)
    back = lift_path(PathSpec(rep, lambda t: -v(1.0 - t), forward[-1]), 400)
    ret_err = np.abs(back[-1].matrix - g0.matrix).max()
    assert ret_err <= 1e-6
    report("path lifting",
           f"exp oracle {exp_err:.1e}; order {order:.2f}; return {ret_err:.1e} "
           f"in {done():.1f}s")


def test_09_parser_corpus():
    done = timed(5)
    assert len(CASES) == 100
    for text, expected in VALID:
        assert parse(text) == expected
    for text, (kind, detail) in INVALID:
        if kind == "error":
            with pytest.raises(ExprSyntaxError) as err:
                parse(text)
            assert err.value.offset == detail
        else:
            with pytest.raises(UnknownIdentifierError) as err:
                parse(text)
            assert detail in str(err.value)
    h = 1e-4
    worst = 0.0
    for text, _ in VALID:
        node = parse(text)
        rng = np.random.default_rng(zlib.crc32(text.encode()))  # str hash is salted
        point = rng.uniform(0.5, 1.5, size=10)
        for i in range(4):
            up, down = point.copy(), point.copy()
            up[i] += h
            down[i] -= h
            want = (evaluate(node, up, PARAM_VALUES)
                    - evaluate(node, down, PARAM_VALUES)) / (2 * h)
            got = evaluate(diff(node, i), point, PARAM_VALUES)
            err = abs(got - want) / (1.0 + abs(got))
            worst = max(worst, err)
            assert err <= 1e-6
    report("parser corpus",
           f"{len(VALID)} valid + {len(INVALID)} invalid cases exact; "
           f"FD agreement {worst:.1e} in {done():.1f}s")


def test_10_determinism(tmp_path, capsys):
    problem = {
        "algebra": {"builtin": "su2", "n": 2},
        "fields": {
            "chart": {"n": 2},
            "coframe": [["1 + 0.1*x2^2", "0.1*x1"], ["0", "1 + 0.2*sin(x1)"]],
            "gauge": [["0.3*x2", "0.1*x1"],
                      ["0.1*x1*x2", "0.2*sin(x2)"],
                      ["0.1*x2^2", "0"]],
            "lattice": {"min": [-0.5, -0.5], "max": [0.5, 0.5], "steps": [6, 6]},
        },
    }
    # the same sweep twice, then its 36 lattice points as a shuffled list,
    # which the block sweep must sort back into the same rows
    grid = np.linspace(-0.5, 0.5, 6)
    shuffled = [[float(x), float(y)] for x in grid for y in grid]
    np.random.default_rng(10).shuffle(shuffled)
    as_points = json.loads(json.dumps(problem))
    del as_points["fields"]["lattice"]
    as_points["fields"]["points"] = shuffled
    reports = []
    for i, prob in enumerate((problem, problem, as_points)):
        path = tmp_path / f"problem{i}.json"
        path.write_text(json.dumps(prob))
        code = cli_main(["curvature", "--input", str(path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        data["wall_time_s"] = 0.0
        reports.append(data)
    assert reports[0] == reports[1]
    assert reports[2]["per_point"] == reports[0]["per_point"]
    assert reports[2]["summary"] == reports[0]["summary"]
    with capsys.disabled():
        report("determinism", "curvature sweep identical across runs and point orders")
