import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kkgeom.errors import DegenerateMetricError, StructuralError
from kkgeom.liealg import (LAMBDA_PREFACTOR, LieAlgebraSpec, abelian_algebra, bracket,
                           builtin_algebra, cosmological_constant, killing_form, load_spec,
                           su2_algebra, u1_su2_algebra, validate_spec)
from test_properties import compact_algebras, su3_constants


# ---------------------------------------------------------------------------
# brute-force oracles (plain loops, no einsum)


def jacobi_violation_loops(c):
    N = c.shape[0]
    worst = 0.0
    for e in range(N):
        for a in range(N):
            for b in range(N):
                for f in range(N):
                    total = 0.0
                    for d in range(N):
                        total += (c[e, d, a] * c[d, b, f]
                                  + c[e, d, b] * c[d, f, a]
                                  + c[e, d, f] * c[d, a, b])
                    worst = max(worst, abs(total))
    return worst


def ad_invariance_violation_loops(c, h):
    N = c.shape[0]
    worst = 0.0
    for a in range(N):
        for b in range(N):
            for e in range(N):
                total = 0.0
                for d in range(N):
                    total += c[d, a, b] * h[d, e] + c[d, a, e] * h[b, d]
                worst = max(worst, abs(total))
    return worst


def killing_form_loops(spec):
    cf = spec.fiber_c()
    r = spec.r
    K = np.zeros((r, r))
    for g in range(r):
        for e in range(r):
            for a in range(r):
                for b in range(r):
                    K[g, e] += cf[a, b, g] * cf[b, a, e]
    return K


def cosmological_constant_loops(spec):
    K = killing_form_loops(spec)
    kinv = np.linalg.inv(spec.k)
    total = 0.0
    for g in range(spec.r):
        for e in range(spec.r):
            total += K[g, e] * kinv[g, e]
    return -0.125 * total


# ---------------------------------------------------------------------------


def test_su2_passes_validation():
    for n in (2, 3, 4):
        report = validate_spec(su2_algebra(n), tol=1e-12)
        assert report.passed
        assert report.unimodular


def test_u1_su2_passes_validation():
    report = validate_spec(u1_su2_algebra(3), tol=1e-12)
    assert report.passed
    spec = u1_su2_algebra(3)
    assert spec.r == 4 and spec.N == 7


def test_builtin_specs_against_loop_oracles():
    for spec in (su2_algebra(2), u1_su2_algebra(2), abelian_algebra(3, 2)):
        assert jacobi_violation_loops(spec.c) < 1e-14
        assert ad_invariance_violation_loops(spec.c, spec.h) < 1e-14


def test_validation_matches_loop_oracles_on_random_perturbation():
    rng = np.random.default_rng(5)
    base = su2_algebra(2)
    c = base.c.copy()
    noise = 1e-3 * rng.normal(size=c.shape)
    noise = 0.5 * (noise - np.swapaxes(noise, 1, 2))  # keep antisymmetry
    spec = LieAlgebraSpec(base.n, base.r, c + noise, base.b, base.k)
    report = validate_spec(spec, tol=1e-10)
    assert not report.passed
    got = report.check("Jacobi identity").max_violation
    want = jacobi_violation_loops(spec.c)
    assert abs(got - want) < 1e-14


def test_mutated_spec_reports_offending_indices():
    base = su2_algebra(2)
    c = base.c.copy()
    # give [g1, g2] a spurious g2 component (0-based full indices 3, 4)
    c[3, 3, 4] += 0.5
    c[3, 4, 3] -= 0.5
    spec = LieAlgebraSpec(base.n, base.r, c, base.b, base.k)
    report = validate_spec(spec)
    assert not report.passed
    jac = report.check("Jacobi identity")
    assert not jac.passed
    assert abs(jac.max_violation - jacobi_violation_loops(spec.c)) < 1e-14
    # offending indices stay inside the touched fiber block (1-based 3..5)
    assert all(3 <= i <= 5 for i in jac.worst_indices)
    adinv = report.check("ad-invariance of h")
    assert not adinv.passed and all(3 <= i <= 5 for i in adinv.worst_indices)


def test_bracket_matches_structure_constants():
    spec = su2_algebra(2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=5)
    y = rng.normal(size=5)
    want = np.zeros(5)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                want[a] += spec.c[a, b, c] * x[b] * y[c]
    assert np.allclose(bracket(spec, x, y), want, atol=1e-14)
    # bracket with a central element vanishes
    central = np.array([1.0, -2.0, 0, 0, 0])
    assert np.abs(bracket(spec, central, y)).max() < 1e-14


def test_killing_form_su2():
    K = killing_form(su2_algebra(2))
    assert np.allclose(K, -2.0 * np.eye(3), atol=1e-14)
    assert np.allclose(K, killing_form_loops(su2_algebra(2)), atol=1e-14)


def test_cosmological_constant_su2():
    spec = su2_algebra(2)
    lam = cosmological_constant(spec)
    assert abs(lam - 0.75) < 1e-14
    assert abs(lam - cosmological_constant_loops(spec)) < 1e-14
    assert LAMBDA_PREFACTOR == -0.125


def test_cosmological_constant_scaling():
    # scaling the fiber metric k -> lambda k scales the constant by 1/lambda
    base = cosmological_constant(su2_algebra(2))
    for lam in (0.5, 2.0, 10.0):
        spec = su2_algebra(2, k=lam * np.eye(3))
        assert abs(cosmological_constant(spec) - base / lam) < 1e-14


def test_abelian_has_zero_constant():
    assert cosmological_constant(abelian_algebra(2, 3)) == 0.0
    assert np.abs(killing_form(abelian_algebra(2, 3))).max() == 0.0


def test_degenerate_metric_raises():
    base = su2_algebra(2)
    k = np.eye(3)
    k[0, 0] = 0.0
    k[1, 1] = 0.0
    bad_k = np.zeros((3, 3))
    spec = LieAlgebraSpec(base.n, base.r, base.c, base.b, bad_k)
    with pytest.raises(DegenerateMetricError):
        validate_spec(spec)


def test_metric_inverses_are_computed_once_and_read_only():
    spec = su2_algebra(2, b=[[2.0, 0.3], [0.3, 0.7]])
    for inv, metric in ((spec.h_inv(), spec.h), (spec.k_inv(), spec.k),
                        (spec.b_inv(), spec.b)):
        assert np.allclose(inv @ metric, np.eye(len(metric)), atol=1e-15)
        assert not inv.flags.writeable
        with pytest.raises(ValueError):
            inv[0, 0] = 1.0
    assert spec.h_inv() is spec.h_inv()
    assert spec.k_inv() is spec.k_inv()
    assert spec.b_inv() is spec.b_inv()
    # bit for bit the inverse the geometry computed per block before it was cached
    assert np.array_equal(spec.b_inv(), np.linalg.inv(spec.b))
    assert abelian_algebra(2, 0).k_inv().shape == (0, 0)


def test_singular_metric_raises_on_every_call():
    base = su2_algebra(2)
    spec = LieAlgebraSpec(base.n, base.r, base.c, base.b, np.zeros((3, 3)))
    flat_b = LieAlgebraSpec(base.n, base.r, base.c, np.zeros((2, 2)), base.k)
    for _ in range(2):
        with pytest.raises(DegenerateMetricError, match="fiber metric k is singular"):
            spec.k_inv()
        with pytest.raises(DegenerateMetricError, match="metric h is singular"):
            spec.h_inv()
        with pytest.raises(DegenerateMetricError, match="base metric b is singular"):
            flat_b.b_inv()


def test_structure_constants_frozen():
    spec = su2_algebra(2)
    with pytest.raises(ValueError):
        spec.c[0, 0, 0] = 1.0


@pytest.mark.parametrize("value", [True, "1", None], ids=repr)
def test_a_dense_c_entry_that_is_not_a_number_raises(value):
    # never read as 1.0 or NaN: the error names the entry
    c = su2_algebra(2).c.tolist()
    c[2][3][4] = value
    with pytest.raises(StructuralError, match=r"^c\[2\]\[3\]\[4\] must be a finite number"):
        LieAlgebraSpec(2, 3, c, np.eye(2), np.eye(3))


def test_a_metric_entry_is_named_by_the_key_that_holds_it():
    # a spec built directly names its own field; a problem file's algebra
    # names the entry by its JSON path
    b = [[1.0, 0.0], [0.0, float("nan")]]
    with pytest.raises(StructuralError, match=r"^b\[1\]\[1\] must be a finite number"):
        LieAlgebraSpec(2, 3, su2_algebra(2).c_entries, b, np.eye(3))
    for algebra in ({"builtin": "su2", "n": 2}, {"n": 2, "r": 3}):
        with pytest.raises(StructuralError,
                           match=r"^algebra\.h_b\[1\]\[1\] must be a finite number"):
            load_spec({**algebra, "h_b": b})


def test_a_bool_in_an_index_triple_raises():
    # numpy would read c[True, 2, 0] as a new axis and fill c[2, 0, :]
    with pytest.raises(StructuralError, match="index triple"):
        LieAlgebraSpec(0, 3, {(True, 2, 0): 1.0}, [], np.eye(3))


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_spec_builds_its_own_read_only_caches(copy_of):
    spec = su2_algebra(2, b=[[2.0, 0.3], [0.3, 0.7]], k=2.0 * np.eye(3))
    cached = {name: getattr(spec, name)() for name in ("h_inv", "b_inv", "k_inv", "fiber_cc")}
    cached.update((name, getattr(spec, name)) for name in ("c", "b", "k", "h"))
    lam = cosmological_constant(spec)
    copied = copy_of(spec)
    assert copied == spec and copied.__dict__ == {}
    for name, want in cached.items():
        got = getattr(copied, name)
        got = got() if callable(got) else got
        assert np.array_equal(got, want) and not got.flags.writeable, name
    assert cosmological_constant(copied) == lam


def test_load_spec_wire_format():
    data = {
        "n": 1,
        "r": 3,
        "c": [[1, 2, 3, 1.0], [1, 3, 2, -1.0],
              [2, 3, 1, 1.0], [2, 1, 3, -1.0],
              [3, 1, 2, 1.0], [3, 2, 1, -1.0]],
    }
    spec = load_spec(data)
    assert spec.n == 1 and spec.r == 3
    assert validate_spec(spec).passed
    assert np.allclose(spec.fiber_c(), su2_algebra(1).fiber_c())


def test_load_spec_builtin_reference():
    spec = load_spec({"builtin": "su2", "n": 4})
    assert spec.n == 4 and spec.r == 3


def test_load_spec_bad_index():
    with pytest.raises(StructuralError):
        load_spec({"n": 1, "r": 1, "c": [[0, 1, 5, 1.0]]})


def test_builtin_unknown_name():
    with pytest.raises(StructuralError):
        builtin_algebra("so5", 2)


def test_central_block_enforced():
    # a bracket that does not stay inside the fiber block must fail
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # [g1, g2] has a central component
    c[0, 2, 1] = -1.0
    spec = LieAlgebraSpec(1, 2, c, np.eye(1), np.eye(2))
    report = validate_spec(spec)
    assert not report.check("central-block structure").passed


# ---------------------------------------------------------------------------
# the standard-library checks against the dense einsum residuals


def dense_worst(residual):
    """Max |entry| and its 1-based index, the first in row-major order on a tie."""
    if residual.size == 0:
        return 0.0, None
    idx = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
    return float(np.abs(residual).max()), tuple(int(i) + 1 for i in idx)


def dense_signature(m, tol):
    eig = np.linalg.eigvalsh(0.5 * (m + m.T)) if m.size else np.zeros(0)
    return int(np.sum(eig > tol)), int(np.sum(eig < -tol))


def dense_checks(spec):
    """(max violation, worst indices) of each check, in report order, from dense arrays."""
    c, h, n = spec.c, spec.h, spec.n
    blocked = c.copy()
    blocked[n:, n:, n:] = 0.0
    residuals = {
        "bracket antisymmetry": c + np.swapaxes(c, 1, 2),
        "Jacobi identity": (np.einsum("eda,dbc->eabc", c, c) + np.einsum("edb,dca->eabc", c, c)
                            + np.einsum("edc,dab->eabc", c, c)),
        "central-block structure": blocked,
        "ad-invariance of h": np.einsum("dab,dc->abc", c, h) + np.einsum("dac,bd->abc", c, h),
        "symmetry of h": h - h.T,
        "block orthogonality of h": h[:n, n:],
    }
    return {name: dense_worst(residual) for name, residual in residuals.items()}


def exact_det(m):
    """det of the float matrix ``m``, exactly: elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m.tolist()]
    det = Fraction(1)
    for j in range(len(a)):
        p = next((i for i in range(j, len(a)) if a[i][j]), None)
        if p is None:
            return 0.0
        if p != j:
            a[j], a[p], det = a[p], a[j], -det
        det *= a[j][j]
        for i in range(j + 1, len(a)):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return float(det)


def ulps(got, want):
    return abs(got - want) / math.ulp(max(abs(got), abs(want)))


# exactly representable kicks, so that residual entries tie
KICKS = [0.25, -0.25, 0.5, 1e-3]


@st.composite
def checked_algebras(draw):
    """(spec, tol): a generated compact algebra (su(3) among them) over n = 1..4
    with a non-diagonal, often Lorentzian, b, its constants kicked at a few
    index triples (inside and outside the fiber block, some of the form
    c^a_ba) and, sometimes, b made non-symmetric."""
    n = draw(st.integers(1, 4))
    base = load_spec(draw(compact_algebras(n)))
    N = base.N
    c = base.c.copy()
    for _ in range(draw(st.integers(0, 4))):
        A, B, C = (draw(st.integers(0, N - 1)) for _ in range(3))
        c[A, B, A if draw(st.booleans()) else C] += draw(st.sampled_from(KICKS))
    off = np.triu(np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n * n,
                                         max_size=n * n))).reshape(n, n), 1)
    b = np.diag([draw(st.sampled_from([-1.0, 0.0, 1.0, 2.5])) for _ in range(n)]) + off + off.T
    if n > 1 and draw(st.booleans()):
        b[0, n - 1] += 0.125
    assume(abs(exact_det(b)) > 1e-3)  # a zero diagonal entry makes elimination swap rows
    return LieAlgebraSpec(n, base.r, c, b, base.k), draw(st.sampled_from([1e-10, 1e-12]))


def kicked_su3():
    """su(3) over n = 2 with Lorentzian b, kicked so that every check has a
    non-zero worst: two equal kicks make the antisymmetry worst tie."""
    c = np.zeros((10, 10, 10))
    c[2:, 2:, 2:] = su3_constants()
    c[3, 4, 5] += 0.25
    c[6, 7, 9] -= 0.25
    c[4, 0, 4] += 0.5
    c[0, 3, 4] += 0.25  # outside the fiber block, with b not symmetric
    b = np.array([[-1.0, 0.25], [0.125, 1.0]])
    return LieAlgebraSpec(2, 8, c, b, 2.0 * np.eye(8)), 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(checked_algebras())
@example(kicked_su3())
def test_checks_match_the_dense_einsum_residuals(case):
    spec, tol = case
    report = validate_spec(spec, tol)
    want = dense_checks(spec)
    assert [c.name for c in report.checks] == [*want, "nondegeneracy of h"]
    for check in report.checks[:-1]:
        violation, indices = want[check.name]
        assert check.worst_indices == indices, check.name
        assert check.passed == (violation <= tol), check.name
        assert ulps(check.max_violation, violation) <= 4, check.name
    trace, _ = dense_worst(np.einsum("aba->b", spec.c))
    assert report.unimodular == (trace <= tol)
    assert ulps(report.unimodular_violation, trace) <= 4
    assert report.b_signature == dense_signature(spec.b, tol)
    assert report.k_signature == dense_signature(spec.k, tol)
    assert ulps(report.det_h, exact_det(spec.h)) <= 4
    lam = LAMBDA_PREFACTOR * float(np.trace(spec.fiber_cc()))
    assert ulps(cosmological_constant(spec), lam) <= 4


def test_kicked_su3_has_a_non_zero_worst_in_every_check_and_a_tie():
    spec, tol = kicked_su3()
    report = validate_spec(spec, tol)
    assert all(c.max_violation > 0 for c in report.checks[:-2])  # block orthogonality is 0
    assert report.unimodular_violation > 0
    antisymmetry = spec.c + np.swapaxes(spec.c, 1, 2)
    assert np.sum(np.abs(antisymmetry) == report.check("bracket antisymmetry").max_violation) > 1


def test_det_h_of_widely_scaled_blocks_neither_under_nor_overflows():
    # the product of the pivots would pass through 1e-400 on the way to 1e20
    spec = su2_algebra(2, b=1e-200 * np.eye(2), k=1e140 * np.eye(3))
    assert validate_spec(spec).det_h == pytest.approx(1e20, rel=1e-13)


def test_signature_counts_the_eigenvalues_not_the_pivots():
    # elimination with a row swap would see pivots (1, 1) here
    report = validate_spec(su2_algebra(2, b=[[0.0, 1.0], [1.0, 0.0]]))
    assert (report.b_signature, report.det_h) == ((1, 1), -1.0)
    assert validate_spec(su2_algebra(2, k=-np.eye(3))).k_signature == (0, 3)
