import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm

from kkgeom import bundle
from kkgeom.basegeo import ChartSpec, CoframeField, GaugeField, geometry_at_point
from kkgeom.bundle import (GroupElement, MatrixRep, PathSpec, adjoint_of,
                           builtin_rep, lift_path, verify_deextra,
                           verify_gauge_covariance)
from kkgeom.errors import StructuralError
from kkgeom.liealg import su2_algebra, u1_su2_algebra


def su2_setup(seed=0):
    rep = builtin_rep("su2_as_so3")
    spec = rep.spec
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1+0.1*x2^2", "0.1*x1"],
                               ["0", "1+0.2*sin(x1)"]])
    gauge = GaugeField(chart,
                       [["0.3*x2", "0.1*x1"],
                        ["0.1*x1*x2", "0.2*sin(x2)"],
                        ["0.1*x2^2", "0"]])
    geom = geometry_at_point(cof, gauge, spec, np.array([0.4, -0.3]))
    return rep, spec, geom


# ---------------------------------------------------------------------------
# representations


def test_builtin_reps_close_on_structure_constants():
    for name in ("su2_as_so3", "u1_as_so2", "product"):
        rep = builtin_rep(name)
        assert rep.closure_residual() < 1e-12


def test_su2_rep_bracket_example():
    rep = builtin_rep("su2_as_so3")
    T = rep.T
    comm = T[0] @ T[1] - T[1] @ T[0]
    assert np.allclose(comm, T[2])


def test_rep_rejects_wrong_generators():
    spec = su2_algebra(2)
    with pytest.raises(StructuralError):
        MatrixRep(spec, np.zeros((3, 3, 3)))  # zero matrices cannot close
    bad = builtin_rep("su2_as_so3").T.copy()
    bad[0] = 2.0 * bad[0]
    with pytest.raises(StructuralError):
        MatrixRep(spec, bad)


def test_unknown_rep_name():
    with pytest.raises(StructuralError):
        builtin_rep("so5_as_anything")


def test_group_element_must_be_orthogonal():
    rep = builtin_rep("su2_as_so3")
    with pytest.raises(StructuralError):
        GroupElement(rep, 1.5 * np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_group_element_must_be_finite(bad):
    rep = builtin_rep("su2_as_so3")
    for m in (np.full((3, 3), bad), np.where(np.eye(3) == 1, bad, 0.0)):
        with pytest.raises(StructuralError, match="off the group manifold"):
            GroupElement(rep, m)
    batch = np.stack([np.eye(3)] * 4)
    batch[2, 1, 1] = bad
    with pytest.raises(StructuralError):
        GroupElement(rep, batch)


# ---------------------------------------------------------------------------
# adjoint gauge map


def test_adjoint_of_identity():
    rep = builtin_rep("su2_as_so3")
    assert np.allclose(adjoint_of(rep.identity_element(), 2), np.eye(rep.spec.N))


def test_adjoint_fixes_central_block():
    rep = builtin_rep("su2_as_so3")
    g = rep.exp(np.array([0.7, -0.2, 1.1]))
    n = 2
    S = adjoint_of(g, n)
    assert np.allclose(S[:n, :n], np.eye(n))
    assert np.abs(S[:n, n:]).max() < 1e-12
    assert np.abs(S[n:, :n]).max() < 1e-12


def test_adjoint_preserves_h_and_is_homomorphism():
    rep = builtin_rep("product")
    h = rep.spec.h
    rng = np.random.default_rng(1)
    for _ in range(10):
        g1 = rep.exp(rng.normal(size=rep.spec.r))
        g2 = rep.exp(rng.normal(size=rep.spec.r))
        S1, S2 = adjoint_of(g1, 2), adjoint_of(g2, 2)
        assert np.abs(S1.T @ h @ S1 - h).max() < 1e-10
        assert np.abs(adjoint_of(g1 @ g2, 2) - S1 @ S2).max() < 1e-10


def test_adjoint_takes_the_base_dimension_from_the_caller():
    # a built-in rep's own spec has n = 2; over a 3-D base S is (3 + r)^2
    rep = builtin_rep("product")
    spec = u1_su2_algebra(3)
    g = rep.exp(np.random.default_rng(6).normal(size=rep.spec.r))
    S = adjoint_of(g, spec.n)
    assert S.shape == (spec.N, spec.N) == (3 + 4, 3 + 4)
    assert np.array_equal(S[:3, :3], np.eye(3))
    assert np.array_equal(S[3:, 3:], adjoint_of(g, 2)[2:, 2:])
    assert np.abs(S.T @ spec.h @ S - spec.h).max() < 1e-10


def test_adjoint_of_a_batch_matches_each_element():
    rep = builtin_rep("product")
    xi = np.random.default_rng(5).normal(size=(2, 3, rep.spec.r))
    S = adjoint_of(rep.exp(xi), 2)
    assert S.shape == (2, 3, rep.spec.N, rep.spec.N)
    for index in np.ndindex(2, 3):
        assert np.abs(S[index] - adjoint_of(rep.exp(xi[index]), 2)).max() < 1e-14


def test_adjoint_rotation_oracle():
    # Ad_{exp(t T3)} rotates the (T1, T2) plane by angle t
    rep = builtin_rep("su2_as_so3")
    t = 0.9
    S = adjoint_of(rep.exp(np.array([0.0, 0.0, t])), 2)
    fiber = S[2:, 2:]
    want = np.array([[np.cos(t), -np.sin(t), 0],
                     [np.sin(t), np.cos(t), 0],
                     [0, 0, 1.0]])
    assert np.abs(fiber - want).max() < 1e-12


# ---------------------------------------------------------------------------
# numpy kernels against scipy

# two scaling-and-squaring codes on 1-norms up to 50 (four squarings) agree
# to a few hundred rounding units; scipy's own result for a rotation by 25
# radians is off the closed form by up to 3e-13
EXPM_RTOL = 1e4 * np.finfo(float).eps


def scaled_to_norms(rng, A, top):
    """A with each matrix rescaled to a random 1-norm in [0, top]."""
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    return A * (rng.uniform(0.0, top, size=norm.shape) / norm)[..., None, None]


@pytest.mark.parametrize("batch", [(), (7,), (2, 5)])
@pytest.mark.parametrize("name", ["su2_as_so3", "u1_as_so2", "product"])
def test_expm_matches_scipy(name, batch):
    rep = builtin_rep(name)
    rng = np.random.default_rng(len(batch) + rep.dim)
    d = rep.dim
    xi = rng.normal(size=batch + (rep.spec.r,))
    elements = scaled_to_norms(rng, rep.algebra_element(xi), 50.0)
    nilpotent = scaled_to_norms(rng, np.triu(rng.normal(size=batch + (d, d)), 1), 50.0)
    oracle = np.vectorize(expm, signature="(n,n)->(n,n)")
    for A in (elements, nilpotent):
        got, want = bundle.expm(A), oracle(A)
        assert got.shape == batch + (d, d)
        scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1), keepdims=True))
        assert (np.abs(got - want) <= EXPM_RTOL * scale).all()
    zero = bundle.expm(np.zeros(batch + (d, d)))
    assert np.array_equal(zero, np.broadcast_to(np.eye(d), batch + (d, d)))


@pytest.mark.parametrize("near_orthogonal", [True, False])
def test_polar_matches_scipy(near_orthogonal):
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        m = rng.normal(size=(6, d, d))
        if near_orthogonal:
            m = np.linalg.qr(m)[0] + 1e-6 * rng.normal(size=(6, d, d))
        got = bundle.polar(m)
        for mi, gi in zip(m, got):
            u, _ = scipy.linalg.polar(mi)
            assert np.abs(bundle.polar(mi) - u).max() < 1e-12
            assert np.abs(gi - u).max() < 1e-12


# ---------------------------------------------------------------------------
# path lifting


def constant(xi):
    """A vectorised velocity that is xi at every time."""
    xi = np.asarray(xi, dtype=float)
    return lambda t: np.tile(xi, (len(t), 1))


def lift_oracle(path, steps):
    """The brute-force lift: one classical RK4 step of g' = g X(t) at a time,
    each followed by the polar projection of scipy, with v evaluated at one
    stage time per call.  Returns the (steps + 1, d, d) matrices."""
    rep = path.rep
    h = 1.0 / steps

    def X(j):  # the algebra element at stage time j h / 2
        return rep.algebra_element(path.v(np.array([0.5 * h * j]))[0])

    m = path.g0.matrix
    out = [m]
    for k in range(steps):
        k1 = m @ X(2 * k)
        k2 = (m + 0.5 * h * k1) @ X(2 * k + 1)
        k3 = (m + 0.5 * h * k2) @ X(2 * k + 1)
        k4 = (m + h * k3) @ X(2 * k + 2)
        m, _ = scipy.linalg.polar(m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out.append(m)
    return np.array(out)


def smooth_velocity(r, seed):
    """t -> sum of a constant and a sine per component, shape (T, r)."""
    a, b, c = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(3, r))
    return lambda t: a + b * np.sin(3.0 * np.asarray(t)[:, None] + c)


@pytest.mark.parametrize("steps", [1, 2, 3, 10, 1000])
@pytest.mark.parametrize("name", ["su2_as_so3", "u1_as_so2", "product"])
def test_lift_matches_per_step_oracle(name, steps):
    rep = builtin_rep(name)
    g0 = rep.exp(np.random.default_rng(rep.dim).normal(size=rep.spec.r))
    path = PathSpec(rep, smooth_velocity(rep.spec.r, rep.dim + steps), g0)
    out = lift_path(path, steps)
    assert out.matrix.shape == (steps + 1, rep.dim, rep.dim)
    assert np.array_equal(out[0].matrix, g0.matrix)
    assert np.abs(out.matrix - lift_oracle(path, steps)).max() <= 1e-12


def test_lift_stays_orthogonal_to_rounding_over_many_steps():
    rep = builtin_rep("su2_as_so3")
    g0 = rep.exp(np.array([0.3, 0.1, -0.4]))
    out = lift_path(PathSpec(rep, smooth_velocity(3, 11), g0), 20000)
    assert len(out) == 20001
    assert out.manifold_residual() <= 1e-14


def test_lift_result_indexes_like_a_list():
    rep = builtin_rep("product")
    out = lift_path(PathSpec(rep, smooth_velocity(4, 5), rep.identity_element()), 7)
    assert len(out) == 8
    items = list(out)
    assert len(items) == 8
    for k, g in enumerate(items):
        assert isinstance(g, GroupElement) and g.rep is rep
        assert np.array_equal(g.matrix, out.matrix[k])
    assert np.array_equal(out[-1].matrix, out.matrix[7])
    assert out[2:5].matrix.shape == (3, 5, 5)
    with pytest.raises(TypeError):
        len(out[0])
    with pytest.raises(TypeError):
        out[0][0]


def test_lift_zero_velocity_is_constant():
    rep = builtin_rep("su2_as_so3")
    g0 = rep.exp(np.array([0.3, 0.1, -0.4]))
    path = PathSpec(rep, constant(np.zeros(3)), g0)
    out = lift_path(path, 10)
    assert all(np.allclose(g.matrix, g0.matrix, atol=1e-14) for g in out)


def test_lift_constant_velocity_matches_exponential():
    rep = builtin_rep("su2_as_so3")
    xi = np.array([0.3, -0.7, 0.5])
    path = PathSpec(rep, constant(xi), rep.identity_element())
    out = lift_path(path, 1000)
    want = expm(rep.algebra_element(xi))
    assert np.abs(out[-1].matrix - want).max() < 1e-8


def test_lift_piecewise_constant_composes_exponentials():
    # xi1 for the first half, xi2 for the second; the integrator needs the
    # jump on a segment boundary, so each half is lifted time-rescaled
    rep = builtin_rep("su2_as_so3")
    xi1 = np.array([0.4, 0.0, -0.2])
    xi2 = np.array([-0.1, 0.6, 0.3])
    first = lift_path(PathSpec(rep, constant(0.5 * xi1), rep.identity_element()), 1000)
    second = lift_path(PathSpec(rep, constant(0.5 * xi2), first[-1]), 1000)
    want = expm(0.5 * rep.algebra_element(xi1)) @ expm(0.5 * rep.algebra_element(xi2))
    assert np.abs(second[-1].matrix - want).max() < 1e-8


def test_lift_convergence_order():
    rep = builtin_rep("su2_as_so3")

    def v(t):
        return np.stack([np.sin(3 * t), t, np.cos(2 * t)], axis=-1)

    def final(steps):
        return lift_path(PathSpec(rep, v, rep.identity_element()), steps)[-1].matrix

    ref = final(4000)
    errs = [np.abs(final(s) - ref).max() for s in (50, 100, 200)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


def test_lift_reverse_path_returns_to_start():
    rep = builtin_rep("product")
    rng = np.random.default_rng(2)
    g0 = rep.exp(rng.normal(size=4))

    def v(t):
        return np.stack([np.sin(t), t ** 2, np.full_like(t, 0.3), np.cos(3 * t)], axis=-1)

    forward = lift_path(PathSpec(rep, v, g0), 400)
    back = lift_path(PathSpec(rep, lambda t: -v(1.0 - t), forward[-1]), 400)
    assert np.abs(back[-1].matrix - g0.matrix).max() < 1e-6


def test_lift_stays_on_manifold():
    rep = builtin_rep("su2_as_so3")
    path = PathSpec(rep, constant([2.0, -1.0, 3.0]), rep.identity_element())
    for g in lift_path(path, 50):
        assert g.manifold_residual() < 1e-8


def test_lift_samples_velocity_once_per_stage_time():
    rep = builtin_rep("su2_as_so3")
    calls = []

    def v(t):
        calls.append(np.array(t))
        return np.stack([np.sin(3 * t), t, np.ones_like(t)], axis=-1)

    out = lift_path(PathSpec(rep, v, rep.identity_element()), 10)
    # RK4 stages sit at t, t + h/2 (twice) and t + h: one call with all
    # 2 steps + 1 distinct times
    assert len(out) == 11
    (times,) = calls
    assert np.allclose(times, np.arange(21) * 0.05, rtol=0.0, atol=1e-15)


def test_lift_rejects_wrong_velocity_shape():
    rep = builtin_rep("su2_as_so3")
    for v in (lambda t: np.zeros((len(t), 2)),  # wrong r
              lambda t: np.zeros(3),  # one vector for all times
              lambda t: np.zeros((3, len(t)))):  # transposed
        path = PathSpec(rep, v, rep.identity_element())
        with pytest.raises(StructuralError):
            lift_path(path, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lift_rejects_non_finite_velocity(bad):
    rep = builtin_rep("su2_as_so3")

    def v(t):
        out = np.zeros((len(t), 3))
        out[len(t) // 2, 1] = bad
        return out

    with pytest.raises(StructuralError, match="not finite"):
        lift_path(PathSpec(rep, v, rep.identity_element()), 4)


def test_lift_rejects_zero_steps():
    rep = builtin_rep("su2_as_so3")
    path = PathSpec(rep, constant(np.zeros(3)), rep.identity_element())
    with pytest.raises(StructuralError):
        lift_path(path, 0)


def test_sampled_path_interpolation():
    rep = builtin_rep("u1_as_so2")
    times = [0.0, 0.5, 1.0]
    values = [[0.0], [1.0], [0.0]]
    path = PathSpec.sampled(rep, times, values, rep.identity_element())
    assert path.v(np.array([0.25])).tolist() == [[0.5]]
    assert path.v(np.array([0.0, 0.75, 1.0])).tolist() == [[0.0], [0.5], [0.0]]
    out = lift_path(path, 200)
    # total rotation angle = integral of v = 1/2
    want = expm(0.5 * rep.T[0])
    assert np.abs(out[-1].matrix - want).max() < 1e-6


@pytest.mark.parametrize("times", [[0.0, 0.5, 0.5], [0.0, 1.0, 0.5]])
def test_sampled_path_rejects_unordered_times(times):
    rep = builtin_rep("u1_as_so2")
    with pytest.raises(StructuralError, match="increase"):
        PathSpec.sampled(rep, times, [[0.0], [1.0], [0.0]], rep.identity_element())


@pytest.mark.parametrize("times", [[0.0, 0.5], [0.2, 1.0], [0.0]])
def test_sampled_path_must_cover_the_unit_interval(times):
    # np.interp would hold the end samples constant outside the sample times
    rep = builtin_rep("u1_as_so2")
    with pytest.raises(StructuralError, match=r"cover \[0, 1\]"):
        PathSpec.sampled(rep, times, [[1.0]] * len(times), rep.identity_element())


def test_sampled_path_may_extend_beyond_the_unit_interval():
    rep = builtin_rep("u1_as_so2")
    path = PathSpec.sampled(rep, [-1.0, 2.0], [[0.0], [3.0]], rep.identity_element())
    assert path.v(np.array([0.0, 1.0])).tolist() == [[1.0], [2.0]]


# ---------------------------------------------------------------------------
# structural identity checks


def test_deextra_abelian_zero_gauge():
    rep = builtin_rep("u1_as_so2")
    spec = rep.spec
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0"], ["0", "1"]])
    geom = geometry_at_point(cof, GaugeField.zero(chart, spec.r), spec,
                             np.array([0.1, 0.2]))
    assert verify_deextra(geom, rep.identity_element()) < 1e-14


def test_deextra_su2_zero_gauge_along_fiber():
    rep, spec, _ = su2_setup()
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0"], ["0", "1"]])
    geom = geometry_at_point(cof, GaugeField.zero(chart, spec.r), spec,
                             np.array([0.1, 0.2]))
    g = rep.exp(np.array([0.2, -0.1, 0.3]))
    res = verify_deextra(geom, g, s=np.array([0.4, -0.3, 0.2]))
    assert res < 1e-8


def test_deextra_generic_gauge():
    rep, spec, geom = su2_setup()
    g = rep.exp(np.array([0.5, 0.2, -0.4]))
    assert verify_deextra(geom, g) < 1e-6
    assert verify_deextra(geom, g, s=np.array([0.3, 0.1, -0.2])) < 1e-6


def test_deextra_rejects_mismatched_rep():
    _, _, geom = su2_setup()
    rep1 = builtin_rep("u1_as_so2")
    with pytest.raises(StructuralError):
        verify_deextra(geom, rep1.identity_element())


def test_gauge_covariance_identity_element():
    rep, spec, geom = su2_setup()
    # constant gauge curve through the identity: phi = omega exactly
    assert verify_gauge_covariance(geom, rep.identity_element(), vary=False) < 1e-10


def test_gauge_covariance_constant_conjugation():
    rep, spec, geom = su2_setup()
    g = rep.exp(np.array([0.8, -0.5, 0.3]))
    assert verify_gauge_covariance(geom, g, vary=False) < 1e-10


def test_gauge_covariance_varying_along_fiber():
    rep, spec, geom = su2_setup()
    g = rep.exp(np.array([0.2, 0.5, -0.1]))
    assert verify_gauge_covariance(geom, g) < 1e-5


def test_gauge_covariance_product_rep():
    rep = builtin_rep("product")
    spec = rep.spec
    chart = ChartSpec(2)
    cof = CoframeField(chart, [["1", "0.2*x2"], ["0", "1+0.1*x1^2"]])
    gauge = GaugeField(chart,
                       [["0.2*x2", "0"], ["0.1*x1", "0.1*x2"],
                        ["0", "0.3*x1"], ["0.05*x1*x2", "0.1*sin(x1)"]])
    geom = geometry_at_point(cof, gauge, spec, np.array([0.3, 0.6]))
    g = rep.exp(np.array([0.4, 0.1, -0.3, 0.2]))
    assert verify_gauge_covariance(geom, g) < 1e-5
