import copy
import pickle

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm

from kkgeom import bundle, gauge
from kkgeom.basegeo import (CoframeField, GaugeField, _fd_gradient, _fd_stencil,
                            geometry_at_point)
from kkgeom.bundle import (GroupElement, MatrixRep, PathSpec, adjoint_of, algebra_rep,
                           builtin_rep, lift_path)
from kkgeom.errors import NonFiniteLiftError, StructuralError
from kkgeom.gauge import verify_deextra, verify_gauge_covariance
from kkgeom.kkcurv import assemble_omega, riemann_direct
from kkgeom.liealg import LieAlgebraSpec, abelian_algebra, su2_algebra, u1_su2_algebra
from test_kkcurv import oracle_geometry
from test_properties import EPSILON3


def su2_setup(seed=0):
    rep = builtin_rep("su2_as_so3")
    spec = rep.spec
    cof = CoframeField(2, [["1+0.1*x2^2", "0.1*x1"],
                           ["0", "1+0.2*sin(x1)"]])
    gauge = GaugeField(2,
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


# the generator tables of the three named reps, written out: (T_a)_ij =
# -eps_aij on su(2), the 2x2 rotation on u(1), and their 5x5 block sum
SO3_TABLE = np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                      [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                      [[0, -1, 0], [1, 0, 0], [0, 0, 0]]], dtype=float)
SO2_TABLE = np.array([[[0, -1], [1, 0]]], dtype=float)
PRODUCT_TABLE = np.zeros((4, 5, 5))
PRODUCT_TABLE[0, :2, :2] = SO2_TABLE[0]
PRODUCT_TABLE[1:, 2:, 2:] = SO3_TABLE


@pytest.mark.parametrize("name,table", [("su2_as_so3", SO3_TABLE), ("u1_as_so2", SO2_TABLE),
                                        ("product", PRODUCT_TABLE)])
def test_builtin_reps_are_the_rotation_tables(name, table):
    # bit for bit: the algebra-derived rep at k = I is the hand-written table
    assert np.array_equal(builtin_rep(name).T, table)


def test_algebra_rep_puts_an_so2_block_on_each_central_direction():
    # abelian r = 2 with a non-diagonal k: the centre is all of the fiber,
    # and each generator turns the two so(2) blocks by its k^{1/2} components
    k = np.array([[2.0, 0.5], [0.5, 1.0]])
    rep = algebra_rep(abelian_algebra(2, 2, k=k))
    assert rep.T.shape == (2, 4, 4)
    assert np.abs(rep.T + np.swapaxes(rep.T, 1, 2)).max() == 0.0
    # the so(2) rotation speeds of sum xi^a T_a have squares summing to k(xi, xi)
    xi = np.array([0.3, -1.2])
    X = rep.algebra_element(xi)
    assert abs(np.sum(X[1::2, ::2] ** 2) - xi @ k @ xi) < 1e-14
    assert np.abs(rep.exp(xi).matrix - expm(X)).max() < 1e-14


def test_algebra_rep_of_a_scaled_sum():
    # su(2) + u(1) + su(2): constants 1 and 0.7, k = 1.5, 3 and 0.4 on the
    # blocks; the centre sits in the middle of the basis
    c = np.zeros((9, 9, 9))
    c[2:5, 2:5, 2:5] = EPSILON3
    c[6:, 6:, 6:] = 0.7 * c[2:5, 2:5, 2:5]
    spec = LieAlgebraSpec(2, 7, c, np.eye(2), np.diag([1.5] * 3 + [3.0] + [0.4] * 3))
    rep = algebra_rep(spec)
    assert rep.T.shape == (7, 8, 8)  # one so(2) block and the 6-dim adjoint
    assert rep.closure_residual() < 1e-14
    assert np.abs(rep.T + np.swapaxes(rep.T, 1, 2)).max() < 1e-15
    assert np.abs(rep.T[3, :2, :2] - np.sqrt(3.0) * SO2_TABLE[0]).max() < 1e-15
    assert np.abs(np.delete(rep.T, 3, axis=0)[:, :2, :2]).max() < 1e-15


@pytest.mark.parametrize("spec,message", [
    (su2_algebra(2, k=np.diag([1.0, 2.0, 3.0])), "not Ad-invariant"),
    (su2_algebra(2, k=-np.eye(3)), "not positive definite"),
    (su2_algebra(2, k=np.diag([1.0, 0.0, 1.0])), "not positive definite"),
    (abelian_algebra(2, 2, k=[[1.0, 0.5], [0.0, 1.0]]), "not positive definite"),
    (abelian_algebra(2, 0), "r = 0"),
], ids=["su2-diag123", "negative-k", "singular-k", "asymmetric-k", "no-fiber"])
def test_algebra_rep_needs_a_positive_ad_invariant_metric(spec, message):
    with pytest.raises(StructuralError, match=message):
        algebra_rep(spec)


def test_algebra_rep_rejects_a_non_compact_algebra():
    # [e1, e2] = e2 has no positive definite Ad-invariant metric
    c = np.zeros((4, 4, 4))
    c[3, 2, 3], c[3, 3, 2] = 1.0, -1.0
    with pytest.raises(StructuralError, match="not Ad-invariant"):
        algebra_rep(LieAlgebraSpec(2, 2, c, np.eye(2), np.eye(2)))


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


def test_group_element_batch_is_a_record_and_a_sequence():
    # len, indexing and iteration run over the batch; the record helpers
    # (_replace, _asdict, copy, pickle) still see the two fields, and
    # _replace re-runs the checks
    rep = builtin_rep("su2_as_so3")
    gs = rep.exp(np.array([[0.1, 0.2, 0.3], [0.3, -0.2, 0.1]]))
    assert len(gs) == 2 and [g.matrix.shape for g in gs] == [(3, 3)] * 2
    assert np.array_equal(gs[1].matrix, list(gs)[1].matrix)
    flipped = gs._replace(matrix=gs.matrix[::-1])
    assert flipped.rep is rep and np.array_equal(flipped.matrix, gs.matrix[::-1])
    with pytest.raises(StructuralError, match="off the group manifold"):
        gs._replace(matrix=2 * gs.matrix)
    for copied in (copy.copy(gs), pickle.loads(pickle.dumps(gs))):
        assert np.array_equal(copied.matrix, gs.matrix) and len(copied) == 2
    for g in (gs, gs[0]):  # a batch of two, and a single element with no length
        fields = g._asdict()
        assert list(fields) == ["rep", "matrix"]
        assert fields["rep"] is rep and fields["matrix"] is g.matrix
    with pytest.raises(AttributeError):
        gs.matrix = gs.matrix


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_rep_builds_its_own_read_only_caches(copy_of):
    rep = algebra_rep(su2_algebra(2))
    coords = rep._coords
    assert not coords.flags.writeable
    copied = copy_of(rep)
    assert "_coords" not in copied.__dict__
    for got, want in ((copied.T, rep.T), (copied._coords, coords), (copied.spec.c, rep.spec.c)):
        assert np.array_equal(got, want) and not got.flags.writeable


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


def polar_kinds(rng, d, count=4):
    """``count`` each of near-orthogonal matrices, matrices far from
    orthogonal (singular values in [0.05, 10]) and orthogonal ones, in a
    shuffled batch, with a label for each."""
    q = np.linalg.qr(rng.normal(size=(3, count, d, d)))[0]
    near = q[0] + 1e-3 * rng.normal(size=(count, d, d))
    far = (q[1] * rng.uniform(0.05, 10.0, size=(count, 1, d))) @ q[2]
    exact = np.linalg.qr(rng.normal(size=(count, d, d)))[0]
    labels = np.repeat(["near", "far", "exact"], count)
    order = rng.permutation(3 * count)
    return np.concatenate([near, far, exact])[order], labels[order]


def counting_svd(monkeypatch):
    """Patch ``np.linalg.svd`` to record the shape of each call's input."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("d", [2, 3, 5])
def test_polar_branches_match_scipy(d, monkeypatch):
    # Newton-Schulz for the near and orthogonal matrices, the SVD for the far
    # ones, in one batch; each matrix alone takes the same branch
    m, labels = polar_kinds(np.random.default_rng(d), d)
    calls = counting_svd(monkeypatch)
    got = bundle.polar(m)
    assert calls == [(4, d, d)]  # the far matrices alone, in one call
    for mi, gi, label in zip(m, got, labels):
        u, _ = scipy.linalg.polar(mi)
        assert np.abs(gi - u).max() < 1e-12, label
        del calls[:]
        single = bundle.polar(mi)
        assert single.shape == (d, d)
        assert np.abs(single - u).max() < 1e-12, label
        assert len(calls) == (label == "far"), label


def test_polar_leaves_its_input_and_keeps_orthogonal_matrices():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(8)
    for d in (2, 3, 5):
        m, _ = polar_kinds(rng, d)
        before = m.copy()
        bundle.polar(m)
        assert np.array_equal(m, before)
        q = np.linalg.qr(rng.normal(size=(50, d, d)))[0]
        assert np.abs(bundle.polar(q) - q).max() <= 4 * eps
        out = bundle.polar(q[0])
        assert out is not q[0] and np.abs(out - q[0]).max() <= 4 * eps
    g = builtin_rep("product").exp(rng.normal(size=(50, 4)))
    assert np.abs(bundle.polar(g.matrix) - g.matrix).max() <= 4 * eps  # read-only input


def test_lift_of_near_orthogonal_steps_makes_no_svd_call(monkeypatch):
    # the bench lift's shape: su(2), 1000 steps, |v| about 2; each step
    # operator is orthogonal to rounding, and polar keeps it without an SVD
    rep = builtin_rep("su2_as_so3")
    a, b, c = np.random.default_rng(7).uniform(-2.0, 2.0, size=(3, 3))
    path = PathSpec(rep, lambda t: a + b * np.sin(3.0 * np.asarray(t)[:, None] + c),
                    rep.identity_element())
    calls = counting_svd(monkeypatch)
    coarse, fine = bundle.lift_and_halve(path, 1000)
    assert calls == []
    assert fine.manifold_residual() <= 1e-14
    # one step at |v| = 50 is far from orthogonal: its polar factor takes the SVD
    fast = PathSpec(rep, constant([30.0, -40.0, 0.0]), rep.identity_element())
    out = lift_path(fast, 1)
    assert calls == [(1, 3, 3)]
    assert np.abs(out.matrix - lift_oracle(fast, 1)).max() <= 1e-12


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


# 2047, 2049 and 4097 straddle multiples of the 2048-step chunk of the lift:
# prefix-product scans over chunks that are not powers of two, one-step
# chunks, and products carried across two chunk boundaries
@pytest.mark.parametrize("steps", [1, 2, 3, 10, 1000, 2047, 2049, 4097])
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


def test_lift_names_the_first_step_whose_operator_overflows():
    # v is 0 up to t = 0.5 and 1e150 from t = 0.6: the step from t = 0.5 is the
    # first whose operator overflows, quietly, and no polar factor is taken
    rep = builtin_rep("su2_as_so3")
    path = PathSpec.sampled(rep, [0.0, 0.5, 0.6, 1.0],
                            [[0.0] * 3, [0.0] * 3, [1e150, 0.0, 0.0], [1e150, 0.0, 0.0]],
                            rep.identity_element())
    with np.errstate(all="raise"), pytest.raises(NonFiniteLiftError) as info:
        lift_path(path, 10)
    assert (info.value.time, info.value.steps) == (0.5, 10)
    assert str(info.value) == "step operator is not finite at t = 0.5 (lift at 10 steps)"


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
    cof = CoframeField(2, [["1", "0"], ["0", "1"]])
    geom = geometry_at_point(cof, GaugeField.zero(2, spec.r), spec,
                             np.array([0.1, 0.2]))
    assert verify_deextra(geom) < 1e-14


def test_deextra_su2_zero_gauge_along_fiber():
    rep, spec, _ = su2_setup()
    cof = CoframeField(2, [["1", "0"], ["0", "1"]])
    geom = geometry_at_point(cof, GaugeField.zero(2, spec.r), spec,
                             np.array([0.1, 0.2]))
    res = verify_deextra(geom, s=np.array([0.4, -0.3, 0.2]))
    assert res < 1e-8


def test_deextra_generic_gauge():
    _, _, geom = su2_setup()
    assert verify_deextra(geom) < 1e-6
    assert verify_deextra(geom, s=np.array([0.3, 0.1, -0.2])) < 1e-6


@pytest.mark.parametrize("s1", [20.0, 60.0])
def test_deextra_holds_at_large_fiber_coordinates(s1):
    # unscaled, the dexp series of a large ad_u cancels and is cut short
    # (residuals of about 1e5 at s1 = 20 and 1e43 at s1 = 60)
    spec = su2_algebra(2)
    cof = CoframeField(2, [["1", "0"], ["0", "1 + 0.2*sin(x1)"]])
    gauge_field = GaugeField(2, [["0.3*x2", "0"], ["0", "0.2*sin(x2)"], ["0.1*x2^2", "0"]])
    geom = geometry_at_point(cof, gauge_field, spec, np.array([0.4, -0.3]))
    assert verify_deextra(geom, s=[s1, 0.3, 0.0]) <= 1e-9


def test_dexp_right_is_the_corner_of_a_block_exponential():
    # expm([[X, 1], [0, 0]]) has sum_k X^k / (k+1)! in its top-right block
    cf = su2_algebra(0).fiber_c()
    ad = np.stack([np.einsum("abc,b->ac", cf, s) for s in ([60.0, 0.3, 0.0], [-7.0, 25.0, 3.0])])
    r = ad.shape[-1]
    for X, V in zip(ad, gauge._dexp_right(ad)):
        block = np.zeros((2 * r, 2 * r))
        block[:r, :r], block[:r, r:] = X, np.eye(r)
        assert np.allclose(V, expm(block)[:r, r:], rtol=1e-10, atol=1e-12)


def test_deextra_rejects_a_wrong_length_fiber_point():
    _, _, geom = su2_setup()
    with pytest.raises(StructuralError, match="3 coordinates"):
        verify_deextra(geom, s=np.array([0.3, 0.1]))


def test_gauge_covariance_identity_element():
    _, spec, geom = su2_setup()
    # the gauge curve exp(s) through the identity, g0 = exp(0)
    assert verify_gauge_covariance(geom, np.zeros(spec.r)) < 1e-10


def test_gauge_covariance_constant_conjugation():
    _, _, geom = su2_setup()
    assert verify_gauge_covariance(geom, np.array([0.8, -0.5, 0.3])) < 1e-10


def test_gauge_covariance_varying_along_fiber():
    _, _, geom = su2_setup()
    assert verify_gauge_covariance(geom, np.array([0.2, 0.5, -0.1])) < 1e-5


def test_gauge_covariance_product_rep():
    # the algebra of the product rep, u(1) + su(2), at g0 = exp(u)
    spec = builtin_rep("product").spec
    cof = CoframeField(2, [["1", "0.2*x2"], ["0", "1+0.1*x1^2"]])
    gauge = GaugeField(2,
                       [["0.2*x2", "0"], ["0.1*x1", "0.1*x2"],
                        ["0", "0.3*x1"], ["0.05*x1*x2", "0.1*sin(x1)"]])
    geom = geometry_at_point(cof, gauge, spec, np.array([0.3, 0.6]))
    assert verify_gauge_covariance(geom, np.array([0.4, 0.1, -0.3, 0.2])) < 1e-5


def test_gauge_covariance_needs_a_rep_of_the_geometry_algebra():
    # g0 is given by coordinates in the geometry's own algebra: the
    # coordinates of u(1) (r = 1) or u(1) + su(2) (r = 4) do not fit su(2)
    _, _, geom = su2_setup()
    for u in (np.zeros(1), np.zeros((1, 4))):
        with pytest.raises(StructuralError, match="algebra coordinates u need 3 coordinates"):
            verify_gauge_covariance(geom, u)
    first = verify_gauge_covariance(geom, np.zeros(3))
    assert verify_gauge_covariance(geom, np.zeros(3)) == first


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_gauge_checks_need_a_fiber(deriv_mode):
    # with r = 0 there is no fiber to check: one StructuralError naming r,
    # not numpy's error on an empty reduction
    spec = abelian_algebra(2, 0)
    geom = geometry_at_point(CoframeField(2, [["1", "0"], ["0", "1 + 0.2*sin(x1)"]]),
                             GaugeField.zero(2, 0), spec, np.array([[0.4, -0.3]]),
                             deriv_mode=deriv_mode)
    with pytest.raises(StructuralError, match="r = 0"):
        verify_deextra(geom)
    with pytest.raises(StructuralError, match="r = 0"):
        verify_gauge_covariance(geom, np.zeros((1, 0)))


# ---------------------------------------------------------------------------
# the gauge-check kernels against their einsum definitions


def coordinate_gauge_oracle(geom):
    """A_mu, F_{mu nu} and d_mu A_nu - d_nu A_mu as einsums over the coframe."""
    E = geom.E
    Ac = np.einsum("...ab,...bm->...am", geom.A, E)
    Fc = np.einsum("...abc,...bm,...cn->...amn", geom.F, E, E)
    dAc = np.einsum("...abe,...em,...bn->...amn", geom.dA, E, E)
    dAc = dAc - np.swapaxes(dAc, -2, -1)
    dAc = dAc + np.einsum("...ab,...bcd,...cm,...dn->...amn", geom.A, geom.C, E, E)
    return Ac, Fc, dAc


def gauge_covariance_oracle(geom, u):
    """verify_gauge_covariance as einsums: every 2-plane, forms laid out
    [..., k, a, b, I] with the plane index last, S padded to N x N
    everywhere and its fiber derivative a finite difference: exp(ad s) is
    differenced over the inner stencil around each outer point, then
    multiplied by the constant Ad_g0, taken through the orthogonal rep
    of the algebra, g0 = exp(u) as a matrix."""
    spec = geom.spec
    n, r, N = spec.n, spec.r, spec.N
    m = n + r
    batch = geom.point.shape[:-1]
    cf = spec.fiber_c()
    conn = assemble_omega(geom)
    W, dW = conn.W, conn.dW
    Omega = riemann_direct(conn)
    E = geom.E
    Ac, _, dAc = coordinate_gauge_oracle(geom)
    adj0 = bundle._fiber_adjoint(algebra_rep(spec).exp(u))
    stencil = _fd_stencil(r, gauge._FD_STEP)
    s_all = stencil[:, None, :] + stencil[None, :, :]  # [outer, inner]
    X_all = bundle._identity_padded(bundle.expm(np.einsum("abc,...b->...ac", cf, s_all)), n)
    S_g0 = bundle._identity_padded(adj0, n)
    S = X_all[:, 0] @ S_g0[..., None, :, :]
    dS = np.einsum("kabd,...bc->...kacd", _fd_gradient(X_all, -3, gauge._FD_STEP), S_g0)
    Sinv = np.linalg.inv(S)
    M = np.zeros(batch + (len(stencil), N, m))
    M[..., :n, :n] = E[..., None, :, :]
    M[..., n:, :n] = Ac[..., None, :, :]
    M[..., n:, n:] = gauge._dexp_right(np.einsum("abc,...b->...ac", cf, stencil))
    om = np.einsum("...abC,...kCi->...kabi", W, M)
    phi = np.einsum("...ab,...bci,...cd->...adi", Sinv, om, S)
    phi[..., n:] += np.einsum("...ab,...bcd->...acd", Sinv, dS)
    phi0 = np.moveaxis(phi[..., 0, :, :, :], -1, -3)
    dphi = np.moveaxis(_fd_gradient(phi, -4, gauge._FD_STEP), (-2, -1), (-4, -3))
    M0 = M[..., 0, :, :]
    S0, S0inv = S[..., 0, None, None, :, :], Sinv[..., 0, None, None, :, :]
    dW_coord = np.einsum("...abCd,...dm->...abCm", dW, E)
    dM = np.zeros(batch + (N, n, n))
    dM[..., :n, :, :] = np.einsum("...abc,...bm,...cn->...amn", geom.C, E, E)
    dM[..., n:, :, :] = dAc
    dom_bb = np.einsum("...abCm,...Cn->...abmn", dW_coord, M0[..., :n])
    dom_bb = dom_bb - np.swapaxes(dom_bb, -2, -1)
    dom = np.zeros(batch + (N, N, m, m))
    dom[..., :n, :n] = dom_bb + np.einsum("...abC,...Cmn->...abmn", W, dM)
    dom[..., :n, n:] = np.einsum("...abCm,...Ci->...abmi", dW_coord, M0)[..., n:]
    danti = S0inv @ np.moveaxis(dom, (-2, -1), (-4, -3)) @ S0
    danti[..., n:, :, :, :] = np.swapaxes(dphi, -4, -3)
    danti[..., :, n:, :, :] -= dphi
    prod = phi0[..., :, None, :, :] @ phi0[..., None, :, :, :]
    Phi = danti + prod - np.swapaxes(prod, -4, -3)
    om_coord = np.einsum("...abCD,...Ci,...Dj->...ijab", Omega, M0, M0)
    res = np.abs(om_coord - S0 @ Phi @ S0inv)
    upper = np.triu_indices(m, 1)
    return res[..., upper[0], upper[1], :, :].max(axis=(-3, -2, -1))


# the kernels re-associate the oracle's sums and differentiate S exactly
# where the oracle differences it: the coordinate data move by a few
# rounding units, the residual by up to about 1.3e-12 (measured)
COORD_ORACLE_TOL = 1e-14
RESIDUAL_ORACLE_TOL = 1e-11
# the residual's rounding floor, from phi's one h = 1e-4 fiber difference:
# at most about 2.3e-12 on the oracle cases (measured)
GAUGE_FLOOR = 1e-10

# each case seeds its draws of u (oracle_coordinates) with ``seed``
GAUGE_ORACLE_CASES = pytest.mark.parametrize("seed,builder,n,b,k", [
    (5, su2_algebra, 2, None, None),
    (6, su2_algebra, 3, None, None),
    (7, su2_algebra, 4, None, None),
    (8, u1_su2_algebra, 3, [[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 0.8]],
     np.diag([1.5, 0.4, 0.4, 0.4])),
], ids=["su2-n2", "su2-n3", "su2-n4", "product-n3-metric"])


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@GAUGE_ORACLE_CASES
def test_coordinate_gauge_data_matches_the_einsum_oracle(seed, builder, n, b, k, deriv_mode):
    geom = oracle_geometry(builder, n, b, k, deriv_mode)
    for got, want in zip(gauge._coordinate_gauge_data(geom), coordinate_gauge_oracle(geom)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= COORD_ORACLE_TOL


def oracle_coordinates(r, seed, per_point):
    """Algebra coordinates u of g0 = exp(u), one r-vector per point of an
    oracle geometry, or one for every point."""
    xi = np.random.default_rng(seed).normal(size=(6, r))
    return xi[:5] if per_point else xi[5]


@pytest.mark.parametrize("per_point", [True, False])
@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@GAUGE_ORACLE_CASES
def test_gauge_covariance_matches_the_einsum_oracle(seed, builder, n, b, k, deriv_mode,
                                                    per_point):
    geom = oracle_geometry(builder, n, b, k, deriv_mode)
    u = oracle_coordinates(geom.spec.r, seed, per_point)
    got = verify_gauge_covariance(geom, u)
    want = gauge_covariance_oracle(geom, u)
    assert got.shape == want.shape == (5,)
    assert np.abs(got - want).max() <= RESIDUAL_ORACLE_TOL
    assert want.max() <= 1e-5


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@GAUGE_ORACLE_CASES
def test_gauge_covariance_sits_at_its_rounding_floor(seed, builder, n, b, k, deriv_mode):
    geom = oracle_geometry(builder, n, b, k, deriv_mode)
    for per_point in (True, False):
        u = oracle_coordinates(geom.spec.r, seed, per_point)
        assert verify_gauge_covariance(geom, u).max() <= GAUGE_FLOOR


@pytest.mark.parametrize("per_point", [True, False])
@pytest.mark.parametrize("n", [2, 3])
def test_gauge_covariance_sees_a_perturbed_curvature(monkeypatch, n, per_point):
    # Omega + eps on one antisymmetric (C, D) slot is no longer the
    # conjugated Phi: the residual must show eps on every point
    eps = 1e-3
    exact = gauge.riemann_direct

    def perturbed(conn):
        Omega = exact(conn).copy()
        Omega[..., 1, 0, 0, 1] += eps
        Omega[..., 1, 0, 1, 0] -= eps
        return Omega

    geom = oracle_geometry(su2_algebra, n, None, None, "analytic")
    u = oracle_coordinates(3, n, per_point)
    assert verify_gauge_covariance(geom, u).max() <= 1e-5
    monkeypatch.setattr(gauge, "riemann_direct", perturbed)
    assert (verify_gauge_covariance(geom, u) > eps / 10).all()
