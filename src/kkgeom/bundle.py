r"""Matrix realization of the fiber group: adjoint gauge maps and path lifting.

The fiber Lie algebra acts through a faithful matrix representation.  This
module builds the built-in compact representations, computes the adjoint
gauge map of a group element, lifts fiber-direction path specifications
``g' = g * v(t)`` with a classical 4th-order integrator plus manifold
projection, and numerically verifies two structural identities of the
coframe construction: the exterior-derivative identity

    de^alpha - (1/2)[e /\ e]^alpha + [A /\ e]^alpha = F^alpha

and the gauge covariance Omega = S Phi S^{-1} of the total-space curvature
under the frame change S = Ad_g.

Both verifications work on a local chart (x, s): x is the base chart point
(frozen inside a GeometryAtPoint) and s are exponential fiber coordinates,
g(s) = exp(sum_delta s^delta T_delta) * g0.  In these coordinates the extra
coframe components are e^alpha = A^alpha_mu dx^mu + V^alpha_delta ds^delta
with V the right-trivialized derivative of the exponential.  Like
``basegeo`` and ``kkcurv``, they take one point or a batch alike: the
geometry, the group elements and the fiber points carry the same leading
batch axes, the fiber stencils of every point are extra rows of one array,
and the residuals hold one value per point.  The fiber differences use the
fourth-order stencil of ``basegeo`` with step ``_FD_STEP``.

Path lifting is batched over its steps.  A path velocity maps an array of
times ``(T,)`` to velocities ``(T, r)`` and is sampled once at every RK4
stage time.  Each step g -> g P_k has a step operator P_k that depends on
the stage velocities alone, so all P_k and their polar factors are batch
computations, and only the chain of d x d products runs step by step.  The
lift returns one batched ``GroupElement`` of shape ``(steps + 1, d, d)``,
which indexes and iterates like a list of elements.

The matrix exponential (scaling and squaring with a Pade approximant) and
the polar projection are implemented here on numpy alone, for stacks of
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basegeo import _fd_gradient, _fd_stencil
from .errors import StructuralError
from .kkcurv import assemble_omega, riemann_direct
from .liealg import EPSILON3, LieAlgebraSpec, builtin_algebra

__all__ = [
    "MatrixRep",
    "GroupElement",
    "PathSpec",
    "builtin_rep",
    "adjoint_of",
    "expm",
    "polar",
    "lift_path",
    "verify_deextra",
    "verify_gauge_covariance",
]

# step of the basegeo fourth-order stencil in every fiber-direction derivative
_FD_STEP = 1e-4
# largest |g^T g - 1| entry of a group element on the manifold
_MANIFOLD_TOL = 1e-8

# Coefficients of the degree-13 Pade approximant to exp and the 1-norm up to
# which it is accurate to double precision (Higham 2005, SIAM J. Matrix Anal.
# Appl. 26(4), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix or of a stack ``(..., d, d)``.

    Each matrix is scaled by 2^-s so that its 1-norm is at most theta_13,
    the degree-13 Pade approximant is evaluated, and the result is squared
    s times (s chosen per matrix).
    """
    a = np.asarray(a, dtype=float)
    b = _PADE13
    mant, expo = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(expo - (mant == 0.5), 0)  # ceil(log2(norm / theta)), at least 0
    x = a * np.ldexp(1.0, -s)[..., None, None]
    ident = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    out = ident + 2.0 * np.linalg.solve(v - u, u)  # (v - u)^-1 (v + u), exact at 0
    for k in range(int(s.max(initial=0))):
        out = np.where((s > k)[..., None, None], out @ out, out)
    return out


def polar(m) -> np.ndarray:
    """Orthogonal factor ``u @ vh`` of the polar decomposition of ``m``
    (``m = u s vh`` its singular value decomposition): the nearest
    orthogonal matrix in the Frobenius norm."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


@dataclass(frozen=True)
class MatrixRep:
    """A set of d x d generator matrices T[alpha] closing on the fiber
    structure constants of the associated algebra spec."""

    spec: LieAlgebraSpec
    T: np.ndarray  # (r, d, d)
    name: str = "custom"

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        T.setflags(write=False)
        object.__setattr__(self, "T", T)
        if T.ndim != 3 or T.shape[0] != self.spec.r or T.shape[1] != T.shape[2]:
            raise StructuralError(
                f"rep needs {self.spec.r} square generators, got shape {T.shape}"
            )
        res = self.closure_residual()
        if res > 1e-10:
            raise StructuralError(f"generators do not close on the structure constants "
                                  f"(residual {res:.3e})")
        flat = T.reshape(self.spec.r, -1)
        if np.linalg.matrix_rank(flat, tol=1e-10) < self.spec.r:
            raise StructuralError("generators are linearly dependent")

    @property
    def dim(self):
        return self.T.shape[1]

    def closure_residual(self) -> float:
        """Max violation of [T_a, T_b] = T_g c^g_ab."""
        cf = self.spec.fiber_c()
        comm = np.einsum("aij,bjk->abik", self.T, self.T)
        comm = comm - np.swapaxes(comm, 0, 1)
        return float(np.abs(comm - np.einsum("gik,gab->abik", self.T, cf)).max())

    def algebra_element(self, xi) -> np.ndarray:
        """The matrix sum_alpha xi^alpha T_alpha, for an r-vector or a stack
        ``(..., r)`` of them."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (self.spec.r,):
            raise StructuralError(f"need a {self.spec.r}-vector, got shape {xi.shape}")
        return np.einsum("...a,aij->...ij", xi, self.T)

    def identity_element(self) -> "GroupElement":
        return GroupElement(self, np.eye(self.dim))

    def exp(self, xi) -> "GroupElement":
        return GroupElement(self, expm(self.algebra_element(xi)))


@dataclass(frozen=True)
class GroupElement:
    """A group element realized as a matrix of its representation, or a
    batch of them (leading axes in front of the d x d matrix).

    The built-in reps are compact, so "on the group manifold" is checked as
    orthogonality of the matrix, within ``_MANIFOLD_TOL``.
    """

    rep: MatrixRep
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.shape[-2:] != (self.rep.dim, self.rep.dim):
            raise StructuralError(f"element shape {m.shape} does not match rep "
                                  f"dimension {self.rep.dim}")
        res = self.manifold_residual()
        if not res <= _MANIFOLD_TOL:  # NaN and infinite matrices fail too
            raise StructuralError(f"matrix is off the group manifold "
                                  f"(orthogonality residual {res:.3e})")

    def manifold_residual(self) -> float:
        """Max entry of |g^T g - 1| over the batch; NaN for a non-finite matrix."""
        m = self.matrix
        with np.errstate(invalid="ignore"):  # inf entries give NaN, quietly
            return float(np.abs(np.swapaxes(m, -2, -1) @ m - np.eye(self.rep.dim))
                         .max(initial=0.0))

    def __len__(self):
        if self.matrix.ndim < 3:
            raise TypeError("a single group element has no length")
        return self.matrix.shape[0]

    def __getitem__(self, index) -> "GroupElement":
        """Element or sub-batch ``index`` along the leading batch axis."""
        if self.matrix.ndim < 3:
            raise TypeError("a single group element cannot be indexed")
        return GroupElement(self.rep, self.matrix[index])

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.rep is not self.rep:
            raise StructuralError("cannot multiply elements of different reps")
        return GroupElement(self.rep, self.matrix @ other.matrix)


@dataclass(frozen=True)
class PathSpec:
    """A fiber-direction path: v maps an array of times in [0, 1], shape
    ``(T,)``, to the algebra coordinates at those times, shape ``(T, r)``
    (one time is a batch of one); the lift solves
    g' = g * (sum v^alpha(t) T_alpha) from g0."""

    rep: MatrixRep
    v: object  # callable: times (T,) -> velocities (T, r)
    g0: GroupElement

    @staticmethod
    def sampled(rep, times, values, g0) -> "PathSpec":
        """Piecewise-linear v through sample points (times[i], values[i]);
        the times must increase strictly and cover [0, 1]."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or values.shape != (times.size, rep.spec.r):
            raise StructuralError(f"sampled values must have shape "
                                  f"({times.size}, {rep.spec.r}), got {values.shape}")
        if not np.all(np.diff(times) > 0):
            raise StructuralError("sample times must increase strictly")
        if times.size == 0 or times[0] > 0.0 or times[-1] < 1.0:
            # np.interp would hold the end samples constant outside the times
            ends = times[[0, -1]].tolist() if times.size else []
            raise StructuralError(f"sample times must cover [0, 1], first and last are {ends}")

        def v(t):
            return np.stack([np.interp(t, times, values[:, a])
                             for a in range(rep.spec.r)], axis=-1)

        return PathSpec(rep, v, g0)


def builtin_rep(name: str) -> MatrixRep:
    """Built-in compact representations paired with the built-in algebras.

    ``su2_as_so3``: the three rotation generators (T_alpha)_ij = -eps_{alpha i j}.
    ``u1_as_so2``: the single 2x2 rotation generator.
    ``product``: block-diagonal combination for the u(1) + su(2) fiber.
    The base dimension of the attached algebra spec is fixed at 2; reps only
    ever see the fiber block, so any chart size works with them.
    """
    so3 = -EPSILON3  # (T_alpha)_ij = -eps_{alpha i j}
    so2 = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    if name == "su2_as_so3":
        return MatrixRep(builtin_algebra("su2", 2), so3, name=name)
    if name == "u1_as_so2":
        return MatrixRep(builtin_algebra("abelian", 2, r=1), so2, name=name)
    if name == "product":
        T = np.zeros((4, 5, 5))
        T[:1, :2, :2] = so2
        T[1:, 2:, 2:] = so3
        return MatrixRep(builtin_algebra("u1_su2", 2), T, name=name)
    raise StructuralError(f"unknown builtin rep {name!r}")


def _identity_padded(fiber: np.ndarray, n: int) -> np.ndarray:
    """The gauge maps diag(1_n, fiber) for a stack ``(..., r, r)`` of fiber blocks."""
    r = fiber.shape[-1]
    out = np.zeros(fiber.shape[:-2] + (n + r, n + r))
    out[..., :n, :n] = np.eye(n)
    out[..., n:, n:] = fiber
    return out


def _fiber_adjoint(g: GroupElement) -> np.ndarray:
    """Fiber block of Ad_g, ``(..., r, r)``: column alpha holds the coordinates
    of g T_alpha g^{-1} in the generator basis."""
    rep = g.rep
    gm = g.matrix[..., None, :, :]
    conj = (gm @ rep.T @ np.swapaxes(gm, -2, -1)).reshape(gm.shape[:-3] + (rep.spec.r, -1))
    coords = np.linalg.pinv(rep.T.reshape(rep.spec.r, -1).T)  # least squares on vec(T)
    return coords @ np.swapaxes(conj, -2, -1)


def adjoint_of(g: GroupElement, n: int) -> np.ndarray:
    """The (n + r) x (n + r) gauge map S = Ad_g over an n-dimensional base:
    identity on the central block, the adjoint action g T g^{-1} on the
    fiber block.  S preserves h."""
    return _identity_padded(_fiber_adjoint(g), n)


def _step_operators(X: np.ndarray, h: float) -> np.ndarray:
    """The classical 4th-order step of g' = g X(t) as right factors P_k,
    g_{k+1} = g_k P_k, from the algebra elements X at the stage times
    t_k, t_k + h/2 and t_k + h (rows 2k, 2k + 1 and 2k + 2 of ``X``).

    Every stage slope is g_k times a matrix that depends on the stage
    velocities alone, so each P_k is known before g_k."""
    x0, xh, x1 = X[:-2:2], X[1::2], X[2::2]
    ident = np.eye(X.shape[-1])
    # stage slope i is g_k a_i, with a_1 = x0
    a2 = (ident + 0.5 * h * x0) @ xh
    a3 = (ident + 0.5 * h * a2) @ xh
    a4 = (ident + h * a3) @ x1
    return ident + (h / 6.0) * (x0 + 2.0 * a2 + 2.0 * a3 + a4)


def _stage_times(steps):
    """The 2 steps + 1 stage times j h / 2 of a lift with ``steps`` steps."""
    return 0.5 * (1.0 / steps) * np.arange(2 * steps + 1)


# Steps per pass of lift_path: the step operators, their polar factors and
# the temporaries of one pass take a few MB for the built-in reps (d <= 5),
# however many steps the path has.
_LIFT_CHUNK = 2048


def lift_path(path: PathSpec, steps: int) -> GroupElement:
    """Integrate g' = g * v(t) over [0, 1] with the classical 4th-order
    one-step method, projecting every step back to the manifold.

    v is sampled once, at all 2 steps + 1 stage times j h / 2.  Each step is
    g_{k+1} = g_k P_k with a step operator P_k built from those samples, and
    the projection is g_k polar(P_k): the polar factor of g_k P_k for an
    orthogonal g_k.  The operators and their polar factors are computed in
    batches of steps; only the chain of d x d products is sequential, with
    one Newton-Schulz step g <- g (3 - g^T g) / 2 per step that keeps the
    product orthogonal to rounding.  Returns the steps + 1 group elements as
    one batched element, shape ``(steps + 1, d, d)``.
    """
    return _lift(path, steps, _sample(path, steps))


def lift_and_halve(path: PathSpec, steps: int) -> tuple[GroupElement, GroupElement]:
    """:func:`lift_path` at ``steps`` and at ``2 steps``, for a step-halving
    error estimate, with v sampled once: at the 4 steps + 1 stage times of
    the fine lift, of which the coarse lift's stage times are every other
    one, bit for bit."""
    xi = _sample(path, 2 * steps)
    return _lift(path, steps, xi[::2]), _lift(path, 2 * steps, xi)


def _sample(path, steps):
    """v at the 2 steps + 1 stage times of a lift with ``steps`` steps,
    after checking the step count and g0."""
    if steps < 1:
        raise StructuralError(f"need at least one step, got {steps}")
    rep = path.rep
    if path.g0.matrix.shape != (rep.dim, rep.dim):
        raise StructuralError(f"g0 must be one group element, got shape "
                              f"{path.g0.matrix.shape}")
    xi = np.asarray(path.v(_stage_times(steps)), dtype=float)
    if xi.shape != (2 * steps + 1, rep.spec.r):
        raise StructuralError(f"v must map {2 * steps + 1} times to shape "
                              f"({2 * steps + 1}, {rep.spec.r}), got {xi.shape}")
    if not np.isfinite(xi).all():
        raise StructuralError("v is not finite on [0, 1]")
    return xi


def _lift(path, steps, xi):
    """The lift of :func:`lift_path` from the stage samples ``xi`` of v."""
    rep = path.rep
    h = 1.0 / steps
    out = np.empty((steps + 1, rep.dim, rep.dim))
    out[0] = m = path.g0.matrix
    three_halves = 1.5 * np.eye(rep.dim)
    for start in range(0, steps, _LIFT_CHUNK):
        stop = min(start + _LIFT_CHUNK, steps)
        Q = polar(_step_operators(rep.algebra_element(xi[2 * start:2 * stop + 1]), h))
        for k, q in enumerate(Q, start + 1):
            m = m @ q
            out[k] = m = m @ (three_halves - 0.5 * (m.T @ m))  # m (3 - m^T m) / 2
    return GroupElement(rep, out)


# ---------------------------------------------------------------------------
# Fiber-chart machinery shared by the two verification routines


def _dexp_right(ad_u: np.ndarray) -> np.ndarray:
    """Right-trivialized derivative of exp: V = sum_k ad_u^k / (k+1)!, for a
    stack ``(..., r, r)`` of ad matrices."""
    r = ad_u.shape[-1]
    out = np.eye(r)
    term = np.eye(r)
    for k in range(1, 40):
        term = term @ ad_u / (k + 1.0)
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    return out


def _fiber_ad(spec: LieAlgebraSpec, s: np.ndarray) -> np.ndarray:
    """ad_u on the fiber algebra for u = sum_delta s^delta (basis)_delta."""
    return np.einsum("abc,...b->...ac", spec.fiber_c(), s)


def _coordinate_gauge_data(geom):
    """Coordinate components of A, F and the antisymmetrized dA at the
    frozen base points: A_mu, F_{mu nu}, and d_mu A_nu - d_nu A_mu."""
    E = geom.E
    Ac = np.einsum("...ab,...bm->...am", geom.A, E)
    Fc = np.einsum("...abc,...bm,...cn->...amn", geom.F, E, E)
    # d_mu A_nu - d_nu A_mu: frame-derivative part plus the anholonomy part
    # coming from differentiating the coframe factor.
    dAc = np.einsum("...abe,...em,...bn->...amn", geom.dA, E, E)
    dAc = dAc - np.swapaxes(dAc, -2, -1)
    dAc = dAc + np.einsum("...ab,...bcd,...cm,...dn->...amn", geom.A, geom.C, E, E)
    return Ac, Fc, dAc


def verify_deextra(geom, g: GroupElement, s=None):
    """Residual of de^alpha - (1/2)[e/\\e]^alpha + [A/\\e]^alpha = F^alpha.

    Both sides are evaluated as coordinate 2-forms on the (x, s) chart at
    the frozen base points of ``geom`` and fiber points ``s`` (default 0;
    shape ``(..., r)`` with the geometry's batch axes, or one r-vector for
    all), one residual per point.  The identity is invariant under right
    translation, so ``g`` enters only through its on-manifold precondition.
    """
    spec = geom.spec
    if g.rep.spec.r != spec.r:
        raise StructuralError("rep and algebra have different fiber dimensions")
    n, r = spec.n, spec.r
    cf = spec.fiber_c()
    batch = geom.point.shape[:-1]
    s = np.zeros(r) if s is None else np.asarray(s, dtype=float)

    Ac, Fc, dAc = _coordinate_gauge_data(geom)
    # V at s and at its 4r stencil neighbours, one series for all of them
    V_rows = _dexp_right(_fiber_ad(spec, s[..., None, :] + _fd_stencil(r, _FD_STEP)))
    V = V_rows[..., 0, :, :]
    dV = _fd_gradient(V_rows, -3, _FD_STEP)

    m = n + r
    e = np.zeros(batch + (r, m))
    e[..., :n] = Ac
    e[..., n:] = V
    a_full = np.zeros(batch + (r, m))
    a_full[..., :n] = Ac

    de = np.zeros(batch + (r, m, m))
    de[..., :n, :n] = dAc
    de[..., n:, n:] = np.swapaxes(dV, -2, -1) - dV  # d_delta V_eps - d_eps V_delta

    f_full = np.zeros(batch + (r, m, m))
    f_full[..., :n, :n] = Fc

    half_ee = np.einsum("abg,...bi,...gj->...aij", cf, e, e)
    a_wedge_e = np.einsum("abg,...bi,...gj->...aij", cf, a_full, e)
    a_wedge_e = a_wedge_e - np.swapaxes(a_wedge_e, -2, -1)
    return np.abs(de - half_ee + a_wedge_e - f_full).max(axis=(-3, -2, -1))


def verify_gauge_covariance(geom, g: GroupElement, vary: bool = True):
    """Max residual of Omega = S Phi S^{-1} over all coordinate 2-planes,
    one value per point of ``geom`` (``g`` carries the same batch axes, or
    none for one element at every point).

    The connection is pushed to the (x, s) chart, gauge-transformed by
    S(s) = Ad_{exp(u(s)) g0} (or the constant Ad_{g0} when ``vary`` is
    false), its curvature Phi = d phi + (1/2)[phi /\\ phi] is assembled with
    exact base derivatives and 4th-order fiber differences, and the result
    is conjugated back and compared against the structure-equation
    curvature.  The fiber difference of phi nests the fiber difference of
    S, so S is needed at every sum of two stencil offsets: those (1 + 4r)^2
    fiber points are rows of one array, and their exponentials one stack.
    """
    spec = geom.spec
    if g.rep.spec.r != spec.r:
        raise StructuralError("rep and algebra have different fiber dimensions")
    n, r, N = spec.n, spec.r, spec.N
    m = n + r
    batch = geom.point.shape[:-1]
    conn = assemble_omega(geom)
    W, dW = conn.W, conn.dW
    Omega = riemann_direct(conn)
    E = geom.E
    Ac, _, dAc = _coordinate_gauge_data(geom)
    adj0 = _fiber_adjoint(g)
    stencil = _fd_stencil(r, _FD_STEP)

    # S at every outer stencil point (phi is differenced there) and, if it
    # varies, its own fiber derivative from the inner stencil around each
    if vary:
        s_all = stencil[:, None, :] + stencil[None, :, :]  # [outer, inner]
        fiber = expm(_fiber_ad(spec, s_all)) @ adj0[..., None, None, :, :]
        S_all = _identity_padded(fiber, n)
        S = S_all[..., 0, :, :]
        dS = _fd_gradient(S_all, -3, _FD_STEP)
    else:
        S = _identity_padded(adj0, n)[..., None, :, :]  # one S for every outer point
    Sinv = np.linalg.inv(S)

    # M[C, I]: e^C = M[C, I] dy^I on the (x, s) chart, at each outer point
    M = np.zeros(batch + (len(stencil), N, m))
    M[..., :n, :n] = E[..., None, :, :]
    M[..., n:, :n] = Ac[..., None, :, :]
    M[..., n:, n:] = _dexp_right(_fiber_ad(spec, stencil))
    om = np.einsum("...abC,...kCi->...kabi", W, M)
    phi = np.einsum("...ab,...bci,...cd->...adi", Sinv, om, S)
    if vary:
        phi[..., n:] += np.einsum("...ab,...bcd->...acd", Sinv, dS)
    # planes-first layouts: [.., I, :, :] = phi_I and [.., I, delta, :, :] = d_delta phi_I
    phi0 = np.moveaxis(phi[..., 0, :, :, :], -1, -3)
    dphi = np.moveaxis(_fd_gradient(phi, -4, _FD_STEP), (-2, -1), (-4, -3))
    M0 = M[..., 0, :, :]
    # S at s = 0, with room for the (I, J) plane axes in front of the matrix
    S0, S0inv = S[..., 0, None, None, :, :], Sinv[..., 0, None, None, :, :]

    # exact antisymmetrized coordinate derivative of omega over base 2-planes
    dW_coord = np.einsum("...abCd,...dm->...abCm", dW, E)
    dM = np.zeros(batch + (N, n, n))  # d_mu M[C, nu] - d_nu M[C, mu]
    dM[..., :n, :, :] = np.einsum("...abc,...bm,...cn->...amn", geom.C, E, E)
    dM[..., n:, :, :] = dAc
    dom_bb = np.einsum("...abCm,...Cn->...abmn", dW_coord, M0[..., :n])
    dom_bb = dom_bb - np.swapaxes(dom_bb, -2, -1)
    dom = np.zeros(batch + (N, N, m, m))
    dom[..., :n, :n] = dom_bb + np.einsum("...abC,...Cmn->...abmn", W, dM)
    # d_mu omega_{n+delta}: only the fiber coframe columns have no base block
    dom[..., :n, n:] = np.einsum("...abCm,...Ci->...abmi", dW_coord, M0)[..., n:]

    # d_I phi_J - d_J phi_I on every 2-plane: exact and conjugated by S0 for
    # base I, fiber differences for fiber I and J (lower planes are unused)
    danti = S0inv @ np.moveaxis(dom, (-2, -1), (-4, -3)) @ S0
    danti[..., n:, :, :, :] = np.swapaxes(dphi, -4, -3)
    danti[..., :, n:, :, :] -= dphi
    prod = phi0[..., :, None, :, :] @ phi0[..., None, :, :, :]  # phi_I phi_J
    Phi = danti + prod - np.swapaxes(prod, -4, -3)
    om_coord = np.einsum("...abCD,...Ci,...Dj->...ijab", Omega, M0, M0)
    res = np.abs(om_coord - S0 @ Phi @ S0inv)
    upper = np.triu_indices(m, 1)
    return res[..., upper[0], upper[1], :, :].max(axis=(-3, -2, -1))
