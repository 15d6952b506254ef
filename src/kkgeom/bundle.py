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
with V the right-trivialized derivative of the exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, expm, polar

from .errors import IntegratorError, StructuralError
from .kkcurv import assemble_omega, curvature_direct
from .liealg import EPSILON3, LieAlgebraSpec, builtin_algebra

__all__ = [
    "MatrixRep",
    "GroupElement",
    "PathSpec",
    "builtin_rep",
    "adjoint_of",
    "lift_path",
    "verify_deextra",
    "verify_gauge_covariance",
]

# central-difference stencil used for all fiber-direction derivatives
_FD_STEP = 1e-4
_FD4_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_FD4_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


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
        """The matrix sum_alpha xi^alpha T_alpha."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.spec.r,):
            raise StructuralError(f"need a {self.spec.r}-vector, got shape {xi.shape}")
        return np.einsum("a,aij->ij", xi, self.T)

    def identity_element(self) -> "GroupElement":
        return GroupElement(self, np.eye(self.dim))

    def exp(self, xi) -> "GroupElement":
        return GroupElement(self, expm(self.algebra_element(xi)))


@dataclass(frozen=True)
class GroupElement:
    """A group element realized as a matrix of its representation.

    The built-in reps are compact, so "on the group manifold" is checked as
    orthogonality of the matrix.
    """

    rep: MatrixRep
    matrix: np.ndarray
    tol: float = 1e-8

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.rep.dim, self.rep.dim):
            raise StructuralError(f"element shape {m.shape} does not match rep "
                                  f"dimension {self.rep.dim}")
        res = self.manifold_residual()
        if res > self.tol:
            raise StructuralError(f"matrix is off the group manifold "
                                  f"(orthogonality residual {res:.3e})")

    def manifold_residual(self) -> float:
        m = self.matrix
        return float(np.abs(m.T @ m - np.eye(self.rep.dim)).max())

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.rep is not self.rep:
            raise StructuralError("cannot multiply elements of different reps")
        return GroupElement(self.rep, self.matrix @ other.matrix)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.rep, self.matrix.T.copy())


@dataclass(frozen=True)
class PathSpec:
    """A fiber-direction path: v maps t in [0, 1] to an r-vector of algebra
    coordinates; the lift solves g' = g * (sum v^alpha(t) T_alpha) from g0."""

    rep: MatrixRep
    v: object  # callable t -> array of shape (r,)
    g0: GroupElement

    @staticmethod
    def sampled(rep, times, values, g0) -> "PathSpec":
        """Piecewise-linear v through sample points (times[i], values[i])."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (times.size, rep.spec.r):
            raise StructuralError(f"sampled values must have shape "
                                  f"({times.size}, {rep.spec.r}), got {values.shape}")

        def v(t):
            return np.array([np.interp(t, times, values[:, a])
                             for a in range(rep.spec.r)])

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
        spec = builtin_algebra("u1_su2", 2)
        T = np.stack([block_diag(so2[0], np.zeros((3, 3)))]
                     + [block_diag(np.zeros((2, 2)), so3[a]) for a in range(3)])
        return MatrixRep(spec, T, name=name)
    raise StructuralError(f"unknown builtin rep {name!r}")


def adjoint_of(g: GroupElement) -> np.ndarray:
    """The N x N gauge map S = Ad_g: identity on the central block, the
    adjoint action g T g^{-1} on the fiber block.  S preserves h."""
    rep = g.rep
    r, n = rep.spec.r, rep.spec.n
    flat = rep.T.reshape(r, -1).T  # (d*d, r), columns vec(T_beta)
    conj = np.einsum("ij,ajk,lk->ail", g.matrix, rep.T, g.matrix)  # g T_a g^T
    adj, *_ = np.linalg.lstsq(flat, conj.reshape(r, -1).T, rcond=None)
    return block_diag(np.eye(n), adj)


def lift_path(path: PathSpec, steps: int):
    """Integrate g' = g * v(t) over [0, 1] with the classical 4th-order
    one-step method, projecting back to the manifold (polar decomposition)
    after every step.  Returns the list of steps + 1 group elements."""
    if steps < 1:
        raise StructuralError(f"need at least one step, got {steps}")
    rep = path.rep
    h = 1.0 / steps

    def rhs(t, m):
        return m @ rep.algebra_element(path.v(t))

    out = [path.g0]
    m = path.g0.matrix
    for k in range(steps):
        t = k * h
        k1 = rhs(t, m)
        k2 = rhs(t + 0.5 * h, m + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, m + 0.5 * h * k2)
        k4 = rhs(t + h, m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m, _ = polar(m)
        drift = float(np.abs(m.T @ m - np.eye(rep.dim)).max())
        if drift > 1e-6:
            raise IntegratorError(f"off-manifold drift {drift:.3e} after step "
                                  f"{k + 1}/{steps}")
        out.append(GroupElement(rep, m))
    return out


# ---------------------------------------------------------------------------
# Fiber-chart machinery shared by the two verification routines


def _dexp_right(ad_u: np.ndarray) -> np.ndarray:
    """Right-trivialized derivative of exp: V = sum_k ad_u^k / (k+1)!."""
    r = ad_u.shape[0]
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
    return np.einsum("abc,b->ac", spec.fiber_c(), s)


def _fd_grad(fun, s, shape):
    """4th-order central-difference gradient of an array-valued fun(s)."""
    r = s.size
    out = np.zeros(shape + (r,))
    for d in range(r):
        acc = 0.0
        for off, w in zip(_FD4_OFFSETS, _FD4_WEIGHTS):
            sp = s.copy()
            sp[d] += off * _FD_STEP
            acc = acc + w * fun(sp)
        out[..., d] = acc / _FD_STEP
    return out


def _coordinate_gauge_data(geom):
    """Coordinate components of A, F and the antisymmetrized dA at the
    frozen base point: A_mu, F_{mu nu}, and d_mu A_nu - d_nu A_mu."""
    E = geom.E
    Ac = np.einsum("ab,bm->am", geom.A, E)
    Fc = np.einsum("abc,bm,cn->amn", geom.F, E, E)
    # d_mu A_nu - d_nu A_mu: frame-derivative part plus the anholonomy part
    # coming from differentiating the coframe factor.
    dAc = np.einsum("abe,em,bn->amn", geom.dA, E, E)
    dAc = dAc - np.swapaxes(dAc, 1, 2)
    dAc = dAc + np.einsum("ab,bcd,cm,dn->amn", geom.A, geom.C, E, E)
    return Ac, Fc, dAc


def verify_deextra(geom, g: GroupElement, spec: LieAlgebraSpec,
                   s=None) -> float:
    """Residual of de^alpha - (1/2)[e/\\e]^alpha + [A/\\e]^alpha = F^alpha.

    Both sides are evaluated as coordinate 2-forms on the (x, s) chart at
    the frozen base point of ``geom`` and fiber point ``s`` (default 0).
    The identity is invariant under right translation, so ``g`` enters only
    through its on-manifold precondition.
    """
    if g.rep.spec.r != spec.r:
        raise StructuralError("rep and algebra have different fiber dimensions")
    n, r = spec.n, spec.r
    cf = spec.fiber_c()
    s = np.zeros(r) if s is None else np.asarray(s, dtype=float)

    Ac, Fc, dAc = _coordinate_gauge_data(geom)
    V = _dexp_right(_fiber_ad(spec, s))
    dV = _fd_grad(lambda sp: _dexp_right(_fiber_ad(spec, sp)), s, (r, r))

    m = n + r
    e = np.zeros((r, m))
    e[:, :n] = Ac
    e[:, n:] = V
    a_full = np.zeros((r, m))
    a_full[:, :n] = Ac

    de = np.zeros((r, m, m))
    de[:, :n, :n] = dAc
    de[:, n:, n:] = np.swapaxes(dV, 1, 2) - dV  # d_delta V_eps - d_eps V_delta

    f_full = np.zeros((r, m, m))
    f_full[:, :n, :n] = Fc

    half_ee = np.einsum("abg,bi,gj->aij", cf, e, e)
    a_wedge_e = np.einsum("abg,bi,gj->aij", cf, a_full, e)
    a_wedge_e = a_wedge_e - np.swapaxes(a_wedge_e, 1, 2)
    return float(np.abs(de - half_ee + a_wedge_e - f_full).max())


def verify_gauge_covariance(geom, g: GroupElement, spec: LieAlgebraSpec,
                            vary: bool = True) -> float:
    """Max residual of Omega = S Phi S^{-1} over all coordinate 2-planes.

    The connection is pushed to the (x, s) chart, gauge-transformed by
    S(s) = Ad_{exp(u(s)) g0} (or the constant Ad_{g0} when ``vary`` is
    false), its curvature Phi = d phi + (1/2)[phi /\\ phi] is assembled with
    exact base derivatives and 4th-order fiber differences, and the result
    is conjugated back and compared against the structure-equation
    curvature.
    """
    if g.rep.spec.r != spec.r:
        raise StructuralError("rep and algebra have different fiber dimensions")
    n, r, N = spec.n, spec.r, spec.N
    m = n + r
    conn = assemble_omega(geom, spec)
    W, dW = conn.W, conn.dW
    Omega = curvature_direct(conn).Omega
    E = geom.E
    Ac, Fc, dAc = _coordinate_gauge_data(geom)
    # the rep's own spec fixes the size of the central block adjoint_of pads with
    adj0 = adjoint_of(g)[g.rep.spec.n:, g.rep.spec.n:]

    def vmat(s):
        return _dexp_right(_fiber_ad(spec, s))

    def smat(s):
        if not vary:
            fiber = adj0
        else:
            fiber = expm(_fiber_ad(spec, s)) @ adj0
        return block_diag(np.eye(n), fiber)

    s0 = np.zeros(r)
    V0 = vmat(s0)
    S0 = smat(s0)
    S0inv = np.linalg.inv(S0)

    def coframe_columns(s):
        # M[C, I]: e^C = M[C, I] dy^I on the (x, s) chart
        M = np.zeros((N, m))
        M[:n, :n] = E
        M[n:, :n] = Ac
        M[n:, n:] = vmat(s)
        return M

    M0 = coframe_columns(s0)

    def omega_coord(s):
        return np.einsum("abC,Ci->abi", W, coframe_columns(s))

    def phi(s):
        om = omega_coord(s)
        S = smat(s)
        Sinv = np.linalg.inv(S)
        out = np.einsum("ab,bci,cd->adi", Sinv, om, S)
        if vary:
            dS = _fd_grad(smat, s, (N, N))
            out[:, :, n:] += np.einsum("ab,bcd->acd", Sinv, dS)
        return out

    phi0 = phi(s0)
    dphi_fiber = _fd_grad(phi, s0, (N, N, m))  # [.., I, delta] = d_delta phi_I

    # exact antisymmetrized coordinate derivative of omega over base 2-planes
    dW_coord = np.einsum("abCd,dm->abCm", dW, E)
    dM = np.zeros((N, n, n))  # d_mu M[C, nu] - d_nu M[C, mu]
    dM[:n] = np.einsum("abc,bm,cn->amn", geom.C, E, E)
    dM[n:] = dAc
    dom_bb = np.einsum("abCm,Cn->abmn", dW_coord, M0[:, :n])
    dom_bb = dom_bb - np.swapaxes(dom_bb, 2, 3)
    dom_bb = dom_bb + np.einsum("abC,Cmn->abmn", W, dM)
    # d_mu omega_{n+delta}: only the fiber coframe columns have no base block
    dom_mixed = np.einsum("abCm,Ci->abmi", dW_coord, M0)[:, :, :, n:]

    om_coord = np.einsum("abCD,Ci,Dj->abij", Omega, M0, M0)
    worst = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            if i < n and j < n:
                danti = S0inv @ dom_bb[:, :, i, j] @ S0
            elif i < n <= j:
                danti = (S0inv @ dom_mixed[:, :, i, j - n] @ S0
                         - dphi_fiber[:, :, i, j - n])
            else:
                danti = (dphi_fiber[:, :, j, i - n]
                         - dphi_fiber[:, :, i, j - n])
            Phi = danti + phi0[:, :, i] @ phi0[:, :, j] - phi0[:, :, j] @ phi0[:, :, i]
            res = np.abs(om_coord[:, :, i, j] - S0 @ Phi @ S0inv).max()
            worst = max(worst, float(res))
    return worst
