"""Block Levi-Civita connection on the total space and its curvature.

The connection 1-form is assembled from the base connection, the gauge field
strength and the fiber structure constants.  Its curvature is computed two
independent ways: a direct structure-equation expansion (``d omega + omega /\\
omega`` with all ``d e^A`` terms substituted from the structure equations)
and the closed-form Ricci/Einstein block formulas.  Agreement of the two
routes is the module's central check.  The direct route contracts each term
of the expansion with h^-1 on its own, so it reaches Ricci without forming
the curvature 2-form Omega (N^4 numbers per point); ``riemann_direct``
builds Omega from the same expansion for the gauge-covariance check alone.
The Einstein-Yang-Mills residuals are the closed-form Einstein block and the
gauge-covariant divergence of the field strength.

Every kernel is a batched matmul on flat views of the blocks, with no einsum
and no outer product: the c A terms of W and K are one (r^2, r) matmul, the
two d omega terms of the direct route one matmul with a constant matrix of
h^-1 entries.  The closed form reads the geometry, ``spec.fiber_cc()`` and
the cosmological constant only, never an array of the direct route.

Total-space index convention: ``A < n`` is a base index, ``A >= n`` a fiber
index; all coefficients are functions of the chart point only (they are
constant along the fibers), so frame derivatives in fiber directions vanish.

Every function takes one point or a batch alike: arrays carry the batch
axes of the geometry in front of the shapes listed here, and scalars and
residual norms hold one value per point.  The algebra is ``geom.spec``.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .basegeo import GeometryAtPoint, base_curvature_from_geometry
from .liealg import cosmological_constant

__all__ = [
    "KKConnection",
    "KKCurvature",
    "ClosedFormCurvature",
    "EYMResidual",
    "assemble_omega",
    "curvature_direct",
    "riemann_direct",
    "ricci_closed_form",
    "eym_residuals",
    "cross_check",
]


class KKConnection(namedtuple("KKConnection", "geom W K dW")):
    """Connection coefficients W[A, B, C], (N, N, N), with omega^A_B =
    W[A,B,C] e^C, plus the structure coefficients K[A, B, C], (N, N, N), of
    de^A = (1/2) K e^B /\\ e^C and the frame derivatives dW[A, B, C, d],
    (N, N, N, n), along base directions, at the points of ``geom``."""

    __slots__ = ()

    def antisymmetry_residual(self):
        """Max violation of omega^{AB} + omega^{BA} = 0 after raising with h."""
        # U[A, C, B] = W[A, X, C] h^{XB}; the pair (A, B) is the outer pair of U
        U = np.swapaxes(self.W, -2, -1) @ self.geom.spec.h_inv()
        return _max_abs(U + np.swapaxes(U, -3, -1), 3)

    def torsion_residual(self):
        """Max violation of de^A + omega^A_C /\\ e^C = 0 against K."""
        return _max_abs(self.K - (self.W - np.swapaxes(self.W, -2, -1)), 3)


class KKCurvature(namedtuple("KKCurvature", "ricci scalar einstein")):
    """Ricci (N, N), scalar () and Einstein (N, N) tensors of the total space."""

    __slots__ = ()


class ClosedFormCurvature(namedtuple("ClosedFormCurvature",
                                     "ric_base ric_mixed ric_fiber scalar ein_base")):
    """The five closed-form curvature blocks of the total-space connection:
    Ric^a_d (n, n), Ric^a_delta (n, r), Ric^alpha_delta (r, r), the scalar
    () and the base Einstein block (n, n); the mixed Einstein block is
    ``ric_mixed``."""

    __slots__ = ()


class EYMResidual(namedtuple("EYMResidual", "einstein_block ym_block")):
    """The Einstein block (n, n) and Yang-Mills block (r, n) of the residual."""

    __slots__ = ()

    @property
    def einstein_norm(self):
        return _max_abs(self.einstein_block)

    @property
    def ym_norm(self):
        return _max_abs(self.ym_block)


def _max_abs(block, rank=2):
    """Per-point max |component| over the trailing ``rank`` axes (0 if r = 0)."""
    return np.abs(block).max(axis=tuple(range(-rank, 0)), initial=0.0)


def assemble_omega(geom: GeometryAtPoint) -> KKConnection:
    """Build the block connection 1-form at the geometry's points.

    Blocks: base-base is the base connection corrected by the mixed field
    strength along fiber directions; base-fiber and fiber-base carry the
    half field strength; fiber-fiber carries the structure constants and the
    gauge potential.
    """
    spec = geom.spec
    n, N, r = spec.n, spec.N, spec.r
    batch = geom.point.shape[:-1]
    cf = spec.fiber_c()
    c_ag = np.swapaxes(cf, -2, -1).reshape(r * r, r)  # c^al_{beta gamma} as [(al, gamma), beta]
    cA = (c_ag @ geom.A).reshape(batch + (r, r, n))  # [al, gamma, c]: c^al_{beta gamma} A^beta_c
    W = np.zeros(batch + (N, N, N))
    dW = np.zeros(batch + (N, N, N, n))

    # F_gamma^a_c: fiber index lowered with k, first base index raised with b^-1
    binvT = spec.b_inv().T
    Fm = binvT @ (spec.k @ geom.F.reshape(batch + (r, n * n))).reshape(geom.F.shape)
    kdF = (spec.k @ geom.dF.reshape(batch + (r, n**3))).reshape(batch + (r, n, n * n))
    dFm = (binvT @ kdF).reshape(geom.dF.shape)
    W[..., :n, :n, :n] = geom.gamma
    W[..., :n, :n, n:] = -0.5 * np.moveaxis(Fm, -3, -1)  # e^gamma coefficient
    # omega^a_gamma = (1/2) F_{gamma b}^a e^b: the same numbers, since F is antisymmetric
    W[..., :n, n:, :n] = np.swapaxes(W[..., :n, :n, n:], -2, -1)
    W[..., n:, :n, :n] = -0.5 * np.swapaxes(geom.F, -2, -1)  # omega^al_c = -(1/2) F^al_{bc} e^b
    W[..., n:, n:, n:] = -0.5 * np.swapaxes(cf, -2, -1)  # -(1/2) c^al_{beta gamma} e^beta
    W[..., n:, n:, :n] = cA  # + c^al_{beta gamma} A^beta_c e^c

    dW[..., :n, :n, :n, :] = geom.dgamma
    dW[..., :n, :n, n:, :] = -0.5 * np.moveaxis(dFm, -4, -2)
    dW[..., :n, n:, :n, :] = np.swapaxes(dW[..., :n, :n, n:, :], -3, -2)
    dW[..., n:, :n, :n, :] = -0.5 * np.swapaxes(geom.dF, -3, -2)
    dW[..., n:, n:, :n, :] = (c_ag @ geom.dA.reshape(batch + (r, n * n))).reshape(
        batch + (r, r, n, n))

    K = np.zeros(batch + (N, N, N))
    K[..., :n, :n, :n] = geom.C
    K[..., n:, :n, :n] = geom.F
    K[..., n:, n:, n:] = cf
    K[..., n:, :n, n:] = -np.swapaxes(cA, -2, -1)  # coefficient of e^c /\ e^gamma
    K[..., n:, n:, :n] = cA

    return KKConnection(geom=geom, W=W, K=K, dW=dW)


def curvature_direct(conn: KKConnection) -> KKCurvature:
    """Ricci, scalar and Einstein tensors from d omega + omega /\\ omega.

    Ricci^A_C = Omega^A_{X; C B} h^{XB} for the curvature Omega of
    :func:`riemann_direct`, but h^-1 is contracted into each term of the
    expansion before the terms are summed, so Omega itself is never formed.
    """
    W, K, dW, spec = conn.W, conn.K, conn.dW, conn.geom.spec
    n, N, lead, hinv = spec.n, spec.N, W.shape[:-3], spec.h_inv()

    # W K[A,X,C,B] h^{XB} = T[A,Y,B] K[Y,C,B] with T[A,Y,B] = W[A,X,Y] h^{XB}
    T = np.swapaxes(W, -2, -1) @ hinv
    ricci = _flat(T, 1) @ _flat(np.swapaxes(K, -2, -1), 2)
    # WW[A,X,C,B] h^{XB} = W[A,Y,C] v[Y] with the trace v[Y] = W[Y,X,B] h^{XB}
    v = _flat(W, 1) @ hinv.reshape(-1)
    ricci += (np.swapaxes(W, -2, -1) @ v[..., None, :, None])[..., 0]
    # -WW[A,X,B,C] h^{XB} = -U[A,Y,X] W[Y,X,C] with U[A,Y,X] = W[A,Y,B] h^{XB}
    W_2 = _flat(W, 2)
    ricci -= (W_2 @ hinv.T.copy()).reshape(lead + (N, N * N)) @ W_2  # a C-ordered h^-T is faster
    # the d omega terms, + d_C W[A,X,B] h^{XB} for base C and - d_b W[A,X,C] h^{Xb},
    # as one matmul with D[(X, B, c), C] = h^{XB} delta_cC - h^{Xc} delta_BC
    e = np.eye(N)
    D = hinv[:, :, None, None] * e[:n] - hinv[:, None, :n, None] * e[:, None, :]
    ricci += dW.reshape(lead + (N, N * N * n)) @ D.reshape(N * N * n, N)

    scalar = np.trace(ricci, axis1=-2, axis2=-1)
    einstein = ricci - 0.5 * scalar[..., None, None] * np.eye(N)
    return KKCurvature(ricci=ricci, scalar=scalar, einstein=einstein)


def riemann_direct(conn: KKConnection) -> np.ndarray:
    """The curvature Omega^A_{C; D E} of d omega + omega /\\ omega in the
    moving coframe, shape ``(N, N, N, N)`` per point.

    Coefficient derivatives act along base frame directions only; the
    ``d e^A`` contributions enter through the structure coefficients K.
    """
    W, K, dW, spec = conn.W, conn.K, conn.dW, conn.geom.spec
    n, N = spec.n, spec.N
    dterm = np.zeros(W.shape[:-3] + (N, N, N, N))
    dterm[..., :n, :] += np.swapaxes(dW, -2, -1)  # d_D W[A,C,E]
    dterm[..., :n] -= dW  # - d_E W[A,C,D]
    # W K[A,C,D,E] = W[A,C,B] K[B,D,E]; omega /\ omega = WW[A,C,D,E] - WW[A,C,E,D]
    # with WW[A,C,D,E] = W[A,B,D] W[B,C,E]
    WW = np.swapaxes(_contract(np.swapaxes(W, -2, -1), W), -3, -2)
    return dterm + _contract(W, K) + WW - np.swapaxes(WW, -2, -1)


def _flat(X, split):
    """``X`` with its trailing three axes merged into two: the first ``split``
    of them into rows, the rest into columns."""
    i, j, k = X.shape[-3:]
    return X.reshape(X.shape[:-3] + ((i, j * k) if split == 1 else (i * j, k)))


def _contract(X, Y):
    """out[..., i, j, k, l] = X[..., i, j, b] Y[..., b, k, l], as one batched matmul."""
    N = X.shape[-1]
    flat = X.reshape(X.shape[:-3] + (-1, N)) @ Y.reshape(Y.shape[:-3] + (N, -1))
    return flat.reshape(X.shape[:-1] + Y.shape[-2:])


def ricci_closed_form(geom: GeometryAtPoint) -> ClosedFormCurvature:
    """The closed-form Ricci blocks, scalar curvature and Einstein blocks."""
    spec, F, g = geom.spec, geom.F, geom.gamma
    n, r, lead, binv = spec.n, spec.r, F.shape[:-3], spec.b_inv()
    base = base_curvature_from_geometry(geom)
    # F_beta^{ac}: fiber index lowered with k, both base indices raised with b^-1
    Fup = binv.T @ (spec.k @ F.reshape(lead + (r, n * n))).reshape(F.shape) @ binv
    # the divergence dF_beta^{ac}_{,c} of the same raising, contracted as it is raised
    div = (spec.k @ (geom.dF.reshape(lead + (r, n, n * n)) @ binv.reshape(-1))) @ binv
    Fup_1, F_1 = _flat(Fup, 1), _flat(F, 1)  # [beta, (a, c)]
    # FF[a, d] = F_beta^{ac} F^beta_{dc}, each factor with a moved in front of beta
    FF = _flat(np.swapaxes(Fup, -3, -2), 1) @ _flat(np.swapaxes(F, -2, -1), 2)
    ric_base = base.ricci - 0.5 * FF
    t2 = Fup_1 @ np.swapaxes(_flat(g, 1), -2, -1)  # gamma[a, b, c] F_delta^{bc}
    # gamma[c, b, c] F_delta^{ab}, from the trace of gamma over its outer pair
    t3 = (Fup @ np.trace(g, axis1=-3, axis2=-1)[..., None, :, None])[..., 0]
    # t4[delta, a] = c^g_{al delta} A^al_c F_g^{ac}, from P[g, a, al] = F_g^{ac} A^al_c
    P = Fup @ np.swapaxes(geom.A, -2, -1)[..., None, :, :]
    t4 = np.swapaxes(np.swapaxes(P, -3, -2).reshape(lead + (n, r * r))
                     @ spec.fiber_c().reshape(r * r, r), -2, -1)
    ric_mixed = 0.5 * np.swapaxes(div + t2 + t3 - t4, -2, -1)  # (n, r): rows a, columns delta

    cc = spec.fiber_cc()
    ric_fiber = 0.25 * (F_1 @ np.swapaxes(Fup_1, -2, -1)) - 0.25 * cc
    ff = np.trace(FF, axis1=-2, axis2=-1)
    lam = cosmological_constant(spec)  # the cosmological terms are +2 lam and -lam I
    scalar = base.scalar - 0.25 * ff + 2.0 * lam
    ein_base = (base.einstein - 0.5 * (FF - 0.25 * ff[..., None, None] * np.eye(n))
                - lam * np.eye(n))
    return ClosedFormCurvature(ric_base, ric_mixed, ric_fiber, scalar, ein_base)


def eym_residuals(closed: ClosedFormCurvature) -> EYMResidual:
    """Residual tensors of the Einstein-Yang-Mills system at the geometry's points.

    For exact solutions both blocks vanish; otherwise they quantify how far
    the configuration is from solving the system (they are data, not errors).
    """
    return EYMResidual(closed.ein_base, 2.0 * np.swapaxes(closed.ric_mixed, -2, -1))


def cross_check(direct: KKCurvature, closed: ClosedFormCurvature) -> dict:
    """Per-point max discrepancy between the direct and closed-form routes, by block.

    The mixed Einstein block is the mixed Ricci block (h is block diagonal),
    so ``ric_mixed`` covers it."""
    n = closed.ric_base.shape[-1]
    return {
        "ric_base": _max_abs(direct.ricci[..., :n, :n] - closed.ric_base),
        "ric_mixed": _max_abs(direct.ricci[..., :n, n:] - closed.ric_mixed),
        "ric_fiber": _max_abs(direct.ricci[..., n:, n:] - closed.ric_fiber),
        "scalar": np.abs(direct.scalar - closed.scalar),
        "ein_base": _max_abs(direct.einstein[..., :n, :n] - closed.ein_base),
    }
