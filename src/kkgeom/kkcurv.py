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

Total-space index convention: ``A < n`` is a base index, ``A >= n`` a fiber
index; all coefficients are functions of the chart point only (they are
constant along the fibers), so frame derivatives in fiber directions vanish.

Every function takes one point or a batch alike: arrays carry the batch
axes of the geometry in front of the shapes listed here, and scalars and
residual norms hold one value per point.  The algebra is ``geom.spec``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basegeo import GeometryAtPoint, base_curvature_from_geometry

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


@dataclass(frozen=True)
class KKConnection:
    """Connection coefficients W[A, B, C] with omega^A_B = W[A,B,C] e^C,
    plus the structure coefficients K[A, B, C] of de^A = (1/2) K e^B /\\ e^C
    and the frame derivatives dW[A, B, C, d] along base directions."""

    geom: GeometryAtPoint
    W: np.ndarray  # (N, N, N)
    K: np.ndarray  # (N, N, N)
    dW: np.ndarray  # (N, N, N, n)

    def antisymmetry_residual(self):
        """Max violation of omega^{AB} + omega^{BA} = 0 after raising with h."""
        up = np.einsum("...axc,xb->...abc", self.W, self.geom.spec.h_inv())
        return _max_abs(up + np.swapaxes(up, -3, -2), 3)

    def torsion_residual(self):
        """Max violation of de^A + omega^A_C /\\ e^C = 0 against K."""
        return _max_abs(self.K - (self.W - np.swapaxes(self.W, -2, -1)), 3)


@dataclass(frozen=True)
class KKCurvature:
    ricci: np.ndarray  # (N, N)
    scalar: np.ndarray  # ()
    einstein: np.ndarray  # (N, N)


@dataclass(frozen=True)
class ClosedFormCurvature:
    """The five closed-form curvature blocks of the total-space connection."""

    ric_base: np.ndarray  # (n, n)   Ric^a_d
    ric_mixed: np.ndarray  # (n, r)  Ric^a_delta
    ric_fiber: np.ndarray  # (r, r)  Ric^alpha_delta
    scalar: np.ndarray  # ()
    ein_base: np.ndarray  # (n, n); the mixed Einstein block is ric_mixed


@dataclass(frozen=True)
class EYMResidual:
    einstein_block: np.ndarray  # (n, n)
    ym_block: np.ndarray  # (r, n)

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
    n, N = spec.n, spec.N
    batch = geom.point.shape[:-1]
    cf = spec.fiber_c()
    W = np.zeros(batch + (N, N, N))
    dW = np.zeros(batch + (N, N, N, n))

    # F_gamma^a_c: fiber index lowered with k, first base index raised with b^-1
    binvT, r = spec.b_inv().T, spec.r
    Fm = binvT @ (spec.k @ geom.F.reshape(batch + (r, n * n))).reshape(geom.F.shape)
    kdF = (spec.k @ geom.dF.reshape(batch + (r, n**3))).reshape(batch + (r, n, n * n))
    dFm = (binvT @ kdF).reshape(geom.dF.shape)
    W[..., :n, :n, :n] = geom.gamma
    W[..., :n, :n, n:] = -0.5 * np.moveaxis(Fm, -3, -1)  # e^gamma coefficient
    # omega^a_gamma = (1/2) F_{gamma b}^a e^b: the same numbers, since F is antisymmetric
    W[..., :n, n:, :n] = np.swapaxes(W[..., :n, :n, n:], -2, -1)
    W[..., n:, :n, :n] = -0.5 * np.swapaxes(geom.F, -2, -1)  # omega^al_c = -(1/2) F^al_{bc} e^b
    W[..., n:, n:, n:] = -0.5 * np.swapaxes(cf, -2, -1)  # -(1/2) c^al_{beta gamma} e^beta
    # + c^al_{beta gamma} A^beta_c e^c
    W[..., n:, n:, :n] = np.einsum("abg,...bc->...agc", cf, geom.A)

    dW[..., :n, :n, :n, :] = geom.dgamma
    dW[..., :n, :n, n:, :] = -0.5 * np.moveaxis(dFm, -4, -2)
    dW[..., :n, n:, :n, :] = np.swapaxes(dW[..., :n, :n, n:, :], -3, -2)
    dW[..., n:, :n, :n, :] = -0.5 * np.swapaxes(geom.dF, -3, -2)
    dW[..., n:, n:, :n, :] = np.einsum("abg,...bcd->...agcd", cf, geom.dA)

    K = np.zeros(batch + (N, N, N))
    K[..., :n, :n, :n] = geom.C
    K[..., n:, :n, :n] = geom.F
    K[..., n:, n:, n:] = cf
    mixed = -np.einsum("abg,...bc->...acg", cf, geom.A)  # coefficient of e^c /\ e^gamma
    K[..., n:, :n, n:] = mixed
    K[..., n:, n:, :n] = -np.swapaxes(mixed, -2, -1)

    return KKConnection(geom=geom, W=W, K=K, dW=dW)


def curvature_direct(conn: KKConnection) -> KKCurvature:
    """Ricci, scalar and Einstein tensors from d omega + omega /\\ omega.

    Ricci^A_C = Omega^A_{X; C B} h^{XB} for the curvature Omega of
    :func:`riemann_direct`, but h^-1 is contracted into each term of the
    expansion before the terms are summed, so Omega itself is never formed.
    """
    W, K, dW = conn.W, conn.K, conn.dW
    spec = conn.geom.spec
    n, N = spec.n, spec.N
    lead = W.shape[:-3]
    hinv = spec.h_inv()

    # W K[A,X,C,B] h^{XB} = T[A,Y,B] K[Y,C,B] with T[A,Y,B] = W[A,X,Y] h^{XB}
    T = np.swapaxes(W, -2, -1) @ hinv
    ricci = _flat(T, 1) @ _flat(np.swapaxes(K, -2, -1), 2)
    # WW[A,X,C,B] h^{XB} = W[A,Y,C] v[Y] with the trace v[Y] = W[Y,X,B] h^{XB}
    v = _flat(W, 1) @ hinv.reshape(-1)
    ricci += (np.swapaxes(W, -2, -1) @ v[..., None, :, None])[..., 0]
    # -WW[A,X,B,C] h^{XB} = -U[A,Y,X] W[Y,X,C] with U[A,Y,X] = W[A,Y,B] h^{XB}
    ricci -= _flat(W @ hinv.T, 1) @ _flat(W, 2)
    # the d omega terms: + d_C W[A,X,B] h^{XB} for base C, - d_b W[A,X,C] h^{Xb}
    ricci[..., :n] += hinv.reshape(-1) @ dW.reshape(lead + (N, N * N, n))
    ricci -= _flat(np.moveaxis(dW, -3, -2), 1) @ hinv[:, :n].reshape(-1)

    scalar = np.trace(ricci, axis1=-2, axis2=-1)
    einstein = ricci - 0.5 * scalar[..., None, None] * np.eye(N)
    return KKCurvature(ricci=ricci, scalar=scalar, einstein=einstein)


def riemann_direct(conn: KKConnection) -> np.ndarray:
    """The curvature Omega^A_{C; D E} of d omega + omega /\\ omega in the
    moving coframe, shape ``(N, N, N, N)`` per point.

    Coefficient derivatives act along base frame directions only; the
    ``d e^A`` contributions enter through the structure coefficients K.
    """
    W, K, dW = conn.W, conn.K, conn.dW
    spec = conn.geom.spec
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
    spec = geom.spec
    n = spec.n
    cf = spec.fiber_c()
    kinv = spec.k_inv()
    base = base_curvature_from_geometry(geom)

    F, binv = geom.F, spec.b_inv()
    lead, r = F.shape[:-3], spec.r
    # F_beta^{ac}: fiber index lowered with k, both base indices raised with b^-1
    Fup = binv.T @ (spec.k @ F.reshape(lead + (r, n * n))).reshape(F.shape) @ binv
    # the divergence dF_beta^{ac}_{,c} of the same raising, contracted as it is raised
    div = (spec.k @ (geom.dF.reshape(lead + (r, n, n * n)) @ binv.reshape(-1))) @ binv
    g = geom.gamma

    FF = np.einsum("...bac,...bdc->...ad", Fup, F)
    ric_base = base.ricci - 0.5 * FF

    t2 = np.einsum("...abc,...dbc->...da", g, Fup)
    t3 = np.einsum("...cbc,...dab->...da", g, Fup)
    # t4[delta, a] = c^g_{al delta} A^al_c F_g^{ac}, from P[g, a, al] = F_g^{ac} A^al_c
    P = Fup @ np.swapaxes(geom.A, -2, -1)[..., None, :, :]
    t4 = np.swapaxes(np.swapaxes(P, -3, -2).reshape(lead + (n, r * r)) @ cf.reshape(r * r, r),
                     -2, -1)
    ric_mixed = 0.5 * np.swapaxes(div + t2 + t3 - t4, -2, -1)  # (n, r): rows a, columns delta

    cc = np.einsum("abg,bde,ge->ad", cf, cf, kinv)  # c^al_{beta gamma} c^beta_{delta eps} k^{gamma eps}
    ric_fiber = 0.25 * np.einsum("...dbc,...abc->...ad", Fup, F) - 0.25 * cc

    ff = np.einsum("...abc,...abc->...", Fup, F)
    cck = float(np.trace(cc))
    scalar = base.scalar - 0.25 * ff - 0.25 * cck

    ein_base = (
        base.einstein
        - 0.5 * (FF - 0.25 * ff[..., None, None] * np.eye(n))
        + 0.125 * cck * np.eye(n)
    )
    return ClosedFormCurvature(
        ric_base=ric_base,
        ric_mixed=ric_mixed,
        ric_fiber=ric_fiber,
        scalar=scalar,
        ein_base=ein_base,
    )


def eym_residuals(closed: ClosedFormCurvature) -> EYMResidual:
    """Residual tensors of the Einstein-Yang-Mills system at the geometry's points.

    For exact solutions both blocks vanish; otherwise they quantify how far
    the configuration is from solving the system (they are data, not errors).
    """
    return EYMResidual(
        einstein_block=closed.ein_base,
        ym_block=2.0 * np.swapaxes(closed.ric_mixed, -2, -1),
    )


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
