r"""Numerical checks of the coframe construction on a fiber chart.

Two structural identities of the coframe construction are verified: the
exterior-derivative identity

    de^alpha - (1/2)[e /\ e]^alpha + [A /\ e]^alpha = F^alpha

and the gauge covariance Omega = S Phi S^{-1} of the total-space curvature
under the frame change S = Ad_g.  They need the fiber group (``bundle``),
the base geometry (``basegeo``) and the curvature (``kkcurv``) alike.

Both verifications work on a local chart (x, s): x is the base chart point
(frozen inside a GeometryAtPoint) and s are exponential fiber coordinates,
g(s) = exp(sum_delta s^delta T_delta) * g0.  In these coordinates the extra
coframe components are e^alpha = A^alpha_mu dx^mu + V^alpha_delta ds^delta
with V the right-trivialized derivative of the exponential.  Like
``basegeo`` and ``kkcurv``, they take one point or a batch alike: the
geometry, the group elements and the fiber points carry the same leading
batch axes, the fiber stencils of every point are extra rows of one array,
and the residuals hold one value per point.  Two quantities are differenced
along the fiber, V in ``verify_deextra`` and the gauge-transformed
connection in ``verify_gauge_covariance``, on the fourth-order stencil of
``basegeo`` with step ``_FD_STEP``; the gauge map itself is differentiated
exactly, through the Maurer-Cartan form.
"""

from __future__ import annotations

import numpy as np

from .basegeo import _fd_gradient, _fd_stencil, _frame_2form, _quadratic, check_finite
from .bundle import GroupElement, _fiber_ad, _fiber_adjoint, _identity_padded, expm
from .errors import StructuralError
from .kkcurv import assemble_omega, riemann_direct

__all__ = ["verify_deextra", "verify_gauge_covariance"]

# step of the basegeo fourth-order stencil in every fiber-direction derivative
_FD_STEP = 1e-4


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


def _fiber_chart(spec):
    """What :func:`verify_gauge_covariance` needs at the 1 + 4r points u
    of the fiber stencil around s = 0, whatever the base point: V =
    dexp_u (columns V_delta), the fiber block exp(ad_u) of Ad_exp(u), and
    ad(V_delta), each ``(1 + 4r, ...)``."""
    ad_u = _fiber_ad(spec, _fd_stencil(spec.r, _FD_STEP))
    V = _dexp_right(ad_u)
    return V, expm(ad_u), _fiber_ad(spec, np.swapaxes(V, -2, -1))


def _coordinate_gauge_data(geom):
    """Coordinate components of A, F and the antisymmetrized dA at the
    frozen base points: A_mu, F_{mu nu}, and d_mu A_nu - d_nu A_mu, shapes
    ``(r, n)``, ``(r, n, n)`` and ``(r, n, n)``.  Each 2-form is E^T X_al E
    for its frame components X_al (``_frame_2form`` with E for E^-1), one
    matmul chain over the fiber index."""
    E = geom.E
    # d_mu A_nu - d_nu A_mu: the frame derivatives, antisymmetrized, plus the
    # anholonomy part A^al_b C^b_{cd} coming from differentiating the coframe
    AC = (geom.A @ geom.C.reshape(geom.C.shape[:-3] + (geom.n, -1))).reshape(geom.dA.shape)
    dAc = _frame_2form(np.swapaxes(geom.dA, -2, -1) - geom.dA + AC, E)
    return geom.A @ E, _frame_2form(geom.F, E), dAc


def verify_deextra(geom, s=None):
    """Residual of de^alpha - (1/2)[e/\\e]^alpha + [A/\\e]^alpha = F^alpha.

    Both sides are evaluated as coordinate 2-forms on the (x, s) chart at
    the frozen base points of ``geom`` and fiber points ``s`` (default 0;
    shape ``(..., r)`` with the geometry's batch axes, or one r-vector for
    all), one residual per point.  The identity is invariant under right
    translation, so it holds for every g0 and takes none.  Its fiber block
    is the Maurer-Cartan equation of V itself, so dV is differenced: derived
    from that equation, the check would hold by construction.
    """
    spec = geom.spec
    n, r = spec.n, spec.r
    cf = spec.fiber_c()
    batch = geom.point.shape[:-1]
    s = np.zeros(r) if s is None else np.asarray(s, dtype=float)
    if s.shape[-1:] != (r,):
        raise StructuralError(f"fiber points need {r} coordinates, got shape {s.shape}")

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

    half_ee = _quadratic(cf, e, e)
    a_wedge_e = _quadratic(cf, a_full, e)
    a_wedge_e = a_wedge_e - np.swapaxes(a_wedge_e, -2, -1)
    return np.abs(de - half_ee + a_wedge_e - f_full).max(axis=(-3, -2, -1))


def verify_gauge_covariance(geom, g: GroupElement):
    """Max residual of Omega = S Phi S^{-1} over all coordinate 2-planes,
    one value per point of ``geom`` (``g`` carries the same batch axes, or
    none for one element at every point).

    The connection is pushed to the (x, s) chart, gauge-transformed by
    S(s) = Ad_{exp(u(s)) g0}, its curvature Phi = d phi + (1/2)[phi /\\ phi]
    is assembled with exact base derivatives and 4th-order fiber differences
    of phi, and the result is conjugated back and compared against the
    structure-equation curvature.  S is needed at the 1 + 4r points of the
    fiber stencil only: its fiber derivative is exact, d_delta S =
    ad(V_delta) S, from the right Maurer-Cartan form dg g^-1 = V ds of
    g(s) = exp(u(s)) g0, with V the fiber block of the chart coframe.

    Every contraction is a batched matmul, and the forms on the chart are
    laid out planes first, ``[..., k, I, a, b]``: phi[k, I] is the N x N
    matrix of the dy^I component at fiber stencil point k, dphi[delta, I]
    its fiber derivative d_delta phi_I, and the (I, J) components of
    d omega and Phi are stacked the same way, so S acts on the trailing
    matrix axes.  Only the upper planes I < J are compared: Omega is
    projected onto them by one matmul against the matching columns of
    M0 (x) M0.

    Raises NonFiniteGeometryError at the first point where Omega overflows.
    """
    spec = geom.spec
    if not np.array_equal(g.rep.spec.fiber_c(), spec.fiber_c()):
        raise StructuralError("rep and algebra have different fiber structure constants")
    n, r, N = spec.n, spec.r, spec.N
    m, P = n + r, N * N  # chart dimension; entries of one N x N matrix
    batch = geom.point.shape[:-1]
    conn = assemble_omega(geom)
    W, dW = conn.W, conn.dW
    # a finite geometry can still overflow the curvature products (a tiny
    # frame makes F huge): that is caught as a non-finite Omega, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        Omega = riemann_direct(conn)
    check_finite(geom.point, {"Omega": Omega}, "curvature")
    E = geom.E
    Ac, _, dAc = _coordinate_gauge_data(geom)
    V, exp_ad_u, ad_V = _fiber_chart(spec)  # [k], [k], [k, delta]

    # the fiber block of S = diag(1, fiber) at every stencil point (phi is
    # differenced there) and its exact fiber derivative; dS has no base block
    fiber = exp_ad_u @ _fiber_adjoint(g)[..., None, :, :]
    dfiber = ad_V @ fiber[..., :, None, :, :]  # [k, delta]
    fiber_inv = np.linalg.inv(fiber)
    S, Sinv = _identity_padded(fiber, n), _identity_padded(fiber_inv, n)

    # M[C, I]: e^C = M[C, I] dy^I on the (x, s) chart, at each stencil point
    M = np.zeros(batch + (len(V), N, m))
    M[..., :n, :n] = E[..., None, :, :]
    M[..., n:, :n] = Ac[..., None, :, :]
    M[..., n:, n:] = V
    # phi_I = S^-1 omega_I S with omega_I = M[C, I] W[:, :, C]: S^-1 W[:, :, C]
    # for every C in one matmul, contracted with M, then times S
    SW = Sinv @ W.reshape(batch + (1, N, P))
    om = np.swapaxes(M, -2, -1) @ np.swapaxes(SW.reshape(SW.shape[:-2] + (P, N)), -2, -1)
    phi = (om.reshape(om.shape[:-2] + (m * N, N)) @ S).reshape(om.shape[:-1] + (N, N))
    phi[..., n:, n:, n:] += fiber_inv[..., None, :, :] @ dfiber
    phi0 = phi[..., 0, :, :, :]
    dphi = np.moveaxis(_fd_gradient(phi, -4, _FD_STEP), -1, -4)

    # d_mu omega_J - d_J omega_mu for base mu, exact.  The coordinate
    # derivative of omega_J is dW_J[mu] = M0[C, J] d_mu W[:, :, C]; on base
    # planes the coframe factor adds W[:, :, C] dM[C, mu, nu].
    M0 = M[..., 0, :, :]
    dW_coord = np.swapaxes(E, -2, -1)[..., None, :, :] @ np.moveaxis(
        dW.reshape(batch + (P, N, n)), -3, -1)  # [C, mu, (a, b)]
    dW_J = (np.swapaxes(M0, -2, -1) @ dW_coord.reshape(batch + (N, n * P))).reshape(
        batch + (m, n, P))
    dM = np.zeros(batch + (N, n, n))  # d_mu M[C, nu] - d_nu M[C, mu]
    dM[..., :n, :, :] = _frame_2form(geom.C, E)
    dM[..., n:, :, :] = dAc
    dom = np.swapaxes(dW_J, -3, -2).copy()  # [mu, J]
    WdM = np.swapaxes(dM.reshape(batch + (N, n * n)), -2, -1) @ np.swapaxes(
        W.reshape(batch + (P, N)), -2, -1)
    dom[..., :n, :] += WdM.reshape(batch + (n, n, P)) - dW_J[..., :n, :, :]

    # d_I phi_J - d_J phi_I on every 2-plane: exact and conjugated by S at
    # s = 0 for base I, fiber differences for fiber I and J
    S0, S0inv = S[..., 0, :, :], Sinv[..., 0, :, :]
    danti = np.empty(batch + (m, m, N, N))
    danti[..., :n, :, :, :] = (S0inv[..., None, None, :, :] @ dom.reshape(batch + (n, m, N, N))
                               @ S0[..., None, None, :, :])
    danti[..., n:, :, :, :] = dphi
    danti[..., :, n:, :, :] -= np.swapaxes(dphi, -4, -3)
    I, J = np.triu_indices(m, 1)
    Phi = (danti[..., I, J, :, :] + phi0[..., I, :, :] @ phi0[..., J, :, :]
           - phi0[..., J, :, :] @ phi0[..., I, :, :])
    conj = (S0[..., None, :, :] @ Phi @ S0inv[..., None, :, :]).reshape(Phi.shape[:-2] + (P,))
    # Omega[a, b, C, D] M0[C, I] M0[D, J] as [(a, b), (I, J)]
    M0M0 = (M0[..., :, None, I] * M0[..., None, :, J]).reshape(batch + (P, len(I)))
    om_coord = Omega.reshape(batch + (P, P)) @ M0M0
    return np.abs(om_coord - np.swapaxes(conj, -2, -1)).max(axis=(-2, -1))
