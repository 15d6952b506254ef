"""Chart geometry: coframe, Levi-Civita connection, gauge field strength.

Everything is evaluated on a single chart, at one point or at a batch of
points: a point array has the chart coordinates on its last axis, and every
result carries the point array's leading axes in front of its own.  Coframe
and gauge entries are :class:`~kkgeom.fieldexpr.FieldProvider` objects, so
first and second coordinate derivatives are exact.

The geometry comes in two halves.  The value half computes E, E^-1, the
anholonomy C and the frame components of A and F from the value and
first-partial fills.  The frame derivatives dC, dA and dF come either from
the chain-rule half, on the exact second partials (``deriv_mode="analytic"``),
or from fourth-order central differences of the values
(``deriv_mode="fd"``): one value pass over each point and its 4n stencil
rows, with no second partials.  That stencil (the origin first, then four
rows per axis) is the one finite-difference stencil of the package;
``bundle`` uses it for its fiber differences too.  Both routes then take the
connection coefficients gamma from C at the points alone, and dgamma =
gamma(dC), since gamma is linear in C.

A block costs a few numpy calls per tensor, not one per component: each
provider matrix is filled in one pass per derivative order, and every
contraction is a batched matmul, with no einsum and no outer product:
E^-T X E^-1 for a frame 2-form; c Y as an (r^2, r) matmul, then X^T (c Y),
for a c X Y quadratic; and in the chain-rule half each coordinate
derivative is made a frame derivative on its trailing axis before the
product rule runs.  The matmuls re-associate the einsum contractions of the
definitions and use no symmetry that those do not, so an inline ``c`` need
not be antisymmetric.

:func:`geometry_at_point` is the one route to the frame geometry and the one
place where the algebra spec comes in; its result carries the spec, and every
later stage (:func:`base_curvature_from_geometry`, ``kkcurv``, ``bundle``)
reads it there.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import (DegenerateCoframeError, EvalDomainError, NonFiniteGeometryError,
                     StructuralError)
from .fieldexpr import FieldProvider, Num, pretty, run_into
from .liealg import LieAlgebraSpec, _number, _numbers

__all__ = [
    "CoframeField",
    "GaugeField",
    "GeometryAtPoint",
    "geometry_at_point",
    "BaseCurvature",
    "base_curvature_from_geometry",
    "load_fields",
    "check_finite",
]

_DEGENERACY_FACTOR = 1e-12  # threshold of |det(e / max|e|)|, that is of |det e| / max|e|^n


class _ProviderMatrix:
    """Values and exact partials of a matrix of providers at a batch of points
    of an n-dimensional chart, n >= 2, with coordinates x1..xn.

    ``fill(point, order)`` is the one way in: indexed ``[..., row, mu]``,
    with one derivative direction nu, rho, ... appended per order.

    Each derivative order is filled in one pass.  On first use the order
    gets a plan, built from the providers' compiled derivative trees: a
    constant template holding every entry or distinct partial whose tree is
    a literal number, and one compiled closure for each of the others.  A
    block copies the template once and runs the closures through one
    :func:`~kkgeom.fieldexpr.run_into` call, under one numpy error state;
    each distinct mixed partial is computed once and then written to every
    ordering of its indices.  A closure that leaves its expression's domain
    is located from its slot in the fill: the error names the entry, the
    partial and the first failing point.
    """

    square = False  # whether the rows must number n, as the coframe's do

    def __init__(self, n, entries):
        if n < 2:
            raise StructuralError("chart dimension must be at least 2")
        if self.square and len(entries) != n:
            raise StructuralError(f"{self.block} must be {n}x{n}")
        if any(len(row) != n for row in entries):
            raise StructuralError(f"{self.block} rows must have {n} entries")
        self.n = n
        self.entries = [[_as_provider(p, n) for p in row] for row in entries]
        self._plans = {}

    def _plan(self, order):
        """(template, calls, spread) of ``order``.  The fill is laid out as
        [row, mu, partial] over the distinct partials (sorted index tuples,
        see :func:`_partials`); ``template`` holds the literal ones,
        ``calls`` pairs the closure of every other slot with its flat index,
        and ``spread`` takes each ordering of the derivative indices to its
        partial."""
        plan = self._plans.get(order)
        if plan is None:
            n = self.n
            multis = _partials(n, order)
            template = np.zeros((len(self.entries), n, len(multis)))
            calls = []
            for k, (p, nus) in enumerate(itertools.product(itertools.chain(*self.entries),
                                                           multis)):
                node, fn = p.compiled(nus)
                if isinstance(node, Num):
                    template.flat[k] = node.value
                else:
                    calls.append((fn, k))
            slot = {nus: j for j, nus in enumerate(multis)}
            spread = np.array([slot[tuple(sorted(nus))]
                               for nus in itertools.product(range(n), repeat=order)])
            plan = self._plans[order] = (template, calls, spread)
        return plan

    def fill(self, point, order, fd_step=None):
        """out[..., row, mu, *nus] = d_{nus} entries[row][mu], ``order`` derivatives.

        With ``fd_step`` the last batch axis of ``point`` holds the fd stencil
        rows of each input point, row 0 the point itself; it only changes
        how an evaluation error names its point."""
        point = np.asarray(point, dtype=float)
        n = self.n
        template, calls, spread = self._plan(order)
        batch = point.shape[:-1]
        out = np.empty(batch + template.shape)
        out[...] = template
        failed = run_into(calls, point, out.reshape(batch + (template.size,)))
        if failed is not None:
            raise self._domain_error(*failed, order, point, fd_step) from None
        return out[..., spread].reshape(batch + (len(self.entries), n) + (n,) * order)

    def _domain_error(self, k, exc, order, point, fd_step):
        """The numpy error ``exc`` of slot ``k`` of the ``order`` fill
        located: the entry as written in the field file and the first point
        of the batch at which its partial fails."""
        multis = _partials(self.n, order)
        a, mu, j = np.unravel_index(k, (len(self.entries), self.n, len(multis)))
        p = self.entries[a][mu]
        node, fn = p.compiled(multis[j])
        bad = next((i for i in np.ndindex(point.shape[:-1])
                    if run_into([(fn, 0)], point[i], np.empty(1)) is not None), None)
        where = ""
        if bad is not None:
            at, row = _fd_where(point, bad, fd_step)
            where = f" at point {at.tolist()}{row}"
        return EvalDomainError(f"{self.block}[{a}][{mu}] = {pretty(p.expr)}{where}: "
                               f"{pretty(node)}: {exc}")


def _partials(n, order):
    """The distinct partials of ``order`` derivatives in n variables, as
    sorted index tuples."""
    return list(itertools.combinations_with_replacement(range(n), order))


def _fd_where(point, index, fd_step):
    """Where batch index ``index`` of ``point`` lies: the input point, and
    a suffix naming the fd stencil row when ``fd_step`` is given and the
    row is not row 0 (the layout of :meth:`_ProviderMatrix.fill`), else
    an empty one."""
    if fd_step is None or index[-1] == 0:
        return point[index], ""
    return (point[index[:-1] + (0,)],
            f": fails on its fd stencil row {point[index].tolist()} (fd_step {fd_step})")


class CoframeField(_ProviderMatrix):
    """An n x n matrix of providers: entry (a, mu) is the dx^mu component of e^a."""

    block = "coframe"  # the field-file key, named in evaluation errors
    square = True


class GaugeField(_ProviderMatrix):
    """An r x n matrix of providers: entry (alpha, mu) is A^alpha_mu."""

    block = "gauge"

    @classmethod
    def zero(cls, n, r):
        """The zero potential, r rows of n; reuse it, as its fill plans are cached."""
        return cls(n, [[0.0] * n for _ in range(r)])


def _as_provider(p, n, params=None):
    if isinstance(p, FieldProvider):
        return p
    if isinstance(p, (int, float)):  # a bool or NaN is refused by _number
        return FieldProvider.constant(_number(p, "coframe/gauge entry"), n=n)
    if isinstance(p, str):
        return FieldProvider(p, n=n, params=params)
    raise StructuralError(f"coframe/gauge entries must be providers, strings or numbers, got {p!r}")


# ---------------------------------------------------------------------------
# Batched kernels: leading axes index points, trailing axes are tensor indices


def _frame_matrix(E, point, fd_step=None):
    """E^-1, or DegenerateCoframeError at the first point where E is
    degenerate; with ``fd_step`` a degenerate fd stencil row is named as
    :func:`_fd_where` names it."""
    scale = np.maximum(np.abs(E).max(axis=(-2, -1)), 1e-300)
    det = np.linalg.det(E / scale[..., None, None])  # no scale**n to overflow
    bad = np.abs(det) < _DEGENERACY_FACTOR
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        at, row = _fd_where(np.asarray(point), first, fd_step)
        raise DegenerateCoframeError(at, det[first], row)
    return np.linalg.inv(E)


def _gamma_from_C(C, b, binv, tail=0):
    """gamma[..., a, b, c] from C[..., a, b, c]; ``tail`` trailing axes ride along."""
    # unique coefficients with gamma antisymmetric after lowering and zero torsion
    Cl = _on_first(b, C, tail)
    # gl[a,b,c] = (Cl[a,b,c] + Cl[b,c,a] - Cl[c,a,b]) / 2
    a, c = -3 - tail, -1 - tail
    gl = 0.5 * (Cl + np.moveaxis(Cl, c, a) - np.moveaxis(Cl, a, c))
    return _on_first(binv, gl, tail)


def _on_first(M, X, tail=0):
    """out[..., a, b, c] = M[a, d] X[..., d, b, c], one matmul; ``tail`` axes ride along."""
    n = X.shape[-3 - tail]
    flat = X.reshape(X.shape[:-3 - tail] + (n, math.prod(X.shape[-2 - tail:])))
    return (M @ flat).reshape(X.shape)


def _quadratic(c, X, Y):
    """out[..., a, m, n] = c[a, b, g] X[..., b, m] Y[..., g, n]: c Y with c an
    (r^2, r) matrix, then X^T (c Y)_a for each a; X and Y broadcast."""
    r = c.shape[0]
    CY = (c.reshape(r * r, r) @ Y).reshape(Y.shape[:-2] + (r, r, Y.shape[-1]))  # [..., a, b, n]
    return np.swapaxes(X, -2, -1)[..., None, :, :] @ CY


class GeometryAtPoint(namedtuple("GeometryAtPoint",
                                 "point spec E E_inv C dC gamma dgamma A dA F dF")):
    """All frame-level data needed by the total-space curvature formulas.

    The fields: ``point`` (n,); ``spec``, the LieAlgebraSpec; ``E`` (n, n),
    e^a_mu; ``E_inv`` (n, n), indexed [mu, a]; the anholonomy ``C``
    (n, n, n) and its frame derivative ``dC`` (n, n, n, n); ``gamma``
    (n, n, n) and ``dgamma`` (n, n, n, n); the frame components ``A``
    (r, n) and ``dA`` (r, n, n); the frame components F^alpha_bc ``F``
    (r, n, n) and ``dF`` (r, n, n, n).

    Index conventions: ``gamma[a, b, c]`` is the ``e^c`` coefficient of the
    connection 1-form entry (a, b); trailing index of each ``d*`` array is
    the frame direction of the derivative.  Every field except ``spec``, the
    algebra, carries the batch axes of ``point`` (none for a single point)
    in front of the shapes listed.
    """

    __slots__ = ()

    @property
    def n(self):
        return self.E.shape[-1]

    def torsion_residual(self):
        """Max violation of the first structure equation, as a C-coefficient identity."""
        g = self.gamma
        return np.abs(self.C - (g - np.swapaxes(g, -2, -1))).max(axis=(-3, -2, -1))

    def metricity_residual(self):
        low = _on_first(self.spec.b, self.gamma)
        return np.abs(low + np.swapaxes(low, -3, -2)).max(axis=(-3, -2, -1))


def _frame_values(coframe, gauge, spec, point, fd_step=None):
    """The value half of the geometry: E, E^-1, C, A and F from the
    value and first-partial fills, as keyword arguments of GeometryAtPoint,
    and the coordinate arrays (d_nu e^a_mu, A_mu, d_nu A_mu) that
    :func:`_frame_derivatives` reuses.  ``fd_step`` marks ``point`` as fd
    stencil rows (see :meth:`_ProviderMatrix.fill`)."""
    E = coframe.fill(point, 0, fd_step)
    Einv = _frame_matrix(E, point, fd_step)
    # dE[a, mu, nu] = d_nu e^a_mu
    dE = coframe.fill(point, 1, fd_step)
    # T[a, mu, nu] = d_mu e^a_nu - d_nu e^a_mu (coordinate components of de^a)
    T = np.swapaxes(dE, -2, -1) - dE
    C = _frame_2form(T, Einv)

    Am = gauge.fill(point, 0, fd_step)  # A^al_mu
    dAm = gauge.fill(point, 1, fd_step)  # d_nu A^al_mu
    # F^al_{mu nu} = d_mu A^al_nu - d_nu A^al_mu + c^al_bg A^b_mu A^g_nu
    # (the quadratic term is antisymmetric in mu, nu when c is in its lower pair)
    Fc = np.swapaxes(dAm, -2, -1) - dAm + _quadratic(spec.fiber_c(), Am, Am)
    values = dict(point=point, spec=spec, E=E, E_inv=Einv, C=C, A=Am @ Einv,
                  F=_frame_2form(Fc, Einv))
    return values, (dE, Am, dAm)


def _frame_derivatives(coframe, gauge, spec, values, coord):
    """The chain-rule half: frame derivatives dC, dA and dF from the
    second-partial fills and the coordinate arrays of :func:`_frame_values`.
    Each coordinate derivative becomes a frame derivative D_d = (E^-1)[rho, d]
    d_rho on its trailing axis first; the product rule then runs on those,
    D_d E^-1 = -E^-1 (D_d E) E^-1 entering through G_d = (D_d E) E^-1."""
    dE, Am, dAm = coord
    point, Einv = values["point"], values["E_inv"]
    n, cf = Am.shape[-1], spec.fiber_c()
    D2E = _to_frame(coframe.fill(point, 2), Einv)  # [a, mu, nu, d] = D_d d_nu e^a_mu
    DAm = _to_frame(dAm, Einv)  # [al, mu, d] = D_d A^al_mu
    D2Am = _to_frame(gauge.fill(point, 2), Einv)
    G = _frame_second(_to_frame(dE, Einv), Einv)  # G[a, b, d] = (D_d E E^-1)[a, b]
    # D_d T[a, mu, nu] = D_d (d_mu e^a_nu - d_nu e^a_mu)
    dC = _d_frame_2form(values["C"], np.swapaxes(D2E, -3, -2) - D2E, Einv, G)
    dA = _frame_second(DAm, Einv) - (values["A"] @ G.reshape(G.shape[:-3] + (n, n * n))
                                     ).reshape(DAm.shape)
    # D_d F^al_{mu nu}; the c A A term with D_d on either factor, the
    # pair (mu, d) or (nu, d) riding along as one column index
    DAm_flat = DAm.reshape(DAm.shape[:-2] + (n * n,))
    DFc = (np.swapaxes(D2Am, -3, -2) - D2Am
           + np.swapaxes(_quadratic(cf, DAm_flat, Am).reshape(D2Am.shape), -2, -1)
           + _quadratic(cf, Am, DAm_flat).reshape(D2Am.shape))
    return {"dC": dC, "dA": dA, "dF": _d_frame_2form(values["F"], DFc, Einv, G)}


def _geometry(values, derivs):
    """GeometryAtPoint from the value half and the frame derivatives dC, dA
    and dF of either route, with gamma from C.  dgamma = gamma(dC): gamma is
    linear in C and b is constant, so the derivative direction rides along
    behind c."""
    b, binv = values["spec"].b, values["spec"].b_inv()
    return GeometryAtPoint(**values, **derivs, gamma=_gamma_from_C(values["C"], b, binv),
                           dgamma=_gamma_from_C(derivs["dC"], b, binv, tail=1))


def _geometry_analytic(coframe, gauge, spec, point):
    values, coord = _frame_values(coframe, gauge, spec, np.asarray(point, dtype=float))
    return _geometry(values, _frame_derivatives(coframe, gauge, spec, values, coord))


def _frame_2form(X, Einv):
    """Frame components X[a, b, c] of coordinate 2-forms X[a, mu, nu]:
    E^-T X_a E^-1 for each a."""
    Einv_1 = Einv[..., None, :, :]
    return np.swapaxes(Einv_1, -2, -1) @ X @ Einv_1


def _d_frame_2form(Y, DX, Einv, G):
    """Frame derivatives [..., a, b, c, d] of the frame 2-forms Y = E^-T X E^-1
    from DX[..., a, mu, nu, d] = D_d X and G[..., x, c, d] = (D_d E E^-1)[x, c]:
    E^-T (D_d X_a) E^-1 - G_d^T Y_a - Y_a G_d, one matmul per factor."""
    lead, (k, n) = Einv.shape[:-2], Y.shape[-3:-1]
    first = _frame_second(_frame_second(DX, Einv).reshape(lead + (k * n, n, n)), Einv)
    G_flat = G.reshape(lead + (n, n * n))  # [x, (c, d)]
    GY = np.swapaxes(Y, -2, -1) @ G_flat[..., None, :, :]  # G[x, b, d] Y[a, x, c], [a, c, b, d]
    YG = Y.reshape(lead + (k * n, n)) @ G_flat
    return (first.reshape(DX.shape) - np.swapaxes(GY.reshape(DX.shape), -3, -2)
            - YG.reshape(DX.shape))


def _frame_second(X, Einv):
    """out[..., k, b, *rest] = (E^-1)[mu, b] X[..., k, mu, *rest], one batched matmul."""
    lead = Einv.shape[:-2]
    k, n = X.shape[len(lead):len(lead) + 2]
    cols = math.prod(X.shape[len(lead) + 2:])  # given, not inferred: X may be empty
    return (np.swapaxes(Einv, -2, -1)[..., None, :, :] @ X.reshape(lead + (k, n, cols))
            ).reshape(X.shape)


def _to_frame(coord, Einv):
    """Turn the trailing coordinate-derivative axis rho of ``coord`` into a
    frame direction: out[..., d] = coord[..., rho] (E^-1)[rho, d]."""
    inner = math.prod(coord.shape[Einv.ndim - 2:-1])  # given, not inferred: coord may be empty
    flat = coord.reshape(Einv.shape[:-2] + (inner, coord.shape[-1]))
    return (flat @ Einv).reshape(coord.shape)


# The one fourth-order central-difference stencil, shared with the fiber
# differences of ``bundle``: f'(x) = sum_k w_k f(x + o_k h) / h + O(h^4).
_FD4_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_FD4_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _fd_stencil(dim: int, h: float) -> np.ndarray:
    """(1 + 4 dim, dim) offsets: the origin, then in row 1 + 4 d + k the step
    _FD4_OFFSETS[k] * h along axis d."""
    steps = np.multiply.outer(np.eye(dim), np.array(_FD4_OFFSETS) * h)  # [d, e, k]
    return np.concatenate([np.zeros((1, dim)), np.moveaxis(steps, -1, 1).reshape(4 * dim, dim)])


def _fd_gradient(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order gradient from values on the :func:`_fd_stencil` rows,
    laid out along ``axis``; the row axis is dropped and the derivative
    direction appended last."""
    values = np.moveaxis(values, axis, 0)
    # the row count is given, not inferred: values may be empty (r = 0)
    rows = values[1:].reshape(((values.shape[0] - 1) // 4, 4) + values.shape[1:])  # [d, k, ...]
    acc = 0.0
    for k, w in enumerate(_FD4_WEIGHTS):
        acc = acc + w * rows[:, k]
    return np.moveaxis(acc / h, 0, -1)


def _geometry_fd(coframe, gauge, spec, point, h):
    """Same contract as the analytic path, but the frame derivatives of C,
    A and F come from fourth-order central differences in the chart: one
    value pass over each point and its 4n stencil rows, no second
    partials."""
    point = np.asarray(point, dtype=float)
    axis = point.ndim - 1  # the stencil-row axis, behind the batch axes
    rows, _ = _frame_values(coframe, gauge, spec, point[..., None, :] + _fd_stencil(spec.n, h), h)
    at = {name: np.take(rows[name], 0, axis) for name in ("E", "E_inv", "C", "A", "F")}
    derivs = {"d" + name: _to_frame(_fd_gradient(rows[name], axis, h), at["E_inv"])
              for name in ("C", "A", "F")}
    return _geometry(dict(point=point, spec=spec, **at), derivs)


def geometry_at_point(
    coframe: CoframeField,
    gauge: GaugeField,
    spec: LieAlgebraSpec,
    point,
    deriv_mode: str = "analytic",
    fd_step: float = 1e-3,
) -> GeometryAtPoint:
    """Evaluate the full frame geometry at a chart point or a batch of points.

    The base metric is ``spec.b``; the coframe carries only the frame, and
    the gauge potential needs one row per fiber direction of ``spec``.  A
    frame that passes the degeneracy test can still be so small or large
    that the frame arrays overflow: that raises NonFiniteGeometryError at
    the first such point.
    """
    _check_dimensions(coframe.n, spec, gauge)
    _check_deriv_mode(deriv_mode)
    # a finite but tiny or huge frame can overflow its products (E^-T X E^-1);
    # that is caught as a non-finite geometry below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if deriv_mode == "analytic":
            geom = _geometry_analytic(coframe, gauge, spec, point)
        else:
            geom = _geometry_fd(coframe, gauge, spec, point, fd_step)
    check_finite(geom.point, {name: getattr(geom, name) for name in geom._fields
                              if name not in ("point", "spec")})
    return geom


def _check_dimensions(n, spec, gauge=None):
    """StructuralError unless the chart dimension ``n`` and the rows of
    ``gauge``, where given, fit ``spec``."""
    if n != spec.n:
        raise StructuralError(f"chart dimension {n} does not match the "
                              f"algebra's base dimension {spec.n}")
    if gauge is not None and len(gauge.entries) != spec.r:
        raise StructuralError(f"gauge potential has {len(gauge.entries)} rows, the "
                              f"algebra's fiber dimension is {spec.r}")


def _check_deriv_mode(deriv_mode):
    if deriv_mode not in ("analytic", "fd"):
        raise StructuralError(f"unknown derivative mode {deriv_mode!r}")


def check_finite(point, arrays, what="frame geometry"):
    """NonFiniteGeometryError at the first of the points ``point`` (shape
    ``(..., n)``) where one of the named ``arrays``, each with the same batch
    axes in front, holds an infinity or NaN."""
    lead = point.ndim - 1  # batch axes; an array may be empty (r = 0)
    finite = {name: np.isfinite(arr).all(axis=tuple(range(lead, arr.ndim)))
              for name, arr in arrays.items()}
    bad = ~np.logical_and.reduce(list(finite.values()))
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise NonFiniteGeometryError(point[first],
                                     [name for name, ok in finite.items() if not ok[first]],
                                     what)


class BaseCurvature(namedtuple("BaseCurvature", "ricci scalar einstein")):
    """Mixed components Ric^a_d (..., n, n), scalar (...) and Einstein
    tensor (..., n, n) of the base."""

    __slots__ = ()


def base_curvature_from_geometry(geom: GeometryAtPoint) -> BaseCurvature:
    """Ricci, scalar and Einstein tensors of the base, from the curvature
    2-form d gamma + gamma /\\ gamma with b^-1 contracted into each of its
    five terms (the two d gamma terms, gamma C and the two gamma gamma
    terms) as matmuls, so that the Riemann tensor is never formed."""
    g, dg, C = geom.gamma, geom.dgamma, geom.C
    n = geom.n
    lead = g.shape[:-3]
    b_inv = geom.spec.b_inv()
    b_flat = b_inv.reshape(n * n)
    g_flat = g.reshape(lead + (n, n * n))  # gamma[a, (f, e)]
    M = np.swapaxes(g, -2, -1) @ b_inv  # M[a, f, e] = gamma[a, c, f] b^ce
    trace_g = g_flat @ b_flat  # gamma[f, c, e] b^ce
    ric = (
        b_flat @ dg.reshape(lead + (n, n * n, n))  # dgamma[a, c, e, d] b^ce
        - np.swapaxes(dg, -3, -2).reshape(lead + (n, n, n * n)) @ b_flat  # dgamma[a, c, d, e] b^ce
        # M[a, f, e] C[f, d, e]
        + M.reshape(lead + (n, n * n)) @ np.swapaxes(C, -2, -1).reshape(lead + (n * n, n))
        + (trace_g[..., None, None, :] @ g)[..., 0, :]  # gamma[a, f, d] gamma[f, c, e] b^ce
        # gamma[a, f, e] gamma[f, c, d] b^ce = gamma[a, f, e] M[f, d, e]
        - g_flat @ np.swapaxes(M, -2, -1).reshape(lead + (n * n, n))
    )
    scalar = np.trace(ric, axis1=-2, axis2=-1)
    ein = ric - 0.5 * scalar[..., None, None] * np.eye(n)
    return BaseCurvature(ricci=ric, scalar=scalar, einstein=ein)


# ---------------------------------------------------------------------------
# JSON field files


class Fields(namedtuple("Fields", "coframe gauge points deriv_mode")):
    """A fields section as :func:`load_fields` reads it: coframe and gauge on
    the algebra's chart, the sorted ``(count, n)`` points, the derivative mode."""

    __slots__ = ()


def load_fields(data: dict, spec: LieAlgebraSpec) -> Fields:
    """Read a fields section in the JSON format into a :class:`Fields` record.

    ``{"chart":{"n":…}, "coframe":[["expr",…],…],
    "gauge":[["expr",…],…], "params":{…}, "points":[[…]] or
    "lattice":{"min":[…],"max":[…],"steps":[…]}, "deriv_mode":"analytic" or "fd"}``

    The chart dimension is the algebra's ``spec.n``; ``chart``, optional, is
    only checked against it.  The points are sorted in lexicographic order,
    and ``deriv_mode`` defaults to "analytic".  A value of the wrong type or
    shape, an unknown ``deriv_mode``, or a chart or gauge that does not fit
    ``spec`` raises :class:`StructuralError`, even where there are no points.
    """
    if not isinstance(data, dict) or not all(isinstance(data.get(key, {}), dict)
                                             for key in ("chart", "params", "lattice")):
        raise StructuralError("fields, and their chart, params and lattice, must be objects")
    deriv_mode = data.get("deriv_mode", "analytic")
    _check_deriv_mode(deriv_mode)
    n = spec.n
    _check_dimensions(_number(data.get("chart", {}).get("n", n), "chart n", True), spec)
    params = {name: _number(v, f"params {name!r}") for name, v in data.get("params", {}).items()}

    def providers(block, default):
        rows = data.get(block)
        return [[_as_provider(x, n, params) for x in row]
                for row in _rows(default if rows is None else rows, block)]

    coframe = CoframeField(n, providers(
        "coframe", [["1" if a == mu else "0" for mu in range(n)] for a in range(n)]))
    gauge = GaugeField(n, providers("gauge", [[0.0] * n for _ in range(spec.r)]))

    if "points" in data:
        points = np.reshape(_numbers("points", data["points"], (None, n)), (-1, n))
    elif "lattice" in data:
        lat = data["lattice"]
        lo, hi, _ = (_numbers(f"lattice.{key}", lat.get(key), (n,))
                     for key in ("min", "max", "steps"))
        axes = [np.linspace(a, b, _number(steps, "lattice steps", True))
                for a, b, steps in zip(lo, hi, lat["steps"])]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        raise StructuralError("field file needs either 'points' or 'lattice'")
    _check_dimensions(n, spec, gauge)
    return Fields(coframe, gauge, points[np.lexsort(points.T[::-1])], deriv_mode)


def _rows(value, where):
    """``value`` if it is a list of lists, else StructuralError naming ``where``."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise StructuralError(f"{where} must be a list of lists, got {value!r}")
    return value
