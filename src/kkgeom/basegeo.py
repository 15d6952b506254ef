"""Chart geometry: coframe, Levi-Civita connection, gauge field strength.

Everything is evaluated on a single chart, at one point or at a batch of
points: a point array has the chart coordinates on its last axis, and every
result carries the point array's leading axes in front of its own.  Coframe
and gauge entries are :class:`~kkgeom.fieldexpr.FieldProvider` objects, so
first and second coordinate derivatives are exact.

The geometry comes in two halves.  The value half computes E, E^-1, the
anholonomy C, the connection coefficients gamma, and the frame components of
A and F from the value and first-partial fills.  The frame derivatives dC,
dA and dF come either from the chain-rule half, on the exact second
partials (``deriv_mode="analytic"``), or from fourth-order central
differences of the values (``deriv_mode="fd"``): one value pass over each
point and its 4n stencil rows, with no second partials.  That stencil (the
origin first, then four rows per axis) is the one finite-difference stencil
of the package; ``bundle`` uses it for its fiber differences too.  In both
routes dgamma = gamma(dC), since gamma is linear in C.

:func:`geometry_at_point` is the one route to the frame geometry; the base
metric is the algebra spec's ``b``, and :func:`base_curvature_from_geometry`
reads the base curvature off its result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoframeError, EvalDomainError, StructuralError
from .fieldexpr import FieldProvider, pretty
from .liealg import LieAlgebraSpec

__all__ = [
    "ChartSpec",
    "CoframeField",
    "GaugeField",
    "GeometryAtPoint",
    "geometry_at_point",
    "BaseCurvature",
    "base_curvature_from_geometry",
    "load_fields",
]

_DEGENERACY_FACTOR = 1e-12  # |det e| threshold is this times ||e||^n


@dataclass(frozen=True)
class ChartSpec:
    """Chart dimension; field expressions name the coordinates x1..xn."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise StructuralError("chart dimension must be at least 2")


class _ProviderMatrix:
    """Values and exact partials of a matrix of providers at a batch of points.

    ``matrix`` is indexed ``[..., row, mu]``; ``d_matrix`` appends the
    derivative direction nu and ``d2_matrix`` the directions nu, rho.
    """

    def matrix(self, point) -> np.ndarray:
        return self._fill(point, 0)

    def d_matrix(self, point) -> np.ndarray:
        return self._fill(point, 1)

    def d2_matrix(self, point) -> np.ndarray:
        return self._fill(point, 2)

    def _fill(self, point, order, fd_step=None):
        """out[..., row, mu, *nus] = d_{nus} entries[row][mu], ``order`` derivatives.

        With ``fd_step`` the last batch axis of ``point`` holds the fd stencil
        rows of each input point, row 0 the point itself; it only changes
        how an evaluation error names its point."""
        point = np.asarray(point, dtype=float)
        n = self.chart.n
        out = np.empty(point.shape[:-1] + (len(self.entries), n) + (n,) * order)
        # each distinct partial once, written to every ordering of its indices
        partials = [(nus, set(itertools.permutations(nus)))
                    for nus in itertools.combinations_with_replacement(range(n), order)]
        for a, row in enumerate(self.entries):
            for mu, p in enumerate(row):
                method = (p.evaluate, p.partial, p.partial2)[order]
                for nus, perms in partials:
                    try:
                        value = method(*nus, point)
                    except EvalDomainError as exc:
                        raise self._domain_error(exc, a, mu, lambda q: method(*nus, q),
                                                 point, fd_step) from None
                    for perm in perms:
                        out[(..., a, mu) + perm] = value
        return out

    def _domain_error(self, exc, a, mu, evaluate, point, fd_step):
        """``exc`` located: the entry as written in the field file and the
        first point of the batch at which ``evaluate`` fails.  A failing fd
        stencil row is named with the input point it was stepped from."""
        bad = next((i for i in np.ndindex(point.shape[:-1]) if _fails(evaluate, point[i])), None)
        if bad is None:
            where = ""
        elif fd_step is None or bad[-1] == 0:
            where = f" at point {point[bad].tolist()}"
        else:
            where = (f" at point {point[bad[:-1] + (0,)].tolist()}: fails on its fd stencil "
                     f"row {point[bad].tolist()} (fd_step {fd_step})")
        source = pretty(self.entries[a][mu].expr)
        return EvalDomainError(f"{self.block}[{a}][{mu}] = {source}{where}: {exc}")


def _fails(evaluate, point):
    try:
        evaluate(point)
    except EvalDomainError:
        return True
    return False


class CoframeField(_ProviderMatrix):
    """An n x n matrix of providers: entry (a, mu) is the dx^mu component of e^a."""

    block = "coframe"  # the field-file key, named in evaluation errors

    def __init__(self, chart: ChartSpec, entries):
        self.chart = chart
        n = chart.n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise StructuralError(f"coframe must be {n}x{n}")
        self.entries = [[_as_provider(p, n) for p in row] for row in entries]

    @property
    def n(self):
        return self.chart.n


class GaugeField(_ProviderMatrix):
    """An r x n matrix of providers: entry (alpha, mu) is A^alpha_mu."""

    block = "gauge"

    def __init__(self, spec: LieAlgebraSpec, chart: ChartSpec, entries):
        self.spec = spec
        self.chart = chart
        r, n = spec.r, chart.n
        if len(entries) != r or any(len(row) != n for row in entries):
            raise StructuralError(f"gauge potential must be {r}x{n}")
        self.entries = [[_as_provider(p, n) for p in row] for row in entries]

    @classmethod
    def zero(cls, spec, chart):
        return cls(spec, chart, [[0.0] * chart.n for _ in range(spec.r)])


def _as_provider(p, n):
    if isinstance(p, FieldProvider):
        return p
    if isinstance(p, (int, float)):
        return FieldProvider.constant(p, n=n)
    if isinstance(p, str):
        return FieldProvider(p, n=n)
    raise StructuralError(f"coframe/gauge entries must be providers, strings or numbers, got {type(p)}")


# ---------------------------------------------------------------------------
# Batched kernels: leading axes index points, trailing axes are tensor indices


def _frame_matrix(E, point):
    n = E.shape[-1]
    det = np.linalg.det(E)
    scale = np.maximum(np.abs(E).max(axis=(-2, -1)), 1e-300)
    bad = np.abs(det) < _DEGENERACY_FACTOR * scale**n
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise DegenerateCoframeError(np.asarray(point)[first], det[first])
    return np.linalg.inv(E)


def _gamma_from_C(C, b, binv):
    # unique coefficients with gamma antisymmetric after lowering and zero torsion
    Cl = np.einsum("ad,...dbc->...abc", b, C)
    # gl[a,b,c] = (Cl[a,b,c] + Cl[b,c,a] - Cl[c,a,b]) / 2
    gl = 0.5 * (Cl + np.moveaxis(Cl, -1, -3) - np.moveaxis(Cl, -3, -1))
    return np.einsum("ad,...dbc->...abc", binv, gl)


@dataclass(frozen=True)
class GeometryAtPoint:
    """All frame-level data needed by the total-space curvature formulas.

    Index conventions: ``gamma[a, b, c]`` is the ``e^c`` coefficient of the
    connection 1-form entry (a, b); trailing index of each ``d*`` array is
    the frame direction of the derivative.  Every field except ``b_inv``
    carries the batch axes of ``point`` (none for a single point) in front
    of the shapes listed.
    """

    point: np.ndarray  # (n,)
    spec: LieAlgebraSpec
    b_inv: np.ndarray  # (n, n) inverse of spec.b
    E: np.ndarray  # (n, n)  e^a_mu
    E_inv: np.ndarray  # (n, n)  indexed [mu, a]
    C: np.ndarray  # (n, n, n) anholonomy
    dC: np.ndarray  # (n, n, n, n) frame derivative
    gamma: np.ndarray  # (n, n, n)
    dgamma: np.ndarray  # (n, n, n, n)
    A: np.ndarray  # (r, n) frame components
    dA: np.ndarray  # (r, n, n)
    F: np.ndarray  # (r, n, n) frame components F^alpha_bc
    dF: np.ndarray  # (r, n, n, n)

    @property
    def n(self):
        return self.E.shape[-1]

    def torsion_residual(self):
        """Max violation of the first structure equation, as a C-coefficient identity."""
        g = self.gamma
        return np.abs(self.C - (g - np.swapaxes(g, -2, -1))).max(axis=(-3, -2, -1))

    def metricity_residual(self):
        low = np.einsum("ad,...dbc->...abc", self.spec.b, self.gamma)
        return np.abs(low + np.swapaxes(low, -3, -2)).max(axis=(-3, -2, -1))


def _frame_values(coframe, gauge, spec, point, fd_step=None):
    """The value half of the geometry: E, E^-1, C, gamma, A and F from the
    value and first-partial fills, as keyword arguments of GeometryAtPoint,
    and the coordinate arrays (dE, T, A_mu, d_nu A_mu, F_mu nu) that
    :func:`_frame_derivatives` reuses.  ``fd_step`` marks ``point`` as fd
    stencil rows (see :meth:`_ProviderMatrix._fill`)."""
    E = coframe._fill(point, 0, fd_step)
    Einv = _frame_matrix(E, point)
    # dE[a, mu, nu] = d_nu e^a_mu
    dE = coframe._fill(point, 1, fd_step)
    # T[a, mu, nu] = d_mu e^a_nu - d_nu e^a_mu (coordinate components of de^a)
    T = np.swapaxes(dE, -2, -1) - dE
    C = _frame_2form(T, Einv)
    b = spec.b
    binv = np.linalg.inv(b)

    Am = gauge._fill(point, 0, fd_step)  # A^al_mu
    dAm = gauge._fill(point, 1, fd_step)  # d_nu A^al_mu
    # F^al_{mu nu} = d_mu A^al_nu - d_nu A^al_mu + c^al_bg A^b_mu A^g_nu
    # (the quadratic term is already antisymmetric in mu, nu)
    Fc = (np.swapaxes(dAm, -2, -1) - dAm
          + np.einsum("abg,...bm,...gn->...amn", spec.fiber_c(), Am, Am))
    values = dict(point=point, spec=spec, b_inv=binv, E=E, E_inv=Einv, C=C,
                  gamma=_gamma_from_C(C, b, binv),
                  A=np.einsum("...am,...mb->...ab", Am, Einv), F=_frame_2form(Fc, Einv))
    return values, (dE, T, Am, dAm, Fc)


def _frame_derivatives(coframe, gauge, spec, values, coord):
    """The chain-rule half: frame derivatives dC, dA and dF from the
    second-partial fills and the coordinate arrays of :func:`_frame_values`."""
    dE, T, Am, dAm, Fc = coord
    point, Einv = values["point"], values["E_inv"]
    d2E = coframe.d2_matrix(point)
    d2Am = gauge.d2_matrix(point)
    cf = spec.fiber_c()

    # dE itself is d_rho E with rho last, so
    # dEinv[mu, a, rho] = d_rho (E^-1)[mu, a] = -(E^-1 (d_rho E) E^-1)[mu, a]
    dEinv = -np.einsum("...mx,...xyr,...ya->...mar", Einv, dE, Einv)
    # dT[a, mu, nu, rho] = d_rho T[a, mu, nu]
    dT = np.swapaxes(d2E, -3, -2) - d2E
    dC_coord = _d_frame_2form(T, dT, Einv, dEinv)

    dA_coord = (np.einsum("...amr,...mb->...abr", dAm, Einv)
                + np.einsum("...am,...mbr->...abr", Am, dEinv))
    # d_rho F^al_{mu nu}; dAm[al, mu, nu] = d_nu A^al_mu
    dFc = (
        np.swapaxes(d2Am, -3, -2)
        - d2Am
        + np.einsum("abg,...bmr,...gn->...amnr", cf, dAm, Am)
        + np.einsum("abg,...bm,...gnr->...amnr", cf, Am, dAm)
    )
    dF_coord = _d_frame_2form(Fc, dFc, Einv, dEinv)
    return {name: _to_frame(coord, Einv) for name, coord in
            (("dC", dC_coord), ("dA", dA_coord), ("dF", dF_coord))}


def _geometry(values, derivs):
    """GeometryAtPoint from the value half and the frame derivatives dC, dA
    and dF of either route.  dgamma = gamma(dC): gamma is linear in C and b
    is constant, so the derivative direction rides along as a batch axis."""
    dC_first = np.moveaxis(derivs["dC"], -1, 0)
    dgamma = np.moveaxis(_gamma_from_C(dC_first, values["spec"].b, values["b_inv"]), 0, -1)
    return GeometryAtPoint(**values, **derivs, dgamma=dgamma)


def _geometry_analytic(coframe, gauge, spec, point):
    values, coord = _frame_values(coframe, gauge, spec, np.asarray(point, dtype=float))
    return _geometry(values, _frame_derivatives(coframe, gauge, spec, values, coord))


def _frame_2form(X, Einv):
    """Frame components X[a, b, c] of coordinate 2-forms X[a, mu, nu]."""
    return np.einsum("...amn,...mb,...nc->...abc", X, Einv, Einv)


def _d_frame_2form(X, dX, Einv, dEinv):
    """Coordinate derivatives [a, b, c, rho] of :func:`_frame_2form` from
    dX = d_rho X[a, mu, nu]."""
    return (
        np.einsum("...amnr,...mb,...nc->...abcr", dX, Einv, Einv)
        + np.einsum("...amn,...mbr,...nc->...abcr", X, dEinv, Einv)
        + np.einsum("...amn,...mb,...ncr->...abcr", X, Einv, dEinv)
    )


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
    at = {name: np.take(rows[name], 0, axis) for name in ("E", "E_inv", "C", "gamma", "A", "F")}
    derivs = {"d" + name: _to_frame(_fd_gradient(rows[name], axis, h), at["E_inv"])
              for name in ("C", "A", "F")}
    return _geometry(dict(point=point, spec=spec, b_inv=rows["b_inv"], **at), derivs)


def geometry_at_point(
    coframe: CoframeField,
    gauge: GaugeField | None,
    spec: LieAlgebraSpec,
    point,
    deriv_mode: str = "analytic",
    fd_step: float = 1e-3,
) -> GeometryAtPoint:
    """Evaluate the full frame geometry at a chart point or a batch of points.

    The base metric is ``spec.b``; the coframe carries only the frame.
    """
    if coframe.n != spec.n:
        raise StructuralError(f"chart dimension {coframe.n} does not match the "
                              f"algebra's base dimension {spec.n}")
    if gauge is None:
        gauge = GaugeField.zero(spec, coframe.chart)
    if deriv_mode == "analytic":
        return _geometry_analytic(coframe, gauge, spec, point)
    if deriv_mode == "fd":
        return _geometry_fd(coframe, gauge, spec, point, fd_step)
    raise StructuralError(f"unknown derivative mode {deriv_mode!r}")


@dataclass(frozen=True)
class BaseCurvature:
    ricci: np.ndarray  # (..., n, n) mixed components Ric^a_d
    scalar: np.ndarray  # (...)
    einstein: np.ndarray  # (..., n, n)


def riemann_from_geometry(geom: GeometryAtPoint) -> np.ndarray:
    """Curvature components R[a, c, d, e] of the 2-form d gamma + gamma /\\ gamma."""
    g, dg, C = geom.gamma, geom.dgamma, geom.C
    return (
        np.swapaxes(dg, -2, -1)
        - dg
        + np.einsum("...acf,...fde->...acde", g, C)
        + np.einsum("...afd,...fce->...acde", g, g)
        - np.einsum("...afe,...fcd->...acde", g, g)
    )


def base_curvature_from_geometry(geom: GeometryAtPoint) -> BaseCurvature:
    R = riemann_from_geometry(geom)
    ric = np.einsum("...acde,ce->...ad", R, geom.b_inv)
    scalar = np.trace(ric, axis1=-2, axis2=-1)
    ein = ric - 0.5 * scalar[..., None, None] * np.eye(geom.n)
    return BaseCurvature(ricci=ric, scalar=scalar, einstein=ein)


# ---------------------------------------------------------------------------
# JSON field files


def load_fields(data: dict, spec: LieAlgebraSpec):
    """Build chart, coframe, gauge and evaluation points from the JSON format.

    ``{"chart":{"n":…}, "coframe":[["expr",…],…],
    "gauge":[["expr",…],…], "params":{…}, "points":[[…]] or
    "lattice":{"min":[…],"max":[…],"steps":[…]}}``

    The points come back as one ``(count, n)`` array in lexicographic order.
    """
    chart_data = data.get("chart", {})
    n = int(chart_data.get("n", spec.n))
    chart = ChartSpec(n)
    params = data.get("params", {})

    def prov(entry):
        if isinstance(entry, (int, float)):
            return FieldProvider.constant(entry, n=n)
        return FieldProvider(entry, n=n, params=params)

    coframe_rows = data.get("coframe")
    if coframe_rows is None:
        coframe_rows = [["1" if a == mu else "0" for mu in range(n)] for a in range(n)]
    coframe = CoframeField(chart, [[prov(x) for x in row] for row in coframe_rows])

    gauge_rows = data.get("gauge")
    if gauge_rows is None:
        gauge = GaugeField.zero(spec, chart)
    else:
        gauge = GaugeField(spec, chart, [[prov(x) for x in row] for row in gauge_rows])

    if "points" in data:
        points = [np.array(p, dtype=float) for p in data["points"]]
        for i, p in enumerate(points):
            if p.shape != (n,):
                raise StructuralError(f"points[{i}] has shape {p.shape}, the chart needs ({n},)")
        points = np.array(points).reshape(-1, n)
    elif "lattice" in data:
        lat = data["lattice"]
        for key in ("min", "max", "steps"):
            if len(lat.get(key, ())) != n:
                raise StructuralError(f"lattice '{key}' needs {n} entries")
        axes = [np.linspace(lo, hi, int(steps))
                for lo, hi, steps in zip(lat["min"], lat["max"], lat["steps"])]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        raise StructuralError("field file needs either 'points' or 'lattice'")
    return chart, coframe, gauge, points[np.lexsort(points.T[::-1])]
