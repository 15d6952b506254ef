"""Chart geometry: coframe, Levi-Civita connection, gauge field strength.

Everything is evaluated on a single chart, at one point or at a batch of
points: a point array has the chart coordinates on its last axis, and every
result carries the point array's leading axes in front of its own.  Coframe
and gauge entries are :class:`~kkgeom.fieldexpr.FieldProvider` objects, so
first and second coordinate derivatives are exact; derived frame quantities
(the connection coefficients and the field-strength components) get their frame
derivatives either through the chain rule on those exact partials
(``deriv_mode="analytic"``) or through fourth-order central differences
(``deriv_mode="fd"``).
"""

from __future__ import annotations

import itertools
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
    "frame_matrix",
    "anholonomy",
    "levi_civita",
    "base_curvature",
    "geometry_at_point",
    "BaseCurvature",
    "load_fields",
]

_DEGENERACY_FACTOR = 1e-12  # |det e| threshold is this times ||e||^n


@dataclass(frozen=True)
class ChartSpec:
    """Chart dimension and variable names (x1..xn by default)."""

    n: int
    names: tuple = ()

    def __post_init__(self):
        if self.n < 2:
            raise StructuralError("chart dimension must be at least 2")
        names = tuple(self.names) or tuple(f"x{i + 1}" for i in range(self.n))
        if len(names) != self.n:
            raise StructuralError("number of variable names does not match the dimension")
        object.__setattr__(self, "names", names)


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

    def _fill(self, point, order):
        """out[..., row, mu, *nus] = d_{nus} entries[row][mu], ``order`` derivatives."""
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
                                                 point) from None
                    for perm in perms:
                        out[(..., a, mu) + perm] = value
        return out

    def _domain_error(self, exc, a, mu, evaluate, point):
        """``exc`` located: the entry as written in the field file and the
        first point of the batch at which ``evaluate`` fails."""
        points = point.reshape(-1, point.shape[-1])
        bad = next((q for q in points if _fails(evaluate, q)), None)
        where = "" if bad is None else f" at point {bad.tolist()}"
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

    def __init__(self, chart: ChartSpec, entries, b):
        self.chart = chart
        n = chart.n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise StructuralError(f"coframe must be {n}x{n}")
        self.entries = [[_as_provider(p, n) for p in row] for row in entries]
        self.b = np.array(b, dtype=float)
        if self.b.shape != (n, n):
            raise StructuralError(f"base metric must be {n}x{n}")

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


@dataclass
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

    @property
    def b(self):
        return np.asarray(self.spec.b)

    @property
    def k(self):
        return np.asarray(self.spec.k)

    # raised / lowered field-strength variants used by the block connection
    def F_mixed(self) -> np.ndarray:
        """out[g, a, c] = k_{gg'} F^{g'}_{a'c} b^{a'a}."""
        return np.einsum("gd,...dxc,xa->...gac", self.k, self.F, self.b_inv)

    def F_low_up(self) -> np.ndarray:
        """out[g, b, c] = k_{gg'} F^{g'}_{bc'} b^{c'c}."""
        return np.einsum("gd,...dbx,xc->...gbc", self.k, self.F, self.b_inv)

    # optimize=True (pairwise contraction) pays off on the sweep blocks these serve
    def F_up2(self) -> np.ndarray:
        """out[g, a, c] = k_{gg'} F^{g'}_{a'c'} b^{a'a} b^{c'c} (both base indices up)."""
        return np.einsum("gd,...dxy,xa,yc->...gac", self.k, self.F, self.b_inv, self.b_inv,
                         optimize=True)

    def dF_up2(self) -> np.ndarray:
        """Frame derivative of :meth:`F_up2` (metric blocks are constant)."""
        return np.einsum("gd,...dxye,xa,yc->...gace", self.k, self.dF, self.b_inv, self.b_inv,
                         optimize=True)

    def dF_mixed(self) -> np.ndarray:
        return np.einsum("gd,...dxce,xa->...gace", self.k, self.dF, self.b_inv)

    def dF_low_up(self) -> np.ndarray:
        return np.einsum("gd,...dbxe,xc->...gbce", self.k, self.dF, self.b_inv)

    def torsion_residual(self):
        """Max violation of the first structure equation, as a C-coefficient identity."""
        g = self.gamma
        return np.abs(self.C - (g - np.swapaxes(g, -2, -1))).max(axis=(-3, -2, -1))

    def metricity_residual(self):
        low = np.einsum("ad,...dbc->...abc", self.b, self.gamma)
        return np.abs(low + np.swapaxes(low, -3, -2)).max(axis=(-3, -2, -1))


def _geometry_analytic(coframe, gauge, spec, point):
    point = np.asarray(point, dtype=float)
    E = coframe.matrix(point)
    Einv = _frame_matrix(E, point)
    dE = coframe.d_matrix(point)
    d2E = coframe.d2_matrix(point)

    # dE[a, mu, nu] = d_nu e^a_mu, so dE itself is d_rho E with rho last.
    # dEinv[mu, a, rho] = d_rho (E^-1)[mu, a] = -(E^-1 (d_rho E) E^-1)[mu, a]
    dEinv = -np.einsum("...mx,...xyr,...ya->...mar", Einv, dE, Einv)

    # T[a, mu, nu] = d_mu e^a_nu - d_nu e^a_mu (coordinate components of de^a)
    T = np.swapaxes(dE, -2, -1) - dE
    # dT[a, mu, nu, rho] = d_rho T[a, mu, nu]
    dT = np.swapaxes(d2E, -3, -2) - d2E

    C, dC_coord = _frame_2form(T, dT, Einv, dEinv)
    dC = _to_frame(dC_coord, Einv)

    b = coframe.b
    binv = np.linalg.inv(b)
    gamma = _gamma_from_C(C, b, binv)
    # gamma is linear in C: the derivative direction rides along as a batch axis
    dgamma_coord = np.moveaxis(_gamma_from_C(np.moveaxis(dC_coord, -1, 0), b, binv), 0, -1)
    dgamma = _to_frame(dgamma_coord, Einv)

    if gauge is None:
        gauge = GaugeField.zero(spec, coframe.chart)
    Am = gauge.matrix(point)  # A^al_mu
    dAm = gauge.d_matrix(point)  # d_nu A^al_mu
    d2Am = gauge.d2_matrix(point)
    cf = spec.fiber_c()

    A_frame = np.einsum("...am,...mb->...ab", Am, Einv)
    dA_coord = (np.einsum("...amr,...mb->...abr", dAm, Einv)
                + np.einsum("...am,...mbr->...abr", Am, dEinv))
    dA_frame = _to_frame(dA_coord, Einv)

    # F^al_{mu nu} = d_mu A^al_nu - d_nu A^al_mu + c^al_bg A^b_mu A^g_nu
    # (the quadratic term is already antisymmetric in mu, nu)
    Fc = np.swapaxes(dAm, -2, -1) - dAm + np.einsum("abg,...bm,...gn->...amn", cf, Am, Am)
    # d_rho F^al_{mu nu}; dAm[al, mu, nu] = d_nu A^al_mu
    dFc = (
        np.swapaxes(d2Am, -3, -2)
        - d2Am
        + np.einsum("abg,...bmr,...gn->...amnr", cf, dAm, Am)
        + np.einsum("abg,...bm,...gnr->...amnr", cf, Am, dAm)
    )

    F, dF_coord = _frame_2form(Fc, dFc, Einv, dEinv)
    dF = _to_frame(dF_coord, Einv)

    return GeometryAtPoint(
        point=point,
        spec=spec,
        b_inv=np.linalg.inv(spec.b),
        E=E,
        E_inv=Einv,
        C=C,
        dC=dC,
        gamma=gamma,
        dgamma=dgamma,
        A=A_frame,
        dA=dA_frame,
        F=F,
        dF=dF,
    )


def _frame_2form(X, dX, Einv, dEinv):
    """Frame components X[a, b, c] of coordinate 2-forms X[a, mu, nu], and
    their coordinate derivatives [a, b, c, rho] from dX = d_rho X[a, mu, nu]."""
    frame = np.einsum("...amn,...mb,...nc->...abc", X, Einv, Einv)
    d_frame = (
        np.einsum("...amnr,...mb,...nc->...abcr", dX, Einv, Einv)
        + np.einsum("...amn,...mbr,...nc->...abcr", X, dEinv, Einv)
        + np.einsum("...amn,...mb,...ncr->...abcr", X, Einv, dEinv)
    )
    return frame, d_frame


def _to_frame(coord, Einv):
    """Turn the trailing coordinate-derivative axis rho of ``coord`` into a
    frame direction: out[..., d] = coord[..., rho] (E^-1)[rho, d]."""
    flat = coord.reshape(Einv.shape[:-2] + (-1, coord.shape[-1]))
    return (flat @ Einv).reshape(coord.shape)


_FD4_OFFSETS = (-2, -1, 1, 2)
_FD4_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _geometry_fd(coframe, gauge, spec, point, h):
    """Same contract as the analytic path, but frame derivatives of the derived
    quantities come from fourth-order central differences in the chart."""
    base = _geometry_analytic(coframe, gauge, spec, point)
    n = base.n
    point = base.point
    # stencil[k, rho, ..., :] is the point moved by _FD4_OFFSETS[k] * h along x^rho
    shift = np.multiply.outer(np.array(_FD4_OFFSETS) * h, np.eye(n))  # (4, n, n)
    shift = shift.reshape(shift.shape[:2] + (1,) * (point.ndim - 1) + (n,))
    rows = _geometry_analytic(coframe, gauge, spec, point + shift)

    def derivative(values):  # sum_k w_k values[k, rho] / h, rho moved last
        coord = np.moveaxis(np.tensordot(_FD4_WEIGHTS, values, axes=1), 0, -1) / h
        return _to_frame(coord, base.E_inv)

    base.dC, base.dgamma, base.dA, base.dF = map(derivative, (rows.C, rows.gamma, rows.A, rows.F))
    return base


def geometry_at_point(
    coframe: CoframeField,
    gauge: GaugeField | None,
    spec: LieAlgebraSpec,
    point,
    deriv_mode: str = "analytic",
    fd_step: float = 1e-3,
) -> GeometryAtPoint:
    """Evaluate the full frame geometry at a chart point or a batch of points."""
    if deriv_mode == "analytic":
        return _geometry_analytic(coframe, gauge, spec, point)
    if deriv_mode == "fd":
        return _geometry_fd(coframe, gauge, spec, point, fd_step)
    raise StructuralError(f"unknown derivative mode {deriv_mode!r}")


# ---------------------------------------------------------------------------
# Public single-purpose operations


def frame_matrix(coframe: CoframeField, point):
    """Coframe matrix and its inverse at a point or a batch of points."""
    E = coframe.matrix(point)
    return E, _frame_matrix(E, point)


def anholonomy(coframe: CoframeField, point) -> np.ndarray:
    """Coefficients C^a_bc of de^a = (1/2) C^a_bc e^b /\\ e^c."""
    _, Einv = frame_matrix(coframe, point)
    dE = coframe.d_matrix(point)
    T = np.swapaxes(dE, -2, -1) - dE  # T[a, mu, nu] = d_mu e^a_nu - d_nu e^a_mu
    return np.einsum("...amn,...mb,...nc->...abc", T, Einv, Einv)


def levi_civita(coframe: CoframeField, point) -> np.ndarray:
    """Connection coefficients gamma[a, b, c] (e^c component of entry (a, b))."""
    C = anholonomy(coframe, point)
    b = coframe.b
    return _gamma_from_C(C, b, np.linalg.inv(b))


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


def base_curvature(coframe: CoframeField, point, spec=None, deriv_mode="analytic",
                   fd_step=1e-3) -> BaseCurvature:
    """Ricci tensor, scalar curvature and Einstein tensor of the chart metric."""
    if spec is None:
        from .liealg import abelian_algebra

        spec = abelian_algebra(coframe.n, 0, b=coframe.b)
    geom = geometry_at_point(coframe, None, spec, point, deriv_mode, fd_step)
    return base_curvature_from_geometry(geom)


# ---------------------------------------------------------------------------
# JSON field files


def load_fields(data: dict, spec: LieAlgebraSpec):
    """Build chart, coframe, gauge and evaluation points from the JSON format.

    ``{"chart":{"n":…,"names":[…]}, "coframe":[["expr",…],…],
    "gauge":[["expr",…],…], "params":{…}, "points":[[…]] or
    "lattice":{"min":[…],"max":[…],"steps":[…]}}``

    The points come back as one ``(count, n)`` array in lexicographic order.
    """
    chart_data = data.get("chart", {})
    n = int(chart_data.get("n", spec.n))
    chart = ChartSpec(n, tuple(chart_data.get("names", ())))
    params = data.get("params", {})

    def prov(entry):
        if isinstance(entry, (int, float)):
            return FieldProvider.constant(entry, n=n)
        return FieldProvider(entry, n=n, params=params)

    coframe_rows = data.get("coframe")
    if coframe_rows is None:
        coframe_rows = [["1" if a == mu else "0" for mu in range(n)] for a in range(n)]
    coframe = CoframeField(chart, [[prov(x) for x in row] for row in coframe_rows], spec.b)

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
