"""Chart geometry: coframe, Levi-Civita connection, gauge field strength.

Everything is evaluated pointwise on a single chart.  Coframe and gauge
entries are :class:`~kkgeom.fieldexpr.FieldProvider` objects, so first and
second coordinate derivatives are exact; derived frame quantities (the
connection coefficients and the field-strength components) get their frame
derivatives either through the chain rule on those exact partials
(``deriv_mode="analytic"``) or through fourth-order central differences
(``deriv_mode="fd"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCoframeError, StructuralError
from .fieldexpr import FieldProvider
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


class CoframeField:
    """An n x n matrix of providers: entry (a, mu) is the dx^mu component of e^a."""

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

    def matrix(self, point) -> np.ndarray:
        n = self.n
        return np.array([[self.entries[a][mu].evaluate(point) for mu in range(n)] for a in range(n)])

    def d_matrix(self, point) -> np.ndarray:
        """First partials: out[a, mu, nu] = d_nu e^a_mu."""
        n = self.n
        out = np.empty((n, n, n))
        for a in range(n):
            for mu in range(n):
                for nu in range(n):
                    out[a, mu, nu] = self.entries[a][mu].partial(nu, point)
        return out

    def d2_matrix(self, point) -> np.ndarray:
        """Second partials: out[a, mu, nu, rho] = d_rho d_nu e^a_mu."""
        n = self.n
        out = np.empty((n, n, n, n))
        for a in range(n):
            for mu in range(n):
                for nu in range(n):
                    for rho in range(nu, n):
                        v = self.entries[a][mu].partial2(nu, rho, point)
                        out[a, mu, nu, rho] = v
                        out[a, mu, rho, nu] = v
        return out


class GaugeField:
    """An r x n matrix of providers: entry (alpha, mu) is A^alpha_mu."""

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

    def matrix(self, point) -> np.ndarray:
        r, n = self.spec.r, self.chart.n
        return np.array(
            [[self.entries[al][mu].evaluate(point) for mu in range(n)] for al in range(r)]
        )

    def d_matrix(self, point) -> np.ndarray:
        r, n = self.spec.r, self.chart.n
        out = np.empty((r, n, n))
        for al in range(r):
            for mu in range(n):
                for nu in range(n):
                    out[al, mu, nu] = self.entries[al][mu].partial(nu, point)
        return out

    def d2_matrix(self, point) -> np.ndarray:
        r, n = self.spec.r, self.chart.n
        out = np.empty((r, n, n, n))
        for al in range(r):
            for mu in range(n):
                for nu in range(n):
                    for rho in range(nu, n):
                        v = self.entries[al][mu].partial2(nu, rho, point)
                        out[al, mu, nu, rho] = v
                        out[al, mu, rho, nu] = v
        return out


def _as_provider(p, n):
    if isinstance(p, FieldProvider):
        return p
    if isinstance(p, (int, float)):
        return FieldProvider.constant(p, n=n)
    if isinstance(p, str):
        return FieldProvider(p, n=n)
    raise StructuralError(f"coframe/gauge entries must be providers, strings or numbers, got {type(p)}")


# ---------------------------------------------------------------------------
# Pointwise kernels


def _frame_matrix(E, point):
    n = E.shape[0]
    det = np.linalg.det(E)
    scale = max(np.abs(E).max(), 1e-300)
    if abs(det) < _DEGENERACY_FACTOR * scale**n:
        raise DegenerateCoframeError(point, det)
    return np.linalg.inv(E)


def _anholonomy(E, Einv, dE):
    # de^a = (1/2) C^a_bc e^b /\ e^c with T the coordinate components of de^a
    T = np.swapaxes(dE, 1, 2) - dE  # T[a, mu, nu] = d_mu e^a_nu - d_nu e^a_mu
    return np.einsum("amn,mb,nc->abc", T, Einv, Einv)


def _gamma_from_C(C, b, binv):
    # unique coefficients with gamma antisymmetric after lowering and zero torsion
    Cl = np.einsum("ad,dbc->abc", b, C)
    # gl[a,b,c] = (Cl[a,b,c] + Cl[b,c,a] - Cl[c,a,b]) / 2
    gl = 0.5 * (Cl + np.transpose(Cl, (2, 0, 1)) - np.transpose(Cl, (1, 2, 0)))
    return np.einsum("ad,dbc->abc", binv, gl)


@dataclass
class GeometryAtPoint:
    """All frame-level data needed by the total-space curvature formulas.

    Index conventions: ``gamma[a, b, c]`` is the ``e^c`` coefficient of the
    connection 1-form entry (a, b); trailing index of each ``d*`` array is
    the frame direction of the derivative.
    """

    point: np.ndarray
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
        return self.E.shape[0]

    @property
    def b(self):
        return np.asarray(self.spec.b)

    @property
    def k(self):
        return np.asarray(self.spec.k)

    # raised / lowered field-strength variants used by the block connection
    def F_mixed(self) -> np.ndarray:
        """out[g, a, c] = k_{gg'} F^{g'}_{a'c} b^{a'a}."""
        return np.einsum("gd,dxc,xa->gac", self.k, self.F, self.b_inv)

    def F_low_up(self) -> np.ndarray:
        """out[g, b, c] = k_{gg'} F^{g'}_{bc'} b^{c'c}."""
        return np.einsum("gd,dbx,xc->gbc", self.k, self.F, self.b_inv)

    def F_up2(self) -> np.ndarray:
        """out[g, a, c] = k_{gg'} F^{g'}_{a'c'} b^{a'a} b^{c'c} (both base indices up)."""
        return np.einsum("gd,dxy,xa,yc->gac", self.k, self.F, self.b_inv, self.b_inv)

    def dF_up2(self) -> np.ndarray:
        """Frame derivative of :meth:`F_up2` (metric blocks are constant)."""
        return np.einsum("gd,dxye,xa,yc->gace", self.k, self.dF, self.b_inv, self.b_inv)

    def dF_mixed(self) -> np.ndarray:
        return np.einsum("gd,dxce,xa->gace", self.k, self.dF, self.b_inv)

    def dF_low_up(self) -> np.ndarray:
        return np.einsum("gd,dbxe,xc->gbce", self.k, self.dF, self.b_inv)

    def torsion_residual(self) -> float:
        """Max violation of the first structure equation, as a C-coefficient identity."""
        g = self.gamma
        return float(np.abs(self.C - (g - np.swapaxes(g, 1, 2))).max())

    def metricity_residual(self) -> float:
        low = np.einsum("ad,dbc->abc", self.b, self.gamma)
        return float(np.abs(low + np.swapaxes(low, 0, 1)).max())


def _geometry_analytic(coframe, gauge, spec, point):
    n = coframe.n
    E = coframe.matrix(point)
    Einv = _frame_matrix(E, point)
    dE = coframe.d_matrix(point)
    d2E = coframe.d2_matrix(point)

    # dE[a, mu, nu] = d_nu e^a_mu, so dE itself is d_rho E with rho last.
    # dEinv[mu, a, rho] = d_rho (E^-1)[mu, a] = -(E^-1 (d_rho E) E^-1)[mu, a]
    dEinv = -np.einsum("mx,xyr,ya->mar", Einv, dE, Einv)

    # T[a, mu, nu] = d_mu e^a_nu - d_nu e^a_mu (coordinate components of de^a)
    T = np.swapaxes(dE, 1, 2) - dE
    # dT[a, mu, nu, rho] = d_rho T[a, mu, nu]
    dT = np.swapaxes(d2E, 1, 2) - d2E

    C = np.einsum("amn,mb,nc->abc", T, Einv, Einv)
    dC_coord = (
        np.einsum("amnr,mb,nc->abcr", dT, Einv, Einv)
        + np.einsum("amn,mbr,nc->abcr", T, dEinv, Einv)
        + np.einsum("amn,mb,ncr->abcr", T, Einv, dEinv)
    )
    dC = np.einsum("abcr,rd->abcd", dC_coord, Einv)

    b = coframe.b
    binv = np.linalg.inv(b)
    gamma = _gamma_from_C(C, b, binv)
    dgamma_coord = _dgamma_from_dC(dC_coord, b, binv)
    dgamma = np.einsum("abcr,rd->abcd", dgamma_coord, Einv)

    r = spec.r
    if r and gauge is not None:
        Am = gauge.matrix(point)  # A^al_mu
        dAm = gauge.d_matrix(point)  # d_nu A^al_mu
        d2Am = gauge.d2_matrix(point)
        cf = spec.fiber_c()

        A_frame = np.einsum("am,mb->ab", Am, Einv)
        dA_coord = np.einsum("amr,mb->abr", dAm, Einv) + np.einsum("am,mbr->abr", Am, dEinv)
        dA_frame = np.einsum("abr,rd->abd", dA_coord, Einv)

        # F^al_{mu nu} = d_mu A^al_nu - d_nu A^al_mu + c^al_bg A^b_mu A^g_nu
        # (the quadratic term is already antisymmetric in mu, nu)
        Fc = np.swapaxes(dAm, 1, 2) - dAm + np.einsum("abg,bm,gn->amn", cf, Am, Am)
        # d_rho F^al_{mu nu}; dAm[al, mu, nu] = d_nu A^al_mu
        dFc = (
            np.transpose(d2Am, (0, 2, 1, 3))
            - d2Am
            + np.einsum("abg,bmr,gn->amnr", cf, dAm, Am)
            + np.einsum("abg,bm,gnr->amnr", cf, Am, dAm)
        )

        F = np.einsum("amn,mb,nc->abc", Fc, Einv, Einv)
        dF_coord = (
            np.einsum("amnr,mb,nc->abcr", dFc, Einv, Einv)
            + np.einsum("amn,mbr,nc->abcr", Fc, dEinv, Einv)
            + np.einsum("amn,mb,ncr->abcr", Fc, Einv, dEinv)
        )
        dF = np.einsum("abcr,rd->abcd", dF_coord, Einv)
    else:
        A_frame = np.zeros((r, n))
        dA_frame = np.zeros((r, n, n))
        F = np.zeros((r, n, n))
        dF = np.zeros((r, n, n, n))

    return GeometryAtPoint(
        point=np.array(point, dtype=float),
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


def _dgamma_from_dC(dC_coord, b, binv):
    dCl = np.einsum("ax,xbcr->abcr", b, dC_coord)
    dgl = 0.5 * (dCl + np.transpose(dCl, (2, 0, 1, 3)) - np.transpose(dCl, (1, 2, 0, 3)))
    return np.einsum("ax,xbcr->abcr", binv, dgl)


_FD4_OFFSETS = (-2, -1, 1, 2)
_FD4_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _geometry_fd(coframe, gauge, spec, point, h):
    """Same contract as the analytic path, but frame derivatives of the derived
    quantities come from fourth-order central differences in the chart."""
    base = _geometry_analytic(coframe, gauge, spec, point)
    n = base.n
    point = np.asarray(point, dtype=float)

    def derived(p):
        g = _geometry_analytic(coframe, gauge, spec, p)
        return g.C, g.gamma, g.A, g.F

    dC = np.zeros(base.C.shape + (n,))
    dgamma = np.zeros(base.gamma.shape + (n,))
    dA = np.zeros(base.A.shape + (n,))
    dF = np.zeros(base.F.shape + (n,))
    for rho in range(n):
        accC = np.zeros_like(base.C)
        accG = np.zeros_like(base.gamma)
        accA = np.zeros_like(base.A)
        accF = np.zeros_like(base.F)
        for offset, weight in zip(_FD4_OFFSETS, _FD4_WEIGHTS):
            p = point.copy()
            p[rho] += offset * h
            Cv, Gv, Av, Fv = derived(p)
            accC += weight * Cv
            accG += weight * Gv
            accA += weight * Av
            accF += weight * Fv
        dC[..., rho] = accC / h
        dgamma[..., rho] = accG / h
        dA[..., rho] = accA / h
        dF[..., rho] = accF / h

    # convert coordinate derivatives to frame derivatives
    base.dC = np.einsum("abcr,rd->abcd", dC, base.E_inv)
    base.dgamma = np.einsum("abcr,rd->abcd", dgamma, base.E_inv)
    base.dA = np.einsum("abr,rd->abd", dA, base.E_inv)
    base.dF = np.einsum("abcr,rd->abcd", dF, base.E_inv)
    return base


def geometry_at_point(
    coframe: CoframeField,
    gauge: GaugeField | None,
    spec: LieAlgebraSpec,
    point,
    deriv_mode: str = "analytic",
    fd_step: float = 1e-3,
) -> GeometryAtPoint:
    """Evaluate the full frame geometry at one chart point."""
    if deriv_mode == "analytic":
        return _geometry_analytic(coframe, gauge, spec, point)
    if deriv_mode == "fd":
        return _geometry_fd(coframe, gauge, spec, point, fd_step)
    raise StructuralError(f"unknown derivative mode {deriv_mode!r}")


# ---------------------------------------------------------------------------
# Public single-purpose operations


def frame_matrix(coframe: CoframeField, point):
    """Coframe matrix and its inverse at one point."""
    E = coframe.matrix(point)
    return E, _frame_matrix(E, point)


def anholonomy(coframe: CoframeField, point) -> np.ndarray:
    """Coefficients C^a_bc of de^a = (1/2) C^a_bc e^b /\\ e^c."""
    E = coframe.matrix(point)
    Einv = _frame_matrix(E, point)
    return _anholonomy(E, Einv, coframe.d_matrix(point))


def levi_civita(coframe: CoframeField, point) -> np.ndarray:
    """Connection coefficients gamma[a, b, c] (e^c component of entry (a, b))."""
    C = anholonomy(coframe, point)
    b = coframe.b
    return _gamma_from_C(C, b, np.linalg.inv(b))


@dataclass(frozen=True)
class BaseCurvature:
    ricci: np.ndarray  # (n, n) mixed components Ric^a_d
    scalar: float
    einstein: np.ndarray  # (n, n)


def riemann_from_geometry(geom: GeometryAtPoint) -> np.ndarray:
    """Curvature components R[a, c, d, e] of the 2-form d gamma + gamma /\\ gamma."""
    g, dg, C = geom.gamma, geom.dgamma, geom.C
    return (
        np.transpose(dg, (0, 1, 3, 2))
        - dg
        + np.einsum("acf,fde->acde", g, C)
        + np.einsum("afd,fce->acde", g, g)
        - np.einsum("afe,fcd->acde", g, g)
    )


def base_curvature_from_geometry(geom: GeometryAtPoint) -> BaseCurvature:
    R = riemann_from_geometry(geom)
    ric = np.einsum("acde,ce->ad", R, geom.b_inv)
    scalar = float(np.trace(ric))
    ein = ric - 0.5 * scalar * np.eye(geom.n)
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
    elif "lattice" in data:
        lat = data["lattice"]
        lo = np.array(lat["min"], dtype=float)
        hi = np.array(lat["max"], dtype=float)
        steps = [int(s) for s in lat["steps"]]
        axes = [np.linspace(lo[i], hi[i], steps[i]) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = [np.array(p) for p in zip(*(m.ravel() for m in mesh))]
    else:
        raise StructuralError("field file needs either 'points' or 'lattice'")
    points.sort(key=tuple)
    return chart, coframe, gauge, points
