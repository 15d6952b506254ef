"""Numerical machinery for dimensional-reduction geometry.

Subpackages by topic:

- :mod:`kkgeom.liealg` — split Lie algebras, structure-constant validation,
  Killing form, cosmological constant.
- :mod:`kkgeom.exterior` — sparse alternating forms, wedge/interior products,
  the epsilon coframe family and its structural identities.
- :mod:`kkgeom.fieldexpr` — analytic field expressions with exact symbolic
  derivatives.
- :mod:`kkgeom.basegeo` — coframe and gauge fields on a chart, and the frame
  geometry at a batch of points (anholonomy, Levi-Civita connection, gauge
  field strength, base curvature) from one ``geometry_at_point`` pass; the
  base metric is the algebra's ``b``.
- :mod:`kkgeom.kkcurv` — the block connection on the total space, its
  curvature by two independent routes, Einstein-Yang-Mills residuals.
- :mod:`kkgeom.bundle` — matrix group representations, adjoint gauge maps,
  path lifting; the fiber group alone, no base geometry.
- :mod:`kkgeom.gauge` — the structure-equation and gauge-covariance checks
  on a fiber chart, on top of ``bundle``, ``basegeo`` and ``kkcurv``.
- :mod:`kkgeom.cli` — the batch front end (``kkgeom`` console script).

Importing the package loads none of them.  Each public name below is
resolved on first access (``kkgeom.wedge``, ``from kkgeom import wedge``),
which imports the one module that defines it, so a program pays only for
the modules it uses.  ``__all__`` lists those names, and ``dir(kkgeom)``
lists them too.
"""

from importlib import import_module

# defining module -> the names the package exports from it
_EXPORTS = {
    "basegeo": ("BaseCurvature", "CoframeField", "GaugeField",
                "GeometryAtPoint", "base_curvature_from_geometry", "geometry_at_point",
                "load_fields"),
    "bundle": ("GroupElement", "MatrixRep", "PathSpec", "adjoint_of", "algebra_rep",
               "builtin_rep", "lift_path"),
    "errors": ("DegenerateCoframeError", "DegenerateMetricError", "DegreeError",
               "EvalDomainError", "ExprSyntaxError", "KKGeomError", "NonFiniteAlgebraError",
               "NonFiniteGeometryError", "StructuralError", "UnknownIdentifierError"),
    "exterior": ("AlternatingForm", "basis_one_form", "check_identities", "d_substitute",
                 "epsilon_form", "interior", "top_form", "wedge"),
    "fieldexpr": ("FieldProvider", "diff", "evaluate", "parse", "pretty"),
    "gauge": ("verify_deextra", "verify_gauge_covariance"),
    "kkcurv": ("EYMResidual", "KKConnection", "KKCurvature", "assemble_omega",
               "cross_check", "curvature_direct", "eym_residuals", "ricci_closed_form",
               "riemann_direct"),
    "liealg": ("LAMBDA_PREFACTOR", "LieAlgebraSpec", "ValidationReport", "bracket",
               "builtin_algebra", "cosmological_constant", "killing_form", "load_spec",
               "su2_algebra", "u1_su2_algebra", "validate_spec"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
