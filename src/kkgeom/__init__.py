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
  path lifting, gauge-covariance verification.
- :mod:`kkgeom.cli` — the batch front end (``kkgeom`` console script).
"""

from .basegeo import (BaseCurvature, ChartSpec, CoframeField, GaugeField,
                      GeometryAtPoint, base_curvature_from_geometry,
                      geometry_at_point, load_fields)
from .bundle import (GroupElement, MatrixRep, PathSpec, adjoint_of,
                     builtin_rep, lift_path, verify_deextra,
                     verify_gauge_covariance)
from .errors import (DegenerateCoframeError, DegenerateMetricError,
                     DegreeError, EvalDomainError, ExprSyntaxError,
                     KKGeomError, NonFiniteGeometryError, StructuralError,
                     UnknownIdentifierError)
from .exterior import (AlternatingForm, basis_one_form, check_identities,
                       d_substitute, epsilon_form, interior, top_form, wedge)
from .fieldexpr import FieldProvider, diff, evaluate, parse, pretty
from .kkcurv import (EYMResidual, KKConnection, KKCurvature, assemble_omega,
                     cross_check, curvature_direct, eym_residuals,
                     ricci_closed_form, riemann_direct)
from .liealg import (LAMBDA_PREFACTOR, LieAlgebraSpec, ValidationReport,
                     bracket, builtin_algebra, cosmological_constant,
                     killing_form, load_spec, su2_algebra, u1_su2_algebra,
                     validate_spec)

__version__ = "0.1.0"
