"""Exception types shared across the package."""


class KKGeomError(Exception):
    """Base class for all package errors."""


class StructuralError(KKGeomError):
    """Array dimensions or block layout do not match the declared algebra."""


class DegenerateMetricError(KKGeomError):
    """A metric block is singular within tolerance."""


class DegenerateCoframeError(KKGeomError):
    """The coframe matrix is singular at an evaluation point, relative to
    its scale: ``det`` is the determinant of e / max|e|.  ``stencil`` names
    the fd stencil row around the point on which it is, if any."""

    def __init__(self, point, det, stencil=""):
        self.point = tuple(float(x) for x in point)
        self.det = float(det)
        super().__init__(f"coframe matrix is degenerate at point {self.point}{stencil} "
                         f"(det(e / max|e|) = {self.det:.3e})")


class NonFiniteGeometryError(KKGeomError):
    """The geometry overflowed at an evaluation point: ``fields`` names the
    arrays that are not finite, frame arrays (E, C, gamma, A, F, ...) or,
    with ``what = "curvature"``, curvature arrays (ricci, Omega)."""

    def __init__(self, point, fields, what="frame geometry"):
        self.point = tuple(float(x) for x in point)
        self.fields = tuple(fields)
        super().__init__(f"{what} is not finite at point {self.point} "
                         f"({', '.join(self.fields)})")


class NonFiniteLiftError(KKGeomError):
    """A path lift overflowed: ``time`` is the start time of the first step,
    of the lift at ``steps`` steps, whose step operator is not finite;
    ``where`` names the path (``paths[0]``) when it is known."""

    def __init__(self, time, steps, where=""):
        self.time, self.steps, self.where = float(time), int(steps), where
        super().__init__(f"{where + ': ' if where else ''}step operator is not finite at "
                         f"t = {self.time!r} (lift at {self.steps} steps)")


class NonFiniteAlgebraError(KKGeomError):
    """A quantity computed from the algebra alone (det h, a hypothesis
    residual, the cosmological constant) overflowed to an infinity or a NaN."""


class ExprSyntaxError(KKGeomError):
    """Syntax error in a field expression, with the byte offset of the bad token."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class UnknownIdentifierError(KKGeomError):
    """An identifier could not be resolved to a variable, parameter or function."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown identifier: {name!r}")


class EvalDomainError(KKGeomError):
    """Evaluation left the real domain (log of a negative number, etc.)."""


class DegreeError(KKGeomError):
    """Operation applied to a form of unsupported degree."""
