"""Split Lie algebras with an ad-invariant block metric.

The algebra is a direct sum of a central block of dimension ``n`` and a
subalgebra block of dimension ``r``, with metric ``h = b (+) k``.  Structure
constants are stored dense as ``c[A, B, C]`` meaning the coefficient of basis
vector ``A`` in the bracket of basis vectors ``B`` and ``C``.  Index order in
every public array follows that convention; error messages use 1-based
indices.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import DegenerateMetricError, StructuralError

__all__ = [
    "LieAlgebraSpec",
    "CheckResult",
    "ValidationReport",
    "validate_spec",
    "bracket",
    "killing_form",
    "cosmological_constant",
    "builtin_algebra",
    "abelian_algebra",
    "su2_algebra",
    "u1_su2_algebra",
    "load_spec",
    "LAMBDA_PREFACTOR",
]

# Prefactor of the double contraction of the structure constants with the
# inverse fiber metric in the cosmological constant.  The source material is
# not self-consistent about this sign; the negative convention (which makes
# the constant positive for compact fiber algebras) is canonical here and is
# never silently flipped.
LAMBDA_PREFACTOR = -0.125

# |det| at or below which h_inv, b_inv and k_inv call a metric block singular
_SINGULAR_TOL = 1e-12

EPSILON3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    EPSILON3[_i, _j, _k] = _s


class LieAlgebraSpec(namedtuple("LieAlgebraSpec", "n r c b k")):
    """Structure constants and block metric of the split algebra.

    Immutable after construction; all arrays are copied and frozen, and
    every entry must be finite.  ``c`` is ``(N, N, N)``, ``b`` ``(n, n)``
    and ``k`` ``(r, r)``.  No ``__slots__``: the instance dict holds the
    cached inverses and :meth:`fiber_cc`, and nothing else.
    """

    def __new__(cls, n, r, c, b, k):
        arrays = []
        for name, value, shape in (("c", c, (n + r,) * 3), ("b", b, (n, n)), ("k", k, (r, r))):
            try:
                arr = np.array(value, dtype=float)
            except (TypeError, ValueError):
                raise StructuralError(f"{name} is not an array of numbers") from None
            if arr.shape != shape:
                raise StructuralError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise StructuralError(f"{name} has an entry that is not a finite number")
            arr.flags.writeable = False
            arrays.append(arr)
        return super().__new__(cls, n, r, *arrays)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: LieAlgebraSpec is immutable")

    @property
    def N(self) -> int:
        return self.n + self.r

    @property
    def h(self) -> np.ndarray:
        """Full block-diagonal metric diag(b, k)."""
        h = np.zeros((self.N, self.N))
        h[: self.n, : self.n] = self.b
        h[self.n :, self.n :] = self.k
        return h

    def h_inv(self) -> np.ndarray:
        """Inverse of h, read-only and computed once; a singular h raises on
        every call."""
        return self._inverse("h", lambda: self.h, "metric h is singular")

    def b_inv(self) -> np.ndarray:
        """Inverse of b, as :meth:`h_inv`."""
        return self._inverse("b", lambda: self.b, "base metric b is singular")

    def k_inv(self) -> np.ndarray:
        """Inverse of k, as :meth:`h_inv`."""
        return self._inverse("k", lambda: self.k, "fiber metric k is singular")

    def _inverse(self, name, matrix, singular):
        inv = self.__dict__.get(f"_{name}_inv")
        if inv is None:
            m = matrix()  # det of the empty k (r = 0) is 1
            if abs(np.linalg.det(m)) <= _SINGULAR_TOL:
                raise DegenerateMetricError(singular)
            inv = np.linalg.inv(m)
            inv.flags.writeable = False
            self.__dict__[f"_{name}_inv"] = inv
        return inv

    def fiber_c(self) -> np.ndarray:
        """The (r, r, r) block of structure constants on the subalgebra."""
        n = self.n
        return self.c[n:, n:, n:]

    def fiber_cc(self) -> np.ndarray:
        """cc[al, de] = c^al_{be ga} c^be_{de ep} k^{ga ep}, read-only and computed once."""
        if "_cc" not in self.__dict__:
            cf, r = self.fiber_c(), self.r
            ck = np.swapaxes(cf @ self.k_inv().T, -2, -1)  # c^be_{de ep} k^{ga ep} as [be, ga, de]
            self.__dict__["_cc"] = cf.reshape(r, r * r) @ ck.reshape(r * r, r)
            self.__dict__["_cc"].flags.writeable = False
        return self.__dict__["_cc"]


class CheckResult(namedtuple("CheckResult", "name passed max_violation worst_indices",
                             defaults=(None,))):
    """One hypothesis check; ``worst_indices`` is 1-based, or None."""

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "checks unimodular unimodular_violation "
                                  "b_signature k_signature det_h")):
    """Every check of :func:`validate_spec`; a signature is (number positive,
    number negative) of the block's eigenvalues."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _worst(residual: np.ndarray):
    """Max |entry| and its (1-based) index tuple."""
    if residual.size == 0:
        return 0.0, None
    flat = np.argmax(np.abs(residual))
    idx = np.unravel_index(flat, residual.shape)
    return float(np.abs(residual).max()), tuple(int(i) + 1 for i in idx)


def _signature(m: np.ndarray, tol: float):
    eig = np.linalg.eigvalsh(0.5 * (m + m.T)) if m.size else np.zeros(0)
    return (int(np.sum(eig > tol)), int(np.sum(eig < -tol)))


def validate_spec(spec: LieAlgebraSpec, tol: float = 1e-10) -> ValidationReport:
    """Check every hypothesis on the algebra and report violations.

    Failing Jacobi, antisymmetry, the block layout or ad-invariance marks the
    report as failed; unimodularity is reported as a warning only.  A singular
    ``h`` raises :class:`DegenerateMetricError`.
    """
    c, h, n = spec.c, spec.h, spec.n
    det_h = float(np.linalg.det(h))
    if abs(det_h) <= tol:
        raise DegenerateMetricError(f"|det h| = {abs(det_h):.3e} <= tolerance {tol:.3e}")

    # central block: c vanishes unless all three indices sit in the subalgebra block
    blocked = c.copy()
    blocked[n:, n:, n:] = 0.0
    residuals = {
        "bracket antisymmetry": c + np.swapaxes(c, 1, 2),
        "Jacobi identity": (np.einsum("eda,dbc->eabc", c, c) + np.einsum("edb,dca->eabc", c, c)
                            + np.einsum("edc,dab->eabc", c, c)),
        "central-block structure": blocked,
        "ad-invariance of h": np.einsum("dab,dc->abc", c, h) + np.einsum("dac,bd->abc", c, h),
        # structural given the b/k storage, but reported so that the report
        # lists every hypothesis
        "block orthogonality of h": h[:n, n:],
    }
    checks = [CheckResult(name, v <= tol, v, w)
              for name, residual in residuals.items() for v, w in [_worst(residual)]]
    checks.append(CheckResult("nondegeneracy of h", abs(det_h) > tol, 0.0))

    trace = np.einsum("aba->b", c)
    uv, _ = _worst(trace)

    return ValidationReport(
        checks=tuple(checks),
        unimodular=uv <= tol,
        unimodular_violation=uv,
        b_signature=_signature(spec.b, tol),
        k_signature=_signature(spec.k, tol),
        det_h=det_h,
    )


def bracket(spec: LieAlgebraSpec, xi, eta) -> np.ndarray:
    """Bracket of two algebra vectors: ``out[A] = c[A,B,C] xi[B] eta[C]``."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != (spec.N,) or eta.shape != (spec.N,):
        raise StructuralError(f"vectors must have length {spec.N}")
    return np.einsum("abc,b,c->a", spec.c, xi, eta)


def killing_form(spec: LieAlgebraSpec) -> np.ndarray:
    """Killing form on the subalgebra block: ``K[g,e] = c[a,b,g] c[b,a,e]``."""
    cf = spec.fiber_c()
    return np.einsum("abg,bae->ge", cf, cf)


def cosmological_constant(spec: LieAlgebraSpec) -> float:
    """``LAMBDA_PREFACTOR`` times the pairing of the Killing form with
    ``k``-inverse, which is the trace of :meth:`LieAlgebraSpec.fiber_cc`."""
    return LAMBDA_PREFACTOR * float(np.trace(spec.fiber_cc()))


# ---------------------------------------------------------------------------
# Built-in algebras


def _default_block(m, given):
    """``given`` (LieAlgebraSpec checks it), or the m x m identity for None."""
    return np.eye(m) if given is None else given


def abelian_algebra(n, r, b=None, k=None) -> LieAlgebraSpec:
    N = n + r
    return LieAlgebraSpec(n, r, np.zeros((N, N, N)), _default_block(n, b), _default_block(r, k))


def su2_algebra(n, b=None, k=None) -> LieAlgebraSpec:
    """su(2) fiber (epsilon structure constants) over an n-dimensional central block."""
    N = n + 3
    c = np.zeros((N, N, N))
    c[n:, n:, n:] = EPSILON3
    return LieAlgebraSpec(n, 3, c, _default_block(n, b), _default_block(3, k))


def u1_su2_algebra(n, b=None, k=None) -> LieAlgebraSpec:
    """u(1) + su(2) fiber: first fiber direction central within the fiber block."""
    N = n + 4
    c = np.zeros((N, N, N))
    c[n + 1 :, n + 1 :, n + 1 :] = EPSILON3
    return LieAlgebraSpec(n, 4, c, _default_block(n, b), _default_block(4, k))


_BUILTINS = {
    "abelian": abelian_algebra,
    "su2": su2_algebra,
    "u1_su2": u1_su2_algebra,
}


def builtin_algebra(name, n, r=None, b=None, k=None) -> LieAlgebraSpec:
    if not isinstance(name, str) or name not in _BUILTINS:
        raise StructuralError(f"unknown builtin algebra {name!r}; choose from {sorted(_BUILTINS)}")
    if name == "abelian":
        if r is None:
            raise StructuralError("abelian algebra needs an explicit fiber dimension r")
        return abelian_algebra(n, r, b, k)
    return _BUILTINS[name](n, b, k)


def load_spec(data: dict) -> LieAlgebraSpec:
    """Build a spec from the JSON wire format.

    ``{"n":…, "r":…, "c":[[A,B,C,value],…], "h_b":[[…]], "h_k":[[…]]}``
    with zero-based sparse triplet indices.  A value of the wrong type, the
    whole ``data`` among them, raises :class:`StructuralError`.
    """
    if not isinstance(data, dict):
        raise StructuralError(f"problem JSON needs an 'algebra' object, got {data!r}")
    if "builtin" in data:
        r = data.get("r")
        return builtin_algebra(data["builtin"], _number(data.get("n", 0), "algebra n", True),
                               r if r is None else _number(r, "algebra r", True),
                               data.get("h_b"), data.get("h_k"))
    try:
        n, r = _number(data["n"], "algebra n", True), _number(data["r"], "algebra r", True)
    except KeyError as exc:
        raise StructuralError(f"algebra JSON is missing field {exc}") from None
    N = n + r
    c = np.zeros((N, N, N))
    if not isinstance(data.get("c", []), list):
        raise StructuralError(f"algebra c must be a list of entries, got {data['c']!r}")
    for entry in data.get("c", []):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise StructuralError(f"structure-constant entry {entry} is not [A, B, C, value]")
        A, B, C = (_number(i, f"structure-constant entry {entry}", True) for i in entry[:3])
        if not (0 <= A < N and 0 <= B < N and 0 <= C < N):
            raise StructuralError(
                f"structure-constant index ({A + 1},{B + 1},{C + 1}) outside 1..{N}"
            )
        c[A, B, C] = _number(entry[3], f"structure-constant entry {entry}")
    b = _default_block(n, data.get("h_b"))
    k = _default_block(r, data.get("h_k"))
    return LieAlgebraSpec(n, r, c, b, k)


def _number(value, where, integer=False):
    """``value``, a finite JSON number (a non-negative integer value, a count
    or an index, if ``integer``), as a float (an int); anything else raises
    StructuralError naming ``where``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or integer and not (value == int(value) >= 0)):
        raise StructuralError(f"{where} must be "
                              f"{'a non-negative integer' if integer else 'a finite number'}, "
                              f"got {value!r}")
    return int(value) if integer else float(value)
