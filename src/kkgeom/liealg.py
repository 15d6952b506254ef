"""Split Lie algebras with an ad-invariant block metric.

The algebra is a direct sum of a central block of dimension ``n`` and a
subalgebra block of dimension ``r``, with metric ``h = b (+) k``.  Structure
constants ``c[A, B, C]`` are the coefficient of basis vector ``A`` in the
bracket of basis vectors ``B`` and ``C``.  A spec keeps the algebra as
Python data, the non-zero constants by index triple and the rows of ``b``
and ``k``: the hypothesis checks and the cosmological constant run on it
with the standard library alone, and the numpy arrays are built on first
use.  Index order in every public array follows that convention; error
messages use 1-based indices.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, namedtuple

from .errors import DegenerateMetricError, NonFiniteAlgebraError, StructuralError

__all__ = ["LieAlgebraSpec", "CheckResult", "ValidationReport", "validate_spec", "bracket",
           "killing_form", "cosmological_constant", "builtin_algebra", "abelian_algebra",
           "su2_algebra", "u1_su2_algebra", "load_spec", "LAMBDA_PREFACTOR"]

# Prefactor of the double contraction of the structure constants with the
# inverse fiber metric in the cosmological constant.  The source material is
# not self-consistent about this sign; the negative convention (which makes
# the constant positive for compact fiber algebras) is canonical here and is
# never silently flipped.
LAMBDA_PREFACTOR = -0.125

# the largest finite float; a JSON int beyond it is no finite number either
_FLOAT_MAX = 1.7976931348623157e308

# |det| at or below which h_inv, b_inv, k_inv and the cosmological constant
# call a metric block singular (det from _gauss_jordan)
_SINGULAR_TOL = 1e-12

# the su(2) structure constants epsilon_ijk, by 0-based index triple
_EPSILON3 = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
             (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}


class LieAlgebraSpec(namedtuple("LieAlgebraSpec", "n r c_entries b_rows k_rows")):
    """Structure constants and block metric of the split algebra.

    ``LieAlgebraSpec(n, r, c, b, k)`` takes ``c`` as an (N, N, N) array or
    nested lists, or as a dict of its entries by 0-based index triple, ``b``
    as (n, n) and ``k`` as (r, r); every entry must be a finite number.  It
    keeps ``c_entries``, the non-zero entries in row-major order, and
    ``b_rows`` and ``k_rows``, tuples of rows of floats.  Immutable after
    construction.  No ``__slots__``: the instance dict holds what is built
    once, on first use, and nothing else: the read-only arrays ``c``, ``b``,
    ``k``, ``h``, the inverses and :meth:`fiber_cc`, and the cosmological
    constant; a copy is rebuilt from the fields, without them.
    """

    def __new__(cls, n, r, c, b, k):
        N = n + r
        if isinstance(c, dict):
            if not all(len(key) == 3 and all(type(i) is int and 0 <= i < N for i in key)
                       for key in c):
                raise StructuralError(f"c has an index triple outside 0..{N - 1}")
            keys, values = list(c), _numbers("c", list(c.values()), (len(c),))
        else:
            keys, values = itertools.product(range(N), repeat=3), _numbers("c", c, (N,) * 3)
        entries = dict(sorted((key, v) for key, v in zip(keys, values) if v))
        return super().__new__(cls, n, r, entries, _rows("b", b, n), _rows("k", k, r))

    def __reduce__(self):
        return type(self), (self.n, self.r, self.c_entries, self.b_rows, self.k_rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: LieAlgebraSpec is immutable")

    @property
    def N(self) -> int:
        return self.n + self.r

    def _array(self, name, build):
        """The read-only array ``build(numpy)``, built on the first call and kept."""
        arr = self.__dict__.get(name)
        if arr is None:
            import numpy as np

            arr = self.__dict__[name] = build(np)
            arr.flags.writeable = False
        return arr

    @property
    def c(self):
        """The dense (N, N, N) structure constants."""
        def build(np):
            c = np.zeros((self.N,) * 3)
            for index, value in self.c_entries.items():
                c[index] = value
            return c
        return self._array("_c", build)

    b = property(lambda self: self._array("_b", lambda np: np.reshape(self.b_rows, (self.n,) * 2)))
    k = property(lambda self: self._array("_k", lambda np: np.reshape(self.k_rows, (self.r,) * 2)))
    h = property(lambda self: self._array("_h", lambda np: np.reshape(_h_rows(self),
                                                                      (self.N,) * 2)),
                 doc="Full block-diagonal metric diag(b, k).")

    def h_inv(self):
        """Inverse of h, read-only and computed once; a singular h raises on
        every call."""
        return self._inverse("h", "metric h is singular")

    def b_inv(self):
        """Inverse of b, as :meth:`h_inv`."""
        return self._inverse("b", "base metric b is singular")

    def k_inv(self):
        """Inverse of k, as :meth:`h_inv`."""
        return self._inverse("k", "fiber metric k is singular")

    def _inverse(self, name, singular):
        def build(np):
            m = getattr(self, name)  # det of the empty k (r = 0) is 1
            if abs(_gauss_jordan(m.tolist())[0]) <= _SINGULAR_TOL:
                raise DegenerateMetricError(singular)
            return np.linalg.inv(m)
        return self._array(f"_{name}_inv", build)

    def fiber_c(self):
        """The (r, r, r) block of structure constants on the subalgebra."""
        n = self.n
        return self.c[n:, n:, n:]

    def fiber_cc(self):
        """cc[al, de] = c^al_{be ga} c^be_{de ep} k^{ga ep}, read-only and computed once."""
        def build(np):
            cf, r = self.fiber_c(), self.r
            ck = (cf @ self.k_inv().T).swapaxes(-2, -1)  # c^be_{de ep} k^{ga ep} as [be, ga, de]
            return cf.reshape(r, r * r) @ ck.reshape(r * r, r)
        return self._array("_cc", build)


def _numbers(where, value, shape):
    """The entries of ``value``, nested lists (or an array) of ``shape``,
    row-major as floats; ``None`` on an axis means any length.  Each entry
    must be a finite JSON number, as :func:`_number` reads one.  A node that
    is not a list, a list of the wrong length or a bad entry raises
    StructuralError naming the first such node by its JSON path from
    ``where``: ``points[1]``, ``paths[0].g0[2][0]``."""
    flat = []

    def read(node, where, axes):
        if not axes:
            flat.append(_number(node, where))
        elif not isinstance(node, (list, tuple)):
            raise StructuralError(f"{where} must be a list, got {node!r}")
        elif axes[0] is not None and len(node) != axes[0]:
            raise StructuralError(f"{where} has length {len(node)}, expected {axes[0]}")
        else:
            for i, item in enumerate(node):
                read(item, f"{where}[{i}]", axes[1:])

    read(value.tolist() if hasattr(value, "tolist") else value, where, shape)
    return flat


def _rows(name, value, m):
    flat = _numbers(name, value, (m, m))
    return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(m))


def _h_rows(spec):
    """h = diag(b, k) as a list of rows."""
    n, r = spec.n, spec.r
    return [[*row, *[0.0] * r] for row in spec.b_rows] + [[*[0.0] * n, *row] for row in spec.k_rows]


def _gauss_jordan(m):
    """(det, inverse) of the square matrix with rows ``m``, by Gauss-Jordan
    elimination with partial pivoting: det is the product of the pivots, as
    an LU factorisation gives it, and the inverse is None when det is 0."""
    # det is kept as det * 2**exponent, so that no partial product under- or
    # overflows: b = 1e-200 I and k = 1e140 I give det h = 1e20
    size, det, exponent = len(m), 1.0, 0
    a = [[*row, *(float(i == j) for j in range(size))] for i, row in enumerate(m)]
    for j in range(size):
        p = max(range(j, size), key=lambda i: abs(a[i][j]))  # the first on a tie
        if a[p][j] == 0.0:
            return 0.0, None
        if p != j:
            a[j], a[p], det = a[p], a[j], -det
        pivot = a[j][j]
        mantissa, shift = math.frexp(pivot)
        det, carry = math.frexp(det * mantissa)
        exponent += shift + carry
        a[j] = [x / pivot for x in a[j]]
        for i in range(size):
            f = a[i][j]
            if i != j and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    try:
        det = math.ldexp(det, exponent)
    except OverflowError:
        det = math.copysign(math.inf, det)
    return det, [row[size:] for row in a]


def _finite(what, value):
    if not math.isfinite(value):
        raise NonFiniteAlgebraError(f"{what} is not finite ({value!r})")
    return value


class CheckResult(namedtuple("CheckResult", "name passed max_violation worst_indices",
                             defaults=(None,))):
    """One hypothesis check; ``worst_indices`` is 1-based, or None."""

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "checks unimodular unimodular_violation "
                                  "b_signature k_signature det_h")):
    """Every check of :func:`validate_spec`; a signature is (number positive,
    number negative) of the eigenvalues of the block's symmetric part."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _plus(x, y):
    """x + y for residuals held as {index: value}, an absent entry 0."""
    return {key: x.get(key, 0.0) + y.get(key, 0.0) for key in x.keys() | y.keys()}


def _worst(name, residual, shape):
    """Max |entry| of a residual of ``shape`` held as {0-based index: value}
    (an absent entry is 0), and its 1-based index, row-major and the first on
    a tie: (1, ..., 1) when every entry is 0, None when there are none."""
    if not all(map(math.isfinite, residual.values())):
        raise NonFiniteAlgebraError(f"the {name} residual is not finite")
    if 0 in shape:
        return 0.0, None
    worst = max(map(abs, residual.values()), default=0.0)
    index = min(key for key, v in residual.items() if abs(v) == worst) if worst else None
    return worst, tuple(i + 1 for i in index or (0,) * len(shape))


def _signature(m, tol):
    """(number > tol, number < -tol) of the eigenvalues of the symmetric part
    of the square matrix with rows ``m``, found by cyclic Jacobi rotations."""
    size = len(m)
    a = [[0.5 * m[i][j] + 0.5 * m[j][i] for j in range(size)] for i in range(size)]
    for _ in range(50):  # the off-diagonal part falls quadratically: a few sweeps do
        rotated = False
        for p, q in itertools.combinations(range(size), 2):
            if abs(a[p][q]) <= 1e-18 * (abs(a[p][p]) + abs(a[q][q])):
                continue
            rotated = True
            theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            cos = 1.0 / math.hypot(1.0, t)
            sin = t * cos
            for row in a:  # A J, then J^T (A J), J the rotation in the (p, q) plane
                row[p], row[q] = cos * row[p] - sin * row[q], sin * row[p] + cos * row[q]
            a[p], a[q] = ([cos * x - sin * y for x, y in zip(a[p], a[q])],
                          [sin * x + cos * y for x, y in zip(a[p], a[q])])
            a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    eig = [a[i][i] for i in range(size)]
    return sum(x > tol for x in eig), sum(x < -tol for x in eig)


def validate_spec(spec: LieAlgebraSpec, tol: float = 1e-10) -> ValidationReport:
    """Check every hypothesis on the algebra and report violations.

    Failing Jacobi, antisymmetry, the block layout, the symmetry of h or
    ad-invariance marks the report as failed; unimodularity is reported as a
    warning only.  A singular ``h`` raises :class:`DegenerateMetricError`,
    and a det h or residual that is not finite NonFiniteAlgebraError.  Each
    residual is a sum over the non-zero entries of ``c``, each contraction
    summed in increasing order of its index, as ``numpy.einsum`` sums the
    dense arrays.
    """
    c, n, N = spec.c_entries, spec.n, spec.N
    h = _h_rows(spec)
    det_h = _finite("det h", _gauss_jordan(h)[0])
    if abs(det_h) <= tol:
        raise DegenerateMetricError(f"|det h| = {abs(det_h):.3e} <= tolerance {tol:.3e}")

    by_first = defaultdict(list)  # A -> [((B, C), c^A_BC)]
    for (A, B, C), v in c.items():
        by_first[A].append(((B, C), v))
    # each entry v = c^A_BC in turn: the Jacobi terms c^e_da c^d_bc, c^e_db
    # c^d_ca and c^e_dc c^d_ab with (e, d) = (A, B), the ad-invariance terms
    # c^d_ab h_dc and c^d_ac h_bd with d = A, and the trace c^a_ba
    jacobi, ad = [defaultdict(float) for _ in range(3)], [defaultdict(float) for _ in range(2)]
    trace = defaultdict(float)
    for (A, B, C), v in c.items():
        for (D, E), w in by_first[B]:
            jacobi[0][A, C, D, E] += v * w
            jacobi[1][A, E, C, D] += v * w
            jacobi[2][A, D, E, C] += v * w
        for j in range(N):
            if h[A][j]:
                ad[0][B, C, j] += v * h[A][j]
            if h[j][A]:
                ad[1][B, j, C] += v * h[j][A]
        if A == C:
            trace[B, ] += v

    residuals = {
        "bracket antisymmetry": (_plus(c, {(A, C, B): v for (A, B, C), v in c.items()}), 3),
        "Jacobi identity": (_plus(_plus(jacobi[0], jacobi[1]), jacobi[2]), 4),
        # central block: c vanishes unless all three indices sit in the subalgebra block
        "central-block structure": ({key: v for key, v in c.items() if min(key) < n}, 3),
        "ad-invariance of h": (_plus(*ad), 3),
        "symmetry of h": ({(i, j): h[i][j] - h[j][i] for i in range(N) for j in range(N)}, 2),
    }
    checks = [CheckResult(name, v <= tol, v, w) for name, (residual, ndim) in residuals.items()
              for v, w in [_worst(name, residual, (N,) * ndim)]]
    # structural given the b/k storage, but reported so that the report lists
    # every hypothesis
    checks.append(CheckResult("block orthogonality of h", True, 0.0,
                              (1, 1) if n * spec.r else None))
    checks.append(CheckResult("nondegeneracy of h", abs(det_h) > tol, 0.0))
    uv, _ = _worst("unimodularity", trace, (N,))

    return ValidationReport(
        checks=tuple(checks),
        unimodular=uv <= tol,
        unimodular_violation=uv,
        b_signature=_signature(spec.b_rows, tol),
        k_signature=_signature(spec.k_rows, tol),
        det_h=det_h,
    )


def bracket(spec: LieAlgebraSpec, xi, eta):
    """Bracket of two algebra vectors: ``out[A] = c[A,B,C] xi[B] eta[C]``."""
    import numpy as np

    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != (spec.N,) or eta.shape != (spec.N,):
        raise StructuralError(f"vectors must have length {spec.N}")
    return np.einsum("abc,b,c->a", spec.c, xi, eta)


def killing_form(spec: LieAlgebraSpec):
    """Killing form on the subalgebra block: ``K[g,e] = c[a,b,g] c[b,a,e]``."""
    import numpy as np

    cf = spec.fiber_c()
    return np.einsum("abg,bae->ge", cf, cf)


def cosmological_constant(spec: LieAlgebraSpec) -> float:
    """``LAMBDA_PREFACTOR`` times the pairing of the Killing form with
    ``k``-inverse, which is the trace of :meth:`LieAlgebraSpec.fiber_cc`;
    computed once, from the fiber entries of ``c_entries`` and a Gauss-Jordan
    ``k``-inverse.  A singular ``k`` raises DegenerateMetricError, and a
    constant that is not finite NonFiniteAlgebraError."""
    if "_lambda" not in spec.__dict__:
        det, k_inv = _gauss_jordan(spec.k_rows)
        if abs(det) <= _SINGULAR_TOL:
            raise DegenerateMetricError("fiber metric k is singular")
        n, fiber = spec.n, defaultdict(list)  # (al, be) -> [(ga, c^al_{be ga})]
        for (A, B, C), v in spec.c_entries.items():
            if min(A, B, C) >= n:
                fiber[A - n, B - n].append((C - n, v))
        cc = [0.0] * spec.r  # the diagonal c^al_{be ga} c^be_{al ep} k^{ga ep} of fiber_cc
        for (al, be), row in list(fiber.items()):
            for ga, v in row:
                inner = 0.0
                for ep, w in fiber[be, al]:
                    inner += w * k_inv[ga][ep]
                cc[al] += v * inner
        total = 0.0
        for x in cc:
            total += x
        spec.__dict__["_lambda"] = _finite("the cosmological constant", LAMBDA_PREFACTOR * total)
    return spec.__dict__["_lambda"]


# ---------------------------------------------------------------------------
# Built-in algebras


def _default_block(m, given):
    """``given`` (LieAlgebraSpec checks it), or the m x m identity for None."""
    return [[float(i == j) for j in range(m)] for i in range(m)] if given is None else given


def _su2_block(start):
    """The su(2) constants on the three basis vectors from ``start`` on."""
    return {(A + start, B + start, C + start): s for (A, B, C), s in _EPSILON3.items()}


def abelian_algebra(n, r, b=None, k=None) -> LieAlgebraSpec:
    return LieAlgebraSpec(n, r, {}, _default_block(n, b), _default_block(r, k))


def su2_algebra(n, b=None, k=None) -> LieAlgebraSpec:
    """su(2) fiber (epsilon structure constants) over an n-dimensional central block."""
    return LieAlgebraSpec(n, 3, _su2_block(n), _default_block(n, b), _default_block(3, k))


def u1_su2_algebra(n, b=None, k=None) -> LieAlgebraSpec:
    """u(1) + su(2) fiber: first fiber direction central within the fiber block."""
    return LieAlgebraSpec(n, 4, _su2_block(n + 1), _default_block(n, b), _default_block(4, k))


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
    with zero-based sparse triplet indices; of two entries at one index
    triple the last wins.  A value of the wrong type, the
    whole ``data`` among them, raises :class:`StructuralError` naming an
    entry of ``c``, ``h_b`` or ``h_k`` by its JSON path (``algebra.c[0][3]``).
    """
    if not isinstance(data, dict):
        raise StructuralError(f"problem JSON needs an 'algebra' object, got {data!r}")
    if "builtin" in data:
        r = data.get("r")
        spec = builtin_algebra(data["builtin"], _number(data.get("n", 0), "algebra n", True),
                               r if r is None else _number(r, "algebra r", True))
        n, r, c = spec.n, spec.r, spec.c_entries
    else:
        try:
            n, r = _number(data["n"], "algebra n", True), _number(data["r"], "algebra r", True)
        except KeyError as exc:
            raise StructuralError(f"algebra JSON is missing field {exc}") from None
        c = {}
        if not isinstance(data.get("c", []), list):
            raise StructuralError(f"algebra c must be a list of entries, got {data['c']!r}")
        for i, entry in enumerate(data.get("c", [])):
            if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                raise StructuralError(f"algebra.c[{i}] must be [A, B, C, value], got {entry!r}")
            A, B, C, value = (_number(x, f"algebra.c[{i}][{j}]", j < 3)
                              for j, x in enumerate(entry))
            if max(A, B, C) >= n + r:
                raise StructuralError(
                    f"structure-constant index ({A + 1},{B + 1},{C + 1}) outside 1..{n + r}"
                )
            c[A, B, C] = value
    b, k = (_rows(f"algebra.{key}", _default_block(m, data.get(key)), m)
            for key, m in (("h_b", n), ("h_k", r)))
    return LieAlgebraSpec(n, r, c, b, k)


def _number(value, where, integer=False):
    """``value``, a finite JSON number (a non-negative integer value, a count
    or an index, if ``integer``), as a float (an int); anything else, a bool,
    a string, None or an int beyond the float range among them, raises
    StructuralError naming ``where``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= _FLOAT_MAX or integer and not (value == int(value) >= 0)):
        raise StructuralError(f"{where} must be "
                              f"{'a non-negative integer' if integer else 'a finite number'}, "
                              f"got {value!r}")
    return int(value) if integer else float(value)
