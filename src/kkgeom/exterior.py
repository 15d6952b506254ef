"""Alternating multilinear algebra over an N-dimensional coframe.

Forms are scalar valued and stored sparsely: a map from strictly increasing
multi-indices to coefficients.  All operations are pure and the containers
are treated as immutable once constructed.

The public constructor validates every multi-index and coefficient.  The
operations (``wedge``, ``interior``, ``d_substitute``, ``+``, ``-``, ``*``)
produce valid coefficients by construction, so they build their results
through a private constructor that only drops zero coefficients, and each
result is built once (``d_substitute`` accumulates all of its Leibniz terms
into one map).

A coefficient, or an entry of an ``interior`` vector, is a real number: a
Python int or float, a numpy real scalar or a 0-d array of one.  It is
stored as a Python float; anything else raises :class:`StructuralError`.
The module runs on the standard library alone, so a process that only
checks identities (``kkgeom identities``) never imports numpy.
"""

from __future__ import annotations

import numbers
import operator
import random
from collections import namedtuple
from itertools import combinations, product

from .errors import DegreeError, StructuralError

__all__ = [
    "AlternatingForm",
    "wedge",
    "interior",
    "epsilon_form",
    "top_form",
    "basis_one_form",
    "d_substitute",
    "IdentityReport",
    "check_identities",
]


def _real(value, what):
    """``value`` as a Python float if it is a real number (a numpy scalar or
    0-d array is unwrapped first); StructuralError naming ``what`` otherwise."""
    if not isinstance(value, numbers.Real) and getattr(value, "shape", None) == ():
        value = value.item()
    if not isinstance(value, numbers.Real):
        raise StructuralError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _perm_sign_sorting(seq):
    """Sign of the permutation sorting ``seq``; 0 on repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class AlternatingForm:
    """A degree-``p`` alternating form on an ``N``-dimensional frame."""

    __slots__ = ("N", "degree", "coeffs")

    def __init__(self, N, degree, coeffs=None):
        if not 0 <= degree <= N:
            raise DegreeError(f"degree {degree} outside 0..{N}")
        self.N = N
        self.degree = degree
        self.coeffs = {}
        for idx, value in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or any(not 0 <= i < N for i in idx):
                raise StructuralError(f"bad multi-index {idx} for degree {degree}, N={N}")
            if list(idx) != sorted(idx) or len(set(idx)) != degree:
                raise StructuralError(f"multi-index {idx} is not strictly increasing")
            value = _real(value, f"coefficient at {idx}")
            if value != 0.0:
                self.coeffs[idx] = value

    @classmethod
    def zero(cls, N, degree):
        return cls(N, degree, {})

    def get(self, indices) -> float:
        """Coefficient at an arbitrary index tuple, with the permutation sign."""
        sign = _perm_sign_sorting(indices)
        if sign == 0:
            return 0.0
        value = self.coeffs.get(tuple(sorted(indices)))
        if value is None:
            return 0.0
        return sign * value

    def is_zero(self, tol=0.0) -> bool:
        return all(abs(v) <= tol for v in self.coeffs.values())

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for idx, value in other.coeffs.items():
            out[idx] = out[idx] + value if idx in out else value
        return _form(self.N, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        scalar = float(scalar)
        return _form(self.N, self.degree, {idx: scalar * v for idx, v in self.coeffs.items()})

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if (
            not isinstance(other, AlternatingForm)
            or other.N != self.N
            or other.degree != self.degree
        ):
            raise StructuralError("incompatible forms")

    def equal_to(self, other, tol=0.0) -> bool:
        return (self - other).is_zero(tol)

    def dump(self) -> str:
        """One line per multi-index: "A1 A2 ... Ap : v" (1-based)."""
        lines = []
        for idx in sorted(self.coeffs):
            head = " ".join(str(i + 1) for i in idx)
            lines.append(f"{head} : {self.coeffs[idx]!r}")
        return "\n".join(lines)

    def __repr__(self):
        return f"AlternatingForm(N={self.N}, degree={self.degree}, terms={len(self.coeffs)})"


def _form(N, degree, coeffs) -> AlternatingForm:
    """Trusted constructor for the results of form operations: the keys of
    ``coeffs`` are valid strictly increasing multi-indices and its values
    are scalars.  Zero coefficients are dropped; nothing is checked."""
    form = AlternatingForm.__new__(AlternatingForm)
    form.N = N
    form.degree = degree
    form.coeffs = {idx: v for idx, v in coeffs.items() if v != 0.0}
    return form


def basis_one_form(N, A):
    """The coordinate 1-form with index ``A`` (coefficient 1)."""
    return AlternatingForm(N, 1, {(A,): 1.0})


def top_form(N):
    """The volume form, coefficient +1 on (0, ..., N-1)."""
    return AlternatingForm(N, N, {tuple(range(N)): 1.0})


def wedge(alpha: AlternatingForm, beta: AlternatingForm) -> AlternatingForm:
    """Wedge product."""
    if alpha.N != beta.N:
        raise StructuralError(f"frame dimensions differ: {alpha.N} vs {beta.N}")
    N = alpha.N
    degree = alpha.degree + beta.degree
    if degree > N:
        return AlternatingForm.zero(N, N)
    out = {}
    _wedge_into(out, alpha.coeffs, beta.coeffs)
    return _form(N, degree, out)


# (ia, ib) -> (sorted ia + ib, sign of the sorting permutation) for ordered
# pairs of multi-indices, sign 0 where they share an index; filled on first use
_MERGED = {}


def _merge(ia, ib):
    """The ``_MERGED`` entry of the pair (ia, ib), computed and stored."""
    merged = ia + ib
    entry = _MERGED[ia, ib] = (tuple(sorted(merged)), _perm_sign_sorting(merged))
    return entry


def _wedge_into(out, a_coeffs, b_coeffs):
    """Add the terms of the wedge product of two coefficient maps into ``out``."""
    merged = _MERGED
    for ia, va in a_coeffs.items():
        for ib, vb in b_coeffs.items():
            idx, sign = merged.get((ia, ib)) or _merge(ia, ib)
            if sign:
                term = sign * (va * vb)
                out[idx] = out[idx] + term if idx in out else term


def interior(v, alpha: AlternatingForm) -> AlternatingForm:
    """Interior product of a frame vector (a length-N sequence of real
    numbers, such as a list or a 1-d array) with ``alpha``."""
    try:
        entries = list(v)
    except TypeError:
        entries = None  # a scalar, or a 0-d array
    if entries is None or len(entries) != alpha.N:
        raise StructuralError(f"vector must have length {alpha.N}, got {v!r}")
    v = [_real(x, "vector entry") for x in entries]
    if alpha.degree == 0:
        raise DegreeError("interior product needs degree >= 1")
    out = {}
    for idx, value in alpha.coeffs.items():
        for pos, A in enumerate(idx):
            if v[A] == 0.0:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = ((-1.0) ** pos) * v[A] * value
            out[rest] = out[rest] + term if rest in out else term
    return _form(alpha.N, alpha.degree - 1, out)


def epsilon_form(N, fixed_indices) -> AlternatingForm:
    """The (N-k)-form built from the epsilon tensor with ``k`` fixed indices.

    Equals the iterated interior product of the corresponding frame vectors
    with the volume form; coefficients are always -1, 0 or +1.
    """
    fixed = tuple(fixed_indices)
    k = len(fixed)
    if not 1 <= k <= 3:
        raise DegreeError(f"supported numbers of fixed indices are 1..3, got {k}")
    if any(not 0 <= i < N for i in fixed):
        raise StructuralError(f"fixed indices {fixed} outside 0..{N - 1}")
    if len(set(fixed)) != k:
        return AlternatingForm.zero(N, N - k)
    rest = tuple(i for i in range(N) if i not in fixed)
    sign = _perm_sign_sorting(fixed + rest)
    return AlternatingForm(N, N - k, {rest: float(sign)})


def d_substitute(alpha: AlternatingForm, dtheta) -> AlternatingForm:
    """Exterior derivative of a constant-coefficient form, given ``d`` of each
    basis 1-form as the list of 2-forms ``dtheta``.

    Each basis monomial is differentiated by the Leibniz rule; the 2-form
    substituted for a basis factor commutes past the remaining 1-forms.
    """
    N = alpha.N
    if alpha.degree >= N:
        raise DegreeError(f"degree {alpha.degree + 1} outside 0..{N}")
    if len(dtheta) != N:
        raise StructuralError(f"need {N} substituted 2-forms, got {len(dtheta)}")
    for beta in dtheta:
        if not (isinstance(beta, AlternatingForm) and beta.N == N and beta.degree == 2):
            raise StructuralError(f"substituted forms must be 2-forms on N={N}")
    out = {}
    for idx, value in alpha.coeffs.items():
        for pos, A in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            _wedge_into(out, dtheta[A].coeffs, {rest: ((-1.0) ** pos) * value})
    return _form(N, alpha.degree + 1, out)


class IdentityReport(namedtuple("IdentityReport", "N trials residuals")):
    """The suite's outcome: ``residuals`` maps each identity's name to its
    largest residual over the checked cases."""

    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


# largest N whose index-choice identities are checked on every index tuple
_EXHAUSTIVE_LIMIT = 5
# the values a coefficient of a random 2-form in the Leibniz checks is drawn from
_LEIBNIZ_COEFFS = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


def check_identities(N, trials=200, seed=0) -> IdentityReport:
    """Verify the five structural identities tying the epsilon-built forms.

    Index-choice identities are checked exhaustively for ``N`` up to
    ``_EXHAUSTIVE_LIMIT`` and on random draws above it; the two derivative
    identities substitute random integer-coefficient 2-forms for each
    ``d theta^B``.  ``trials``, a positive integer, is the number of random
    draws per identity, and ``seed`` seeds the :class:`random.Random` they
    come from.  The coefficients are small integers and the signs +-1, so
    every residual is computed exactly: it is zero whatever the draws.
    """
    if N < 3:
        raise DegreeError("identity suite needs N >= 3")
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise StructuralError(f"trials must be a positive integer, got {trials!r}")
    rng = random.Random(None if seed is None else operator.index(seed))  # numpy ints too
    vol = top_form(N)
    th = [basis_one_form(N, A) for A in range(N)]
    zero = {k: AlternatingForm.zero(N, k) for k in (N - 2, N - 1, N)}
    epsilons = {}

    def eps(*fixed):
        """epsilon_form(N, fixed), built once per index tuple."""
        form = epsilons.get(fixed)
        if form is None:
            form = epsilons[fixed] = epsilon_form(N, fixed)
        return form

    res = {name: 0.0 for name in (
        "theta^A /\\ theta^(N-1)",
        "theta^A /\\ theta^(N-2)",
        "theta^A /\\ theta^(N-3)",
        "d theta^(N-1) Leibniz",
        "d theta^(N-2) Leibniz",
    )}

    if N <= _EXHAUSTIVE_LIMIT:
        singles = list(product(range(N), repeat=2))
        pairs = list(product(range(N), repeat=3))
        triples = list(product(range(N), repeat=4))
    else:
        def draw(width):
            """``trials`` index tuples of ``width`` entries, in one draw."""
            flat = rng.choices(range(N), k=trials * width)
            return [flat[i:i + width] for i in range(0, len(flat), width)]

        singles, pairs, triples = draw(2), draw(3), draw(4)

    for A, Ap in singles:
        lhs = wedge(th[A], eps(Ap))
        rhs = vol if A == Ap else zero[N]
        res["theta^A /\\ theta^(N-1)"] = max(
            res["theta^A /\\ theta^(N-1)"], (lhs - rhs).max_abs()
        )

    for A, Ap, Bp in pairs:
        lhs = wedge(th[A], eps(Ap, Bp))
        rhs = zero[N - 1]
        if A == Bp:
            rhs = rhs + eps(Ap)
        if A == Ap:
            rhs = rhs - eps(Bp)
        res["theta^A /\\ theta^(N-2)"] = max(
            res["theta^A /\\ theta^(N-2)"], (lhs - rhs).max_abs()
        )

    for A, Ap, Bp, Cp in triples:
        lhs = wedge(th[A], eps(Ap, Bp, Cp))
        rhs = zero[N - 2]
        if A == Cp:
            rhs = rhs + eps(Ap, Bp)
        if A == Bp:
            rhs = rhs + eps(Cp, Ap)
        if A == Ap:
            rhs = rhs + eps(Bp, Cp)
        res["theta^A /\\ theta^(N-3)"] = max(
            res["theta^A /\\ theta^(N-3)"], (lhs - rhs).max_abs()
        )

    # Leibniz identities, with integer random 2-forms standing in for d theta^B
    planes = list(combinations(range(N), 2))
    P = len(planes)
    for _ in range(trials):
        # the coefficients of beta^0, then beta^1, ..., each drawn plane by plane
        draws = rng.choices(_LEIBNIZ_COEFFS, k=N * P)
        beta = [_form(N, 2, dict(zip(planes, draws[B * P:(B + 1) * P]))) for B in range(N)]

        # each right-hand side sum_B beta^B /\ eps(..., B) is one coefficient map
        A = rng.randrange(N)
        lhs = d_substitute(eps(A), beta)
        rhs = {}
        for B in range(N):
            _wedge_into(rhs, beta[B].coeffs, eps(A, B).coeffs)
        res["d theta^(N-1) Leibniz"] = max(res["d theta^(N-1) Leibniz"],
                                           (lhs - _form(N, N, rhs)).max_abs())

        A, B = rng.choices(range(N), k=2)
        lhs = d_substitute(eps(A, B), beta)
        rhs = {}
        for C in range(N):
            _wedge_into(rhs, beta[C].coeffs, eps(A, B, C).coeffs)
        res["d theta^(N-2) Leibniz"] = max(res["d theta^(N-2) Leibniz"],
                                           (lhs - _form(N, N - 1, rhs)).max_abs())

    return IdentityReport(N=N, trials=trials, residuals=res)
