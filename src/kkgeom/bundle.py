"""Matrix realization of the fiber group: adjoint gauge maps and path lifting.

The fiber Lie algebra acts through a faithful matrix representation.  This
module derives an orthogonal one from the structure constants and the
metric k of a compact fiber algebra, computes the adjoint gauge map of a
group element, and lifts fiber-direction path specifications
``g' = g * v(t)`` with a classical 4th-order integrator plus manifold
projection.  It holds the group alone: the checks of the coframe
construction on a fiber chart, which need the base geometry too, are in
``gauge``.  It loads a problem's ``rep`` and ``paths`` sections.

Path lifting is batched over its steps.  A path velocity maps an array of
times ``(T,)`` to velocities ``(T, r)`` and is sampled once at every RK4
stage time.  Each step g -> g P_k has a step operator P_k that depends on
the stage velocities alone, so all P_k, their polar factors and the prefix
products of those factors are batch computations; nothing runs step by
step.  The lift returns one batched ``GroupElement`` of shape
``(steps + 1, d, d)``, which indexes and iterates like a list of elements.

The matrix exponential (scaling and squaring with a Pade approximant) and
the polar projection are implemented here on numpy alone, for stacks of
matrices.  The polar projection takes Newton-Schulz steps on each matrix
near the group (||m^T m - 1||_F < 1/2), none on one already orthogonal to
within a few ulps, and an SVD only on the others, so the RK4 step operators
of a lift, orthogonal to rounding at moderate step sizes, need no SVD.  Its
result is the polar factor to rounding either way.  Step operators that
overflow are built quietly and stop the lift with ``NonFiniteLiftError``,
naming the first step whose operator is not finite.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from .errors import NonFiniteLiftError, StructuralError
from .liealg import LieAlgebraSpec, _numbers, builtin_algebra

__all__ = ["MatrixRep", "GroupElement", "PathSpec", "algebra_rep", "builtin_rep", "load_rep",
           "load_paths", "adjoint_of", "expm", "polar", "lift_path"]

# largest |g^T g - 1| entry of a group element on the manifold
_MANIFOLD_TOL = 1e-8

# Coefficients of the degree-13 Pade approximant to exp and the 1-norm up to
# which it is accurate to double precision (Higham 2005, SIAM J. Matrix Anal.
# Appl. 26(4), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

# largest |x^T x - 1| entry at which polar takes no further Newton-Schulz step
_POLAR_TOL = 4 * np.finfo(float).eps


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix or of a stack ``(..., d, d)``.

    Each matrix is scaled by 2^-s so that its 1-norm is at most theta_13,
    the degree-13 Pade approximant is evaluated, and the result is squared
    s times (s chosen per matrix).
    """
    a = np.asarray(a, dtype=float)
    b = _PADE13
    mant, expo = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(expo - (mant == 0.5), 0)  # ceil(log2(norm / theta)), at least 0
    x = a * np.ldexp(1.0, -s)[..., None, None]
    ident = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    out = ident + 2.0 * np.linalg.solve(v - u, u)  # (v - u)^-1 (v + u), exact at 0
    for k in range(int(s.max(initial=0))):
        out = np.where((s > k)[..., None, None], out @ out, out)
    return out


def polar(m) -> np.ndarray:
    """Orthogonal factor ``u @ vh`` of the polar decomposition of a square
    matrix or of a stack ``(..., d, d)`` (``m = u s vh`` its singular value
    decomposition): the nearest orthogonal matrix in the Frobenius norm.

    A matrix with ||m^T m - 1||_F < 1/2 takes Newton-Schulz steps
    x <- x (3 - x^T x) / 2, which converge quadratically to the polar factor
    there (Higham, Functions of Matrices, SIAM 2008, ch. 8).  They stop once
    max|x^T x - 1| is within ``_POLAR_TOL`` or no longer halves at the
    rounding floor, so an orthogonal matrix takes none and the result is the
    polar factor to rounding.  Only the other matrices (far from orthogonal,
    singular or not finite) go through ``np.linalg.svd``, which raises
    ``LinAlgError`` on one that is not finite.  ``m`` is not modified.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[-1]
    x = m.reshape(-1, d, d).copy()
    ident = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN and inf go to the SVD
        e = np.swapaxes(x, -2, -1) @ x - ident
        near = np.einsum("kij,kij->k", e, e) < 0.25
    if not near.all():
        far = np.flatnonzero(~near)
        u, _, vh = np.linalg.svd(x[far])
        x[far] = u @ vh
    idx = np.flatnonzero(near)
    e = e[idx]
    res, prev = np.abs(e).max(axis=(-2, -1)), np.inf
    while True:
        go = (res > _POLAR_TOL) & (res <= 0.5 * prev)
        if not go.any():
            return x.reshape(m.shape)
        idx, e, prev = idx[go], e[go], res[go]
        xi = x[idx] - 0.5 * (x[idx] @ e)  # x (3 - x^T x) / 2 = x (1 - e / 2)
        x[idx] = xi
        e = np.swapaxes(xi, -2, -1) @ xi - ident
        res = np.abs(e).max(axis=(-2, -1))


class MatrixRep(namedtuple("MatrixRep", "spec T")):
    """A set of d x d generator matrices T[alpha], shape ``(r, d, d)``,
    closing on the fiber structure constants of the associated algebra spec.
    No ``__slots__``: the instance dict caches the read-only arrays that
    depend on the rep alone (``_coords``) and nothing else; a copy or an
    unpickled rep is rebuilt from the fields, and builds its own."""

    def __new__(cls, spec, T):
        T = np.asarray(T, dtype=float)
        T.setflags(write=False)
        self = super().__new__(cls, spec, T)
        if T.ndim != 3 or T.shape[0] != spec.r or T.shape[1] != T.shape[2]:
            raise StructuralError(f"rep needs {spec.r} square generators, got shape {T.shape}")
        res = self.closure_residual()
        if res > 1e-10:
            raise StructuralError(f"generators do not close on the structure constants "
                                  f"(residual {res:.3e})")
        if np.linalg.matrix_rank(T.reshape(spec.r, -1), tol=1e-10) < spec.r:
            raise StructuralError("generators are linearly dependent")
        return self

    def __reduce__(self):
        return type(self), (self.spec, self.T)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: MatrixRep is immutable")

    @property
    def dim(self):
        return self.T.shape[1]

    def closure_residual(self) -> float:
        """Max violation of [T_a, T_b] = T_g c^g_ab."""
        cf = self.spec.fiber_c()
        comm = np.einsum("aij,bjk->abik", self.T, self.T)
        comm = comm - np.swapaxes(comm, 0, 1)
        return float(np.abs(comm - np.einsum("gik,gab->abik", self.T, cf)).max())

    def algebra_element(self, xi) -> np.ndarray:
        """The matrix sum_alpha xi^alpha T_alpha, for an r-vector or a stack
        ``(..., r)`` of them."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (self.spec.r,):
            raise StructuralError(f"need a {self.spec.r}-vector, got shape {xi.shape}")
        return np.einsum("...a,aij->...ij", xi, self.T)

    def identity_element(self) -> "GroupElement":
        return GroupElement(self, np.eye(self.dim))

    def exp(self, xi) -> "GroupElement":
        return GroupElement(self, expm(self.algebra_element(xi)))

    @cached_property
    def _coords(self) -> np.ndarray:
        """Least-squares coordinates on vec(T): the pseudo-inverse of the
        (d^2, r) matrix of the vectorized generators."""
        coords = np.linalg.pinv(self.T.reshape(self.spec.r, -1).T)
        coords.setflags(write=False)
        return coords


class GroupElement(namedtuple("GroupElement", "rep matrix")):
    """A group element realized as a matrix of its representation, or a
    batch of them (leading axes in front of the d x d matrix).

    The reps of compact algebras are orthogonal, so "on the group manifold"
    is checked as orthogonality of the matrix, within ``_MANIFOLD_TOL``.
    Length, indexing and iteration run over the batch, not over the fields.
    """

    __slots__ = ()

    def __new__(cls, rep, matrix):
        m = np.asarray(matrix, dtype=float)
        m.setflags(write=False)
        if m.shape[-2:] != (rep.dim, rep.dim):
            raise StructuralError(f"element shape {m.shape} does not match rep "
                                  f"dimension {rep.dim}")
        self = super().__new__(cls, rep, m)
        res = self.manifold_residual()
        if not res <= _MANIFOLD_TOL:  # NaN and infinite matrices fail too
            raise StructuralError(f"matrix is off the group manifold "
                                  f"(orthogonality residual {res:.3e})")
        return self

    def __getnewargs__(self):
        return self.rep, self.matrix

    def _replace(self, **changes):
        return GroupElement(**{"rep": self.rep, "matrix": self.matrix, **changes})

    def _asdict(self):
        return dict(zip(self._fields, tuple.__iter__(self)))

    def manifold_residual(self) -> float:
        """Max entry of |g^T g - 1| over the batch; NaN for a non-finite matrix."""
        m = self.matrix
        with np.errstate(invalid="ignore"):  # inf entries give NaN, quietly
            return float(np.abs(np.swapaxes(m, -2, -1) @ m - np.eye(self.rep.dim))
                         .max(initial=0.0))

    def __len__(self):
        if self.matrix.ndim < 3:
            raise TypeError("a single group element has no length")
        return self.matrix.shape[0]

    def __getitem__(self, index) -> "GroupElement":
        """Element or sub-batch ``index`` along the leading batch axis."""
        if self.matrix.ndim < 3:
            raise TypeError("a single group element cannot be indexed")
        return GroupElement(self.rep, self.matrix[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.rep is not self.rep:
            raise StructuralError("cannot multiply elements of different reps")
        return GroupElement(self.rep, self.matrix @ other.matrix)


class PathSpec(namedtuple("PathSpec", "rep v g0")):
    """A fiber-direction path: the callable v maps an array of times in
    [0, 1], shape ``(T,)``, to the algebra coordinates at those times, shape
    ``(T, r)`` (one time is a batch of one); the lift solves
    g' = g * (sum v^alpha(t) T_alpha) from the GroupElement g0."""

    __slots__ = ()

    @staticmethod
    def sampled(rep, times, values, g0) -> "PathSpec":
        """Piecewise-linear v through sample points (times[i], values[i]);
        the times must increase strictly and cover [0, 1]."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or values.shape != (times.size, rep.spec.r):
            raise StructuralError(f"sampled values must have shape "
                                  f"({times.size}, {rep.spec.r}), got {values.shape}")
        if not np.all(np.diff(times) > 0):
            raise StructuralError("sample times must increase strictly")
        if times.size == 0 or times[0] > 0.0 or times[-1] < 1.0:
            # np.interp would hold the end samples constant outside the times
            ends = times[[0, -1]].tolist() if times.size else []
            raise StructuralError(f"sample times must cover [0, 1], first and last are {ends}")

        def v(t):
            return np.stack([np.interp(t, times, values[:, a])
                             for a in range(rep.spec.r)], axis=-1)

        return PathSpec(rep, v, g0)


def algebra_rep(spec: LieAlgebraSpec) -> MatrixRep:
    """The orthogonal rep of a compact fiber algebra: an so(2) block per
    central direction, then k^{1/2} ad k^{-1/2} on [g, g] (the range of
    sum_beta T_beta T_beta^T).  Raises StructuralError unless r > 0 and k
    is positive definite and Ad-invariant."""
    w, v = np.linalg.eigh(spec.k)
    if not (spec.r and w.min() > 0 and np.abs(spec.k - spec.k.T).max() <= 1e-10):
        raise StructuralError(f"no orthogonal rep: r = {spec.r}, or k is not positive definite")
    root = (v * np.sqrt(w)) @ v.T
    ad = root @ _fiber_ad(spec, np.eye(spec.r)) @ ((v / np.sqrt(w)) @ v.T)  # [beta]
    res = np.abs(ad + np.swapaxes(ad, -2, -1)).max()
    if not res <= 1e-10:
        raise StructuralError(f"no orthogonal rep: k is not Ad-invariant (residual {res:.3e})")
    w, v = np.linalg.eigh((ad @ np.swapaxes(ad, -2, -1)).sum(axis=0))
    derived = w > 1e-10 * w.max()
    centre = root @ v[:, ~derived]  # [beta, j]: component of generator beta along j
    j, m = np.arange(centre.shape[1]), 2 * centre.shape[1]
    T = np.zeros((spec.r, m + derived.sum(), m + derived.sum()))
    T[:, 2 * j + 1, 2 * j], T[:, 2 * j, 2 * j + 1] = centre, -centre
    # -B^T = B; for su(2) at k = I this is -eps bit for bit, signed zeros included
    T[:, m:, m:] = -np.swapaxes(v[:, derived].T @ ad @ v[:, derived], -2, -1)
    return MatrixRep(spec, T)


def builtin_rep(name: str) -> MatrixRep:
    """:func:`algebra_rep` of the built-in algebra (at n = 2) that ``name``
    stands for: ``su2_as_so3``, ``u1_as_so2`` or ``product``."""
    aliases = {"su2_as_so3": ("su2", 2), "u1_as_so2": ("abelian", 2, 1), "product": ("u1_su2", 2)}
    if not isinstance(name, str) or name not in aliases:
        raise StructuralError(f"unknown builtin rep {name!r}; choose from {sorted(aliases)}")
    return algebra_rep(builtin_algebra(*aliases[name]))


def _fiber_ad(spec: LieAlgebraSpec, s: np.ndarray) -> np.ndarray:
    """ad_u on the fiber algebra for u = sum_delta s^delta (basis)_delta:
    ad[a, c] = c^a_{b c} s^b, one (..., r) @ (r, r^2) matmul."""
    r = spec.r
    ad = s @ np.moveaxis(spec.fiber_c(), 1, 0).reshape(r, r * r)
    return ad.reshape(s.shape[:-1] + (r, r))


def _identity_padded(fiber: np.ndarray, n: int) -> np.ndarray:
    """The gauge maps diag(1_n, fiber) for a stack ``(..., r, r)`` of fiber blocks."""
    r = fiber.shape[-1]
    out = np.zeros(fiber.shape[:-2] + (n + r, n + r))
    out[..., :n, :n] = np.eye(n)
    out[..., n:, n:] = fiber
    return out


def _fiber_adjoint(g: GroupElement) -> np.ndarray:
    """Fiber block of Ad_g, ``(..., r, r)``: column alpha holds the coordinates
    of g T_alpha g^{-1} in the generator basis."""
    rep = g.rep
    gm = g.matrix[..., None, :, :]
    conj = (gm @ rep.T @ np.swapaxes(gm, -2, -1)).reshape(gm.shape[:-3] + (rep.spec.r, -1))
    return rep._coords @ np.swapaxes(conj, -2, -1)


def adjoint_of(g: GroupElement, n: int) -> np.ndarray:
    """The (n + r) x (n + r) gauge map S = Ad_g over an n-dimensional base:
    identity on the central block, the adjoint action g T g^{-1} on the
    fiber block.  S preserves h."""
    return _identity_padded(_fiber_adjoint(g), n)


def _step_operators(X: np.ndarray, h: float) -> np.ndarray:
    """The classical 4th-order step of g' = g X(t) as right factors P_k,
    g_{k+1} = g_k P_k, from the algebra elements X at the stage times
    t_k, t_k + h/2 and t_k + h (rows 2k, 2k + 1 and 2k + 2 of ``X``).

    Every stage slope is g_k times a matrix that depends on the stage
    velocities alone, so each P_k is known before g_k."""
    x0, xh, x1 = X[:-2:2], X[1::2], X[2::2]
    ident = np.eye(X.shape[-1])
    # stage slope i is g_k a_i, with a_1 = x0
    a2 = (ident + 0.5 * h * x0) @ xh
    a3 = (ident + 0.5 * h * a2) @ xh
    a4 = (ident + h * a3) @ x1
    return ident + (h / 6.0) * (x0 + 2.0 * a2 + 2.0 * a3 + a4)


def _stage_times(steps):
    """The 2 steps + 1 stage times j h / 2 of a lift with ``steps`` steps."""
    return 0.5 * (1.0 / steps) * np.arange(2 * steps + 1)


# Steps per pass of lift_path: a pass holds a few (2048, d, d) arrays, however
# many steps the path has.
_LIFT_CHUNK = 2048


def lift_path(path: PathSpec, steps: int) -> GroupElement:
    """Integrate g' = g * v(t) over [0, 1] with the classical 4th-order
    one-step method, projecting every step back to the manifold.

    v is sampled once, at all 2 steps + 1 stage times j h / 2.  Each step is
    g_{k+1} = g_k P_k with a step operator P_k built from those samples, and
    the projection is g_k polar(P_k): the polar factor of g_k P_k for an
    orthogonal g_k.  The steps run in chunks of ``_LIFT_CHUNK``.  In each,
    the operators, their polar factors and the chain of their products are
    batch computations: the products come from a doubling scan, in log2 of
    the chunk length batched matmuls, and the element at the chunk's start
    multiplies them all.  One Newton-Schulz step g <- g (3 - g^T g) / 2 over
    the chunk keeps every product orthogonal to rounding.  Returns the
    steps + 1 group elements as one batched element, shape
    ``(steps + 1, d, d)``; raises ``NonFiniteLiftError`` at the first step
    whose operator overflows.
    """
    return _lift(path, steps, _sample(path, steps))


def lift_and_halve(path: PathSpec, steps: int) -> tuple[GroupElement, GroupElement]:
    """:func:`lift_path` at ``steps`` and at ``2 steps``, for a step-halving
    error estimate, with v sampled once: at the 4 steps + 1 stage times of
    the fine lift, of which the coarse lift's stage times are every other
    one, bit for bit."""
    xi = _sample(path, 2 * steps)
    return _lift(path, steps, xi[::2]), _lift(path, 2 * steps, xi)


def _sample(path, steps):
    """v at the 2 steps + 1 stage times of a lift with ``steps`` steps,
    after checking the step count and g0."""
    if steps < 1:
        raise StructuralError(f"need at least one step, got {steps}")
    rep = path.rep
    if path.g0.matrix.shape != (rep.dim, rep.dim):
        raise StructuralError(f"g0 must be one group element, got shape "
                              f"{path.g0.matrix.shape}")
    xi = np.asarray(path.v(_stage_times(steps)), dtype=float)
    if xi.shape != (2 * steps + 1, rep.spec.r):
        raise StructuralError(f"v must map {2 * steps + 1} times to shape "
                              f"({2 * steps + 1}, {rep.spec.r}), got {xi.shape}")
    if not np.isfinite(xi).all():
        raise StructuralError("v is not finite on [0, 1]")
    return xi


def _lift(path, steps, xi):
    """The lift of :func:`lift_path` from the stage samples ``xi`` of v."""
    rep = path.rep
    h = 1.0 / steps
    out = np.empty((steps + 1, rep.dim, rep.dim))
    out[0] = path.g0.matrix
    ident = np.eye(rep.dim)
    for start in range(0, steps, _LIFT_CHUNK):
        stop = min(start + _LIFT_CHUNK, steps)
        # the chunk's polar factors Q[k], turned in place into their prefix
        # products Q[0] ... Q[k] by doubling: after the pass with shift s,
        # P[k] holds the product of the last 2 s factors up to Q[k]
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            P = _step_operators(rep.algebra_element(xi[2 * start:2 * stop + 1]), h)
        finite = np.isfinite(P).all(axis=(-2, -1))
        if not finite.all():
            raise NonFiniteLiftError((start + np.argmin(finite)) / steps, steps)
        P = polar(P)
        s = 1
        while s < len(P):
            P[s:] = P[:-s] @ P[s:]
            s *= 2
        m = out[start] @ P
        out[start + 1:stop + 1] = m @ (1.5 * ident - 0.5 * (np.swapaxes(m, -2, -1) @ m))
    return GroupElement(rep, out)


# ---------------------------------------------------------------------------
# JSON problem sections


def load_rep(name, spec) -> MatrixRep:
    """The fiber rep of a problem: :func:`algebra_rep` of its algebra ``spec``
    when ``name``, its ``rep`` entry, is None; else the built-in rep ``name``,
    rebound to ``spec`` where there is one, as its generators must close on
    that algebra's fiber constants."""
    if name is None:
        if spec is None:
            raise StructuralError("problem JSON needs an 'algebra' or a 'rep' entry")
        return algebra_rep(spec)
    rep = builtin_rep(name)
    if spec is None:
        return rep
    try:
        return MatrixRep(spec, rep.T)
    except StructuralError as exc:
        raise StructuralError(f"rep {name!r} does not represent the algebra: {exc}") from exc


def load_paths(entries, rep: MatrixRep) -> list:
    """(PathSpec, steps) for each entry ``{"v": [expression in x1, …] or
    [[t, v1, …, vr], …], "g0": "identity" or [[…]], "steps": 100}`` of a
    problem's ``paths`` list; a bad value raises :class:`StructuralError`
    naming its node, such as ``paths[0].g0``."""
    if not entries:
        raise StructuralError("problem JSON has no 'paths' section")
    if not isinstance(entries, list):
        raise StructuralError("'paths' must be a list of path objects")
    r, d = rep.spec.r, rep.dim
    out = []
    for i, entry in enumerate(entries):
        where = f"paths[{i}]"
        if not isinstance(entry, dict):
            raise StructuralError(f"{where} must be an object")
        v = entry.get("v")
        if not isinstance(v, list) or not v:
            raise StructuralError(f"{where} needs a non-empty 'v' list")
        steps = entry.get("steps", 100)
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
            raise StructuralError(f"{where}.steps must be a positive integer, got {steps!r}")
        g0 = entry.get("g0", "identity")
        g0 = None if g0 == "identity" else np.reshape(_numbers(f"{where}.g0", g0, (d, d)), (d, d))
        expressions = all(isinstance(e, str) for e in v)
        if expressions and len(v) != r:
            raise StructuralError(f"{where} needs {r} velocity expressions, got {len(v)}")
        if not expressions:
            v = np.reshape(_numbers(f"{where}.v", v, (None, r + 1)), (-1, r + 1))
        try:  # every number is read: what they mean is checked here
            g0 = rep.identity_element() if g0 is None else GroupElement(rep, g0)
            path = (PathSpec(rep, _expression_velocity(v), g0) if expressions
                    else PathSpec.sampled(rep, v[:, 0], v[:, 1:], g0))
        except StructuralError as exc:
            raise StructuralError(f"{where}: {exc}") from exc
        out.append((path, steps))
    return out


def _expression_velocity(sources):
    """v(t) for a list of expressions in x1: one batched evaluation per
    component over all the times."""
    from .fieldexpr import FieldProvider

    provs = [FieldProvider(s, n=1) for s in sources]

    def v(t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.stack([p.evaluate(t) for p in provs], axis=-1)

    return v
