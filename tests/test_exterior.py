import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkgeom import exterior
from kkgeom.errors import DegreeError, StructuralError
from kkgeom.exterior import (AlternatingForm, basis_one_form, check_identities,
                             d_substitute, epsilon_form, interior, top_form,
                             wedge)


def random_form(rng, N, degree):
    coeffs = {}
    for idx in itertools.combinations(range(N), degree):
        coeffs[idx] = float(rng.integers(-3, 4))
    return AlternatingForm(N, degree, coeffs)


def wedge_dense(a, b):
    """Brute-force wedge: for each increasing multi-index, sum over all
    (p, q)-shuffles of the factors with the shuffle sign.  Every factor
    index is increasing, so the coefficients are read with ``get``."""
    N = a.N
    p, q = a.degree, b.degree
    out = {}
    for idx in itertools.combinations(range(N), p + q):
        total = 0.0
        for chosen in itertools.combinations(range(p + q), p):
            restc = tuple(k for k in range(p + q) if k not in chosen)
            sign = _shuffle_sign(chosen, restc)
            ia = tuple(idx[k] for k in chosen)
            ib = tuple(idx[k] for k in restc)
            total = total + sign * a.get(ia) * b.get(ib)
        out[idx] = total
    return out


def _shuffle_sign(chosen, rest):
    perm = list(chosen) + list(rest)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------


def test_wedge_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for N, p, q in [(4, 1, 1), (4, 1, 2), (5, 2, 2), (5, 2, 3), (6, 1, 3)]:
        a = random_form(rng, N, p)
        b = random_form(rng, N, q)
        got = wedge(a, b)
        for idx, want in wedge_dense(a, b).items():
            assert got.get(idx) == want


def test_wedge_associative():
    rng = np.random.default_rng(1)
    for _ in range(5):
        N = 5
        a = random_form(rng, N, 1)
        b = random_form(rng, N, 1)
        c = random_form(rng, N, 2)
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        assert left.equal_to(right)


def test_wedge_graded_commutative():
    rng = np.random.default_rng(2)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
        a = random_form(rng, 6, p)
        b = random_form(rng, 6, q)
        sign = (-1.0) ** (p * q)
        assert wedge(a, b).equal_to(sign * wedge(b, a))


def test_wedge_above_top_degree_is_zero():
    rng = np.random.default_rng(3)
    a = random_form(rng, 3, 2)
    b = random_form(rng, 3, 2)
    assert wedge(a, b).is_zero()


def test_interior_is_antiderivation():
    rng = np.random.default_rng(5)
    N = 5
    v = rng.normal(size=N)
    for p, q in [(1, 1), (1, 2), (2, 2)]:
        a = random_form(rng, N, p)
        b = random_form(rng, N, q)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + ((-1.0) ** p) * wedge(a, interior(v, b))
        assert lhs.equal_to(rhs, tol=1e-12)


def test_interior_squares_to_zero():
    rng = np.random.default_rng(6)
    v = rng.normal(size=6)
    a = random_form(rng, 6, 3)
    assert interior(v, interior(v, a)).is_zero(tol=1e-12)


def test_interior_on_basis_form():
    N = 4
    th2 = basis_one_form(N, 2)
    assert interior(np.eye(N)[2], th2).get(()) == 1.0
    assert interior(np.eye(N)[1], th2).is_zero()


def test_epsilon_coefficients_are_signs():
    for N in (3, 4, 5):
        for k in (1, 2, 3):
            for fixed in itertools.product(range(N), repeat=k):
                form = epsilon_form(N, fixed)
                for v in form.coeffs.values():
                    assert float(v) in (-1.0, 1.0)
                if len(set(fixed)) != k:
                    assert form.is_zero()


def test_epsilon_equals_iterated_interior_of_volume():
    # the recursive definition: contract the volume form with the frame
    # vectors of the fixed indices, first index first
    for N in (3, 4, 5):
        for k in (1, 2, 3):
            for fixed in itertools.permutations(range(N), k):
                want = top_form(N)
                for A in fixed:
                    want = interior(np.eye(N)[A], want)
                assert epsilon_form(N, fixed).equal_to(want)


def test_epsilon_antisymmetry_in_fixed_indices():
    for N in (4, 5):
        a = epsilon_form(N, [1, 3])
        b = epsilon_form(N, [3, 1])
        assert a.equal_to(-1.0 * b)
        c = epsilon_form(N, [0, 2, 3])
        d = epsilon_form(N, [2, 0, 3])
        assert c.equal_to(-1.0 * d)


def test_d_substitute_against_leibniz_by_hand():
    # alpha = theta^0 /\ theta^1 on N=3, with d theta^A given 2-forms
    N = 3
    rng = np.random.default_rng(8)
    alpha = wedge(basis_one_form(N, 0), basis_one_form(N, 1))
    dth = [random_form(rng, N, 2) for _ in range(N)]
    got = d_substitute(alpha, dth)
    want = wedge(dth[0], basis_one_form(N, 1)) - wedge(dth[1], basis_one_form(N, 0))
    # d(a /\ b) = da /\ b - a /\ db, and the 2-form commutes past 1-forms
    want2 = wedge(dth[0], basis_one_form(N, 1)) - wedge(basis_one_form(N, 0), dth[1])
    assert got.equal_to(want)
    assert got.equal_to(want2)


def test_identity_suite_exhaustive_small_n():
    for N in (3, 4, 5):
        report = check_identities(N)
        assert report.max_residual == 0.0


def test_identity_suite_random_large_n():
    report = check_identities(6, trials=100, seed=3)
    assert report.max_residual == 0.0


def test_identity_suite_takes_integer_seeds(monkeypatch):
    # a numpy integer seeds the same stream as the Python int: the same
    # forms are differentiated with the same random 2-forms
    original = exterior.d_substitute
    runs = []

    def recording(alpha, dtheta):
        runs[-1].append((alpha.coeffs, [beta.coeffs for beta in dtheta]))
        return original(alpha, dtheta)

    monkeypatch.setattr(exterior, "d_substitute", recording)
    for seed in (3, np.int64(3), np.uint8(3)):
        runs.append([])
        assert check_identities(6, trials=5, seed=seed).max_residual == 0.0
    assert runs[0] and runs[1] == runs[0] and runs[2] == runs[0]


def test_identity_suite_reads_a_wrong_epsilon_form(monkeypatch):
    # every residual is an exact zero while the forms are right; a form
    # negated on one fixed-index tuple must show in each family under some
    # mutant (N = 4 checks every index tuple)
    original = exterior.epsilon_form
    readings = {}
    for bad in [(0, 1), (2,), (0, 1, 2)]:
        def negated(N, fixed, bad=bad):
            form = original(N, fixed)
            return -form if tuple(fixed) == bad else form

        monkeypatch.setattr(exterior, "epsilon_form", negated)
        readings[bad] = list(check_identities(4, trials=200, seed=0).residuals.values())
    assert readings == {(0, 1): [0, 2, 2, 6, 12], (2,): [2, 2, 0, 16, 0],
                        (0, 1, 2): [0, 0, 2, 0, 6]}
    assert all(max(family) >= 1 for family in zip(*readings.values()))


def test_identity_suite_rejects_small_n():
    with pytest.raises(DegreeError):
        check_identities(2)


@pytest.mark.parametrize("trials", [0, -1, 2.5, True, "3"])
def test_identity_suite_rejects_non_positive_trials(trials):
    with pytest.raises(StructuralError, match="trials"):
        check_identities(6, trials=trials)


@pytest.mark.parametrize("N,trials", [(4, 3), (6, 40)])
def test_identity_suite_builds_each_epsilon_form_once(monkeypatch, N, trials):
    built = []
    original = exterior.epsilon_form

    def recording(N, fixed):
        built.append(tuple(int(i) for i in fixed))
        return original(N, fixed)

    monkeypatch.setattr(exterior, "epsilon_form", recording)
    assert check_identities(N, trials=trials, seed=1).max_residual == 0.0
    assert built
    assert len(built) == len(set(built))


def test_form_validation():
    with pytest.raises(StructuralError):
        AlternatingForm(3, 2, {(1, 0): 1.0})  # not increasing
    with pytest.raises(StructuralError):
        AlternatingForm(3, 2, {(0, 0): 1.0})  # repeated
    with pytest.raises(StructuralError):
        AlternatingForm(3, 1, {(0,): [1.0, 2.0]})  # forms are scalar valued
    with pytest.raises(DegreeError):
        AlternatingForm(3, 4, {})


def test_coefficients_are_stored_as_python_floats():
    form = AlternatingForm(3, 1, {(0,): np.float64(2.0), (1,): np.asarray(-1.5), (2,): 3})
    assert form.coeffs == {(0,): 2.0, (1,): -1.5, (2,): 3.0}
    assert all(type(v) is float for v in form.coeffs.values())


# the input contract: a coefficient or a vector entry is a real number (a
# Python or numpy scalar, or a 0-d array); a vector is a flat length-N sequence

REAL_SCALARS = [3, -1.5, np.float64(2.0), np.float32(0.5), np.int64(-2), np.asarray(-1.5),
                np.array(4, dtype=np.int32)]


@pytest.mark.parametrize("value", REAL_SCALARS, ids=repr)
def test_real_scalars_are_coefficients(value):
    form = AlternatingForm(3, 1, {(1,): value})
    assert form.coeffs == {(1,): float(value)}
    assert type(form.coeffs[(1,)]) is float


@pytest.mark.parametrize("value", [np.array([1.0]), [1.0], [1.0, 2.0], np.ones((1, 1))],
                         ids=repr)
def test_non_scalar_coefficients_are_rejected(value):
    with pytest.raises(StructuralError):
        AlternatingForm(3, 1, {(1,): value})


@pytest.mark.parametrize("v", [[0, 2, 0], (0.0, 2.0, 0.0), np.array([0.0, 2.0, 0.0]),
                               [np.float64(0), np.int64(2), np.asarray(0.0)]], ids=repr)
def test_real_vectors_are_interior_arguments(v):
    got = interior(v, basis_one_form(3, 1))
    assert got.coeffs == {(): 2.0} and type(got.coeffs[()]) is float


@pytest.mark.parametrize("v", [[1.0, 0.0], [1, 0, 0, 0], np.zeros(2), [[1, 0, 0]],
                               [[1], [0], [0]], np.eye(3), np.zeros((1, 3)), 1.0,
                               np.asarray(1.0)], ids=repr)
def test_vectors_of_the_wrong_length_or_nesting_are_rejected(v):
    with pytest.raises(StructuralError):
        interior(v, basis_one_form(3, 1))


@pytest.mark.parametrize("value", [None, 1 + 2j, "x", "1.5", np.complex128(1 + 2j),
                                   np.asarray("1.5")], ids=repr)
def test_non_numeric_coefficients_are_rejected(value):
    with pytest.raises(StructuralError, match="real number"):
        AlternatingForm(3, 1, {(1,): value})


@pytest.mark.parametrize("v", [[0, None, 0], [0, 1j, 0], "abc", [0, "1", 0],
                               [[1, 0], 0, 0]], ids=repr)
def test_non_numeric_vector_entries_are_rejected(v):
    with pytest.raises(StructuralError):
        interior(v, basis_one_form(3, 1))


def test_get_applies_permutation_sign():
    form = AlternatingForm(4, 2, {(1, 3): 2.5})
    assert form.get((3, 1)) == -2.5
    assert form.get((1, 1)) == 0.0


def test_dump_is_one_based():
    form = AlternatingForm(3, 2, {(0, 2): 1.5})
    assert form.dump() == "1 3 : 1.5"


# ---------------------------------------------------------------------------
# properties of the form operations over N = 3..7


def same(x, y):
    """Exactly equal forms: same frame, degree, terms and values, all of
    them Python floats."""
    return ((x.N, x.degree) == (y.N, y.degree)
            and x.coeffs.keys() == y.coeffs.keys()
            and all(type(x.coeffs[k]) is float and type(y.coeffs[k]) is float
                    and x.coeffs[k] == y.coeffs[k] for k in x.coeffs))


def revalidated(form):
    """The form rebuilt through the public, checking constructor."""
    return AlternatingForm(form.N, form.degree, form.coeffs)


def leibniz(alpha, dtheta):
    """d alpha for constant coefficients: the sum over the terms of alpha and
    their positions of (-1)^pos theta^i1 /\\ ... /\\ dtheta^ipos /\\ ... /\\ theta^ip,
    with the 2-form wedged in place."""
    N = alpha.N
    theta = [basis_one_form(N, A) for A in range(N)]
    out = AlternatingForm.zero(N, alpha.degree + 1)
    for idx, value in alpha.coeffs.items():
        for pos, A in enumerate(idx):
            factors = [theta[i] for i in idx[:pos]] + [dtheta[A]]
            factors += [theta[i] for i in idx[pos + 1:]]
            monomial = functools.reduce(wedge, factors)
            out = out + AlternatingForm(
                N, alpha.degree + 1,
                {k: (-1) ** pos * v * value for k, v in monomial.coeffs.items()})
    return out


@st.composite
def integer_forms(draw, N, degree):
    """An integer-coefficient form with a drawn share of its terms nonzero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    coeffs = {}
    for idx in itertools.combinations(range(N), degree):
        value = float(rng.integers(-3, 4))
        coeffs[idx] = value * (rng.random() < density)
    return AlternatingForm(N, degree, coeffs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_wedge_matches_dense_oracle_for_every_degree_pair(data):
    # one form of each degree, each wedged on both sides of every other: the
    # merge table of the wedge is keyed by the ordered pair of multi-indices
    # and outlives the call, so a key that forgot the order (or the entry of
    # another pair) would flip or lose a sign here or in a later example
    N = data.draw(st.integers(1, 7))
    forms = [data.draw(integer_forms(N, p)) for p in range(N + 1)]
    for a, b in itertools.product(forms, repeat=2):
        got = wedge(a, b)
        if a.degree + b.degree > N:
            assert got.degree == N and got.is_zero()
        else:
            assert got.degree == a.degree + b.degree
        for idx, want in wedge_dense(a, b).items():
            assert got.get(idx) == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_form_operations_match_public_constructor_and_algebra(data):
    draw = data.draw
    N = draw(st.integers(3, 7))
    p, q, s = (draw(st.integers(0, N)) for _ in range(3))
    alpha = draw(integer_forms(N, p))
    alpha2 = draw(integer_forms(N, p))
    beta = draw(integer_forms(N, q))
    gamma = draw(integer_forms(N, s))
    dtheta = [draw(integer_forms(N, 2)) for _ in range(N)]
    v = np.array(draw(st.lists(st.integers(-2, 2), min_size=N, max_size=N)), dtype=float)

    results = [wedge(alpha, beta), wedge(beta, alpha), alpha + alpha2, alpha - alpha2,
               -alpha, 3.0 * alpha, alpha * -2, alpha + (-1) * alpha]
    if p >= 1:
        results.append(interior(v, alpha))
    if p < N:
        results.append(d_substitute(alpha, dtheta))
    for form in results:
        assert same(form, revalidated(form))
    assert (alpha + (-1) * alpha).coeffs == {}

    assert same(wedge(alpha, beta), (-1) ** (p * q) * wedge(beta, alpha))
    assert same(wedge(wedge(alpha, beta), gamma), wedge(alpha, wedge(beta, gamma)))
    if p < N:
        assert same(d_substitute(alpha, dtheta), leibniz(alpha, dtheta))

