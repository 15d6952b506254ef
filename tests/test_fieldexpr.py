import math
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kkgeom.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from kkgeom.fieldexpr import (FUNCTIONS, BinOp, Call, FieldProvider, Neg, Num, Param,
                              Var, diff, evaluate, parse, pretty)

from grammar_corpus import CASES, INVALID, PARAM_VALUES, VALID


def test_corpus_has_100_cases():
    assert len(CASES) == 100
    assert len(set(text for text, _ in CASES)) == 100


@pytest.mark.parametrize("text,expected", VALID, ids=[t for t, _ in VALID])
def test_valid_parse(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize("text,expected", INVALID, ids=[repr(t) for t, _ in INVALID])
def test_invalid_parse(text, expected):
    kind, detail = expected
    if kind == "error":
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.offset == detail
    else:
        with pytest.raises(UnknownIdentifierError) as err:
            parse(text)
        assert detail in str(err.value)


def _fd(node, point, i, params, h=1e-4):
    up, down = point.copy(), point.copy()
    up[i] += h
    down[i] -= h
    return (evaluate(node, up, params) - evaluate(node, down, params)) / (2 * h)


@pytest.mark.parametrize("text,expected", VALID, ids=[t for t, _ in VALID])
def test_symbolic_derivative_matches_fd(text, expected):
    node = parse(text)
    rng = np.random.default_rng(zlib.crc32(text.encode()))  # str hash is salted
    point = rng.uniform(0.5, 1.5, size=10)
    for i in range(4):
        want = _fd(node, point, i, PARAM_VALUES)
        got = evaluate(diff(node, i), point, PARAM_VALUES)
        assert abs(got - want) <= 1e-6 * (1.0 + abs(got))


@pytest.mark.parametrize("text,expected", VALID, ids=[t for t, _ in VALID])
def test_pretty_round_trip(text, expected):
    node = parse(text)
    assert parse(pretty(node)) == node


def test_round_trip_on_derivatives():
    # Derivative trees exercise printer paths the corpus may miss.  Constant
    # folding can leave negative literals, which reparse as Neg(Num), so the
    # exact-equality round trip is asserted on the reparsed tree and the
    # original is compared numerically.
    rng = np.random.default_rng(3)
    point = rng.uniform(0.5, 1.5, size=10)
    for text, _ in VALID:
        node = parse(text)
        for i in range(3):
            d = diff(node, i)
            reparsed = parse(pretty(d))
            assert parse(pretty(reparsed)) == reparsed
            a = evaluate(d, point, PARAM_VALUES)
            b = evaluate(reparsed, point, PARAM_VALUES)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_diff_examples():
    # d/dx1 x1^2 at x1=3
    assert evaluate(diff(parse("x1^2"), 0), [3.0]) == 6.0
    # d/dx2 sin(x1*x2) at (1, pi) = cos(pi) = -1
    val = evaluate(diff(parse("sin(x1*x2)"), 1), [1.0, math.pi])
    assert abs(val + 1.0) < 1e-12
    # parameters are constants
    assert diff(parse("c"), 0) == Num(0.0)


def test_mixed_partials_commute():
    rng = np.random.default_rng(7)
    exprs = ["sin(x1*x2)+x1^3*x2", "exp(x1)*cos(x2)", "x1^2*x2^2/(1+x1^2)",
             "log(x1+x2)+sqrt(x1*x2)", "tan(x1/4)*sinh(x2/3)"]
    for text in exprs:
        node = parse(text)
        d12 = diff(diff(node, 0), 1)
        d21 = diff(diff(node, 1), 0)
        for _ in range(5):
            p = rng.uniform(0.5, 1.5, size=2)
            assert abs(evaluate(d12, p) - evaluate(d21, p)) < 1e-10


def test_provider_binds_params_at_construction():
    f = FieldProvider("a*x1+b", n=1, params={"a": 2.0, "b": 5.0})
    assert f.evaluate([3.0]) == 11.0
    assert f.partial(0, [3.0]) == 2.0
    with pytest.raises(UnknownIdentifierError):
        FieldProvider("a*x1+missing", n=1, params={"a": 2.0})


def test_provider_rejects_out_of_range_variable():
    with pytest.raises(UnknownIdentifierError):
        FieldProvider("x3", n=2)


def test_provider_second_partials():
    f = FieldProvider("x1^3*x2", n=2)
    assert f.partial2(0, 0, [2.0, 5.0]) == 60.0  # 6*x1*x2
    assert f.partial2(0, 1, [2.0, 5.0]) == 12.0  # 3*x1^2
    assert f.partial2(1, 0, [2.0, 5.0]) == 12.0


def test_constant_provider():
    f = FieldProvider.constant(4.5, n=3)
    assert f.evaluate([1, 2, 3]) == 4.5
    assert f.partial(1, [1, 2, 3]) == 0.0


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x1"), [0.0])
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x1)"), [-1.0])
    with pytest.raises(EvalDomainError):
        evaluate(parse("x1^0.5"), [-4.0])
    with pytest.raises(EvalDomainError):
        evaluate(parse("1+exp(x1)"), [1000.0])  # overflow
    with pytest.raises(EvalDomainError):
        evaluate(parse("(-8)^(1/3)"), [0.0])  # constant subtrees too
    # integer powers of negative bases are fine, and underflow is zero
    assert evaluate(parse("x1^3"), [-2.0]) == -8.0
    assert evaluate(parse("exp(x1)"), [-1000.0]) == 0.0


def test_batch_evaluation_matches_single_points():
    f = FieldProvider("sin(x1*x2)+x1^3/(2+x2)", n=2)
    points = np.array([[[0.1, 0.2], [0.3, -0.4]], [[-1.5, 2.0], [0.0, 0.7]]])
    for method, args in ((f.evaluate, ()), (f.partial, (1,)), (f.partial2, (0, 1))):
        batch = method(*args, points)
        assert batch.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            assert batch[idx] == method(*args, points[idx])
    assert FieldProvider("x2", n=2).partial(1, points).shape == (2, 2)  # constant tree
    with pytest.raises(EvalDomainError):
        FieldProvider("log(x1)", n=2).evaluate(points)


def test_unknown_param_at_evaluation():
    node = parse("q*x1")
    with pytest.raises(UnknownIdentifierError):
        evaluate(node, [1.0])


def test_ast_nodes_are_hashable_and_frozen():
    node = parse("x1+c")
    assert hash(node) == hash(BinOp("+", Var(0), Param("c")))
    with pytest.raises(Exception):
        node.op = "-"


def test_ast_nodes_compare_and_hash_by_type():
    # nodes are tuples underneath: equal fields of different node types differ
    assert Var(0) != Num(0.0)
    assert not Var(0) == Num(0.0)
    assert Param("x1") != ("x1",) and ("x1",) != Param("x1")
    assert len({Var(0), Num(0.0), Param("x1")}) == 3
    assert parse("sin(x1) * -c") == parse("sin( x1 )*-c")
    assert hash(parse("sin(x1) * -c")) == hash(parse("sin( x1 )*-c"))
    assert parse("x1 + 0") != parse("x1 + x1")  # equal as plain nested tuples


# ---------------------------------------------------------------------------
# generated trees (derandomised hypothesis)

TREE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.filter_too_much,
                                                HealthCheck.too_slow])
PARAMS = {"c": 1.3, "alpha_1": 0.7, "x0": 2.0, "sin": 0.4}


def trees(numbers):
    """Expression trees as the parser builds them: literals from ``numbers``
    (never negative, as '-' parses to Neg), x1..x3, the parameters of
    PARAMS, negation, every function and every binary operator."""
    leaves = st.one_of(numbers.map(Num), st.integers(0, 2).map(Var),
                       st.sampled_from(sorted(PARAMS)).map(Param))

    def extend(sub):
        return st.one_of(sub.map(Neg),
                         st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
                         st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub))

    return st.recursive(leaves, extend, max_leaves=8)


@TREE_SETTINGS
@given(trees(st.one_of(st.integers(0, 10**6).map(float),
                       st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False))))
def test_pretty_round_trip_on_generated_trees(node):
    assert parse(pretty(node)) == node


@TREE_SETTINGS
@given(trees(st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.25])),
       st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3), st.integers(0, 2))
def test_diff_matches_central_differences_on_generated_trees(node, point, i):
    # checked where the tree is defined and smooth on the stencil: central
    # differences at steps h and 2h must agree to the bound themselves
    point = np.array(point)
    try:
        fd = [_fd(node, point, i, PARAMS, h) for h in (1e-4, 2e-4)]
        got = evaluate(diff(node, i), point, PARAMS)
    except EvalDomainError:
        assume(False)
    assume(np.isfinite(fd).all() and abs(fd[0] - fd[1]) <= 1e-7 * (1.0 + abs(fd[0])))
    assert abs(got - fd[0]) <= 1e-6 * (1.0 + abs(got))
