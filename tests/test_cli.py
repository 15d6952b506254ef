import csv
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import kkgeom
from kkgeom import basegeo, bundle, cli, errors, gauge, kkcurv, liealg
from kkgeom.bundle import builtin_rep
from kkgeom.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from kkgeom.liealg import load_spec, su2_algebra
from test_demos import readme_blocks
from test_properties import EPSILON3, inline_algebra, su3_constants


SU2_PROBLEM = {
    "algebra": {"builtin": "su2", "n": 2},
    "fields": {
        "chart": {"n": 2},
        "coframe": [["1 + 0.1*x2^2", "0.1*x1"], ["0", "1 + 0.2*sin(x1)"]],
        "gauge": [["0.3*x2", "0.1*x1"],
                  ["0.1*x1*x2", "0.2*sin(x2)"],
                  ["0.1*x2^2", "0"]],
        "lattice": {"min": [-0.5, -0.5], "max": [0.5, 0.5], "steps": [2, 2]},
    },
    "rep": "su2_as_so3",
    "paths": [{"g0": "identity", "v": ["sin(3*x1)", "x1", "cos(2*x1)"],
               "steps": 100}],
    "options": {"seed": 1},
}

# su(2) structure constants in a 1+3 split, but with one bracket component
# rescaled so that ad-invariance of h fails
BROKEN_ALGEBRA = {
    "n": 1,
    "r": 3,
    "c": [[1, 2, 3, 1.0], [1, 3, 2, -1.0],
          [2, 3, 1, 1.0], [2, 1, 3, -1.0],
          [3, 1, 2, 0.5], [3, 2, 1, -0.5]],
}


def su2_problem(n):
    """su(2) over an n-dimensional chart, two generic points."""
    coframe = [["0"] * n for _ in range(n)]
    for a in range(n):
        coframe[a][a] = f"1 + 0.1*sin(x{(a + 1) % n + 1})"
        coframe[a][(a + 1) % n] = f"0.05*x{a + 1}"
    gauge = [[f"0.{al + mu + 1}*x{(al + mu) % n + 1}" if (al + mu) % 2 else "0"
              for mu in range(n)] for al in range(3)]
    points = [[0.1 * (i + 1) * (-1) ** a for a in range(n)] for i in range(2)]
    return {
        "algebra": {"builtin": "su2", "n": n},
        "fields": {"chart": {"n": n}, "coframe": coframe, "gauge": gauge,
                   "points": points},
        "rep": "su2_as_so3",
        "options": {"seed": 3},
    }


def write_problem(tmp_path, problem, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(problem))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def normalized(text):
    report = json.loads(text)
    report["wall_time_s"] = 0.0
    return report


# ---------------------------------------------------------------------------
# exit codes


def test_validate_good_algebra(tmp_path, capsys):
    path = write_problem(tmp_path, {"algebra": {"builtin": "su2", "n": 2}})
    code, out = run(capsys, ["validate", "--input", path])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["command"] == "validate"
    assert report["passed"] is True
    assert abs(report["cosmological_constant"] - 0.75) < 1e-14
    names = {c["name"] for c in report["checks"]}
    assert "Jacobi identity" in names
    assert "ad-invariance of h" in names


def test_validate_broken_algebra_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, {"algebra": BROKEN_ALGEBRA})
    code, out = run(capsys, ["validate", "--input", path])
    assert code == EXIT_VIOLATION
    report = json.loads(out.out)
    assert report["passed"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed
    assert all(c["worst_indices"] for c in failed)


def test_missing_input_file(capsys):
    code, out = run(capsys, ["validate", "--input", "/no/such/file.json"])
    assert code == EXIT_USAGE
    assert "error" in out.err


def test_missing_input_flag(capsys):
    code, _ = run(capsys, ["validate"])
    assert code == EXIT_USAGE


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_bad_json_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, ["validate", "--input", str(path)])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# identities


def test_identities_pass(capsys):
    code, out = run(capsys, ["identities", "--n", "4", "--trials", "20"])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["passed"] is True
    assert report["max_residual"] <= 1e-12


def test_identities_small_n_is_usage_error(capsys):
    code, _ = run(capsys, ["identities", "--n", "2"])
    assert code == EXIT_USAGE


def test_identities_requires_n(capsys):
    code, _ = run(capsys, ["identities"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("n", ["4", "6"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_identities_rejects_non_positive_trials(capsys, n, trials):
    code, out = run(capsys, ["identities", "--n", n, "--trials", trials])
    assert code == EXIT_USAGE
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert "trials" in line


# ---------------------------------------------------------------------------
# curvature


def test_curvature_report(tmp_path, capsys):
    path = write_problem(tmp_path, SU2_PROBLEM)
    code, out = run(capsys, ["curvature", "--input", path])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["summary"]["points"] == 4
    assert report["summary"]["max_cross_check"] < 1e-6
    points = [r["point"] for r in report["per_point"]]
    assert points == sorted(points)
    for row in report["per_point"]:
        assert row["connection_antisymmetry"] < 1e-12
        assert row["connection_torsion"] < 1e-12


def test_curvature_report_is_repeatable(tmp_path, capsys):
    path = write_problem(tmp_path, SU2_PROBLEM)
    _, out1 = run(capsys, ["curvature", "--input", path])
    _, out2 = run(capsys, ["curvature", "--input", path])
    assert normalized(out1.out) == normalized(out2.out)


def test_curvature_report_ignores_point_order(tmp_path, capsys):
    points = [[0.1 * i - 0.3, 0.05 * i * i - 0.4] for i in range(40)]
    reports = []
    for order in (points, points[::-1], points[1::2] + points[::2]):
        problem = json.loads(json.dumps(SU2_PROBLEM))
        del problem["fields"]["lattice"]
        problem["fields"]["points"] = order
        code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, problem)])
        assert code == EXIT_OK
        report = json.loads(out.out)
        reports.append((report["per_point"], report["summary"]))
    assert reports[0] == reports[1] == reports[2]
    assert [r["point"] for r in reports[0][0]] == sorted(points)


def count_calls(monkeypatch, module,
                names=("assemble_omega", "curvature_direct", "ricci_closed_form")):
    calls = {}

    def counted(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_curvature_computes_each_tensor_once_per_point(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, kkcurv)
    path = write_problem(tmp_path, SU2_PROBLEM)
    code, _ = run(capsys, ["curvature", "--input", path])
    assert code == EXIT_OK
    # the 4 points form one block: one call per tensor for all of them
    assert calls == {"assemble_omega": 1, "curvature_direct": 1, "ricci_closed_form": 1}


def test_curvature_sweeps_in_blocks_of_32_points(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, kkcurv)
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["fields"]["lattice"]["steps"] = [3, 11]
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    assert json.loads(out.out)["summary"]["points"] == 33
    assert calls == {"assemble_omega": 2, "curvature_direct": 2, "ricci_closed_form": 2}


def test_curvature_never_builds_the_riemann_tensor(tmp_path, capsys, monkeypatch):
    # a sweep reads Ricci alone, which the direct route contracts without Omega
    def fail(conn):
        raise AssertionError("curvature built Omega")

    monkeypatch.setattr(kkcurv, "riemann_direct", fail)
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, SU2_PROBLEM)])
    assert code == EXIT_OK
    assert json.loads(out.out)["summary"]["points"] == 4


@pytest.mark.parametrize("deriv_mode,error,expected", [
    ("analytic", 1e-5, EXIT_VIOLATION),
    ("analytic", 1e-8, EXIT_OK),
    ("fd", 1e-2, EXIT_VIOLATION),
    ("fd", 1e-5, EXIT_OK),
])
def test_curvature_exits_2_on_cross_check_violation(tmp_path, capsys, monkeypatch,
                                                    deriv_mode, error, expected):
    exact = kkcurv.ricci_closed_form

    def off_by_error(geom):
        closed = exact(geom)
        return closed._replace(ric_base=closed.ric_base + error)

    monkeypatch.setattr(kkcurv, "ricci_closed_form", off_by_error)
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["fields"]["deriv_mode"] = deriv_mode
    path = write_problem(tmp_path, problem)
    code, out = run(capsys, ["curvature", "--input", path])
    assert code == expected
    report = json.loads(out.out)  # the full report is written either way
    assert report["summary"]["points"] == 4
    assert report["summary"]["max_cross_check"] >= error
    if expected == EXIT_VIOLATION:
        (line,) = out.err.strip().splitlines()
        assert "cross_check_max" in line
        worst = max(report["per_point"], key=lambda r: r["cross_check_max"])
        assert str(worst["point"]) in line
    else:
        assert out.err == ""


def test_curvature_summary_keeps_a_nan_past_the_first_row(tmp_path, capsys, monkeypatch):
    exact = kkcurv.ricci_closed_form

    def nan_after_first(geom):
        closed = exact(geom)
        ric_base = closed.ric_base.copy()
        ric_base[1:] = np.nan
        return closed._replace(ric_base=ric_base)

    monkeypatch.setattr(kkcurv, "ricci_closed_form", nan_after_first)
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, SU2_PROBLEM)])
    assert code == EXIT_VIOLATION
    report = json.loads(out.out)
    assert [math.isnan(r["cross_check_max"]) for r in report["per_point"]] == [
        False, True, True, True]
    assert math.isnan(report["summary"]["max_cross_check"])


def test_curvature_closed_form_follows_the_lambda_prefactor(tmp_path, capsys, monkeypatch):
    # the closed form's cosmological terms are written through the prefactor:
    # flipping its sign takes them off the direct route
    monkeypatch.setattr(liealg, "LAMBDA_PREFACTOR", -liealg.LAMBDA_PREFACTOR)
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, SU2_PROBLEM)])
    assert code == EXIT_VIOLATION
    assert json.loads(out.out)["summary"]["max_cross_check"] > 1e-6


def test_curvature_exits_2_on_torsion_violation(tmp_path, capsys, monkeypatch):
    exact = kkcurv.assemble_omega

    def skewed(geom):
        conn = exact(geom)
        K = conn.K.copy()
        K[..., 0, 0, 1] += 1e-9
        return conn._replace(K=K)

    monkeypatch.setattr(kkcurv, "assemble_omega", skewed)
    path = write_problem(tmp_path, SU2_PROBLEM)
    code, out = run(capsys, ["curvature", "--input", path])
    assert code == EXIT_VIOLATION
    assert "connection_torsion" in out.err


@pytest.mark.parametrize("exc", [ValueError("shapes do not align"),
                                 np.linalg.LinAlgError("Singular matrix")])
def test_stray_numeric_error_exits_70(tmp_path, capsys, monkeypatch, exc):
    def fail(conn):
        raise exc

    monkeypatch.setattr(kkcurv, "curvature_direct", fail)
    path = write_problem(tmp_path, SU2_PROBLEM)
    code, out = run(capsys, ["curvature", "--input", path])
    assert code == EXIT_NUMERIC
    (line,) = out.err.strip().splitlines()
    assert line.startswith("numeric failure:")
    assert str(exc) in line


@pytest.mark.parametrize("command,module,function", [
    ("curvature", basegeo, "load_fields"),
    ("gauge-check", basegeo, "load_fields"),
    ("lift", bundle, "lift_and_halve"),
])
def test_out_of_memory_exits_70_in_one_line(tmp_path, capsys, monkeypatch, command, module,
                                            function):
    # a huge lattice or path step count fails in numpy's allocator; raised
    # here, since whether a real huge allocation fails at once depends on
    # the host's overcommit policy
    message = "Unable to allocate 74.5 GiB for an array with shape (10000000000,)"

    def fail(*args):
        raise MemoryError(message)

    monkeypatch.setattr(module, function, fail)
    code, out = run(capsys, [command, "--input", write_problem(tmp_path, SU2_PROBLEM)])
    assert code == EXIT_NUMERIC
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line == f"numeric failure: MemoryError: {message}"


# the arguments of each error class whose constructor takes more than a message
ERROR_ARGS = {
    errors.DegenerateCoframeError: ((0.1, 0.2), 0.0),
    errors.NonFiniteGeometryError: ((0.1, 0.2), ("E",)),
    errors.ExprSyntaxError: ("unexpected token", 3),
    errors.UnknownIdentifierError: ("x9",),
}


def error_classes(cls=errors.KKGeomError):
    """Every subclass of ``cls``, its subclasses' subclasses among them."""
    for sub in cls.__subclasses__():
        yield sub
        yield from error_classes(sub)


@pytest.mark.parametrize("error", sorted(error_classes(), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_exits_64_or_70_in_one_line(tmp_path, capsys, monkeypatch, error):
    # an error class that main does not map would escape as a traceback:
    # each is an input error (64) or a numeric failure (70)
    def fail(*args):
        raise error(*ERROR_ARGS.get(error, ("boom",)))

    monkeypatch.setattr(liealg, "load_spec", fail)
    path = write_problem(tmp_path, {"algebra": {"builtin": "su2", "n": 2}})
    code, out = run(capsys, ["validate", "--input", path])
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert (code, line.split(":")[0]) in ((EXIT_USAGE, "error"), (EXIT_NUMERIC, "numeric failure"))


def with_fields(**changes):
    """SU2_PROBLEM with field entries replaced; a None value drops the entry."""
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["fields"].update(changes)
    problem["fields"] = {k: v for k, v in problem["fields"].items() if v is not None}
    return problem


def with_algebra(algebra):
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["algebra"] = algebra
    return problem


@pytest.mark.parametrize("problem,argv,message", [
    (with_fields(coframe=[["1 + 0.1*x2^", "0"], ["0", "1"]]), [], "offset"),
    (with_fields(lattice=None), [], "'points' or 'lattice'"),
    (with_fields(coframe=[["log(x1)", "0"], ["0", "1"]], points=[[-1.0, 0.0]]), [],
     "log"),
    (with_fields(coframe=[["1+exp(x1)", "0"], ["0", "1"]], points=[[1000.0, 0.0]]), [],
     "overflow"),
    (with_fields(points=[[0.1, 0.2], [0.1]]), [], "points[1]"),
    (with_fields(coframe=[["1", "0"], ["0", "1"]], gauge=None, points=[[0.1]]), [],
     "points[0]"),
    (with_fields(lattice={"min": [0.0], "max": [1.0], "steps": [2]}), [], "lattice"),
    (with_algebra({"n": 2, "r": 1, "c": [[1, 2]]}), [], "[1, 2]"),
    (SU2_PROBLEM, ["--jobs", "2"], "--jobs"),
    (with_fields(lattice={"min": [0.0, 0.0], "max": [1.0, 1.0], "steps": [-1, 2]}), [],
     "lattice steps must be a non-negative integer, got -1"),
    (with_algebra({"n": -1, "r": 1}), [], "algebra n must be a non-negative integer, got -1"),
    (with_algebra({"n": 2, "r": -3}), [], "algebra r must be a non-negative integer, got -3"),
    (with_algebra({"builtin": "su2", "n": -2}), [], "algebra n must be a non-negative"),
    (with_fields(chart={"n": -2}), [], "chart n must be a non-negative integer, got -2"),
    (with_fields(lattice=None, points=[], deriv_mode="bogus"), [],
     "unknown derivative mode 'bogus'"),
    (with_fields(lattice=None, points=[], gauge=SU2_PROBLEM["fields"]["gauge"][:2]), [],
     "gauge potential has 2 rows, the algebra's fiber dimension is 3"),
    ({**with_fields(lattice=None, points=[]), "algebra": {"builtin": "su2"}}, [],
     "chart dimension 2 does not match the algebra's base dimension 0"),
    (with_fields(chart={"n": 3}), [],
     "chart dimension 3 does not match the algebra's base dimension 2"),
], ids=["syntax", "no-points", "log-domain", "overflow", "short-point",
        "short-point-unread", "short-lattice", "short-triplet", "jobs-option",
        "negative-steps", "negative-algebra-n", "negative-algebra-r", "negative-builtin-n",
        "negative-chart-n", "bad-deriv-mode-no-points", "gauge-rows-no-points",
        "chart-n-no-points", "chart-n-mismatch"])
def test_curvature_input_errors_exit_64(tmp_path, capsys, problem, argv, message):
    path = write_problem(tmp_path, problem)
    code, out = run(capsys, ["curvature", "--input", path] + argv)
    assert code == EXIT_USAGE
    assert out.out == ""
    assert message in out.err


INLINE_SU2 = {"n": 2, "r": 3, "c": [[2, 3, 4, 1.0], [3, 4, 2, 1.0], [4, 2, 3, 1.0],
                                   [2, 4, 3, -1.0], [3, 2, 4, -1.0], [4, 3, 2, -1.0]]}


@pytest.mark.parametrize("problem", [
    with_fields(coframe=[[None, "0"], ["0", "1"]]),
    with_fields(coframe=[[[1], "0"], ["0", "1"]]),
    with_fields(coframe=[[{"a": 1}, "0"], ["0", "1"]]),
    with_fields(coframe=[[True, "0"], ["0", "1"]]),
    with_fields(coframe=[[float("nan"), "0"], ["0", "1"]]),
    with_fields(params=[1]),
    {**SU2_PROBLEM, "fields": [1, 2]},
    with_fields(lattice=None, points=[[0.1, "a"]]),
    with_fields(lattice=None, points=[[0.1, None]]),
    with_fields(lattice={"min": [0, 0], "max": [1, 1], "steps": ["x", 2]}),
    with_fields(chart={"n": "two"}),
    with_algebra({**INLINE_SU2, "r": "x"}),
    with_algebra({**INLINE_SU2, "h_b": [["a", 0], [0, 1]]}),
    with_algebra({**INLINE_SU2, "h_b": [[True, 0], [0, 1]]}),
    with_algebra({**INLINE_SU2, "h_b": [[1, 0], [0, "1"]]}),
    with_algebra({**INLINE_SU2, "h_b": [[1, None], [0, 1]]}),
    with_algebra({**INLINE_SU2, "h_k": [[1, 0, 0], [0, True, 0], [0, 0, 1]]}),
    with_algebra({**INLINE_SU2, "h_k": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]}),
    with_algebra({**INLINE_SU2, "h_k": [[None, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    with_algebra({**INLINE_SU2, "c": [[2, 3, 4, "v"]]}),
    with_algebra({**INLINE_SU2, "c": [[2, 3, 4, True]]}),
    with_algebra({**INLINE_SU2, "c": [[2, 3, 4, "1"]]}),
    with_algebra({**INLINE_SU2, "c": [[2, 3, 4, None]]}),
    with_algebra({**INLINE_SU2, "r": 10**400}),
    with_fields(lattice=None, points=[[0.1, True]]),
    with_fields(lattice={"min": [0, "0"], "max": [1, 1], "steps": [2, 2]}),
    with_algebra({**INLINE_SU2, "c": True}),
    with_algebra({**INLINE_SU2, "c": {}}),
    with_algebra([1]),
    with_algebra({"builtin": []}),
    with_algebra({"builtin": {}}),
    [1],
], ids=["coframe-null", "coframe-list", "coframe-object", "coframe-true", "coframe-nan",
        "params-list", "fields-list", "point-string", "point-null", "steps-string",
        "chart-n-string", "algebra-r-string", "h_b-string", "h_b-true", "h_b-numeric-string",
        "h_b-null", "h_k-true", "h_k-numeric-string", "h_k-null", "c-value-string",
        "c-value-true", "c-value-numeric-string", "c-value-null", "algebra-r-huge-int",
        "point-true", "lattice-numeric-string", "c-true", "c-object", "algebra-list",
        "builtin-list", "builtin-object", "problem-list"])
def test_values_of_the_wrong_type_exit_64(tmp_path, capsys, problem):
    # JSON values of the wrong type are input errors, never a traceback, a
    # numeric failure or a value silently read as 1.0 or NaN
    for command in ("curvature", "gauge-check"):
        code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
        assert code == EXIT_USAGE
        assert out.out == ""
        (line,) = out.err.strip().splitlines()
        assert line.startswith("error: ")
        assert "Traceback" not in out.err


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "inline"])
@pytest.mark.parametrize("block", ["h_b", "h_k"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_metric_entry_exits_64(tmp_path, capsys, builtin, block, value):
    # a NaN or Infinity in a metric block is refused where the spec's arrays
    # are coerced: one line, no report and no numpy warning, never exit 2 or 70
    algebra = ({"builtin": "su2", "n": 2} if builtin
               else inline_algebra(su2_algebra(2).fiber_c(), 2))
    metric = np.eye(2 if block == "h_b" else 3)
    metric[1, 1] = value
    problem = with_algebra({**algebra, block: metric.tolist()})
    for command in ("validate", "curvature"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
        assert code == EXIT_USAGE
        assert out.out == ""
        (line,) = out.err.strip().splitlines()
        assert line == f"error: algebra.{block}[1][1] must be a finite number, got {value!r}"


@pytest.mark.parametrize("algebra, line", [
    ({**INLINE_SU2, "h_k": [[1, 0, 0], [0, True, 0], [0, 0, 1]]},
     "error: algebra.h_k[1][1] must be a finite number, got True"),
    ({"builtin": "su2", "n": 2, "h_b": [[True, 0], [0, 1]]},
     "error: algebra.h_b[0][0] must be a finite number, got True"),
    ({**INLINE_SU2, "c": [[2, 3, 4, 1.0], [2, 4, 3, "1"]]},
     "error: algebra.c[1][3] must be a finite number, got '1'"),
    ({**INLINE_SU2, "c": [[2, 3.5, 4, 1.0]]},
     "error: algebra.c[0][1] must be a non-negative integer, got 3.5"),
], ids=["h_k-true", "builtin-h_b-true", "c-value-numeric-string", "c-index-fraction"])
def test_algebra_entries_are_named_by_their_json_path(tmp_path, capsys, algebra, line):
    # the node as the problem file holds it, not the spec field it becomes
    for command in ("validate", "curvature"):
        code, out = run(capsys, [command, "--input",
                                 write_problem(tmp_path, with_algebra(algebra))])
        assert (code, out.out) == (EXIT_USAGE, "")
        assert out.err.splitlines() == [line]


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
def test_the_chart_dimension_is_the_algebras(tmp_path, capsys, deriv_mode):
    # fields.chart is optional: without it the sweep runs on the algebra's n,
    # and gives what the README problem's written chart gives
    problem = json.loads(readme_blocks("json")[0])
    assert problem["fields"]["chart"] == {"n": problem["algebra"]["n"]}
    problem["fields"]["deriv_mode"] = deriv_mode
    no_chart = {**problem, "fields": {k: v for k, v in problem["fields"].items() if k != "chart"}}
    reports = []
    for name, variant in (("written.json", problem), ("derived.json", no_chart)):
        code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, variant, name)])
        assert code == EXIT_OK
        reports.append(json.loads(out.out))
    written, derived = reports
    assert written["summary"]["points"] == 9
    assert derived["per_point"] == written["per_point"]
    assert derived["summary"] == written["summary"]


@pytest.mark.parametrize("algebra, quantity", [
    ({"builtin": "su2", "n": 2, "h_k": (1e200 * np.eye(3)).tolist()}, "det h"),
    (inline_algebra(1e200 * EPSILON3, 2), "the Jacobi identity residual"),
    (inline_algebra(1e154 * EPSILON3, 2), "the cosmological constant"),
], ids=["det", "residual", "lambda"])
def test_overflowing_algebra_exits_70(tmp_path, capsys, algebra, quantity):
    # Python floats overflow silently, as numpy's do: a det h, residual or
    # cosmological constant that is not finite is a numeric failure, one line
    # naming it and no report, never a report holding Infinity or NaN
    path = write_problem(tmp_path, {"algebra": algebra})
    for fmt in ("json", "csv"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["validate", "--input", path, "--format", fmt])
        assert code == EXIT_NUMERIC
        assert out.out == ""
        (line,) = out.err.strip().splitlines()
        assert line.startswith(f"numeric failure: {quantity} is not finite")


def test_non_symmetric_metric_fails_validate(tmp_path, capsys):
    # det h is 1 and the symmetric part of b has signature (1, 0), but h is
    # not symmetric: the check before block orthogonality says so
    path = write_problem(tmp_path, {"algebra": {"builtin": "su2", "n": 2,
                                                "h_b": [[1.0, 2.0], [0.0, 1.0]]}})
    code, out = run(capsys, ["validate", "--input", path])
    assert code == EXIT_VIOLATION
    report = json.loads(out.out)
    names = [c["name"] for c in report["checks"]]
    assert names.index("symmetry of h") + 1 == names.index("block orthogonality of h")
    assert [c for c in report["checks"] if not c["passed"]] == [
        {"name": "symmetry of h", "passed": False, "max_violation": 2.0, "worst_indices": [1, 2]}]
    assert (report["b_signature"], report["det_h"]) == ([1, 0], 1.0)


def test_curvature_without_fiber(tmp_path, capsys):
    problem = with_algebra({"builtin": "abelian", "n": 2, "r": 0})
    del problem["fields"]["gauge"]
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["summary"]["points"] == 4
    assert report["summary"]["max_yang_mills_residual"] == 0.0
    assert report["summary"]["max_cross_check"] < 1e-6


def test_fd_curvature_without_fiber(tmp_path, capsys):
    problem = with_algebra({"builtin": "abelian", "n": 2, "r": 0})
    del problem["fields"]["gauge"]
    problem["fields"]["deriv_mode"] = "fd"
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["summary"]["points"] == 4
    assert report["summary"]["max_yang_mills_residual"] == 0.0
    assert report["summary"]["max_cross_check"] < 1e-3


def test_curvature_out_file(tmp_path, capsys):
    path = write_problem(tmp_path, SU2_PROBLEM)
    dest = tmp_path / "report.json"
    code, out = run(capsys, ["curvature", "--input", path, "--out", str(dest)])
    assert code == EXIT_OK
    assert out.out == ""
    report = json.loads(dest.read_text())
    assert report["command"] == "curvature"


def test_csv_output(tmp_path, capsys):
    path = write_problem(tmp_path, {"algebra": {"builtin": "su2", "n": 2}})
    code, out = run(capsys, ["validate", "--input", path, "--format", "csv"])
    assert code == EXIT_OK
    lines = out.out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "passed" in keys
    assert "cosmological_constant" in keys


# ---------------------------------------------------------------------------
# lift


def test_lift_expression_path(tmp_path, capsys):
    path = write_problem(tmp_path, SU2_PROBLEM)
    code, out = run(capsys, ["lift", "--input", path])
    assert code == EXIT_OK
    report = json.loads(out.out)
    (row,) = report["paths"]
    assert row["drift"] < 1e-8
    assert row["step_halving_error"] < 1e-6
    final = np.array(row["final"])
    assert np.abs(final.T @ final - np.eye(3)).max() < 1e-8


def test_lift_sampled_constant_path(tmp_path, capsys):
    rep = builtin_rep("su2_as_so3")
    xi = [0.3, -0.2, 0.5]
    problem = {
        "rep": "su2_as_so3",
        "paths": [{"v": [[0.0] + xi, [1.0] + xi], "steps": 400}],
    }
    path = write_problem(tmp_path, problem)
    code, out = run(capsys, ["lift", "--input", path])
    assert code == EXIT_OK
    final = np.array(json.loads(out.out)["paths"][0]["final"])
    want = expm(rep.algebra_element(np.array(xi)))
    assert np.abs(final - want).max() < 1e-8


def test_lift_without_paths(tmp_path, capsys):
    path = write_problem(tmp_path, {"rep": "su2_as_so3"})
    code, _ = run(capsys, ["lift", "--input", path])
    assert code == EXIT_USAGE


def test_lift_wrong_velocity_count(tmp_path, capsys):
    problem = {"rep": "su2_as_so3", "paths": [{"v": ["x1"], "steps": 10}]}
    path = write_problem(tmp_path, problem)
    code, _ = run(capsys, ["lift", "--input", path])
    assert code == EXIT_USAGE


CONSTANT_V = [[0.0, 0.3, -0.2, 0.5], [1.0, 0.3, -0.2, 0.5]]
NAN = float("nan")


@pytest.mark.parametrize("paths,message", [
    ([{"steps": 10}], "'v'"),
    ("x", "'paths' must be a list"),
    ([1], "paths[0] must be an object"),
    ([{"v": CONSTANT_V, "steps": "abc"}], "steps"),
    ([{"v": CONSTANT_V, "steps": 2.5}], "steps"),
    ([{"v": [[0.0, 0.3, -0.2, 0.5], [1.0, 0.3, -0.2]], "steps": 10}], "paths[0].v"),
    ([{"v": [0.0, 0.3, -0.2, 0.5], "steps": 10}], "paths[0].v"),
    ([{"v": [[0.0, 0.3, -0.2, 0.5], [0.0, 0.1, 0.2, 0.3]], "steps": 10}], "increase"),
    ([{"v": CONSTANT_V, "g0": [[NAN] * 3] * 3, "steps": 10}],
     "paths[0].g0[0][0] must be a finite number, got nan"),
    ([{"v": CONSTANT_V, "g0": (2 * np.eye(3)).tolist(), "steps": 10}],
     "paths[0]: matrix is off the group manifold"),
    ([{"v": CONSTANT_V, "g0": [[1.0, 0.0, 0.0], [0.0, 1.0]], "steps": 10}], "paths[0].g0"),
    ([{"v": CONSTANT_V, "g0": [np.eye(3).tolist()] * 2, "steps": 10}],
     "paths[0].g0 has length 2, expected 3"),
    ([{"v": CONSTANT_V, "steps": 10}, {"v": ["x1", "1", "log(x1 - 2)"]}], "log"),
    ([{"v": [[0.0, 0.3, -0.2, 0.5], [0.5, 0.3, -0.2, 0.5]], "steps": 50}], "cover [0, 1]"),
], ids=["no-v", "paths-string", "entry-number", "steps-string", "steps-float",
        "ragged-samples", "flat-samples", "unordered-times", "nan-g0", "off-manifold-g0",
        "ragged-g0", "batched-g0", "log-domain", "partial-times"])
def test_lift_input_errors_exit_64(tmp_path, capsys, paths, message):
    path = write_problem(tmp_path, {"rep": "su2_as_so3", "paths": paths})
    code, out = run(capsys, ["lift", "--input", path])
    assert code == EXIT_USAGE
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line.startswith("error:")
    assert message in line


@pytest.mark.parametrize("value", [True, False, "1", None], ids=repr)
@pytest.mark.parametrize("node", ["v", "g0"])
def test_lift_values_of_the_wrong_type_exit_64(tmp_path, capsys, node, value):
    # a sample row or a g0 entry that is not a JSON number is refused, never
    # read as 1.0, 0.0 or NaN: one line naming the entry
    entry = {"v": json.loads(json.dumps(CONSTANT_V)), "g0": np.eye(3).tolist(), "steps": 10}
    entry[node][1][2] = value
    path = write_problem(tmp_path, {"rep": "su2_as_so3", "paths": [entry]})
    code, out = run(capsys, ["lift", "--input", path])
    assert code == EXIT_USAGE
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line == f"error: paths[0].{node}[1][2] must be a finite number, got {value!r}"


@pytest.mark.parametrize("paths", [SU2_PROBLEM["paths"], [{"v": CONSTANT_V, "steps": 40}]],
                         ids=["expressions", "samples"])
def test_lift_samples_velocity_and_projects_once_per_lift(tmp_path, capsys, monkeypatch,
                                                          paths):
    # the path's own v, as the CLI built it, counted before any lift sees it
    calls = count_calls(monkeypatch, bundle, ["polar"])
    times, lifts = [], []
    lift_and_halve, lift = bundle.lift_and_halve, bundle._lift

    def counting_lift_and_halve(path, steps):
        v = path.v

        def counted(t):
            times.append(len(t))
            return v(t)
        return lift_and_halve(path._replace(v=counted), steps)

    def counting_lift(path, steps, xi):
        lifts.append(steps)
        return lift(path, steps, xi)

    monkeypatch.setattr(bundle, "lift_and_halve", counting_lift_and_halve)
    monkeypatch.setattr(bundle, "_lift", counting_lift)
    path = write_problem(tmp_path, {"rep": "su2_as_so3", "paths": paths})
    code, _ = run(capsys, ["lift", "--input", path])
    assert code == EXIT_OK
    steps = paths[0]["steps"]
    assert lifts == [steps, 2 * steps]  # the path and its step-halving check
    assert times == [4 * steps + 1]  # one call, at the fine lift's stage times
    assert calls == {"polar": 2}


# ---------------------------------------------------------------------------
# gauge-check


def test_gauge_check_passes(tmp_path, capsys):
    problem = dict(SU2_PROBLEM)
    problem["fields"] = dict(SU2_PROBLEM["fields"])
    problem["fields"]["lattice"] = {"min": [-0.4, -0.4], "max": [0.4, 0.4],
                                    "steps": [2, 2]}
    path = write_problem(tmp_path, problem)
    code, out = run(capsys, ["gauge-check", "--input", path])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["passed"] is True
    assert report["max_residual"] <= report["tolerance"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gauge_check_beyond_two_base_dimensions(tmp_path, capsys, n):
    path = write_problem(tmp_path, su2_problem(n))
    code, out = run(capsys, ["gauge-check", "--input", path])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["passed"] is True
    assert len(report["per_point"]) == 2
    assert report["max_residual"] <= report["tolerance"]


def test_gauge_check_honours_fd_deriv_mode(tmp_path, capsys):
    rows = {}
    for mode in ("analytic", "fd"):
        problem = su2_problem(3)
        problem["fields"]["deriv_mode"] = mode
        # a coarse step, so that the error of the fd geometry shows above the
        # fiber-difference floor of the residuals (at 1e-3 it hides below it)
        problem["options"]["fd_step"] = 1e-2
        code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, problem)])
        assert code == EXIT_OK
        report = json.loads(out.out)
        assert report["config"]["fields"]["deriv_mode"] == mode
        assert report["passed"] is True
        rows[mode] = report["per_point"]
    for analytic, fd in zip(rows["analytic"], rows["fd"]):
        assert analytic["point"] == fd["point"]
        for name in ("deextra_residual", "gauge_covariance_residual"):
            assert fd[name] <= 1e-5
    assert rows["analytic"] != rows["fd"]


def test_gauge_check_mismatched_rep(tmp_path, capsys):
    problem = dict(SU2_PROBLEM)
    problem["rep"] = "u1_as_so2"
    path = write_problem(tmp_path, problem)
    code, _ = run(capsys, ["gauge-check", "--input", path])
    assert code == EXIT_USAGE


def scaled_su2_algebra(scale):
    """su(2) over a 2-D chart, inline, with its structure constants scaled."""
    c = su2_algebra(2).c
    return {"n": 2, "r": 3, "c": [[int(A), int(B), int(C), scale * c[A, B, C]]
                                  for A, B, C in zip(*np.nonzero(c))]}


@pytest.mark.parametrize("algebra", [{"builtin": "abelian", "n": 2, "r": 3},
                                     scaled_su2_algebra(2.0)],
                         ids=["abelian-r3", "su2-scaled"])
def test_gauge_check_rejects_rep_of_another_algebra(tmp_path, capsys, algebra):
    # su2_as_so3 has the right fiber dimension, but its generators do not
    # close on these fiber constants
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["algebra"] = algebra
    code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_USAGE
    assert out.out == ""
    assert "does not represent the algebra" in out.err
    assert "do not close" in out.err


def test_gauge_check_accepts_rep_of_an_equal_inline_algebra(tmp_path, capsys):
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["algebra"] = scaled_su2_algebra(1.0)
    code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    assert json.loads(out.out)["passed"] is True


SU2_K123 = dict(scaled_su2_algebra(1.0), h_k=np.diag([1.0, 2.0, 3.0]).tolist())


def su2_sum_algebra(n):
    """su(2) + su(2) with constants scaled 1 and 0.7, k = diag(1.5 I, 0.4 I)."""
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3], c[3:, 3:, 3:] = EPSILON3, 0.7 * EPSILON3
    return inline_algebra(c, n, np.diag([1.5] * 3 + [0.4] * 3))


def noncompact_algebra(n):
    """[e1, e2] = e2: no positive definite k is Ad-invariant."""
    c = np.zeros((2, 2, 2))
    c[1, 0, 1], c[1, 1, 0] = 1.0, -1.0
    return inline_algebra(c, n)


def problem_without_rep(algebra):
    """A problem on ``algebra`` with no 'rep': fields, two points and two paths."""
    n, r = algebra["n"], load_spec(algebra).r
    problem = su2_problem(n)
    del problem["rep"]
    problem["algebra"] = algebra
    problem["fields"]["gauge"] = [[f"0.{(al + mu) % 9 + 1}*x{(al + mu) % n + 1}"
                                   for mu in range(n)] for al in range(r)]
    problem["paths"] = [{"v": [f"sin({a + 1}*x1)" for a in range(r)], "steps": 50},
                        {"v": [[0.0] + [0.3] * r, [1.0] + [-0.2] * r], "steps": 50}]
    return problem


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("algebra", [
    lambda n: {"builtin": "abelian", "n": n, "r": 2},
    su2_sum_algebra,
    lambda n: inline_algebra(su3_constants(), n),
    lambda n: {"builtin": "u1_su2", "n": n},
], ids=["abelian-r2", "su2+su2", "su3", "u1+su2"])
def test_every_command_derives_the_rep_from_the_algebra(tmp_path, capsys, algebra, n):
    path = write_problem(tmp_path, problem_without_rep(algebra(n)))
    for command in ("validate", "curvature", "lift", "gauge-check"):
        code, out = run(capsys, [command, "--input", path])
        assert code == EXIT_OK, (command, out.err)
    gauge = json.loads(out.out)
    assert gauge["config"]["rep"] is None
    assert gauge["passed"] is True
    assert gauge["max_residual"] <= 1e-10


@pytest.mark.parametrize("command", ["lift", "gauge-check"])
def test_a_named_rep_and_the_derived_rep_give_one_report(tmp_path, capsys, command):
    # su2_as_so3 is the rep derived from su(2) at k = I: only the config differs
    reports = []
    for problem in (SU2_PROBLEM, {key: v for key, v in SU2_PROBLEM.items() if key != "rep"}):
        code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
        assert code == EXIT_OK
        reports.append(json.loads(out.out))
    named, derived = reports
    assert named["config"]["rep"] == "su2_as_so3" and derived["config"]["rep"] is None
    if command == "lift":  # the config holds the algebra when the rep comes from it
        assert "algebra" not in named["config"]
        assert derived["config"]["algebra"] == SU2_PROBLEM["algebra"]
    for report in reports:
        for key in ("config", "config_digest", "wall_time_s"):
            del report[key]
    assert named == derived


@pytest.mark.parametrize("command,problem,message", [
    ("lift", {"paths": SU2_PROBLEM["paths"]}, "needs an 'algebra' or a 'rep'"),
    ("lift", dict(SU2_PROBLEM, algebra=scaled_su2_algebra(2.0)),
     "'su2_as_so3' does not represent the algebra: generators do not close"),
    ("lift", dict(SU2_PROBLEM, rep="u1_as_so2"), "'u1_as_so2' does not represent the algebra"),
    ("gauge-check", {k: v for k, v in dict(SU2_PROBLEM, algebra=SU2_K123).items() if k != "rep"},
     "k is not Ad-invariant"),
    ("gauge-check", problem_without_rep(noncompact_algebra(2)), "k is not Ad-invariant"),
    ("gauge-check", problem_without_rep({"builtin": "abelian", "n": 2, "r": 0}), "r = 0"),
    ("gauge-check", dict(SU2_PROBLEM, rep={"generators": [[[0.0]]]}), "unknown builtin rep"),
    ("lift", dict(SU2_PROBLEM, rep="so5"), "unknown builtin rep 'so5'"),
], ids=["lift-neither", "lift-rep-does-not-close", "lift-rep-of-other-r", "k-not-ad-invariant",
        "non-compact", "no-fiber", "inline-generators", "unknown-name"])
def test_rep_input_errors_exit_64(tmp_path, capsys, command, problem, message):
    code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_USAGE
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line.startswith("error:")
    assert message in line


def test_a_named_rep_needs_no_ad_invariant_k(tmp_path, capsys):
    # the named generators close on su(2) whatever k is, so gauge-check runs
    problem = dict(SU2_PROBLEM, algebra=SU2_K123)
    code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["passed"] is True
    assert report["max_residual"] <= 1e-10


@pytest.mark.parametrize("tol", [0, -1e-5, "1e-5"])
def test_gauge_check_rejects_bad_tolerance(tmp_path, capsys, tol):
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["options"]["gauge_tol"] = tol
    code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_USAGE
    assert "gauge_tol" in out.err


BAD_OPTIONS = [("tol", "abc"), ("tol", None), ("tol", -1.0), ("fd_step", "abc"),
               ("fd_step", None), ("fd_step", 0), ("fd_step", float("inf")),
               ("gauge_tol", None), ("gauge_tol", True), ("seed", "abc"), ("seed", None),
               ("seed", 1.5), ("seed", -1)]


@pytest.mark.parametrize("command", ["curvature", "gauge-check", "validate"])
@pytest.mark.parametrize("name,value", BAD_OPTIONS)
def test_bad_option_value_exits_64(tmp_path, capsys, command, name, value):
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["options"][name] = value
    code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_USAGE
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert out.err.startswith(f"error: option {name} must be")


def test_options_must_be_an_object(tmp_path, capsys):
    problem = dict(SU2_PROBLEM, options=[["seed", 1]])
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_USAGE
    assert out.err == "error: 'options' must be an object\n"


@pytest.mark.parametrize("command,flag,value", [
    ("curvature", "--fd-step", "0"), ("validate", "--tol", "nan"), ("gauge-check", "--seed", "-2"),
    ("identities", "--tol", "-1"), ("identities", "--tol", "nan"), ("identities", "--seed", "-1")])
def test_bad_option_override_exits_64(tmp_path, capsys, command, flag, value):
    argv = (["identities", "--n", "3"] if command == "identities"
            else [command, "--input", write_problem(tmp_path, SU2_PROBLEM)])
    code, out = run(capsys, argv + [flag, value])
    assert code == EXIT_USAGE
    assert out.out == ""
    assert out.err.startswith(f"error: option {flag[2:].replace('-', '_')} must be")


@pytest.mark.parametrize("argv", [
    ["lift", "--trials", "7"], ["lift", "--seed", "9"], ["identities", "--n", "3", "--fd-step", "99"],
    ["curvature", "--tol", "1e-3"], ["curvature", "--seed", "2"], ["validate", "--fd-step", "0.1"],
    ["gauge-check", "--trials", "3"]], ids="-".join)
def test_unread_option_flag_exits_64(tmp_path, capsys, argv):
    # each subcommand accepts only the flags it reads; argparse rejects the rest
    if argv[0] != "identities":
        argv = argv[:1] + ["--input", write_problem(tmp_path, SU2_PROBLEM)] + argv[1:]
    code, out = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err


def test_identities_accepts_an_exact_tolerance(capsys):
    # the identity residuals come from integer-coefficient forms: tol 0 is exact
    code, out = run(capsys, ["identities", "--n", "3", "--tol", "0"])
    assert code == EXIT_OK
    assert json.loads(out.out)["config"]["tol"] == 0.0


def test_gauge_check_sweeps_in_blocks_of_32_points(tmp_path, capsys, monkeypatch):
    geometry = count_calls(monkeypatch, basegeo, ["geometry_at_point"])
    calls = count_calls(monkeypatch, gauge, ["assemble_omega", "riemann_direct", "expm"])
    group = count_calls(monkeypatch, bundle, ["expm"])
    problem = json.loads(json.dumps(SU2_PROBLEM))
    problem["fields"]["lattice"]["steps"] = [3, 11]
    code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    assert len(json.loads(out.out)["per_point"]) == 33
    assert geometry == {"geometry_at_point": 2}
    # one exp per block for the drawn group elements, and one per block for
    # all fiber stencil points, which do not depend on the base point
    assert calls == {"assemble_omega": 2, "riemann_direct": 2, "expm": 2}
    assert group == {"expm": 2}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("fields", [
    {"lattice": None, "points": []},
    {"lattice": {"min": [-0.5, -0.5], "max": [0.5, 0.5], "steps": [0, 2]}},
], ids=["no-points", "empty-lattice"])
@pytest.mark.parametrize("command", ["curvature", "gauge-check"])
def test_an_empty_sweep_reports_no_rows(tmp_path, capsys, command, fields, fmt):
    path = write_problem(tmp_path, with_fields(**fields))
    code, out = run(capsys, [command, "--input", path, "--format", fmt])
    assert code == EXIT_OK
    assert out.err == ""
    if command == "curvature":
        want = {"summary": {"points": 0, "max_einstein_residual": 0.0,
                            "max_yang_mills_residual": 0.0, "max_cross_check": 0.0}}
    else:
        want = {"passed": True, "max_residual": 0.0}
    if fmt == "json":
        report = json.loads(out.out)
        assert report["per_point"] == []
        assert {key: report[key] for key in want} == want
    else:  # the empty row list is a leaf of its own
        lines = out.out.splitlines()
        assert [line for line in lines if line.startswith("per_point")] == ["per_point,[]"]
        flat = ([f"summary.{key},{value}" for key, value in want["summary"].items()]
                if command == "curvature" else [f"{key},{value}" for key, value in want.items()])
        assert set(flat) <= set(lines)


def test_gauge_check_report_ignores_point_order(tmp_path, capsys):
    points = [[0.1 * i - 0.3, 0.05 * i * i - 0.4] for i in range(40)]
    reports = []
    for order in (points, points[::-1], points[1::2] + points[::2]):
        problem = with_fields(lattice=None, points=order)
        code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, problem)])
        assert code == EXIT_OK
        report = json.loads(out.out)
        reports.append({k: report[k] for k in ("passed", "max_residual", "per_point")})
    assert reports[0] == reports[1] == reports[2]
    assert [r["point"] for r in reports[0]["per_point"]] == sorted(points)


def test_gauge_check_nan_residual_is_a_violation(tmp_path, capsys, monkeypatch):
    exact = gauge.verify_gauge_covariance
    second = [-0.5, 0.5]  # the second of the four sorted lattice points

    def nan_at_second_point(geom, g):
        at = np.all(geom.point == second, axis=-1)
        return np.where(at, np.nan, exact(geom, g))

    monkeypatch.setattr(gauge, "verify_gauge_covariance", nan_at_second_point)
    code, out = run(capsys, ["gauge-check", "--input", write_problem(tmp_path, SU2_PROBLEM)])
    assert code == EXIT_VIOLATION
    report = json.loads(out.out)
    assert report["passed"] is False
    assert math.isnan(report["max_residual"])
    assert math.isnan(report["per_point"][1]["gauge_covariance_residual"])
    (line,) = out.err.strip().splitlines()
    assert "gauge_covariance_residual = nan" in line
    assert str(second) in line


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@pytest.mark.parametrize("command", ["curvature", "gauge-check"])
def test_overflowing_frame_geometry_exits_70_in_one_line(tmp_path, capsys, command, deriv_mode):
    # e = 1e-200 I passes the scale-free degeneracy test, but E^-1 = 1e200 I
    # overflows the frame field strength: one line naming the first sorted
    # point, no report (so no bare NaN) and no numpy warning
    problem = with_fields(coframe=[["1e-200", "0"], ["0", "1e-200"]], lattice=None,
                          points=[[0.3, 0.1], [0.1, 0.2]], deriv_mode=deriv_mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_NUMERIC
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line.startswith("numeric failure: frame geometry is not finite at point (0.1, 0.2) (")


@pytest.mark.parametrize("deriv_mode", ["analytic", "fd"])
@pytest.mark.parametrize("command,array", [("curvature", "ricci"), ("gauge-check", "Omega")])
def test_overflowing_curvature_exits_70_in_one_line(tmp_path, capsys, command, array,
                                                    deriv_mode):
    # e = 1e-100 I keeps every frame array finite (F is about 1e199), but the
    # curvature products overflow: one line naming the first sorted point and
    # the curvature array, no report (so no bare NaN) and no numpy warning
    problem = with_fields(coframe=[["1e-100", "0"], ["0", "1e-100"]], lattice=None,
                          points=[[0.3, 0.1], [0.1, 0.2]], deriv_mode=deriv_mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_NUMERIC
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line == f"numeric failure: curvature is not finite at point (0.1, 0.2) ({array})"


@pytest.mark.parametrize("command", ["curvature", "gauge-check"])
@pytest.mark.parametrize("block,entry,source", [
    ("coframe", (0, 0), "1+sqrt(x1)"),
    ("gauge", (2, 1), "log(x1)"),
])
def test_domain_error_names_entry_and_point(tmp_path, capsys, command, block, entry,
                                            source):
    problem = with_fields(lattice=None, points=[[0.5, 0.1], [0.0, 0.25], [0.2, 0.3]])
    problem["fields"][block][entry[0]][entry[1]] = source
    code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_USAGE
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert f"{block}[{entry[0]}][{entry[1]}] = {source} at point [0.0, 0.25]" in line


@pytest.mark.parametrize("command", ["curvature", "gauge-check"])
def test_fd_domain_error_names_the_input_point(tmp_path, capsys, command):
    # sqrt(x1) holds at x1 = 0.001 but not on the stencil row 2 fd_step below
    problem = with_fields(lattice=None, points=[[0.001, 0.2]], deriv_mode="fd",
                          coframe=[["1 + sqrt(x1)", "0"], ["0", "1"]])
    code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_USAGE
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line.startswith("error: coframe[0][0] = 1+sqrt(x1) at point [0.001, 0.2]: fails on "
                           "its fd stencil row [-0.001, 0.2] (fd_step 0.001): ")


@pytest.mark.parametrize("command", ["curvature", "gauge-check"])
def test_fd_degenerate_frame_names_the_input_point(tmp_path, capsys, command):
    # the frame holds at x1 = 0.001 but is degenerate on the stencil row one
    # fd_step below; an fd stencil that crosses a degenerate frame stays a
    # numeric failure, while the analytic route evaluates the point
    problem = with_fields(lattice=None, points=[[0.001, 0.2]], deriv_mode="fd",
                          coframe=[["x1", "0"], ["0", "1"]])
    code, out = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_NUMERIC
    assert out.out == ""
    (line,) = out.err.strip().splitlines()
    assert line == ("numeric failure: coframe matrix is degenerate at point (0.001, 0.2): "
                    "fails on its fd stencil row [0.0, 0.2] (fd_step 0.001) "
                    "(det(e / max|e|) = 0.000e+00)")
    problem["fields"].pop("deriv_mode")
    code, _ = run(capsys, [command, "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# report encoding


def test_sweep_report_parses_to_what_the_standard_encoder_writes(tmp_path, capsys,
                                                                  monkeypatch):
    # orjson spells some numbers differently (1e-5 for 1e-05), but each value
    # must come back bit for bit: compare the reprs of the parsed values
    reports = []
    emit = cli._emit

    def recorded(report, args):
        reports.append(report)
        emit(report, args)

    monkeypatch.setattr(cli, "_emit", recorded)
    points = [[1e-5, -2e-5], [3e-5, 4e-6], [0.25, -0.125]]
    code, out = run(capsys, ["curvature", "--input",
                             write_problem(tmp_path, with_fields(lattice=None, points=points))])
    assert code == EXIT_OK
    (report,) = reports
    stdlib = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert "e-05" in stdlib and out.out != stdlib + "\n"  # orjson wrote it
    assert json.dumps(json.loads(out.out), sort_keys=True) == json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("options", [{"seed": 2**70}, {"seed": 1, "label": "Λ-vacuum"}],
                         ids=["int-beyond-64-bits", "non-ascii"])
def test_a_report_orjson_cannot_write_goes_through_json(tmp_path, capsys, options):
    # orjson refuses an int beyond 64 bits and leaves non-ASCII text unescaped
    problem = {**SU2_PROBLEM, "options": options}
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    assert out.out.isascii()
    report = json.loads(out.out)
    assert report["summary"]["points"] == len(report["per_point"]) == 4
    assert {key: report["config"]["options"][key] for key in options} == options


def test_a_gauge_check_without_a_named_rep_is_written_by_orjson(tmp_path, capsys):
    # a curvature report whose config holds a null option: orjson writes a
    # null as json.dumps does, so only a NaN or an infinity sends a report to
    # json.dumps (gauge-check reports are always written by json.dumps)
    points = [[1e-5, -2e-5], [3e-5, 4e-6]]
    problem = with_fields(lattice=None, points=points)
    problem["options"]["label"] = None
    code, out = run(capsys, ["curvature", "--input", write_problem(tmp_path, problem)])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert report["config"]["options"]["label"] is None
    stdlib = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert "e-05" in stdlib and "e-05" not in out.out  # orjson wrote it


def test_a_gauge_check_report_is_written_by_json(tmp_path, capsys):
    # a gauge-check row carries 4 numbers, too few to pay for orjson's import
    path = write_problem(tmp_path, with_fields(lattice=None, points=[[1e-5, -2e-5]]))
    code, out = run(capsys, ["gauge-check", "--input", path])
    assert code == EXIT_OK
    report = json.loads(out.out)
    assert out.out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert "e-05" in out.out


def test_csv_quotes_keys_and_values_that_need_it(tmp_path, capsys):
    # RFC 4180: a field holding a comma, a quote or a line break is quoted
    # and its quotes doubled, so csv.reader gives back every key and value
    options = {"x,y": 2, "note": "a\nb", 'say "hi"': "c\r\nd", "plain": "e"}
    problem = {"algebra": {"builtin": "su2", "n": 2}, "options": options}
    code, out = run(capsys, ["validate", "--input", write_problem(tmp_path, problem),
                             "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out.out, newline="")))
    assert all(len(row) == 2 for row in rows)
    got = {key: value for key, value in rows}
    for key, value in options.items():
        assert got[f"config.options.{key}"] == str(value)
    assert "config.options.plain,e\n" in out.out  # plain fields stay bare


def csv_lines(text, prefix):
    """The (key, value) pairs of the lines of a CSV report under ``prefix``."""
    return [line.split(",", 1) for line in text.splitlines() if line.startswith(prefix)]


def nan_at_second_point(monkeypatch, command):
    """Make the second point's cross-check (curvature) or gauge residual NaN."""
    if command == "curvature":
        exact = kkcurv.ricci_closed_form

        def patched(geom):
            closed = exact(geom)
            ric_base = closed.ric_base.copy()
            ric_base[1] = np.nan
            return closed._replace(ric_base=ric_base)

        monkeypatch.setattr(kkcurv, "ricci_closed_form", patched)
    else:
        exact = gauge.verify_gauge_covariance

        def patched(geom, g):
            residual = exact(geom, g).copy()
            residual[1] = np.nan
            return residual

        monkeypatch.setattr(gauge, "verify_gauge_covariance", patched)


@pytest.mark.parametrize("rows", ["finite", "nan-row", "empty"])
@pytest.mark.parametrize("command, deriv_mode", [
    ("curvature", "analytic"), ("curvature", "fd"), ("gauge-check", "analytic"),
], ids=["curvature", "curvature-fd", "gauge-check"])
def test_the_csv_rows_are_the_json_rows(tmp_path, capsys, monkeypatch, command, deriv_mode,
                                        rows):
    # curvature writes its CSV rows from the sweep's columns: it must give the
    # keys and order of flattening the JSON rows, each value bit for bit,
    # spelled as the JSON report spells it, and str()'s nan where a row holds
    # a NaN; gauge-check's CSV is the flattener's own
    import orjson

    points = [] if rows == "empty" else [[1e-5, -2e-5], [3e-5, 4e-6], [0.25, -0.125]]
    if rows == "nan-row":
        nan_at_second_point(monkeypatch, command)
    path = write_problem(tmp_path, with_fields(lattice=None, points=points,
                                               deriv_mode=deriv_mode))
    want_code = EXIT_VIOLATION if rows == "nan-row" else EXIT_OK
    code, out = run(capsys, [command, "--input", path])
    assert code == want_code
    flat = []
    cli._csv_lines("per_point", json.loads(out.out)["per_point"], flat)
    want = [line.split(",", 1) for line in flat]
    code, out = run(capsys, [command, "--input", path, "--format", "csv"])
    assert code == want_code
    got = csv_lines(out.out, "per_point")
    assert [key for key, _ in got] == [key for key, _ in want]
    if rows == "finite" and command == "curvature":
        assert [float(value).hex() for _, value in got] == [
            float(value).hex() for _, value in want]
        assert [value for _, value in got] == [
            orjson.dumps(float(value)).decode() for _, value in want]
        assert any("e-05" in value for _, value in want)  # str() spells it otherwise
    else:  # the flattener's own spelling: str(), nan, and [] for no rows
        assert got == want
    if rows == "nan-row":
        name = "cross_check_max" if command == "curvature" else "gauge_covariance_residual"
        assert [f"per_point[1].{name}", "nan"] in got
    if rows == "empty":
        assert got == [["per_point", "[]"]]


# ---------------------------------------------------------------------------
# report metadata


def test_report_embeds_config_digest(tmp_path, capsys):
    path = write_problem(tmp_path, {"algebra": {"builtin": "su2", "n": 2}})
    _, out = run(capsys, ["validate", "--input", path])
    report = json.loads(out.out)
    assert len(report["config_digest"]) == 16
    assert report["wall_time_s"] >= 0.0
    assert "jobs" not in report["config"]["options"]


# ---------------------------------------------------------------------------
# runtime dependencies: numpy only, scipy is a test oracle, and the identity
# suite runs on the standard library alone

ROOT = pathlib.Path(__file__).resolve().parent.parent
WITHOUT = ROOT / "tests" / "without.py"  # runs a script with one package blocked


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                          text=True, timeout=300)


def loaded_kkgeom_modules(code, argv=()):
    """The kkgeom submodules loaded by a fresh interpreter running ``code``."""
    proc = run_python(["-c", code + "\nimport sys\nprint(' '.join(sorted("
                             "m for m in sys.modules if m.startswith('kkgeom.'))))",
                       *argv])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_loads_no_submodule():
    assert loaded_kkgeom_modules("import kkgeom") == set()
    assert loaded_kkgeom_modules("from kkgeom import wedge") == {"kkgeom.exterior",
                                                                 "kkgeom.errors"}


def test_cli_import_loads_only_errors():
    assert loaded_kkgeom_modules("import kkgeom.cli") == {"kkgeom.cli", "kkgeom.errors"}


def test_bundle_import_loads_no_base_geometry():
    # the fiber group needs the algebra alone; the fiber-chart checks that
    # need basegeo and kkcurv too live in gauge
    assert loaded_kkgeom_modules("import kkgeom.bundle") == {"kkgeom.bundle", "kkgeom.errors",
                                                             "kkgeom.liealg"}


# the kkgeom modules each subcommand loads besides cli and errors: the ones it
# imports when it is dispatched and theirs; so validate and identities load
# none of basegeo, bundle, kkcurv or fieldexpr, curvature neither bundle nor
# exterior, and lift neither basegeo nor kkcurv
FOOTPRINTS = {
    "validate": {"liealg"},
    "identities": {"exterior"},
    "lift": {"bundle", "fieldexpr", "liealg"},
    "curvature": {"basegeo", "kkcurv", "fieldexpr", "liealg"},
    "gauge-check": {"basegeo", "bundle", "gauge", "kkcurv", "fieldexpr", "liealg"},
}


RUN_MAIN = "import sys\nfrom kkgeom.cli import main\nassert main(sys.argv[1:]) == 0"


def command_argv(tmp_path, command):
    argv = [command, "--out", str(tmp_path / "report.json")]
    return argv + (["--n", "4", "--trials", "3"] if command == "identities"
                   else ["--input", write_problem(tmp_path, SU2_PROBLEM)])


@pytest.mark.parametrize("command", sorted(FOOTPRINTS))
def test_each_command_loads_only_its_modules(tmp_path, command):
    loaded = loaded_kkgeom_modules(RUN_MAIN, command_argv(tmp_path, command))
    assert loaded == {f"kkgeom.{name}" for name in FOOTPRINTS[command] | {"cli", "errors"}}


@pytest.mark.parametrize("command", [None, *sorted(FOOTPRINTS), *(
    f"{name} --format csv" for name in ("curvature", "gauge-check", "lift", "validate"))])
def test_only_the_sweep_commands_load_orjson(tmp_path, command):
    # orjson's import (datetime, uuid, platform, zoneinfo) is paid only by
    # curvature, whose rows carry N^2 + 6 numbers per point, in JSON and in
    # CSV; gauge-check's 4 numbers a row do not pay for it, and the bare
    # import loads it nowhere
    name, *flags = command.split() if command else [None]
    code, argv = ((RUN_MAIN, command_argv(tmp_path, name) + flags) if command
                  else ("import sys, kkgeom.cli", []))
    proc = run_python(["-c", code + "\nprint('orjson' in sys.modules)", *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(name == "curvature")]


def test_no_command_loads_numpy_random(tmp_path):
    # gauge-check draws from Python's random, already loaded; numpy.random
    # would cost a cold command about 8 ms: run every command in both formats
    # in one process, then look
    runs = [command_argv(tmp_path, name) + ["--format", fmt]
            for name in sorted(FOOTPRINTS) for fmt in ("json", "csv")]
    code = ("import json, sys\nfrom kkgeom.cli import main\n"
            "print([main(argv) for argv in json.loads(sys.argv[1])],\n"
            "      sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    proc = run_python(["-c", code, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[EXIT_OK] * len(runs)} []"


def test_every_exported_name_is_defined_by_its_module():
    exported = [name for names in kkgeom._EXPORTS.values() for name in names]
    assert kkgeom.__all__ == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert set(kkgeom.__all__) <= set(dir(kkgeom))
    for module_name, names in kkgeom._EXPORTS.items():
        module = importlib.import_module(f"kkgeom.{module_name}")
        # a module's own public list holds every name the package exports from it
        assert set(names) <= set(getattr(module, "__all__", names)), module_name
        for name in names:
            value = getattr(kkgeom, name)
            assert vars(module)[name] is value
            if callable(value):  # a class or function, not a constant
                assert value.__module__ == module.__name__, name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'expm'"):
        kkgeom.expm  # defined in kkgeom.bundle, but not exported
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(kkgeom, "no_such_name")
    with pytest.raises(ImportError):
        from kkgeom import no_such_name  # noqa: F401


def test_cli_import_loads_no_scipy():
    proc = run_python(["-c", "import sys, kkgeom.cli; "
                             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["curvature", "gauge-check", "lift"])
def test_commands_run_without_scipy(tmp_path, command):
    path = write_problem(tmp_path, SU2_PROBLEM)
    proc = run_python([str(WITHOUT), "scipy", "-m", "kkgeom.cli", command,
                       "--input", path, "--out", str(tmp_path / "report.json")])
    assert proc.returncode == EXIT_OK, proc.stderr


def test_scipy_blocker_blocks_scipy(tmp_path):
    script = tmp_path / "uses_scipy.py"
    script.write_text("import scipy.linalg\n")
    proc = run_python([str(WITHOUT), "scipy", str(script)])
    assert proc.returncode != 0
    assert "scipy is blocked" in proc.stderr


@pytest.mark.parametrize("code", [
    "import kkgeom.cli",
    "from kkgeom import check_identities",
    "import os, kkgeom.cli\n"
    "assert kkgeom.cli.main(['identities', '--n', '6', '--out', os.devnull]) == 0",
    *(f"import os, sys, kkgeom.cli\nassert kkgeom.cli.main(['validate', '--format', '{fmt}', "
      "'--input', sys.argv[1], '--out', os.devnull]) == 0" for fmt in ("json", "csv")),
])
def test_identity_path_loads_no_numpy_or_dataclasses(tmp_path, code):
    # identities and validate run on the standard library alone
    path = write_problem(tmp_path, SU2_PROBLEM)
    proc = run_python(["-c", code + "\nimport sys\nprint(sorted(m for m in sys.modules "
                             "if m.partition('.')[0] in ('numpy', 'dataclasses')))", path])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_runs_without_numpy(tmp_path):
    # every report, passing or failing, in JSON or CSV, is the one written
    # with numpy importable
    for algebra, want in (({"builtin": "u1_su2", "n": 2}, EXIT_OK),
                          (BROKEN_ALGEBRA, EXIT_VIOLATION)):
        path = write_problem(tmp_path, {"algebra": algebra})
        for fmt in ("json", "csv"):
            reports = {}
            for blocked in ("numpy", None):
                out = tmp_path / f"without_{blocked}.{fmt}"
                args = ["-m", "kkgeom.cli", "validate", "--input", path, "--format", fmt,
                        "--out", str(out)]
                proc = run_python([str(WITHOUT), blocked, *args] if blocked else args)
                assert proc.returncode == want, proc.stderr
                text = out.read_text()
                reports[blocked] = (normalized(text) if fmt == "json" else
                                    [ln for ln in text.splitlines()
                                     if not ln.startswith("wall_time_s,")])
            assert reports["numpy"] == reports[None], (algebra, fmt)


def test_identities_run_without_numpy(tmp_path):
    reports = {}
    for blocked in ("numpy", None):
        out = tmp_path / f"without_{blocked}.json"
        args = ["-m", "kkgeom.cli", "identities", "--n", "6", "--out", str(out)]
        proc = run_python([str(WITHOUT), blocked, *args] if blocked else args)
        assert proc.returncode == EXIT_OK, proc.stderr
        reports[blocked] = json.loads(out.read_text())
        reports[blocked].pop("wall_time_s")
    assert reports["numpy"] == reports[None]
    assert reports[None]["passed"] and reports[None]["config"]["n"] == 6


def test_computing_commands_run_without_dataclasses(tmp_path):
    # the records are namedtuples: no command imports dataclasses, and every
    # report is the same with the module blocked
    path = write_problem(tmp_path, {**SU2_PROBLEM, "rep": "su2_as_so3", "paths": [
        {"g0": "identity", "v": ["sin(3*x1)", "x1", "cos(2*x1)"], "steps": 50}]})
    fd = write_problem(tmp_path, with_fields(deriv_mode="fd"), "fd.json")
    for argv in (["validate", "--input", path], ["curvature", "--input", path],
                 ["curvature", "--input", fd], ["lift", "--input", path],
                 ["gauge-check", "--input", path]):
        reports = {}
        for blocked in ("dataclasses", None):
            out = tmp_path / f"without_{blocked}.json"
            args = ["-m", "kkgeom.cli", *argv, "--out", str(out)]
            proc = run_python([str(WITHOUT), blocked, *args] if blocked else args)
            assert proc.returncode == EXIT_OK, (argv, proc.stderr)
            reports[blocked] = normalized(out.read_text())
        assert reports["dataclasses"] == reports[None], argv
    script = tmp_path / "exports.py"
    script.write_text("import sys\nimport kkgeom\n"
                      "names = [n for names in kkgeom._EXPORTS.values() for n in names]\n"
                      "for name in names:\n    getattr(kkgeom, name)\n"
                      "print(len(names), 'dataclasses' in sys.modules)\n")
    proc = run_python([str(WITHOUT), "dataclasses", str(script)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(sum(map(len, kkgeom._EXPORTS.values()))), "False"]


def test_numpy_blocker_blocks_numpy(tmp_path):
    script = tmp_path / "uses_numpy.py"
    script.write_text("import numpy\n")
    proc = run_python([str(WITHOUT), "numpy", str(script)])
    assert proc.returncode != 0
    assert "numpy is blocked: numpy" in proc.stderr
