"""Fuzz the exit-code contract of ``kkgeom.cli.main``.

Seed problems (the README su(2) problem, an n = 3 and an n = 4 problem
shaped like the benchmark's probes, and an inline algebra) are mutated one
JSON node at a time: the node is dropped, or replaced by a value of the
wrong type (a numeric string among them), a NaN or an infinity, a zero, negative or capped large count, an
empty list, a ragged array or a bad expression.  Every file command runs on
the mutant, and ``identities`` on drawn flags.  The contract:

- the exit code is 0, 2, 64 or 70, and no exception escapes ``main``;
- exit 64 or 70 writes nothing to stdout and one line to stderr;
- exit 0 or 2 writes a report that parses;
- a ``curvature`` or ``gauge-check`` that exits 64 also exits 64 with
  ``"points": []``, unless its error is about the point set (it names a
  point or the lattice, or the mutant changed the points or the lattice).

Counts are capped at 16, so no mutant allocates more than a few MB; the
``MemoryError`` path is tested by monkeypatching in ``test_cli.py``.
"""

import contextlib
import copy
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kkgeom.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

README = {
    "algebra": {"builtin": "su2", "n": 2},
    "fields": {
        "chart": {"n": 2},
        "coframe": [["1", "0"], ["0", "1 + 0.2*sin(x1)"]],
        "gauge": [["0.3*x2", "0"], ["0", "0.2*sin(x2)"], ["0.1*x2^2", "0"]],
        "lattice": {"min": [-0.5, -0.5], "max": [0.5, 0.5], "steps": [2, 2]},
    },
    "rep": "su2_as_so3",
    "paths": [{"g0": "identity", "v": ["sin(3*x1)", "x1", "cos(2*x1)"], "steps": 20}],
    "options": {"seed": 1},
}
SAMPLED_PATH = [{"v": [[0.0, 0.3, -0.2, 0.5], [1.0, 0.1, 0.2, -0.4]], "steps": 10}]
PROBE3 = {
    "algebra": {"builtin": "su2", "n": 3},
    "fields": {
        "chart": {"n": 3},
        "coframe": [["1 + 0.1*sin(x2)", "0.2*x3", "0"],
                    ["0", "1 + 0.15*cos(x1)", "0.05*x1*x3"],
                    ["0.1*x2^2", "0", "exp(0.2*x1)"]],
        "gauge": [["0.2*x2", "0", "0.3*x3"], ["0", "0.1*sin(x3)", "0.25*x1"],
                  ["0.15*x1*x2", "0.2*cos(x3)", "0"]],
        "points": [[0.1, -0.2, 0.3], [-0.25, 0.05, 0.15]],
        "deriv_mode": "fd",
    },
    "rep": "su2_as_so3",
    "paths": SAMPLED_PATH,
    "options": {"seed": 5, "fd_step": 1e-3},
}
PROBE4 = {
    "algebra": {"builtin": "u1_su2", "n": 4},
    "fields": {
        "chart": {"n": 4},
        "coframe": [["1 + 0.1*sin(x2)", "0.2*x3", "0", "0"],
                    ["0", "1 + 0.15*cos(x1)", "0", "0.05*x1*x4"],
                    ["0.1*x4^2", "0", "exp(0.2*x1)", "0"],
                    ["0", "0", "0.1*sin(x1 + x2)", "1 + 0.2*x3^2"]],
        "gauge": [["0.2*x2", "0", "0.3*x4", "0"], ["0", "0.1*sin(x3)", "0", "0.25*x1"],
                  ["0.15*x3*x4", "0", "0", "0.2*cos(x2)"], ["0", "0.1*x1^2", "0.3*x2", "0"]],
        "params": {"a": 0.5},
        "points": [[0.1, -0.2, 0.3, 0.0], [-0.25, 0.05, 0.15, 0.2]],
    },
    "paths": [{"v": ["a*x1", "0", "sin(x1)", "cos(x1)"], "steps": 10}],
    "options": {"seed": 2, "gauge_tol": 1e-5},
}
INLINE = {
    "algebra": {"n": 2, "r": 3,
                "c": [[2, 3, 4, 1.0], [3, 4, 2, 1.0], [4, 2, 3, 1.0],
                      [2, 4, 3, -1.0], [3, 2, 4, -1.0], [4, 3, 2, -1.0]],
                "h_b": [[1.0, 0.0], [0.0, 1.0]], "h_k": [[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]]},
    "fields": {
        "coframe": [["1 + 0.1*x2^2", "0.1*x1"], ["0", "1 + 0.2*sin(x1)"]],
        "gauge": [["0.3*x2", "0.1*x1"], ["0.1*x1*x2", "0.2*sin(x2)"], ["0.1*x2^2", "0"]],
        "points": [[0.2, -0.1]],
    },
    "paths": SAMPLED_PATH,
    "options": {"tol": 1e-9},
}
SEEDS = {"readme": README, "probe3": PROBE3, "probe4": PROBE4, "inline": INLINE}

DROP = "<drop>"  # remove the node from its parent
BAD_VALUES = [DROP, "x", "1", True, None, {}, [], [[1.0, 2.0], [3.0]], float("nan"),
              float("inf"), float("-inf"), 0, -1, 16, 2.5, "sin(", "x9"]
COMMANDS = ("validate", "curvature", "lift", "gauge-check")
SWEEPS = ("curvature", "gauge-check")


def node_paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from node_paths(child, path + (key,))


@st.composite
def mutants(draw):
    """(seed name, node path, bad value) for one mutation."""
    name = draw(st.sampled_from(sorted(SEEDS)))
    path = draw(st.sampled_from(list(node_paths(SEEDS[name]))))
    return name, path, draw(st.sampled_from(BAD_VALUES))


def mutated(name, path, value):
    problem = copy.deepcopy(SEEDS[name])
    if not path:
        return None if value == DROP else value
    parent = problem
    for key in path[:-1]:
        parent = parent[key]
    if value == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return problem


def run(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(command, fmt, code, out, err):
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_NUMERIC), (code, err)
    assert "Traceback" not in out + err
    if code in (EXIT_USAGE, EXIT_NUMERIC):
        assert out == ""
        if not err.startswith("usage:"):  # argparse's own usage errors run longer
            assert err.endswith("\n") and err.count("\n") == 1, err
    elif fmt == "json":
        assert json.loads(out)["command"] == command
    else:
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows)
        assert ["command", command] in rows


def about_the_points(path, err):
    return "point" in err or "lattice" in err or path[:2] in (
        ("fields", "points"), ("fields", "lattice"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(mutant=mutants(), fmt=st.sampled_from(["json", "csv"]))
@example(mutant=("readme", ("algebra", "builtin"), []), fmt="json")
@example(mutant=("readme", ("algebra", "builtin"), {}), fmt="csv")
@example(mutant=("readme", ("fields", "gauge", 2), DROP), fmt="json")
@example(mutant=("readme", ("algebra", "n"), DROP), fmt="csv")
def test_every_mutant_keeps_the_exit_code_contract(tmp_path, mutant, fmt):
    name, path, value = mutant
    problem = mutated(name, path, value)
    file, empty_file = tmp_path / "mutant.json", tmp_path / "no_points.json"
    file.write_text(json.dumps(problem))
    for command in COMMANDS:
        code, out, err = run([command, "--input", str(file), "--format", fmt])
        check_contract(command, fmt, code, out, err)
        if (command in SWEEPS and code == EXIT_USAGE and isinstance(problem, dict)
                and isinstance(problem.get("fields"), dict)
                and not about_the_points(path, err)):
            empty = copy.deepcopy(problem)
            empty["fields"].pop("lattice", None)
            empty["fields"]["points"] = []
            empty_file.write_text(json.dumps(empty))
            code, out, err_empty = run([command, "--input", str(empty_file), "--format", fmt])
            check_contract(command, fmt, code, out, err_empty)
            assert code == EXIT_USAGE, (command, err)


# the sections each file command reads from the seeds: every command reads
# the algebra (lift derives its rep from it, or checks the named rep on it)
# and the options
READS = {"algebra": COMMANDS, "options": COMMANDS, "fields": SWEEPS, "paths": ("lift",)}


def node(value, path):
    for key in path:
        value = value[key]
    return value


@pytest.mark.parametrize("value", [True, "1"], ids=repr)
@pytest.mark.parametrize("name", sorted(SEEDS))
def test_a_number_that_is_not_a_json_number_exits_64(tmp_path, name, value):
    # every number of a seed, replaced by true or "1", is an input error for
    # each command that reads its section: never read as 1.0 into a report
    file = tmp_path / "mutant.json"
    for path in node_paths(SEEDS[name]):
        number = node(SEEDS[name], path)
        if isinstance(number, bool) or not isinstance(number, (int, float)):
            continue
        file.write_text(json.dumps(mutated(name, path, value)))
        for command in READS[path[0]]:
            code, out, err = run([command, "--input", str(file)])
            check_contract(command, "json", code, out, err)
            assert code == EXIT_USAGE, (path, command, code, out[:200])


def flag(name, values):
    return st.one_of(st.none(), values).map(lambda v: [] if v is None else [f"--{name}={v}"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=flag("n", st.integers(-2, 6)), trials=flag("trials", st.integers(-2, 20)),
       seed=flag("seed", st.integers(-3, 2**70)),
       tol=flag("tol", st.one_of(st.floats(), st.sampled_from([0.0, -1e-5, 1e-12]))),
       fmt=st.sampled_from(["json", "csv"]))
def test_identities_keeps_the_exit_code_contract(n, trials, seed, tol, fmt):
    code, out, err = run(["identities", "--format", fmt] + n + trials + seed + tol)
    check_contract("identities", fmt, code, out, err)
