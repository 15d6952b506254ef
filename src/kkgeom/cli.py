"""Batch command-line front end.

Subcommands::

    kkgeom validate    --input problem.json            algebra hypothesis checks
    kkgeom identities  --n 5 --trials 500 --seed 0     coframe identity suite
    kkgeom curvature   --input problem.json            curvature / residual sweep
    kkgeom lift        --input problem.json            fiber path lifting
    kkgeom gauge-check --input problem.json            gauge covariance checks

All commands read a problem JSON (``{"algebra": …, "fields": …, "rep": …,
"paths": …, "options": …}``), write a JSON or CSV report to --out (default
stdout), and exit with 0 on success, 2 on an invariant violation, 64 on a
usage or input error (including malformed algebras, fields and points, and
field expressions that leave their real domain), and 70 on an internal
numeric failure.  A curvature sweep or a gauge check runs in one process:
its points are sorted and evaluated in fixed-size blocks, each block one
vectorised pass through the pipeline, so a report depends only on the
problem file.  ``gauge-check`` draws its random group element and fiber
point for each sorted point from the ``seed`` option, in point order.
Both commands exit 2 with one stderr line naming the worst point and
residual when a residual exceeds its rung of the tolerance ladder or is NaN,
and 70 with one line naming the first point where the frame geometry or the
curvature overflows.  JSON reports are compact: one line, keys sorted, no
indentation.

Each subcommand imports the kkgeom modules it runs on when it is dispatched:
``validate`` loads ``liealg``, ``identities`` ``exterior``, ``lift``
``bundle`` and ``fieldexpr``, ``curvature`` ``basegeo`` and ``kkcurv``, and
``gauge-check`` ``basegeo`` and ``bundle`` (with what they import), so a
cold process compiles and runs only those.  numpy is imported the same way,
by the commands that compute on arrays: ``identities`` runs on the standard
library alone (its ``--seed`` seeds Python's ``random``), so a cold identity
check loads no numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from .errors import (DegenerateCoframeError, DegenerateMetricError,
                     DegreeError, EvalDomainError, ExprSyntaxError,
                     KKGeomError, NonFiniteGeometryError, StructuralError,
                     UnknownIdentifierError)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70

# README tolerance ladder: exact identities, analytic and fd cross-checks
_TOL_EXACT = 1e-12
_TOL_ANALYTIC = 1e-6
_TOL_FD = 1e-3


class _UsageError(Exception):
    pass


def _load_problem(path):
    if path is None:
        raise _UsageError("--input is required for this command")
    try:
        with open(path) as f:
            problem = json.load(f)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(problem, dict):
        raise _UsageError(f"{path} must hold a JSON object, got {type(problem).__name__}")
    return problem


def _algebra_from(problem):
    from . import liealg

    data = problem.get("algebra")
    if not isinstance(data, dict):
        raise _UsageError(f"problem JSON needs an 'algebra' object, got {data!r}")
    return liealg.load_spec(data)


def _digest(config) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


_START = None  # set by main() so reports can embed the wall time


def _report(command, config, body):
    wall = 0.0 if _START is None else time.monotonic() - _START
    return {
        "command": command,
        "config": config,
        "config_digest": _digest(config),
        "wall_time_s": wall,
        **body,
    }


def _emit(report, args):
    if args.format == "csv":
        text = _to_csv(report)
    else:
        # no indent: indent would force json's pure-Python encoder
        text = json.dumps(report, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _csv_rows(prefix, value, rows):
    if isinstance(value, dict):
        for key in sorted(value):
            _csv_rows(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _csv_rows(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, value))


def _to_csv(report):
    rows = []
    _csv_rows("", report, rows)
    lines = ["key,value"]
    for key, value in rows:
        text = str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def _options(problem, args):
    """Merge problem-file options with command-line overrides, checked."""
    opts = problem.get("options", {})
    if not isinstance(opts, dict):
        raise _UsageError("'options' must be an object")
    opts = dict(opts)
    for name in ("tol", "fd_step", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            opts[name] = val
    opts.setdefault("tol", 1e-10)
    opts.setdefault("fd_step", 1e-3)
    opts.setdefault("seed", 0)
    return _checked(opts)


def _checked(opts):
    """``opts``, once ``tol``, ``fd_step`` and ``gauge_tol`` are known to be
    positive finite numbers and ``seed`` a non-negative integer, where given."""
    for name in ("tol", "fd_step", "gauge_tol"):
        val = opts.get(name, 1.0)
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not 0 < val < math.inf:
            raise _UsageError(f"option {name} must be a positive finite number, got {val!r}")
    seed = opts.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise _UsageError(f"option seed must be a non-negative integer, got {seed!r}")
    return opts


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args):
    from . import liealg

    problem = _load_problem(args.input)
    opts = _options(problem, args)
    spec = _algebra_from(problem)
    report_obj = liealg.validate_spec(spec, tol=opts["tol"])
    checks = [
        {
            "name": c.name,
            "passed": bool(c.passed),
            "max_violation": c.max_violation,
            "worst_indices": list(c.worst_indices) if c.worst_indices else None,
        }
        for c in report_obj.checks
    ]
    body = {
        "passed": bool(report_obj.passed),
        "checks": checks,
        "unimodular": bool(report_obj.unimodular),
        "unimodular_violation": report_obj.unimodular_violation,
        "b_signature": list(report_obj.b_signature),
        "k_signature": list(report_obj.k_signature),
        "det_h": report_obj.det_h,
        "cosmological_constant": liealg.cosmological_constant(spec),
    }
    config = {"algebra": problem.get("algebra"), "options": opts}
    _emit(_report("validate", config, body), args)
    return EXIT_OK if report_obj.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# identities


def cmd_identities(args):
    from . import exterior

    n = args.n
    if n is None:
        raise _UsageError("identities needs --n")
    trials = args.trials if args.trials is not None else 200
    seed = args.seed if args.seed is not None else 0
    tol = args.tol if args.tol is not None else 1e-12
    if not 0 <= tol < math.inf:  # 0 asks for exact identities
        raise _UsageError(f"option tol must be a non-negative finite number, got {tol!r}")
    _checked({"seed": seed})
    try:
        rep = exterior.check_identities(n, trials=trials, seed=seed)
    except DegreeError as exc:
        raise _UsageError(str(exc)) from exc
    passed = rep.max_residual <= tol
    config = {"n": n, "trials": trials, "seed": seed, "tol": tol}
    body = {
        "passed": bool(passed),
        "residuals": {k: float(v) for k, v in sorted(rep.residuals.items())},
        "max_residual": float(rep.max_residual),
    }
    _emit(_report("identities", config, body), args)
    return EXIT_OK if passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# curvature

# Points per vectorised block of curvature and gauge-check: enough to amortise
# each stage's numpy call overhead, few enough that the block's arrays (4n fd
# stencil rows per point, and in gauge-check N^4 curvature numbers and
# (1 + 4r)^2 fiber stencil gauge maps) stay a few MB and peak memory stays flat.
_BLOCK = 32


def _curvature_rows(coframe, gauge, spec, points, deriv_mode, fd_step):
    """Report rows for a (count, n) block of points, one pipeline pass."""
    import numpy as np

    from . import basegeo, kkcurv

    geom = basegeo.geometry_at_point(coframe, gauge, spec, points,
                                     deriv_mode=deriv_mode, fd_step=fd_step)
    # a finite geometry can still overflow the curvature products (a tiny
    # frame makes F huge): that is caught as a non-finite Ricci, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        conn = kkcurv.assemble_omega(geom)
        direct = kkcurv.curvature_direct(conn)
        basegeo.check_finite(points, {"ricci": direct.ricci}, "curvature")
        closed = kkcurv.ricci_closed_form(geom)
        res = kkcurv.eym_residuals(closed)
        cross = kkcurv.cross_check(direct, closed)
        columns = {
            "point": points,
            "scalar_curvature": direct.scalar,
            "ricci": direct.ricci,
            "einstein_residual_norm": res.einstein_norm,
            "yang_mills_residual_norm": res.ym_norm,
            "cross_check_max": np.max(list(cross.values()), axis=0),
            "connection_antisymmetry": conn.antisymmetry_residual(),
            "connection_torsion": conn.torsion_residual(),
        }
    return _rows(columns)


def _rows(columns):
    """Report rows (dicts of Python values) from per-point column arrays."""
    import numpy as np

    values = [np.asarray(v).tolist() for v in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def _worst_violation(rows, limits):
    """(excess, name, limit, row) of the row invariant furthest past its
    tolerance, or None when every row holds; NaN counts as infinitely far.
    ``limits`` holds (column name, tolerance) pairs."""
    bad = [(math.inf if math.isnan(row[name]) else row[name] / limit, name, limit, row)
           for row in rows for name, limit in limits if not row[name] <= limit]
    return max(bad, key=lambda v: v[0], default=None)


def _exit_code(worst):
    """EXIT_OK, or one stderr line naming the worst violation and EXIT_VIOLATION."""
    if worst is None:
        return EXIT_OK
    _, name, limit, row = worst
    print(f"invariant violation: {name} = {row[name]:.3e} exceeds {limit:.0e} "
          f"at point {row['point']}", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_curvature(args):
    from . import basegeo

    problem = _load_problem(args.input)
    opts = _options(problem, args)
    spec = _algebra_from(problem)
    fields = problem.get("fields", {})
    _, coframe, gauge, points = basegeo.load_fields(fields, spec)
    deriv_mode = fields.get("deriv_mode", "analytic")
    rows = []
    for start in range(0, len(points), _BLOCK):
        rows += _curvature_rows(coframe, gauge, spec, points[start:start + _BLOCK],
                                deriv_mode, opts["fd_step"])

    summary = {
        "points": len(rows),
        "max_einstein_residual": max((r["einstein_residual_norm"] for r in rows), default=0.0),
        "max_yang_mills_residual": max((r["yang_mills_residual_norm"] for r in rows), default=0.0),
        "max_cross_check": max((r["cross_check_max"] for r in rows), default=0.0),
    }
    config = {"algebra": problem.get("algebra"), "fields": problem.get("fields"),
              "options": opts}
    _emit(_report("curvature", config, {"per_point": rows, "summary": summary}), args)
    limits = (("cross_check_max", _TOL_FD if deriv_mode == "fd" else _TOL_ANALYTIC),
              ("connection_torsion", _TOL_EXACT), ("connection_antisymmetry", _TOL_EXACT))
    return _exit_code(_worst_violation(rows, limits))


# ---------------------------------------------------------------------------
# lift


def _float_array(data, where):
    import numpy as np

    try:
        return np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"{where} must be a rectangular array of numbers") from exc


def _expression_velocity(sources):
    """v(t) for a list of expressions in x1: one batched evaluation per
    component over all the times."""
    import numpy as np

    from .fieldexpr import FieldProvider

    provs = [FieldProvider(s, n=1) for s in sources]

    def v(t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.stack([p.evaluate(t) for p in provs], axis=-1)

    return v


def _path_specs(problem, rep):
    """(PathSpec, steps) for each entry of the problem's 'paths' list."""
    from . import bundle

    entries = problem.get("paths")
    if not entries:
        raise _UsageError("problem JSON has no 'paths' section")
    if not isinstance(entries, list):
        raise _UsageError("'paths' must be a list of path objects")
    r = rep.spec.r
    out = []
    for i, entry in enumerate(entries):
        where = f"paths[{i}]"
        if not isinstance(entry, dict):
            raise _UsageError(f"{where} must be an object")
        v_data = entry.get("v")
        if not isinstance(v_data, list) or not v_data:
            raise _UsageError(f"{where} needs a non-empty 'v' list")
        steps = entry.get("steps", 100)
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
            raise _UsageError(f"{where}.steps must be a positive integer, got {steps!r}")
        g0_data = entry.get("g0", "identity")
        try:
            if g0_data == "identity":
                g0 = rep.identity_element()
            else:
                g0 = bundle.GroupElement(rep, _float_array(g0_data, f"{where}.g0"))
            if all(isinstance(e, str) for e in v_data):
                if len(v_data) != r:
                    raise _UsageError(f"{where} needs {r} velocity expressions, "
                                      f"got {len(v_data)}")
                path = bundle.PathSpec(rep, _expression_velocity(v_data), g0)
            else:
                samples = _float_array(v_data, f"{where}.v")
                if samples.ndim != 2 or samples.shape[1] != r + 1:
                    raise _UsageError(f"{where}.v rows must be [t, v1, ..., v{r}]")
                path = bundle.PathSpec.sampled(rep, samples[:, 0], samples[:, 1:], g0)
        except StructuralError as exc:
            raise _UsageError(f"{where}: {exc}") from exc
        out.append((path, steps))
    return out


def cmd_lift(args):
    import numpy as np

    from . import bundle

    problem = _load_problem(args.input)
    opts = _options(problem, args)
    rep_name = problem.get("rep")
    if rep_name is None:
        raise _UsageError("problem JSON has no 'rep' entry")
    rep = bundle.builtin_rep(rep_name)
    results = []
    for path, steps in _path_specs(problem, rep):
        coarse, fine = bundle.lift_and_halve(path, steps)
        err = float(np.abs(coarse[-1].matrix - fine[-1].matrix).max())
        results.append({
            "steps": steps,
            "final": coarse[-1].matrix.tolist(),
            "drift": coarse[-1].manifold_residual(),
            "step_halving_error": err,
        })
    config = {"rep": rep_name, "paths": problem.get("paths"), "options": opts}
    _emit(_report("lift", config, {"paths": results}), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gauge-check


def _gauge_rows(coframe, gauge, spec, rep, points, draws, deriv_mode, fd_step):
    """Report rows for a (count, n) block of points, one pass of each check;
    ``draws[i]`` holds the group-element and fiber-point normals of point i."""
    from . import basegeo, bundle

    geom = basegeo.geometry_at_point(coframe, gauge, spec, points,
                                     deriv_mode=deriv_mode, fd_step=fd_step)
    return _rows({
        "point": points,
        "deextra_residual": bundle.verify_deextra(geom, s=0.25 * draws[:, 1]),
        "gauge_covariance_residual": bundle.verify_gauge_covariance(geom, rep.exp(draws[:, 0])),
    })


def cmd_gauge_check(args):
    import numpy as np

    from . import basegeo, bundle

    problem = _load_problem(args.input)
    opts = _options(problem, args)
    spec = _algebra_from(problem)
    rep_name = problem.get("rep")
    if rep_name is None:
        raise _UsageError("problem JSON has no 'rep' entry")
    generators = bundle.builtin_rep(rep_name).T
    try:  # the generators must close on this problem's fiber constants
        rep = bundle.MatrixRep(spec, generators, rep_name)
    except StructuralError as exc:
        raise _UsageError(f"rep {rep_name!r} does not represent the algebra: {exc}") from exc
    fields = problem.get("fields", {})
    _, coframe, gauge, points = basegeo.load_fields(fields, spec)
    deriv_mode = fields.get("deriv_mode", "analytic")
    rng = np.random.default_rng(opts["seed"])
    tol = opts.get("gauge_tol", 1e-5)
    rows = []
    for start in range(0, len(points), _BLOCK):
        block = points[start:start + _BLOCK]
        # the stream order of a per-point loop: g's normals, then s's, point by point
        draws = rng.normal(size=(len(block), 2, rep.spec.r))
        rows += _gauge_rows(coframe, gauge, spec, rep, block, draws, deriv_mode,
                            opts["fd_step"])
    limits = (("deextra_residual", tol), ("gauge_covariance_residual", tol))
    worst = _worst_violation(rows, limits)
    config = {"algebra": problem.get("algebra"), "fields": problem.get("fields"),
              "rep": rep_name, "options": opts}
    residuals = np.array([[row[name] for name, _ in limits] for row in rows])
    body = {"passed": worst is None, "tolerance": tol,
            "max_residual": float(residuals.max(initial=0.0)),  # NaN propagates
            "per_point": rows}
    _emit(_report("gauge-check", config, body), args)
    return _exit_code(worst)


# ---------------------------------------------------------------------------
# driver


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kkgeom",
        description="batch runner for the reduction-geometry checks")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand accepts only the option flags it reads
    flag_types = {"--tol": float, "--fd-step": float, "--trials": int, "--seed": int}

    def command(name, help, *flags, needs_input=True):
        p = sub.add_parser(name, help=help)
        if needs_input:
            p.add_argument("--input", help="problem JSON file")
        p.add_argument("--out", help="report file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag in flags:
            p.add_argument(flag, type=flag_types[flag])
        return p

    command("validate", "algebra hypothesis checks", "--tol")
    p_id = command("identities", "coframe identity suite", "--tol", "--trials", "--seed",
                   needs_input=False)
    p_id.add_argument("--n", type=int, default=None, help="coframe dimension")
    command("curvature", "curvature and residual sweep", "--fd-step")
    command("lift", "fiber path lifting")
    command("gauge-check", "gauge covariance verification", "--fd-step", "--seed")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "identities": cmd_identities,
    "curvature": cmd_curvature,
    "lift": cmd_lift,
    "gauge-check": cmd_gauge_check,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    global _START
    _START = time.monotonic()
    try:
        code = _COMMANDS[args.command](args)
    except (_UsageError, StructuralError, ExprSyntaxError, UnknownIdentifierError,
            EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateCoframeError, DegenerateMetricError, NonFiniteGeometryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KKGeomError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:  # numpy's LinAlgError among them
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
