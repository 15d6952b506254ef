"""Batch command-line front end.

Subcommands::

    kkgeom validate    --input problem.json            algebra hypothesis checks
    kkgeom identities  --n 5 --trials 500 --seed 0     coframe identity suite
    kkgeom curvature   --input problem.json            curvature / residual sweep
    kkgeom lift        --input problem.json            fiber path lifting
    kkgeom gauge-check --input problem.json            gauge covariance checks

All commands but ``identities`` read a problem JSON (``{"algebra": …,
"fields": …, "rep": …, "paths": …, "options": …}``; ``lift`` and
``gauge-check`` derive the fiber rep from the algebra unless ``rep`` names a
built-in one), write a JSON or CSV report to --out (default stdout), and
exit with 0 on success, 2 on an invariant violation, 64 on a usage or input
error (including malformed algebras, fields and points, and field
expressions that leave their real domain), and 70 on an internal numeric
failure, a failed allocation among them.  One reader, ``_read``, loads the
file, checks the options and hands each section the command reads (listed
in ``_COMMANDS``) to its owner's loader, in this order: ``liealg.load_spec``,
``bundle.load_rep``, ``basegeo.load_fields`` (the fields' record, with their
derivative mode), ``bundle.load_paths``; it reads no key of a section itself.
Each number goes through ``liealg._number`` (arrays through ``_numbers``),
which names a bool, a string, a null or a non-finite entry by its JSON path.
The report's ``config`` holds the same sections, and each command reads the
record ``_read`` returns: every input error exits 64 before any compute, even
on no points.  ``curvature`` and ``gauge-check`` run one sweep driver,
``_sweep``: it cuts the loaded fields' sorted points into fixed-size blocks,
each block one geometry pass and one vectorised pass of the command's columns,
so a report depends only on the problem file.  The driver returns one array
per column, point axis first, joined over the blocks: the summary maxima and
the worst violation are taken from those arrays, and the report rows are built
from them once.  ``gauge-check`` draws its random group
element and fiber point for each sorted point, in point order, from
Python's ``random.Random`` seeded with the ``seed`` option: r normals for
the group element, then r for the fiber point.  Both commands exit 2 with
one stderr line naming the worst point and residual when a residual exceeds
its rung of the tolerance ladder or is NaN, and 70 with one line naming the
first point where the frame geometry or the curvature overflows.  JSON
reports are compact: one line, keys sorted, separators without spaces.  The
``curvature`` report, whose rows carry N^2 + 6 numbers per point, is written
by orjson, which spells some numbers differently from ``json.dumps`` (``1e-5``
for ``1e-05``) but writes the same values bit for bit; a report orjson cannot
write faithfully (a NaN or infinity, which it would write as null, found by
``np.isfinite`` over the columns and a walk of the rest; non-ASCII text; or an
int beyond 64 bits) goes through ``json.dumps``, as every other report does,
``gauge-check``'s among them (4 numbers a row do not pay for orjson's import).
A CSV report has one ``key,value`` line per leaf of the flattened report,
a key or value holding a comma, a quote or a line break quoted as RFC 4180
asks; the per-point lines of a ``curvature`` sweep are written from the
columns, their numbers spelled as the JSON report spells them, or by
``str()`` (``nan``, ``inf``) when a column holds a NaN or an infinity.

Each subcommand imports the kkgeom modules it runs on when it is dispatched:
``validate`` loads ``liealg``, ``identities`` ``exterior``, ``lift``
``bundle`` and ``fieldexpr``, ``curvature`` ``basegeo`` and ``kkcurv``, and
``gauge-check`` ``basegeo``, ``bundle`` and ``gauge`` (with what they
import; ``bundle`` imports ``liealg`` alone, so ``lift`` loads no base
geometry), so a cold process compiles and runs only those.  numpy is
imported the same way, by the commands that compute on arrays:
``identities`` (its ``--seed`` seeds Python's ``random``) and ``validate``
(the algebra checks and the cosmological constant run on the spec's Python
data) run on the standard library alone, so neither loads numpy; no
command loads ``numpy.random``; and only ``curvature`` loads orjson.
``validate`` exits 70 with one line naming det h, the residual or the
cosmological constant that overflows to an infinity or a NaN.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
import types

from .errors import (DegenerateCoframeError, DegenerateMetricError,
                     DegreeError, EvalDomainError, ExprSyntaxError,
                     NonFiniteAlgebraError, NonFiniteGeometryError,
                     StructuralError, UnknownIdentifierError)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70

# README tolerance ladder: exact identities, analytic and fd cross-checks
_TOL_EXACT = 1e-12
_TOL_ANALYTIC = 1e-6
_TOL_FD = 1e-3


_START = None  # set by main() so reports can embed the wall time


def _report(command, config, body):
    wall = 0.0 if _START is None else time.monotonic() - _START
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "command": command,
        "config": config,
        "config_digest": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "wall_time_s": wall,
        **body,
    }


# the commands whose reports orjson writes: a curvature row carries N^2 + 6
# numbers per point, which pays for orjson's import (datetime, uuid, platform,
# zoneinfo); a gauge-check row carries 4, and the small reports fewer still
_ORJSON_COMMANDS = ("curvature",)


def _emit(report, args):
    fast = args.command in _ORJSON_COMMANDS
    if args.format == "csv":
        text = _to_csv(report, fast)
    else:
        text = _to_json(report, fast) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


class _Rows(list):
    """Report rows, one dict per point, that keep the per-point ``columns``
    they were built from (arrays with the point axis first), so the writers
    can check and write the numbers as arrays."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        values = [column.tolist() for column in columns.values()]
        super().__init__(dict(zip(columns, row)) for row in zip(*values))
        self.columns = columns

    def finite(self):
        import numpy as np

        return all(np.isfinite(column).all() for column in self.columns.values())


def _finite(value):
    """False when ``value`` holds a NaN or an infinity: report rows are
    checked through their columns, the rest of the report walked."""
    if isinstance(value, _Rows):
        return value.finite()
    if isinstance(value, dict):
        return all(_finite(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(item) for item in value)
    return not isinstance(value, float) or math.isfinite(value)


def _to_json(report, fast):
    """``report`` as compact JSON, keys sorted; with ``fast``, through orjson
    where that writes what ``json.dumps`` would: orjson writes NaN and
    ±Infinity as null, keeps non-ASCII text unescaped and refuses an int
    beyond 64 bits, so a report with a non-finite float, a non-ASCII byte or
    such an int goes through ``json.dumps``."""
    if fast and _finite(report):
        import orjson

        try:
            data = orjson.dumps(report, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY)
        except orjson.JSONEncodeError:
            pass
        else:
            if data.isascii():
                return data.decode()
    # no indent: indent would force json's pure-Python encoder
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _csv_field(text):
    """``text`` as one CSV field (RFC 4180): quoted, its quotes doubled, when
    it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(prefix, value, lines, columns=False):
    """The CSV lines of ``value`` flattened under ``prefix``, one per leaf; an
    empty list or object is a leaf, so an empty row list still shows its key.
    With ``columns``, report rows with finite numbers are written from their
    columns."""
    if columns and isinstance(value, _Rows) and value and value.finite():
        lines.append(_csv_columns(prefix, value))
    elif isinstance(value, dict) and value:
        for key in sorted(value):
            _csv_lines(f"{prefix}.{key}" if prefix else str(key), value[key], lines, columns)
    elif isinstance(value, (list, tuple)) and value:
        for i, item in enumerate(value):
            _csv_lines(f"{prefix}[{i}]", item, lines, columns)
    else:
        lines.append(f"{_csv_field(prefix)},{_csv_field(str(value))}")


def _csv_columns(prefix, rows):
    """The CSV lines of ``rows`` under ``prefix``, written from their finite
    columns: the keys and order that flattening the rows gives, and each
    number as the JSON report spells it, from one orjson pass per column (so
    an integer column keeps its integer spelling)."""
    import numpy as np
    import orjson

    suffixes, cells = [], []
    for name in sorted(rows.columns):  # the order of the rows' sorted keys
        column = rows.columns[name]
        suffixes += [f".{name}" + "".join(f"[{i}]" for i in index)
                     for index in np.ndindex(column.shape[1:])]
        text = orjson.dumps(column.reshape(len(rows), -1),
                            option=orjson.OPT_SERIALIZE_NUMPY).decode()
        cells.append(text[2:-2].split("],["))  # "[[a,b],[c,d]]": "a,b" and "c,d"
    template = "\n".join(f"{prefix}[%s]{suffix},%s" for suffix in suffixes)
    lines = []
    for i, row in enumerate(zip(*cells)):
        args = [str(i)] * (2 * len(suffixes))  # the row index before each number
        args[1::2] = ",".join(row).split(",")
        lines.append(template % tuple(args))
    return "\n".join(lines)


def _to_csv(report, columns):
    lines = ["key,value"]
    _csv_lines("", report, lines, columns)
    return "\n".join(lines) + "\n"


def _read(args, sections):
    """The problem of ``args.command``, read and checked once, before any
    compute: a namespace of the checked ``options``, the report's ``config``
    and what the loader of each of the ``sections`` the command reads built
    (``spec``, ``rep``, ``fields``, ``paths``).
    ``identities`` reads the command line alone, and its options are its
    config."""
    if args.command == "identities":
        opts = _options({}, args)
        return types.SimpleNamespace(options=opts, config=opts)
    if args.input is None:
        raise StructuralError("--input is required for this command")
    try:
        with open(args.input) as f:
            problem = json.load(f)
    except OSError as exc:
        raise StructuralError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{args.input} is not valid JSON: {exc}") from exc
    if not isinstance(problem, dict):
        raise StructuralError(f"{args.input} must hold a JSON object, got {type(problem).__name__}")
    read = types.SimpleNamespace(options=_options(problem, args), spec=None)
    if "algebra" in sections or "rep" in sections and "algebra" in problem:
        from . import liealg

        read.spec = liealg.load_spec(problem.get("algebra"))
    if "rep" in sections:
        from . import bundle

        read.rep = bundle.load_rep(problem.get("rep"), read.spec)
    if "fields" in sections:
        from . import basegeo

        read.fields = basegeo.load_fields(problem.get("fields", {}), read.spec)
    if "paths" in sections:
        read.paths = bundle.load_paths(problem.get("paths"), read.rep)
    read.config = {**{name: problem.get(name) for name in sections}, "options": read.options}
    if "rep" in sections and problem.get("rep") is None:  # derived from the algebra
        read.config["algebra"] = problem["algebra"]
    return read


def _options(problem, args):
    """Problem-file options with the command-line overrides and defaults, once
    ``tol``, ``fd_step`` and ``gauge_tol`` are known to be positive finite
    numbers (``identities`` also takes ``tol`` 0) and ``seed`` a non-negative
    integer, where given."""
    opts = problem.get("options", {})
    if not isinstance(opts, dict):
        raise StructuralError("'options' must be an object")
    opts = dict(opts)
    for name in ("n", "trials", "tol", "fd_step", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            opts[name] = val
    identities = args.command == "identities"
    if identities and "n" not in opts:
        raise StructuralError("identities needs --n")
    defaults = ({"trials": 200, "seed": 0, "tol": 1e-12} if identities
                else {"tol": 1e-10, "fd_step": 1e-3, "seed": 0})
    opts = {**defaults, **opts}
    for name in ("tol", "fd_step", "gauge_tol"):
        val = opts.get(name, 1.0)
        zero = identities and name == "tol"  # tol 0 asks for exact identities
        if (isinstance(val, bool) or not isinstance(val, (int, float))
                or not 0 <= val < math.inf or val == 0 and not zero):
            raise StructuralError(f"option {name} must be a "
                                  f"{'non-negative' if zero else 'positive'} "
                                  f"finite number, got {val!r}")
    if isinstance(opts["seed"], bool) or not isinstance(opts["seed"], int) or opts["seed"] < 0:
        raise StructuralError(f"option seed must be a non-negative integer, got {opts['seed']!r}")
    return opts


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args, problem):
    from . import liealg

    report_obj = liealg.validate_spec(problem.spec, tol=problem.options["tol"])
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
        "cosmological_constant": liealg.cosmological_constant(problem.spec),
    }
    _emit(_report("validate", problem.config, body), args)
    return EXIT_OK if report_obj.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# identities


def cmd_identities(args, problem):
    from . import exterior

    opts = problem.options
    rep = exterior.check_identities(opts["n"], trials=opts["trials"], seed=opts["seed"])
    passed = rep.max_residual <= opts["tol"]
    body = {
        "passed": bool(passed),
        "residuals": {k: float(v) for k, v in sorted(rep.residuals.items())},
        "max_residual": float(rep.max_residual),
    }
    _emit(_report("identities", problem.config, body), args)
    return EXIT_OK if passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# the sweep driver, and curvature

# Points per vectorised block of curvature and gauge-check: enough to amortise
# each stage's numpy call overhead, few enough that the block's arrays (4n fd
# stencil rows per point, and in gauge-check N^4 curvature numbers and 1 + 4r
# fiber stencil gauge maps) stay a few MB and peak memory stays flat.
_BLOCK = 32


def _sweep(problem, block_columns):
    """Per-point columns of the problem's fields on its ``spec``, each an array
    with the point axis first: the sorted points in blocks of ``_BLOCK``, one
    geometry pass per block in the fields' ``deriv_mode`` at ``fd_step``, and
    per block the columns "point" and ``block_columns(geom)`` (a dict of
    per-point arrays), joined over the blocks; no columns over no points.
    The fields leave the record, so they are freed before the report is written."""
    import numpy as np

    from . import basegeo

    coframe, gauge, points, deriv_mode = vars(problem).pop("fields")
    blocks = []
    for start in range(0, len(points), _BLOCK):
        block = points[start:start + _BLOCK]
        geom = basegeo.geometry_at_point(coframe, gauge, problem.spec, block,
                                         deriv_mode=deriv_mode,
                                         fd_step=problem.options["fd_step"])
        blocks.append({"point": block, **block_columns(geom)})
    names = blocks[0] if blocks else ()
    return {name: np.concatenate([block[name] for block in blocks]) for name in names}


def _max(columns, *names):
    """The largest value of the named columns, 0.0 over no points; NaN propagates."""
    import numpy as np

    return float(np.max([columns[name] for name in names], initial=0.0)) if columns else 0.0


def _worst_violation(columns, limits):
    """(name, limit, value, point) of the per-point invariant furthest past its
    tolerance, the first point's and then the first name's on a tie, or None
    when every point holds; NaN counts as infinitely far.  ``limits`` holds
    (column name, tolerance) pairs."""
    import numpy as np

    if not columns:
        return None
    values = np.stack([columns[name] for name, _ in limits], axis=1)
    tols = np.array([limit for _, limit in limits])
    bad = ~(values <= tols)
    if not bad.any():
        return None
    excess = np.where(bad, np.where(np.isnan(values), np.inf, values / tols), -np.inf)
    i, j = np.unravel_index(np.argmax(excess), excess.shape)  # row-major: first on a tie
    name, limit = limits[j]
    return name, limit, float(values[i, j]), columns["point"][i].tolist()


def _exit_code(worst):
    """EXIT_OK, or one stderr line naming the worst violation and EXIT_VIOLATION."""
    if worst is None:
        return EXIT_OK
    name, limit, value, point = worst
    print(f"invariant violation: {name} = {value:.3e} exceeds {limit:.0e} "
          f"at point {point}", file=sys.stderr)
    return EXIT_VIOLATION


def _curvature_columns(geom):
    """Curvature report columns at the points of ``geom``, one pipeline pass."""
    import numpy as np

    from . import basegeo, kkcurv

    # a finite geometry can still overflow the curvature products (a tiny
    # frame makes F huge): that is caught as a non-finite Ricci, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        conn = kkcurv.assemble_omega(geom)
        direct = kkcurv.curvature_direct(conn)
        basegeo.check_finite(geom.point, {"ricci": direct.ricci}, "curvature")
        closed = kkcurv.ricci_closed_form(geom)
        res = kkcurv.eym_residuals(closed)
        cross = kkcurv.cross_check(direct, closed)
        return {
            "scalar_curvature": direct.scalar,
            "ricci": direct.ricci,
            "einstein_residual_norm": res.einstein_norm,
            "yang_mills_residual_norm": res.ym_norm,
            "cross_check_max": np.max(list(cross.values()), axis=0),
            "connection_antisymmetry": conn.antisymmetry_residual(),
            "connection_torsion": conn.torsion_residual(),
        }


def cmd_curvature(args, problem):
    fd = problem.fields.deriv_mode == "fd"  # read before _sweep takes the fields
    columns = _sweep(problem, _curvature_columns)
    rows = _Rows(columns)
    summary = {
        "points": len(rows),
        "max_einstein_residual": _max(columns, "einstein_residual_norm"),
        "max_yang_mills_residual": _max(columns, "yang_mills_residual_norm"),
        "max_cross_check": _max(columns, "cross_check_max"),
    }
    _emit(_report("curvature", problem.config, {"per_point": rows, "summary": summary}), args)
    limits = (("cross_check_max", _TOL_FD if fd else _TOL_ANALYTIC),
              ("connection_torsion", _TOL_EXACT), ("connection_antisymmetry", _TOL_EXACT))
    return _exit_code(_worst_violation(columns, limits))


# ---------------------------------------------------------------------------
# lift


def cmd_lift(args, problem):
    import numpy as np

    from . import bundle

    results = []
    for path, steps in problem.paths:
        coarse, fine = bundle.lift_and_halve(path, steps)
        err = float(np.abs(coarse[-1].matrix - fine[-1].matrix).max())
        results.append({
            "steps": steps,
            "final": coarse[-1].matrix.tolist(),
            "drift": coarse[-1].manifold_residual(),
            "step_halving_error": err,
        })
    _emit(_report("lift", problem.config, {"paths": results}), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gauge-check


def cmd_gauge_check(args, problem):
    import numpy as np

    from . import gauge

    rng = random.Random(problem.options["seed"])
    tol = problem.options.get("gauge_tol", 1e-5)

    def gauge_columns(geom):
        # the stream order of a per-point loop: g's normals, then s's, point by point
        shape = (len(geom.point), 2, problem.rep.spec.r)
        draws = np.reshape([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))], shape)
        s, g = 0.25 * draws[:, 1], problem.rep.exp(draws[:, 0])
        return {"deextra_residual": gauge.verify_deextra(geom, s=s),
                "gauge_covariance_residual": gauge.verify_gauge_covariance(geom, g)}

    columns = _sweep(problem, gauge_columns)
    limits = (("deextra_residual", tol), ("gauge_covariance_residual", tol))
    worst = _worst_violation(columns, limits)
    body = {"passed": worst is None, "tolerance": tol,
            "max_residual": _max(columns, *(name for name, _ in limits)),
            "per_point": _Rows(columns)}
    _emit(_report("gauge-check", problem.config, body), args)
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


# each command, and the problem sections it reads, in the order they are
# loaded and checked; the report's config holds each as written, and the
# options.  A command that reads the rep reads the algebra too where the
# problem gives one, and its config holds the algebra where the rep is
# derived from it.
_COMMANDS = {
    "validate": (cmd_validate, ("algebra",)),
    "identities": (cmd_identities, ()),
    "curvature": (cmd_curvature, ("algebra", "fields")),
    "lift": (cmd_lift, ("rep", "paths")),
    "gauge-check": (cmd_gauge_check, ("algebra", "rep", "fields")),
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
        run, sections = _COMMANDS[args.command]
        code = run(args, _read(args, sections))
    except (StructuralError, DegreeError, ExprSyntaxError, UnknownIdentifierError,
            EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateCoframeError, DegenerateMetricError, NonFiniteAlgebraError,
            NonFiniteGeometryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # numpy's LinAlgError among them
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy's _ArrayMemoryError among them
        print(f"numeric failure: MemoryError: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
