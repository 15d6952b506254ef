"""Run ``kkgeom.cli.main`` with spans around the public functions of each module.

The package is instrumented from outside: before ``main`` runs, module and
class attributes are replaced by wrappers that record one span per call
(label, start, end, parent span).  Spans are kept in memory and written out
when the command ends, together with per-label totals:

- ``calls``: number of spans;
- ``total_s``: summed span durations;
- ``self_s``: summed span durations minus the time covered by child spans.

The span file is one JSON header line (``labels``, ``count``) followed by
four native arrays of ``count`` items each: label index (int32), parent span
index (int32, -1 at the top), start and end (float64, ``perf_counter``).

Names that are re-bound in other modules (``from .kkcurv import
assemble_omega`` in ``bundle``, for example) are wrapped where they are
looked up.  A target that no longer exists is skipped and listed under
``missing``, so the tracer keeps working while the package changes.

    python3 bench/traced_cli.py SPANS.bin SUMMARY.json -- SUBCOMMAND [ARGS ...]
"""

import importlib
import json
import sys
import time
from array import array

# (label, "module[:Class]", attribute).  Several targets may share a label.
TARGETS = [
    ("fieldexpr.eval", "kkgeom.fieldexpr:FieldProvider", "evaluate"),
    ("fieldexpr.eval", "kkgeom.fieldexpr:FieldProvider", "__call__"),
    ("fieldexpr.eval", "kkgeom.fieldexpr:FieldProvider", "partial"),
    ("fieldexpr.eval", "kkgeom.fieldexpr:FieldProvider", "partial2"),
    ("fieldexpr.diff", "kkgeom.fieldexpr", "diff"),
    ("fieldexpr.parse", "kkgeom.fieldexpr", "parse"),
    ("basegeo.geometry_at_point", "kkgeom.basegeo", "geometry_at_point"),
    ("basegeo.geometry", "kkgeom.basegeo", "_geometry_analytic"),
    ("basegeo.geometry_fd", "kkgeom.basegeo", "_geometry_fd"),
    ("basegeo.load_fields", "kkgeom.basegeo", "load_fields"),
    ("basegeo.b_inv", "kkgeom.basegeo:GeometryAtPoint", "b_inv"),
    ("basegeo.base_curvature", "kkgeom.basegeo", "base_curvature_from_geometry"),
    ("basegeo.base_curvature", "kkgeom.kkcurv", "base_curvature_from_geometry"),
    ("kkcurv.assemble_omega", "kkgeom.kkcurv", "assemble_omega"),
    ("kkcurv.assemble_omega", "kkgeom.bundle", "assemble_omega"),
    ("kkcurv.curvature_direct", "kkgeom.kkcurv", "curvature_direct"),
    ("kkcurv.curvature_direct", "kkgeom.bundle", "curvature_direct"),
    ("kkcurv.ricci_closed_form", "kkgeom.kkcurv", "ricci_closed_form"),
    ("kkcurv.cross_check", "kkgeom.kkcurv", "cross_check"),
    ("kkcurv.eym_residuals", "kkgeom.kkcurv", "eym_residuals"),
    ("bundle.verify_gauge_covariance", "kkgeom.bundle", "verify_gauge_covariance"),
    ("bundle.verify_deextra", "kkgeom.bundle", "verify_deextra"),
    ("bundle.lift_path", "kkgeom.bundle", "lift_path"),
    ("bundle.expm", "kkgeom.bundle", "expm"),
    ("bundle.polar", "kkgeom.bundle", "polar"),
    ("bundle.block_diag", "kkgeom.bundle", "block_diag"),
    ("liealg.metric_inv", "kkgeom.liealg:LieAlgebraSpec", "h_inv"),
    ("liealg.metric_inv", "kkgeom.liealg:LieAlgebraSpec", "k_inv"),
    ("liealg.validate_spec", "kkgeom.liealg", "validate_spec"),
    ("liealg.load_spec", "kkgeom.liealg", "load_spec"),
    ("exterior.check_identities", "kkgeom.exterior", "check_identities"),
    ("exterior.wedge", "kkgeom.exterior", "wedge"),
]


class Tracer:
    def __init__(self):
        self.labels = []
        self.label_index = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}
        self.missing = []

    def _intern(self, label):
        if label not in self.label_index:
            self.label_index[label] = len(self.labels)
            self.labels.append(label)
        return self.label_index[label]

    def wrap(self, label, fn):
        idx = self._intern(label)
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        counts_steps = label == "bundle.lift_path"  # lift_path(path, steps)
        counters = self.counters

        def traced(*args, **kwargs):
            i = len(labels)
            labels.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if counts_steps:
                steps = kwargs.get("steps", args[1] if len(args) > 1 else 0)
                counters["bundle.lift_path.steps"] = (
                    counters.get("bundle.lift_path.steps", 0) + steps)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        for label, where, attr in targets:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            current = None if owner is None else owner.__dict__.get(attr)
            if current is None:
                self.missing.append(f"{where}.{attr}")
            elif isinstance(current, property):
                setattr(owner, attr, property(self.wrap(label, current.fget)))
            else:
                setattr(owner, attr, self.wrap(label, current))

    def summary(self):
        """Per-label calls, total and self time; self = span minus children."""
        n = len(self.label)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.labels}
        for i in range(n):
            row = out[self.labels[self.label[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return {"labels": out, "counters": self.counters, "missing": self.missing,
                "spans": n}

    def write_spans(self, path):
        with open(path, "wb") as f:
            f.write(json.dumps({"labels": self.labels, "count": len(self.label)}).encode())
            f.write(b"\n")
            for arr in (self.label, self.parent, self.start, self.end):
                arr.tofile(f)


def main(argv):
    spans_path, summary_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS SUMMARY -- SUBCOMMAND [ARGS ...]")
    tracer = Tracer()
    tracer.install(TARGETS)
    import kkgeom.cli

    cli_main = tracer.wrap("cli.main", kkgeom.cli.main)
    code = cli_main(cli_args)
    tracer.write_spans(spans_path)
    with open(summary_path, "w") as f:
        json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
