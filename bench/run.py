"""kkgeom benchmark: cold ``kkgeom`` CLI runs, output checks, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop with one
client: the next command starts only after the previous one has exited.
Every command is a fresh ``kkgeom`` process built from ``src/`` with
``KK_JOBS`` unset and BLAS/OpenMP threads pinned to 1.  The seed draws the
problem (amplitudes and lattice offsets, see ``workloads.py``); the shape
of each workload is fixed.

``--trace 0`` measures the end-to-end metrics.  Every round is bracketed
by runs of ``reference.py``, a fixed Python and numpy program that imports
nothing from kkgeom; the unit ``ref`` is its wall time, the mean of the runs
just before and just after the round.  On a shared host the machine's speed
drifts by half or more within minutes, which no window length averages
out; a time in ``ref`` keeps the program's cost and drops that drift.

- ``wall_ref``: median over rounds of the round's wall time (timed
  commands, process start to exit) in ``ref``;
- ``setup_s``: median spawn-to-exit time of a process that imports
  ``kkgeom.cli`` and loads the workload's problem, computing nothing;
- ``ops_per_ref``: operations per round / (``wall_ref`` - the median over
  rounds of the set-up time measured just before the round, in ``ref``);
- ``peak_rss_mb``: median over rounds of the largest child ``ru_maxrss``;
- ``pass_ratio``: operations that passed / operations attempted, including
  the untimed conformance probe (``1 - pass_ratio`` is the fail ratio).

The same rounds in seconds (``wall_s``, ``ops_per_s``) and the reference
time ``ref_s`` are printed and kept in the environment record.

``--trace 1`` alternates untraced rounds with rounds run through
``traced_cli.py`` and reports the per-layer metrics.  No layer queues or
waits on another (one process computes one point at a time), so no
wait-time metric is reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the timed operations; the conformance probe (gauge-check
and curvature at n = 3 and 4, run once after the window) is counted in
``pass_ratio`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
ENTRY = "import sys; from kkgeom.cli import main; sys.exit(main())"
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
MIN_ROUNDS = 2
EXTRA_SETUPS = 2  # set-up probes before the first round, on top of one per round


def child_env():
    env = dict(os.environ)
    env.pop("KK_JOBS", None)
    env.update(PINNED)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, env, log):
    """Run one child to completion; return (wall_s, returncode, maxrss_kb)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


class Runner:
    def __init__(self, plan, work):
        self.plan = plan
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.probe_attempted = 0
        self.probe_failed = 0
        self.failures = []

    def command(self, cmd, traced=None):
        """Run one Command (traced when given a file stem) and check its output.

        Returns (wall_s, maxrss_kb, report_bytes, failed_ops)."""
        if cmd.out and os.path.exists(cmd.out):
            os.remove(cmd.out)
        if traced is None:
            argv = [sys.executable, "-c", ENTRY, *cmd.args]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    traced + ".bin", traced + ".json", "--", *cmd.args]
        wall, code, rss = spawn(argv, self.env, os.path.join(self.work, cmd.label + ".err"))
        failed = cmd.check(code, cmd.out)
        if failed:
            self.failures.append(f"{cmd.label}: exit {code}, {failed}/{cmd.ops} failed")
        size = os.path.getsize(cmd.out) if cmd.out and os.path.exists(cmd.out) else 0
        return wall, rss, size, failed

    def round(self, traced=False):
        wall = rss = size = 0
        summaries = []
        for k, cmd in enumerate(self.plan.timed):
            tag = os.path.join(self.work, f"trace{k}") if traced else None
            w, r, s, failed = self.command(cmd, tag)
            wall += w
            rss = max(rss, r)
            size += s
            self.attempted += cmd.ops
            self.failed += failed
            if traced:
                with open(tag + ".json") as f:
                    summaries.append(json.load(f))
        return {"wall": wall, "rss_kb": rss, "bytes": size, "trace": summaries}

    def setup(self):
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                *self.plan.setup_problems]
        wall, code, _ = spawn(argv, self.env, os.path.join(self.work, "setup.err"))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {self.work}/setup.err")
        return wall

    def reference(self):
        argv = [sys.executable, os.path.join(HERE, "reference.py")]
        wall, code, _ = spawn(argv, self.env, os.path.join(self.work, "reference.err"))
        if code != 0:
            raise RuntimeError(f"reference program exited {code}")
        return wall

    def warm_up(self):
        """One untimed import so that byte-code caches exist before timing."""
        spawn([sys.executable, "-c", "import kkgeom.cli"], self.env,
              os.path.join(self.work, "warmup.err"))

    def after_window(self):
        """Untimed output checks and the conformance probe."""
        for cmd in self.plan.untimed:
            *_, failed = self.command(cmd)
            self.failed += failed  # a disagreement fails the timed points it checks
        for cmd in self.plan.probe:
            *_, failed = self.command(cmd)
            self.probe_attempted += cmd.ops
            self.probe_failed += failed

    def pass_ratio(self):
        total = self.attempted + self.probe_attempted
        return (total - self.failed - self.probe_failed) / total


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(runner, deadline):
    setups = [runner.setup() for _ in range(EXTRA_SETUPS)]
    refs = [runner.reference()]
    rounds = []
    while True:
        t_round = time.perf_counter()
        setups.append(runner.setup())
        rounds.append(runner.round())
        refs.append(runner.reference())
        rounds[-1].update(setup=setups[-1], ref=(refs[-2] + refs[-1]) / 2)
        took = time.perf_counter() - t_round
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() + took > deadline:
            break
    ops = runner.plan.ops_per_round
    median = statistics.median
    metrics = {
        "wall_ref": (median(r["wall"] / r["ref"] for r in rounds), "ref"),
        "setup_s": (median(setups), "s"),
        # the set-up probe of each round is bracketed by the same reference runs
        "ops_per_ref": (ops / (median(r["wall"] / r["ref"] for r in rounds)
                               - median(r["setup"] / r["ref"] for r in rounds)), "1/ref"),
        "peak_rss_mb": (median(r["rss_kb"] for r in rounds) / 1024.0, "MB"),
    }
    walls = [r["wall"] for r in rounds]
    info = {"rounds": len(rounds), "setups": len(setups), "references": len(refs),
            "wall_s": median(walls),
            "ops_per_s": median(ops / (r["wall"] - r["setup"]) for r in rounds),
            "ref_s": median(refs),
            "wall_s_quartile_spread": quartile_spread(walls),
            "wall_ref_quartile_spread": quartile_spread([r["wall"] / r["ref"] for r in rounds]),
            "setup_s_quartile_spread": quartile_spread(setups),
            "ref_s_quartile_spread": quartile_spread(refs)}
    return metrics, info


# ---------------------------------------------------------------------------
# traced run


def import_times(env, work):
    """Cumulative import times (ms) from ``python -X importtime``.

    A module counts under a name when it matches and none of the modules
    that imported it does, so ``scipy`` sums the outermost scipy imports.
    """
    log = os.path.join(work, "importtime.err")
    spawn([sys.executable, "-X", "importtime", "-c", "import kkgeom.cli"], env, log)
    with open(log) as f:
        lines = [ln for ln in f if ln.startswith("import time:") and "|" in ln]
    entries = []
    for ln in lines[1:]:  # the first line is the column header
        _, cumulative, name = ln[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    groups = {"import.kkgeom_cli_ms": lambda m: m == "kkgeom" or m.startswith("kkgeom."),
              "import.scipy_ms": lambda m: m == "scipy" or m.startswith("scipy."),
              "import.numpy_ms": lambda m: m == "numpy" or m.startswith("numpy.")}
    out = {}
    for key, match in groups.items():
        total, stack = 0, []
        for depth, cumulative, name in reversed(entries):  # parents come first
            while stack and stack[-1][0] >= depth:
                stack.pop()
            hit = match(name)
            if hit and not any(m for _, m in stack):
                total += cumulative
            stack.append((depth, hit))
        out[key] = total / 1000.0
    return out


def layer_metrics(summaries, ops, report_bytes):
    """Per-layer metrics of one traced round (summed over its commands)."""
    calls, total, self_s, counters = {}, {}, {}, {}
    for s in summaries:
        for label, row in s["labels"].items():
            calls[label] = calls.get(label, 0) + row["calls"]
            total[label] = total.get(label, 0.0) + row["total_s"]
            self_s[label] = self_s.get(label, 0.0) + row["self_s"]
        for key, value in s["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def c(label):
        return calls.get(label, 0)

    def per_call_ms(label):
        return 1e3 * total.get(label, 0.0) / c(label) if c(label) else 0.0

    def self_us(*labels):
        return 1e6 * sum(self_s.get(label, 0.0) for label in labels) / ops

    kk = ("kkcurv.assemble_omega", "kkcurv.curvature_direct", "kkcurv.ricci_closed_form")
    computed = sum(c(label) for label in kk)
    needed = ops * sum(1 for label in kk if c(label))
    steps = counters.get("bundle.lift_path.steps", 0)
    scipy_s = sum(total.get(f"bundle.{f}", 0.0) for f in ("expm", "polar", "block_diag"))
    m = {
        "fieldexpr.evals_per_op": (c("fieldexpr.eval") / ops, "count"),
        "fieldexpr.self_us_per_op": (self_us("fieldexpr.eval", "fieldexpr.diff",
                                             "fieldexpr.parse"), "us"),
        "fieldexpr.diff_calls": (c("fieldexpr.diff"), "count"),
        "basegeo.geometry_calls_per_op": (c("basegeo.geometry") / ops, "count"),
        "basegeo.self_us_per_op": (self_us("basegeo.geometry_at_point", "basegeo.geometry",
                                           "basegeo.geometry_fd"), "us"),
        "basegeo.b_inv_calls_per_op": (c("basegeo.b_inv") / ops, "count"),
        "basegeo.load_fields_ms": (per_call_ms("basegeo.load_fields"), "ms"),
        "kkcurv.useful_ratio": (needed / computed if computed else 0.0, "ratio"),
    }
    for label in kk:
        m[f"{label}.calls_per_op"] = (c(label) / ops, "count")
    for label in kk + ("kkcurv.cross_check", "kkcurv.eym_residuals"):
        m[f"{label}.self_us_per_op"] = (self_us(label), "us")
    m.update({
        "bundle.verify_gauge_covariance.self_us_per_op":
            (self_us("bundle.verify_gauge_covariance"), "us"),
        "bundle.verify_deextra.self_us_per_op": (self_us("bundle.verify_deextra"), "us"),
        "bundle.expm_calls_per_op": (c("bundle.expm") / ops, "count"),
        "bundle.scipy_us_per_op": (1e6 * scipy_s / ops, "us"),
        "bundle.lift_path.us_per_step":
            (1e6 * total.get("bundle.lift_path", 0.0) / steps if steps else 0.0, "us"),
        "liealg.metric_inv_calls_per_op": (c("liealg.metric_inv") / ops, "count"),
        "liealg.validate_spec_ms": (per_call_ms("liealg.validate_spec"), "ms"),
        "exterior.check_identities_ms": (per_call_ms("exterior.check_identities"), "ms"),
        "exterior.wedge_calls": (c("exterior.wedge"), "count"),
        "cli.self_ms": (1e3 * self_s.get("cli.main", 0.0), "ms"),
        "cli.report_bytes": (report_bytes, "B"),
    })
    return m


def measure_traced(runner, deadline):
    imports = [import_times(runner.env, runner.work) for _ in range(3)]
    plain, traced = [], []
    while True:
        t_pair = time.perf_counter()
        plain.append(runner.round())
        traced.append(runner.round(traced=True))
        took = time.perf_counter() - t_pair
        if time.perf_counter() + took > deadline:
            break
    ops = runner.plan.ops_per_round
    per_round = [layer_metrics(r["trace"], ops, r["bytes"]) for r in traced]
    metrics = {}
    for name, (_, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round]
        metrics[name] = (statistics.median(values), unit)
    for name in imports[0]:
        metrics[name] = (statistics.median(i[name] for i in imports), "ms")
    # each traced round runs right after an untraced one; pairing them keeps
    # the machine's slow speed drift out of the difference
    metrics["trace.overhead_s"] = (statistics.median(
        t["wall"] - p["wall"] for p, t in zip(plain, traced)), "s")
    counts = {name: [m[name][0] for m in per_round]
              for name, (_, unit) in per_round[0].items() if unit == "count"}
    unstable = sorted(name for name, v in counts.items() if len(set(v)) > 1)
    missing = sorted({t for r in traced for s in r["trace"] for t in s["missing"]})
    # count metrics of each command on its own (a cold_cmds round runs three)
    by_command = {}
    for cmd, summary in zip(runner.plan.timed, traced[0]["trace"]):
        m = layer_metrics([summary], cmd.ops, 0)
        by_command[cmd.label] = {name: v for name, (v, unit) in m.items()
                                 if unit == "count" and v}
    info = {"traced_rounds": len(traced), "plain_rounds": len(plain),
            "unstable_counts": unstable, "untraced_targets": missing,
            "counts_by_command": by_command}
    return metrics, info


# ---------------------------------------------------------------------------
# environment record


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(args, plan):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": plan.sizes,
        "ops_per_round": plan.ops_per_round,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_pinning": PINNED,
        "kk_jobs": "unset",
        "hardware_counters": "not available; no cache-miss or bandwidth figures",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kkgeom", "cli.py")):
        print(f"error: no kkgeom sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 1

    # every child (rounds, set-up probes, reference runs) on one CPU, so that
    # a round and the reference runs around it see the same CPU's speed
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = workloads.WORKLOADS[args.workload](args.seed, work, smoke=args.smoke)
    runner = Runner(plan, work)
    # the window holds the warm-up and the set-up before the first round too;
    # the untimed checks after it are outside
    deadline = time.perf_counter() + args.seconds
    runner.warm_up()
    if args.trace:
        metrics, info = measure_traced(runner, deadline)
    else:
        metrics, info = measure(runner, deadline)
    runner.after_window()
    if not args.trace:
        metrics["pass_ratio"] = (runner.pass_ratio(), "ratio")

    env = environment(args, plan)
    env.update(info)
    env["fail_ratio"] = 1.0 - runner.pass_ratio()
    env["probe"] = {"attempted": runner.probe_attempted, "failed": runner.probe_failed}
    env["failures"] = runner.failures
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"environment": env, "result": result}, f, indent=1)

    print(f"# {args.workload} seed={args.seed} sizes={json.dumps(plan.sizes)}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:48s} {value:14.6g} {unit}")
    if not args.trace:
        for name, unit in (("wall_s", "s"), ("ops_per_s", "1/s"), ("ref_s", "s")):
            print(f"#   {name:48s} {info[name]:14.6g} {unit}")
    print(f"#   {'fail_ratio':48s} {env['fail_ratio']:14.6g} ratio "
          f"(timed {runner.failed}/{runner.attempted}, "
          f"probe {runner.probe_failed}/{runner.probe_attempted})")
    for line in runner.failures:
        print(f"#   failed: {line}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
