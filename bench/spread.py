"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads sweep4d,fiber2d --seeds 1-10 [--trace 1]
                            [--seconds S] [--out RECORD.json]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
(q3 - q1) / median, and flags a spread above a third of the metric's bound
in ``BENCHMARK.json``.  ``--out`` writes the same figures as JSON, with every run's
values and the first run's environment record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    env_line = next(ln for ln in lines if ln.startswith("# environment: "))
    return {"seed": seed, "run_s": took, "result": json.loads(lines[-1]),
            "environment": json.loads(env_line[len("# environment: "):])}


def summarize(runs, bounds):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "bound": bounds.get(name)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed={seed} {run['run_s']:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
            runs.append(run)
        stats = summarize(runs, bounds)
        for name, s in stats.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {name:46s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}{flag}")
        record[workload] = {
            "seconds": seconds, "trace": args.trace, "stats": stats,
            "environment": runs[0]["environment"],
            "runs": [{"seed": r["seed"], "run_s": r["run_s"],
                      "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                      "values": {k: m["value"] for k, m in r["result"]["metrics"].items()}}
                     for r in runs]}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
