"""Reference program: a fixed amount of work of the kind the CLI does.

Run in a fresh process by ``run.py`` between the rounds of a workload; its
spawn-to-exit time is the unit ``ref`` of the ``wall_ref`` and
``ops_per_ref`` metrics.  It imports nothing from kkgeom, so a change to
the package cannot move it; it only tracks the speed of the machine at the
moment, which on a shared host drifts by half or more within minutes.

    python3 bench/reference.py

The work mirrors a cold ``kkgeom`` command: start the interpreter, import
numpy and scipy, evaluate coordinate expressions point by point, run small
einsums, solves and ``expm`` calls, and write the rows as JSON.  A slow
phase of the machine slows this program and a CLI round by about the same
factor (a log-log slope of 0.9 on a 2-vCPU VM), where a tight numpy loop
with a small footprint tracked only half of it.  It prints a checksum and
exits 0.
"""

import json
import math

import numpy as np
import scipy.linalg

ROUNDS = 2400
EXPRS = ["1 + 0.2*sin(x2)", "0.13*x3*x1", "exp(0.11*x1) - x2**2", "cos(x1 + x2)*x3",
         "0.3*x2*x3 + sin(x1)**2", "x1*x2 - 0.5*cos(x3)"]


def main():
    code = [compile(e, "<expr>", "eval") for e in EXPRS]
    funcs = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
    a = np.linspace(-1.0, 1.0, 512).reshape(8, 8, 8)
    gen = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, -0.2], [-0.3, 0.2, 0.0]])
    rows = []
    for i in range(ROUNDS):
        point = {"x1": 0.01 * i, "x2": 0.5 - 0.001 * i, "x3": 0.2}
        vals = [eval(c, funcs, point) for c in code for _ in range(8)]
        b = np.einsum("abc,bcd->ad", a, a) + np.einsum("abc,dbc->ad", a, a)
        g = scipy.linalg.expm(gen * (vals[0] * 0.1))
        x = np.linalg.solve(b + 9.0 * np.eye(8), a[:, 0, i % 8])
        rows.append({"point": list(point.values()), "v": vals[:6],
                     "r": float(x[0] + g[0, 0])})
    text = json.dumps(rows)
    print(len(text), rows[-1]["r"])


if __name__ == "__main__":
    main()
