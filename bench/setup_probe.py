"""Set-up probe: import the CLI and load the given problem files, nothing more.

Run in a fresh process by ``run.py``; the spawn-to-exit time is ``setup_s``.
Each file is loaded through the public loaders (``liealg.load_spec``,
``basegeo.load_fields``, ``bundle.builtin_rep``); no point is computed.

    python3 bench/setup_probe.py PROBLEM.json [PROBLEM.json ...]
"""

import json
import sys

import kkgeom.cli  # noqa: F401  (the import is part of what is measured)
from kkgeom import basegeo, bundle, liealg


def load(path):
    with open(path) as f:
        problem = json.load(f)
    spec = liealg.load_spec(problem["algebra"]) if "algebra" in problem else None
    if spec is not None and "fields" in problem:
        basegeo.load_fields(problem["fields"], spec)
    if "rep" in problem:
        bundle.builtin_rep(problem["rep"])


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        load(arg)
