"""Run a Python script, or a module with ``-m``, while scipy cannot be imported.

scipy is a test-only dependency: the package, its command-line front end and
the demos must run on numpy alone.  A meta-path finder placed ahead of the
import machinery refuses every ``scipy`` module.

    python tests/no_scipy.py -m kkgeom.cli curvature --input problem.json
    python tests/no_scipy.py demos/path_lifting.py
"""

import importlib.abc
import runpy
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}", name=name)
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, BlockScipy())
    if sys.argv[1] == "-m":
        sys.argv = sys.argv[2:]
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    else:
        sys.argv = sys.argv[1:]
        runpy.run_path(sys.argv[0], run_name="__main__")
