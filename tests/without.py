"""Run a Python script, or a module with ``-m``, while one top-level package
cannot be imported.

scipy is a test-only dependency: the package, its command-line front end and
the demos must run on numpy alone.  numpy is a runtime dependency, but
``kkgeom identities`` and ``kkgeom validate`` run on the standard library
alone.  A meta-path finder placed ahead of the import machinery refuses
every module of the named package.

    python tests/without.py scipy -m kkgeom.cli curvature --input problem.json
    python tests/without.py scipy demos/path_lifting.py
    python tests/without.py numpy -m kkgeom.cli identities --n 6
    python tests/without.py numpy -m kkgeom.cli validate --input problem.json
"""

import importlib.abc
import runpy
import sys


class Block(importlib.abc.MetaPathFinder):
    def __init__(self, package):
        self.package = package

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == self.package:
            raise ModuleNotFoundError(f"{self.package} is blocked: {name}", name=name)
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, Block(sys.argv[1]))
    if sys.argv[2] == "-m":
        sys.argv = sys.argv[3:]
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    else:
        sys.argv = sys.argv[2:]
        runpy.run_path(sys.argv[0], run_name="__main__")
