"""Each narrative script in demos/ and the README's quick example run to
completion against the package, with the runtime dependencies only (scipy
blocked)."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WITHOUT = ROOT / "tests" / "without.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_without_scipy(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(WITHOUT), "scipy", *map(str, args)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = run_without_scipy(script)
    assert proc.returncode == 0, proc.stderr


def readme_blocks(language):
    """The fenced ``language`` code blocks of README.md, in order."""
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    return [b[len(language) + 1:] for b in blocks if b.startswith(language + "\n")]


def test_readme_examples_run(tmp_path):
    # the Python quick example, then the example problem file through every
    # command that reads one
    script = tmp_path / "quick_example.py"
    script.write_text(readme_blocks("python")[0])
    proc = run_without_scipy(script)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "problem.json"
    path.write_text(readme_blocks("json")[0])
    for command in ("validate", "curvature", "lift", "gauge-check"):
        proc = run_without_scipy("-m", "kkgeom.cli", command, "--input", path,
                                 "--out", tmp_path / f"{command}.json")
        assert proc.returncode == 0, (command, proc.stderr)
