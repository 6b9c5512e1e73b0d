"""Every script in demos/ runs to completion against the package."""

import os
import subprocess
import sys

import pytest

import zrbr

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(zrbr.__file__)))

# script -> (arguments, the start of a line its output must contain)
CASES = {
    "conservation_drift.py": ((), "energy drift ratio dt=2e-3 / dt=1e-3:"),
    "epsilon_scaling.py": ((), "fitted slope alpha_hat:"),
    "exponent_region.py": ((), "contained in the admissible set:"),
    "inequality_fuzz.py": (("2000",), "2000 samples per inequality branch, seed 12345"),
    "picard_contraction.py": ((), "successive-difference norms at T = 0.1:"),
    "spacetime_norms.py": ((), "linear estimate, (s, b, b') = (1, 0.6, -0.35):"),
}


def test_every_demo_is_covered():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(CASES)


@pytest.mark.parametrize("script", sorted(CASES))
def test_demo_runs(script, tmp_path):
    args, headline = CASES[script]
    # The demos import the same zrbr package as the tests.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(line.strip().startswith(headline) for line in proc.stdout.splitlines()), proc.stdout
