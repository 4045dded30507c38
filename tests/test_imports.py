"""Importing heatctrl loads no scipy; a Sturm-Liouville basis loads it on demand."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, math, sys
import heatctrl.cli
from heatctrl.spectral import ParabolicProblem, build_interval_basis, build_sturm_liouville_basis

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": scipy_loaded()}
build_interval_basis("ND", 1.0, 8)
seen["interval"] = scipy_loaded()
problem = ParabolicProblem(X=math.pi, p=[1.0] * 9, q=0.0, bc0=(1.0, 0.0), bc1=(1.0, 0.0))
basis = build_sturm_liouville_basis(problem, 4)
seen["sl"] = scipy_loaded()
seen["lambdas"] = basis.lambdas.tolist()
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_sturm_liouville_bases():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["interval"] == []
    assert "scipy.interpolate" in seen["sl"] and "scipy.linalg" in seen["sl"]
    # p given as samples goes through the spline: still the Dirichlet string n^2
    assert [round(v, 6) for v in seen["lambdas"]] == [1.0, 4.0, 9.0, 16.0]
