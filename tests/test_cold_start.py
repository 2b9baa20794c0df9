"""scipy loads only when a t-test runs.

The check needs a fresh interpreter: pytest's own process may already have
scipy loaded by another test.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_stats import student_tail_p

SRC = Path(__file__).resolve().parent.parent / "src"

A = [10.0, 12.0, 9.0, 11.0, 13.0]
B = [8.0, 11.0, 9.0, 10.0, 10.0]

SCRIPT = """
import json, sys

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

import counterniche
import counterniche.cli as cli
from counterniche import ExperimentMatrix, paired_ttest, run_matrix

out, a, b = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
after = {"import": scipy_loaded()}
code = cli.main(["run", "--algo", "cnea", "--function", "rastrigin", "--dim", "3",
                 "--generations", "3", "--pop-size", "20", "--out", out + "/trace.csv"])
after["run"] = scipy_loaded()
(cell,) = run_matrix(ExperimentMatrix(("cnea",), ("rastrigin",), (3,), runs_per_cell=1, generations=3,
                                      output_dir=out + "/results", engine_overrides={"N": 20}))
after["run_matrix"] = scipy_loaded()
res = paired_ttest(a, b)
after["ttest"] = scipy_loaded()
print(json.dumps({"code": code, "error": cell.error, "after": after,
                  "t": res.t_statistic, "df": res.degrees_of_freedom, "p": res.p_value}))
"""


def test_scipy_loads_only_for_the_ttest(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(A), json.dumps(B)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0 and got["error"] is None
    assert (tmp_path / "trace.csv").is_file()
    assert got["after"] == {"import": False, "run": False, "run_matrix": False, "ttest": True}
    d = np.array(A) - np.array(B)
    t_ref = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
    assert got["t"] == pytest.approx(t_ref)
    assert got["df"] == 4
    assert got["p"] == pytest.approx(student_tail_p(t_ref, 4), abs=1e-9)
