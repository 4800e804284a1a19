"""Cold start: the package runs on numpy alone. Importing it, running the
CLI kinds and solving a KRR system of any rank never load scipy, also from
parallel trials.

Each check runs in a fresh interpreter, since the test process has long
since imported scipy (for scipy.stats in the mixture tests)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from kernel_budget.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(script: str, *args, env=None) -> dict:
    """Run `script` in a new interpreter that imports the package from src/;
    the script prints one JSON object as its last line."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


COLD_PATH = r"""
import contextlib, io, json, sys
from pathlib import Path

import numpy as np
import kernel_budget, kernel_budget.cli as cli

tmp = Path(sys.argv[1])
loaded = {"import": "scipy" in sys.modules}
configs = {
    "mog-pipeline": {"kind": "mog-pipeline", "seeds": [0],
                     "instance": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25,
                                  "sigma": 1.0}},
    "budget-curve": {"kind": "budget-curve", "seeds": [0],
                     "instance": {"n": 40, "J": 8, "epsilon": 0.25,
                                  "budgets": ["n*J/4"]}},
    # rank 30 at n=3000, solved from its pivoted factor
    "krr-closed-form": {"kind": "krr-closed-form", "seeds": [0],
                        "instance": {"n": 3000, "J": 40, "epsilon": 0.1}},
}
codes = {}
for name, cfg in configs.items():
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.main(["run", "--config", str(path), "--out", str(tmp / name)])
loaded["runs"] = "scipy" in sys.modules
# rank 6 at n=40, past the n / 16 pivots where the solve once fell back
# to a dense Cholesky
inst = kernel_budget.gen_krr(40, 8, 0.25, 0)
alpha = kernel_budget.solve_exact(inst.gram, inst.z, inst.lam)
loaded["solve"] = "scipy" in sys.modules
diff = float(np.max(np.abs(alpha - kernel_budget.hard_instance_optimum(inst))))
print(json.dumps({"loaded": loaded, "codes": codes, "diff": diff}))
"""


def test_scipy_is_never_loaded(tmp_path):
    got = _fresh_python(COLD_PATH, tmp_path)
    assert got["codes"] == {"mog-pipeline": 0, "budget-curve": 0, "krr-closed-form": 0}
    assert got["loaded"] == {"import": False, "runs": False, "solve": False}
    assert got["diff"] <= 1e-12


THREADED_RUN = r"""
import contextlib, io, json, sys
import kernel_budget.cli as cli

before = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"before": before, "after": "scipy" in sys.modules, "code": code}))
"""


def test_concurrent_first_import_matches_serial(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "krr-closed-form", "seeds": [0, 1],
                               "instance": {"n": 300, "J": 40, "epsilon": 0.2}}))
    got = _fresh_python(THREADED_RUN, cfg, tmp_path / "threads",
                        env={"KB_THREADS": "2"})
    assert got == {"before": False, "after": False, "code": 0}
    monkeypatch.delenv("KB_THREADS", raising=False)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "serial")]) == 0
    assert ((tmp_path / "threads" / "results.csv").read_bytes()
            == (tmp_path / "serial" / "results.csv").read_bytes())
