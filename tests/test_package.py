"""Public surface: every exported name resolves, and the README's library
sketch runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import kernel_budget


def test_every_exported_name_resolves():
    missing = [name for name in kernel_budget.__all__ if not hasattr(kernel_budget, name)]
    assert not missing
    assert len(set(kernel_budget.__all__)) == len(kernel_budget.__all__)


def test_readme_library_sketch_runs():
    """The python block under "## Library sketch" runs as written, in a fresh
    interpreter that imports this package."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    path = [str(Path(kernel_budget.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
