"""The shipped examples and the README's python blocks run end to end.

Each ``examples/*.py`` script runs in a fresh interpreter (with
``--quick`` where the script takes it) and must exit 0; the README's
python blocks, joined in order, run as one script.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_python(script: Path, *args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    args = ["--quick"] if "--quick" in script.read_text() else []
    proc = run_python(script, *args)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_readme_python_blocks_run(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks, "README has no python blocks"
    script = tmp_path / "readme_blocks.py"
    script.write_text("\n".join(blocks))
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr[-4000:]
