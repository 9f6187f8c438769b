"""Every demo, and the README quick start, runs to completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _env():
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory: digitizing_shapes.py writes its files there
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start(tmp_path):
    # the README's python blocks run as written and print what they claim
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    out = []
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout.splitlines())
    assert out[0] == ["0 0", "1 1"]
    assert out[1][0].startswith("44.4097")
