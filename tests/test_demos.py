"""The walkthrough demos run to completion against the library as it stands.

Demo 06 is left out: it is the library form of ``flowseg ablate``, which the
acceptance gate already runs end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_set_is_complete():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
