"""flowseg needs numpy and the standard library, nothing else, at run time.

scipy, pytest and mpmath serve the tests as oracles and tooling only.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_importing_the_cli_loads_no_scipy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, flowseg.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_sources_import_only_stdlib_numpy_and_the_package():
    # Every import statement counts, those inside functions too, so a lazy
    # import of a third dependency cannot slip in unseen.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted((SRC / "flowseg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


def test_numpy_is_the_only_declared_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group()
             for dep in project["dependencies"]]
    assert names == ["numpy"]
