"""The package imports only the standard library and its declared dependencies."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_only_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in tomllib.load(fh)["project"]["dependencies"]
        }
    code = (
        "import sys; before = set(sys.modules); import linkspec; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "linkspec" in loaded and "scipy" not in loaded
    assert loaded - set(sys.stdlib_module_names) - {"linkspec"} <= declared
