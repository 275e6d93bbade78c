"""The package runs on the standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_cli_import_loads_no_third_party_http_client():
    code = ("import sys, dialoprep.cli; "
            "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert result.stdout.strip() == "[]"
