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


def _loaded_after_cli_import(modules: tuple[str, ...]) -> str:
    code = ("import sys, dialoprep.cli; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    return result.stdout.strip()


def test_cli_import_loads_no_third_party_http_client():
    assert _loaded_after_cli_import(("requests", "urllib3")) == "[]"


def test_cli_import_loads_no_http_stack():
    # Only the live annotation endpoint talks HTTP; every other stage's cold
    # start would pay for these modules.
    assert _loaded_after_cli_import(("urllib.request", "http.client", "ssl", "email")) == "[]"
