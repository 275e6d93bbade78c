"""The package runs on the standard library alone, and each command loads only its own layer."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "data" / "sample"
GOLDEN = SAMPLE / "golden"
LAYERS = tuple(f"dialoprep.{name}" for name in (
    "annotate", "dedup", "ingest", "metrics", "noising", "roles", "seeding"))
#: Modules no stage process needs: ``dataclasses`` and the ``inspect`` it
#: imports (with ``ast``, ``dis`` and ``tokenize``) cost every cold start.
UNNEEDED = ("dataclasses", "inspect")


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def _loaded(modules: tuple[str, ...], *argv: str) -> list[str]:
    """Those of ``modules`` that a fresh interpreter holds after importing the
    CLI and, given ``argv``, running that command, which must succeed."""
    code = ("import json, sys\n"
            "from dialoprep import cli\n"
            "assert not sys.argv[1:] or cli.main(sys.argv[1:]) == 0\n"
            f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n")
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_loads_no_third_party_http_client():
    assert _loaded(("requests", "urllib3")) == []


def test_cli_import_loads_no_http_stack():
    # Only the live annotation endpoint talks HTTP; every other stage's cold
    # start would pay for these modules.
    assert _loaded(("urllib.request", "http.client", "ssl", "email")) == []


def test_cli_import_loads_no_layer():
    assert _loaded(LAYERS + ("concurrent.futures", "unicodedata")) == []


def test_cli_import_loads_no_dataclasses():
    assert _loaded(UNNEEDED) == []


def test_annotate_import_loads_no_thread_pool():
    # Only annotate_batch uses the pool; concurrent.futures brings logging
    # and traceback into the cold start of any process importing the module.
    code = "import sys, dialoprep.annotate; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert result.stdout.strip() == "False"


#: Each command on the sample data, and the layers it may load: its own and
#: the ones that layer imports.
_STAGES = {
    "ingest": (["--in", SAMPLE / "raw_sample.jsonl", "--spec", SAMPLE / "ingest_spec.json",
                "--out", "{tmp}/corpus.dlg"], {"ingest"}),
    "clean": (["--in", GOLDEN / "corpus.dlg", "--out", "{tmp}/cleaned.dlg"],
              {"dedup"}),
    "roles": (["--in", GOLDEN / "cleaned.dlg", "--out", "{tmp}/named.dlg", "--seed", "3"],
              {"roles", "seeding"}),
    "augment": (["--in", GOLDEN / "annotated.plx", "--map", "{tmp}/map.json",
                 "--out", "{tmp}/augmented.plx"], {"roles", "seeding"}),
    "annotate": (["--in", GOLDEN / "named.dlg", "--out", "{tmp}/annotated.plx",
                  "--mock", "digest:12"], {"annotate"}),
    "noise": (["--in", GOLDEN / "named.dlg", "--out", "{tmp}/pairs.jsonl", "--count", "20",
               "--seed", "3"], {"noising", "seeding"}),
    "stats": (["--in", GOLDEN / "annotated.plx", "--out", "{tmp}/stats.json"], {"metrics"}),
    "eval": (["--candidates", GOLDEN / "annotated.plx", "--references", "{tmp}/references.jsonl",
              "--out", "{tmp}/eval.json", "--select-train-ref"], {"metrics"}),
}


@pytest.mark.parametrize("command", sorted(_STAGES))
def test_help_loads_no_layer(command):
    assert _loaded(LAYERS + UNNEEDED, command, "--help") == []


@pytest.mark.parametrize("command", sorted(_STAGES))
def test_command_loads_only_its_own_layers(tmp_path, command):
    (tmp_path / "map.json").write_text("{}")
    with open(GOLDEN / "annotated.plx", encoding="utf-8") as fh, \
            open(tmp_path / "references.jsonl", "w", encoding="utf-8") as out:
        for line in fh:
            record = json.loads(line)
            texts = [summary["text"] for summary in record["summaries"]]
            out.write(json.dumps({"id": record["id"], "texts": texts}) + "\n")
    template, layers = _STAGES[command]
    argv = [str(arg).format(tmp=tmp_path) for arg in template]
    assert (_loaded(LAYERS + UNNEEDED, command, *argv)
            == sorted(f"dialoprep.{name}" for name in layers))
