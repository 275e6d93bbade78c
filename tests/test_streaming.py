"""The stages that stream their corpus: ``roles``, ``augment`` and ``stats``
read record by record, and ``annotate``'s resume keeps only the ids it finds.

A bad record partway through still fails the run before ``--out`` is
replaced, and a run holds less than one loaded copy of its corpus.
"""

from __future__ import annotations

import itertools
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest

from dialoprep.cli import main
from dialoprep.records import Dialogue, Turn, load_corpus, record_line

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample"
_NAMED = (SAMPLE / "golden" / "named.dlg").read_text(encoding="utf-8")
_ANNOTATED = (SAMPLE / "golden" / "annotated.plx").read_text(encoding="utf-8")
_MALFORMED = '{"schema_version": 1, "id": "x"}\n'
# Three roles, where the two-name pool below has names for two.
_THREE_ROLES = record_line(Dialogue("three", "unit", ("Ann", "Bo", "Cy"),
                                    (Turn(0, "hi"), Turn(1, "hello"), Turn(2, "hey"))))


@pytest.mark.parametrize("argv, corpus, last, message", [
    (["roles", "--seed", "1"], _NAMED, _MALFORMED, "line 51: record missing 'roles' field"),
    (["roles", "--seed", "1", "--names", "pool.txt"], _NAMED, _THREE_ROLES, "three"),
    (["augment", "--map", "map.json"], _ANNOTATED, _MALFORMED,
     "line 51: record missing 'roles' field"),
    (["stats"], _ANNOTATED, _MALFORMED, "line 51: record missing 'roles' field"),
], ids=["roles-malformed", "roles-pool-too-small", "augment-malformed", "stats-malformed"])
def test_a_bad_later_record_leaves_the_earlier_output(tmp_path, capsys, monkeypatch,
                                                      argv, corpus, last, message):
    monkeypatch.chdir(tmp_path)
    Path("pool.txt").write_text("Ann\nBo\n", encoding="utf-8")
    Path("map.json").write_text("{}")
    Path("in.dlg").write_text(corpus, encoding="utf-8")
    argv = [*argv, "--in", "in.dlg", "--out", "out"]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "in.dlg"}
    Path("in.dlg").write_text(corpus + last, encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and message in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "in.dlg"} == before


@pytest.fixture(scope="module")
def zipf(tmp_path_factory) -> Path:
    """A directory holding the first 2,000 dialogues of the benchmark
    generator's 10^4 Zipf corpus, ingested (``named.dlg``), and their
    annotation (``annotated.plx``)."""
    tmp = tmp_path_factory.mktemp("zipf")
    sys.path.insert(0, str(SAMPLE.parent.parent / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    rng = random.Random(7)
    gen.write_corpus(rng, gen.ZipfVocabulary(rng), 10_000, tmp)
    assert main(["ingest", "--in", str(tmp / "raw.jsonl"), "--spec",
                 str(tmp / "ingest_spec.json"), "--out", str(tmp / "zipf.dlg")]) == 0
    with open(tmp / "zipf.dlg", encoding="utf-8") as fh:
        (tmp / "named.dlg").write_text("".join(itertools.islice(fh, 2_000)), encoding="utf-8")
    assert main(["annotate", "--in", str(tmp / "named.dlg"), "--out",
                 str(tmp / "annotated.plx"), "--mock", "digest:12"]) == 0
    return tmp


def _peak(fn, *args) -> int:
    """The most memory, in bytes, that Python objects held during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, corpus", [
    (["roles", "--seed", "1"], "named.dlg"),
    (["augment", "--map", "map.json"], "annotated.plx"),
    (["stats"], "annotated.plx"),
], ids=["roles", "augment", "stats"])
def test_a_streamed_stage_holds_less_than_half_its_corpus(zipf, tmp_path, monkeypatch,
                                                          argv, corpus):
    monkeypatch.chdir(tmp_path)
    Path("map.json").write_text("{}")
    argv = [*argv, "--in", str(zipf / corpus), "--out", "out"]
    assert main(argv) == 0  # compiles what the stage compiles once
    assert _peak(main, argv) < _peak(load_corpus, zipf / corpus) / 2


def test_an_annotate_resume_holds_ids_not_records(zipf, tmp_path):
    out = tmp_path / "annotated.plx"
    shutil.copyfile(zipf / "annotated.plx", out)
    argv = ["annotate", "--in", str(zipf / "named.dlg"), "--out", str(out),
            "--mock", "digest:12"]
    assert _peak(main, argv) < 1.5 * _peak(load_corpus, zipf / "named.dlg")
    assert out.read_bytes() == (zipf / "annotated.plx").read_bytes()
