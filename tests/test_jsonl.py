from __future__ import annotations

import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoprep import jsonl
from dialoprep.errors import MalformedRecordError
from dialoprep.records import save_corpus

from conftest import make_dialogue

SRC = Path(__file__).resolve().parent.parent / "src" / "dialoprep"

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)


@settings(max_examples=60, deadline=None)
@given(objs=st.lists(st.dictionaries(_TEXT, _TEXT | st.integers() | st.lists(_TEXT),
                                     max_size=4), max_size=6))
def test_write_read_round_trip(tmp_path_factory, objs):
    objs = [{**obj, "note": "naïve — 日本語 ✓"} for obj in objs]
    path = tmp_path_factory.mktemp("round") / "records.jsonl"
    assert jsonl.write_lines(path, map(jsonl.line, iter(objs))) == len(objs)
    data = path.read_bytes()
    assert data == "".join(jsonl.line(obj) for obj in objs).encode("utf-8")
    assert data.count("日本語".encode("utf-8")) == len(objs)
    assert list(jsonl.read(path)) == list(enumerate(objs, start=1))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(obj=st.dictionaries(_TEXT, _JSON_VALUES, max_size=5))
def test_line_is_json_dumps(obj):
    assert jsonl.line(obj) == json.dumps(obj, ensure_ascii=False) + "\n"


def test_blank_lines_skipped_and_counted(tmp_path):
    path = tmp_path / "blanks.jsonl"
    path.write_text('\n{"a": 1}\n   \n\t\n{"b": 2}\n\n')
    assert list(jsonl.read(path)) == [(2, {"a": 1}), (5, {"b": 2})]


def test_crlf_file_reads_as_its_lf_twin(tmp_path):
    text = '{"a": 1}\n\n  {"b": "x\\r\\n"}  \n{"c": [1, 2]}\t\n\u2028\n{"d": "\u2028"}'
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    expected = [(1, {"a": 1}), (3, {"b": "x\r\n"}), (4, {"c": [1, 2]}), (6, {"d": "\u2028"})]
    assert list(jsonl.read(lf)) == expected
    assert list(jsonl.read(crlf)) == expected


@pytest.mark.parametrize("text, message", [
    ('{"a": 1}\n{"id":"2",\n', "line 2: invalid JSON: "),
    ('\n[1, 2]\n', "line 2: record is not an object"),
    ('"text"\n', "line 1: record is not an object"),
    ('{"a": 1} {"b": 2}\n', "line 1: invalid JSON: Extra data"),
    ('\n{"a": 1}  x\n', "line 2: invalid JSON: Extra data"),
    ('\ufeff{"a": 1}\n', "line 1: invalid JSON: Unexpected UTF-8 BOM"),
    pytest.param('{"a": 1}\n{"n": ' + "9" * 5000 + '}\n',
                 "line 2: invalid JSON: Exceeds the limit", id="5000-digit-integer"),
])
def test_error_messages(tmp_path, text, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecordError) as err:
        list(jsonl.read(path))
    assert str(err.value).startswith(message)


def _interrupted(items):
    yield from items
    raise RuntimeError("interrupted")


@pytest.mark.parametrize("write", [
    lambda path: jsonl.write_lines(path, map(jsonl.line, _interrupted([{"a": 1}, {"b": "ü"}]))),
    lambda path: jsonl.write_json(path, {"a": 1, "b": object()}),
    lambda path: jsonl.write_json(path, {"temperature": float("nan")}),
    lambda path: jsonl.write_json(path, {"scores": [1.0, float("-inf")]}),
    lambda path: save_corpus(_interrupted(
        [make_dialogue(random.Random(i), f"d{i}") for i in range(3)]), path),
], ids=["write", "write_json", "write_json-nan", "write_json-infinity", "save_corpus"])
def test_interrupted_write_leaves_earlier_file(tmp_path, write):
    path = tmp_path / "out.jsonl"
    path.write_bytes(b'{"earlier": true}\n')
    with pytest.raises((RuntimeError, TypeError, ValueError)):
        write(path)
    assert path.read_bytes() == b'{"earlier": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_only_jsonl_parses_or_formats_json():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "jsonl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads", "dumps", "dump")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                offenders.append(f"{path.name}:{node.lineno} json.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders.append(f"{path.name}:{node.lineno} from json import ...")
    assert offenders == []
