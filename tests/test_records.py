from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialoprep import jsonl
from dialoprep.errors import MalformedRecordError
from dialoprep.records import (
    RESERVED_MARKERS,
    Dialogue,
    SummaryRecord,
    Turn,
    Written,
    dialogue_from_obj,
    iter_corpus,
    load_corpus,
    record_line,
    render_dialogue_text,
    save_corpus,
    validate_dialogue,
)

from conftest import (
    make_dialogue,
    make_example,
    oracle_validate_dialogue,
    record_to_obj,
    validate_example,
)


def two_turn():
    return Dialogue(id="d1", source_dataset="unit",
                    roles=("Ava", "Ben"),
                    turns=(Turn(0, "hello there"), Turn(1, "hi")))


def test_validate_ok():
    assert validate_dialogue(two_turn()) == []


def test_validate_alternating_three_turns():
    d = Dialogue(id="d", source_dataset="u", roles=("A", "B"),
                 turns=(Turn(0, "x"), Turn(1, "y"), Turn(0, "z")))
    assert validate_dialogue(d) == []


def test_validate_consecutive_same_speaker():
    d = Dialogue(id="d", source_dataset="u", roles=("A", "B"),
                 turns=(Turn(0, "x"), Turn(0, "y")))
    assert any("consecutive turns share speaker" in v for v in validate_dialogue(d))


def test_validate_reserved_marker_in_text():
    d = Dialogue(id="d", source_dataset="u", roles=("A", "B"),
                 turns=(Turn(0, "x <eou> y"), Turn(1, "z")))
    assert any("reserved marker" in v for v in validate_dialogue(d))


def test_validate_role_index_out_of_range():
    d = Dialogue(id="d", source_dataset="u", roles=("A", "B"),
                 turns=(Turn(0, "x"), Turn(5, "y")))
    assert any("role_index out of range" in v for v in validate_dialogue(d))


def test_validate_reports_all_violations():
    d = Dialogue(id="d", source_dataset="u", roles=("A", "A"),
                 turns=(Turn(0, ""), Turn(0, "y <mask>")))
    violations = validate_dialogue(d)
    assert len(violations) >= 3  # duplicate role, empty text, marker, same speaker


_WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def test_u0020_is_the_only_printable_whitespace():
    # The validator's printable fast path rests on this.
    assert [ch for ch in _WHITESPACE if ch.isprintable()] == [" "]


def test_every_reserved_marker_starts_with_lt():
    # The validator and ingest search for markers only in a text holding "<".
    assert all(marker.startswith("<") for marker in RESERVED_MARKERS)


_FORMAT_CHARS = ["\u00ad", "\u061c", "\u200b", "\u200d", "\u2060", "\ufeff", "\U000e0001"]
_ATOMS = (_WHITESPACE + _FORMAT_CHARS + ["\x00", "a", "b", "é", "<", ">", "/"]
          + list(RESERVED_MARKERS) + ["<uttr", "-mask>", "</", "<eo", "s>"])
_TEXT = st.one_of(
    st.lists(st.one_of(st.sampled_from(_ATOMS), st.characters(blacklist_categories=("Cs",))),
             max_size=8).map("".join),
    st.lists(st.sampled_from(["a", "é", " ", "<", "s>", "<eou>"]), max_size=8).map("".join),
    st.lists(st.sampled_from(["a", "b", "é", "<", "<s", "s>", "\u00ad"]),
             min_size=1, max_size=4).map(" ".join))


@settings(max_examples=400, deadline=None)
@given(roles=st.lists(_TEXT, max_size=3),
       turns=st.lists(st.tuples(st.integers(-1, 3), _TEXT), max_size=4))
# Texts that pass every text check, so that only the role table or the turn
# order can fail: each of the load's cheap checks on them.
@example(roles=["a", "a"], turns=[(0, "a"), (1, "b")])
@example(roles=["a", "b"], turns=[(0, "a"), (0, "b")])
@example(roles=["a", "b"], turns=[(0, "a"), (-1, "b")])
@example(roles=["a", "b"], turns=[(0, "a"), (2, "b")])
@example(roles=["a"], turns=[])
@example(roles=[], turns=[(0, "a")])
@example(roles=["a", "b "], turns=[(0, "a"), (1, "b")])
def test_validation_matches_split_join_oracle(roles, turns):
    d = Dialogue(id="d", source_dataset="u", roles=tuple(roles),
                 turns=tuple(Turn(i, text) for i, text in turns))
    expected = oracle_validate_dialogue(d)
    assert validate_dialogue(d) == expected
    if expected:
        with pytest.raises(MalformedRecordError) as exc:
            dialogue_from_obj(record_to_obj(d), 7)
        assert str(exc.value) == "line 7: " + "; ".join(expected)
    else:
        assert dialogue_from_obj(record_to_obj(d), 7) == d


# Every character JSON escapes or could mishandle: quotes, backslashes, the
# C0 controls, U+2028, non-BMP and non-ASCII letters.
_LINE_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\u2028", "\u2029", "\x7f", "\U0001f600", "é", "日", " "]),
    st.characters(max_codepoint=0x1F),
    st.characters(blacklist_categories=("Cs",))), max_size=12)
_LINE_DIALOGUES = st.builds(
    Dialogue, id=_LINE_TEXT, source_dataset=_LINE_TEXT,
    roles=st.lists(_LINE_TEXT, max_size=3).map(tuple),
    turns=st.lists(st.builds(Turn, st.integers(-2, 2**70), _LINE_TEXT), max_size=4).map(tuple))


@settings(max_examples=300, deadline=None)
@given(d=_LINE_DIALOGUES,
       summaries=st.lists(st.builds(SummaryRecord, _LINE_TEXT, _LINE_TEXT), max_size=3))
def test_record_line_is_the_encoded_object(d, summaries):
    for record in (d, d._replace(summaries=tuple(summaries))):
        assert record_line(record) == jsonl.line(record_to_obj(record))


def test_validate_example_requires_summary():
    ex = two_turn()._replace(summaries=())
    assert any("no summaries" in v for v in validate_example(ex))
    ex = two_turn()._replace(summaries=(SummaryRecord("ok", "nonsense"),))
    assert any("unknown origin" in v for v in validate_example(ex))


def test_render_dialogue_text():
    assert render_dialogue_text(two_turn()) == "Ava: hello there\nBen: hi"


def test_round_trip_single_dialogue(tmp_path):
    path = tmp_path / "one.dlg"
    save_corpus([two_turn()], path)
    loaded = load_corpus(path)
    assert loaded == [two_turn()]


def test_round_trip_parallel(tmp_path):
    ex = two_turn()._replace(
        summaries=(SummaryRecord("Ava greets Ben.", "annotated"),
                   SummaryRecord("A greeting.", "reference")))
    plain = two_turn()._replace(id="d2")
    path = tmp_path / "one.plx"
    save_corpus([ex, plain], path)
    assert load_corpus(path) == [ex, plain]


def test_save_empty(tmp_path):
    path = tmp_path / "empty.dlg"
    assert save_corpus([], path) == Written(0, ())
    assert path.read_bytes() == b""
    assert load_corpus(path) == []


def test_save_count_and_lines(tmp_path):
    rng = random.Random(7)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(3)]
    path = tmp_path / "three.dlg"
    assert save_corpus(dialogues, path) == Written(3, ("synth",))
    assert len(path.read_text().splitlines()) == 3


def test_save_names_each_source_once_in_first_appearance_order(tmp_path):
    rng = random.Random(7)
    dialogues = [make_dialogue(rng, f"d{i}", source=source)
                 for i, source in enumerate(["b", "a", "b", "c", "a"])]
    assert save_corpus(dialogues, tmp_path / "five.dlg") == Written(5, ("b", "a", "c"))


def test_save_load_save_identical_bytes(tmp_path):
    rng = random.Random(11)
    mixed = [make_dialogue(rng, f"d{i}", n_roles=3) for i in range(20)]
    first = tmp_path / "a.dlg"
    second = tmp_path / "b.dlg"
    save_corpus(mixed, first)
    save_corpus(load_corpus(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_round_trip_many_random(tmp_path):
    rng = random.Random(23)
    for trial in range(25):
        records = [make_example(rng, f"e{trial}-{i}") for i in range(4)]
        path = tmp_path / f"r{trial}.plx"
        save_corpus(records, path)
        assert load_corpus(path) == records


def test_missing_turns_field(tmp_path):
    path = tmp_path / "bad.dlg"
    path.write_text('{"schema_version": 1, "id": "x", "source_dataset": "u", '
                    '"roles": ["A"]}\n')
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(path)
    assert err.value.line_number == 1
    assert "turns" in err.value.reason


def test_role_index_out_of_range_on_load(tmp_path):
    path = tmp_path / "bad.dlg"
    path.write_text('{"schema_version": 1, "id": "x", "source_dataset": "u", '
                    '"roles": ["A", "B"], '
                    '"turns": [{"role_index": 5, "text": "hi"}]}\n')
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(path)
    assert "role_index out of range" in err.value.reason


def test_bad_json_line_number(tmp_path):
    path = tmp_path / "bad.dlg"
    save_corpus([two_turn()], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("shape", ["dialogues", "parallel"])
def test_repeated_id_on_load(tmp_path, shape):
    rng = random.Random(4)
    make = make_dialogue if shape == "dialogues" else make_example
    first, second = make(rng, "d1"), make(rng, "d2")
    path = tmp_path / "repeated"
    save_corpus([first, second, first], path)
    with pytest.raises(MalformedRecordError) as err:
        load_corpus(path)
    assert err.value.line_number == 3
    assert err.value.reason == "dialogue id 'd1' reappears (first at line 1)"


@pytest.mark.parametrize("shape", ["dialogues", "parallel"])
def test_iter_corpus_yields_each_record_before_a_later_bad_line(tmp_path, shape):
    rng = random.Random(5)
    make = make_dialogue if shape == "dialogues" else make_example
    first, second = make(rng, "d1"), make(rng, "d2")
    path = tmp_path / "repeated"
    save_corpus([first, second, first], path)
    records = iter_corpus(path)
    assert [next(records), next(records)] == [first, second]
    with pytest.raises(MalformedRecordError) as err:
        next(records)
    assert err.value.line_number == 3


def test_missing_file():
    with pytest.raises(OSError):
        load_corpus("/nonexistent/path.dlg")


def test_corpus_manifest_counts(tmp_path):
    from dialoprep.cli import main

    rng = random.Random(3)
    ds = [make_dialogue(rng, f"d{i}", source=f"set{i % 2}") for i in range(5)]
    save_corpus(ds, tmp_path / "in.dlg")
    assert main(["roles", "--in", str(tmp_path / "in.dlg"), "--out", str(tmp_path / "demo"),
                 "--seed", "42"]) == 0
    manifest = json.loads((tmp_path / "demo.manifest.json").read_text(encoding="utf-8"))
    assert manifest["corpus"] == {"name": "demo", "examples": 5, "created_with_seed": 42,
                                  "source_datasets": ["set0", "set1"]}
