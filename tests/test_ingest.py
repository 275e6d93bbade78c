from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoprep.errors import MalformedRecordError, UnmappedFieldError
from dialoprep.ingest import _CHAR_MAP, IngestSpec, ingest, normalize_text
from dialoprep.records import Dialogue, Turn, validate_dialogue

from conftest import merge_same_speaker, normalize_text_oracle, oracle_ingest


def test_normalize_curly_and_dash():
    assert normalize_text("  Hello’s   world—ok ") == "Hello's world-ok"


def test_normalize_empty():
    assert normalize_text("") == ""


def test_normalize_quotes_and_ellipsis():
    assert normalize_text("“Well… fine”") == '"Well... fine"'


def test_normalize_removes_controls():
    assert normalize_text("a\x00b​c") == "abc"
    assert normalize_text("a\tb\nc") == "a b c"


def test_normalize_keeps_case():
    assert normalize_text("Hello WORLD") == "Hello WORLD"


_SPECIAL_CHARS = st.one_of(
    st.characters(max_codepoint=0x7F, categories=["Cc"]),
    st.sampled_from(["\u0085", "\u200b", "\ufeff", "\U000e0001"]),
    st.characters(categories=["Zs", "Zl", "Zp"]),
    st.sampled_from(sorted(map(chr, _CHAR_MAP))),
    st.characters(min_codepoint=0x10000),
    st.characters(categories=["Cs"]),
)


@given(st.text(st.one_of(_SPECIAL_CHARS, st.characters()), max_size=60))
def test_normalize_matches_oracle(text):
    assert normalize_text(text) == normalize_text_oracle(text)


def test_normalize_matches_oracle_on_every_code_point():
    mismatches = [c for c in range(sys.maxunicode + 1)
                  if normalize_text(f"a{chr(c)}b") != normalize_text_oracle(f"a{chr(c)}b")]
    assert mismatches == []


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


def _dlg(indices, texts, roles=("A", "B")):
    return Dialogue(id="d", source_dataset="u", roles=roles,
                    turns=tuple(Turn(i, t) for i, t in zip(indices, texts)))


def test_merge_pair():
    merged = merge_same_speaker(_dlg([0, 0, 1], ["hi", "there", "yo"]))
    assert [t.text for t in merged.turns] == ["hi there", "yo"]
    assert [t.role_index for t in merged.turns] == [0, 1]


def test_merge_already_dual_turn():
    d = _dlg([0, 1, 0], ["x", "y", "z"])
    assert merge_same_speaker(d) == d


def test_merge_middle_run():
    merged = merge_same_speaker(_dlg([0, 1, 1, 0], ["x", "y", "z", "w"]))
    assert [t.text for t in merged.turns] == ["x", "y z", "w"]
    assert len(merged.turns) == 3


def test_merge_idempotent():
    d = _dlg([0, 0, 1, 1, 1, 0], list("abcdef"))
    once = merge_same_speaker(d)
    assert merge_same_speaker(once) == once


def test_merge_preserves_per_speaker_text():
    d = _dlg([0, 0, 1, 0, 0, 0], ["a", "b", "c", "d", "e", "f"])
    merged = merge_same_speaker(d)
    for role in (0, 1):
        before = " ".join(t.text for t in d.turns if t.role_index == role)
        after = " ".join(t.text for t in merged.turns if t.role_index == role)
        assert before == after


def _write_raw(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


SPEC = IngestSpec(speaker_field="speaker", utterance_field="text",
                  id_field="conv", dataset_tag="demo")


def test_ingest_basic(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [
        {"conv": 1, "speaker": "agent", "text": "Hello, how can I help?"},
        {"conv": 1, "speaker": "user", "text": "My order is late."},
        {"conv": 1, "speaker": "user", "text": "It was due monday."},
        {"conv": 2, "speaker": "a", "text": "hi"},
        {"conv": 2, "speaker": "b", "text": "hey"},
    ])
    result = ingest(raw, SPEC)
    assert len(result.dialogues) == 2
    first = result.dialogues[0]
    assert first.id == "demo:1"
    assert first.roles == ("agent", "user")
    # the two consecutive user turns merged
    assert len(first.turns) == 2
    assert first.turns[1].text == "My order is late. It was due monday."
    assert all(validate_dialogue(d) == [] for d in result.dialogues)


def test_ingest_alias_map(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [
        {"conv": 1, "speaker": "agent", "text": "hello"},
        {"conv": 1, "speaker": "user", "text": "hi"},
    ])
    spec = IngestSpec(speaker_field="speaker", utterance_field="text",
                      id_field="conv", dataset_tag="demo",
                      aliases={"agent": "Agent"})
    result = ingest(raw, spec)
    assert result.dialogues[0].roles == ("Agent", "user")


def test_ingest_drops_empty_utterance(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [
        {"conv": 1, "speaker": "a", "text": "hello"},
        {"conv": 1, "speaker": "b", "text": "  ​ "},
        {"conv": 1, "speaker": "a", "text": "anyone?"},
    ])
    result = ingest(raw, SPEC)
    # empty middle turn dropped, the two speaker-a turns then merge
    assert len(result.dialogues) == 1
    assert [t.text for t in result.dialogues[0].turns] == ["hello anyone?"]
    assert result.report.dropped_empty_utterances == 1


def test_ingest_drops_all_empty_dialogue(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [
        {"conv": 9, "speaker": "a", "text": "   "},
        {"conv": 9, "speaker": "b", "text": ""},
    ])
    result = ingest(raw, SPEC)
    assert result.dialogues == ()
    assert result.report.dropped_empty_dialogues == ["demo:9"]


def test_ingest_rejects_marker_text(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [
        {"conv": 1, "speaker": "a", "text": "this has <mask> inside"},
        {"conv": 1, "speaker": "b", "text": "ok"},
    ])
    result = ingest(raw, SPEC)
    assert result.dialogues == ()
    assert result.report.dropped_invalid_dialogues == ["demo:1"]


def test_ingest_unmapped_field(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [{"conv": 1, "speaker": "a"}])
    with pytest.raises(UnmappedFieldError) as err:
        ingest(raw, SPEC)
    assert err.value.name == "text"


def test_ingest_rejects_reappearing_raw_id(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [
        {"conv": "a", "speaker": "x", "text": "one"},
        {"conv": "a", "speaker": "y", "text": "two"},
        {"conv": "b", "speaker": "x", "text": "three"},
        {"conv": "a", "speaker": "x", "text": "four"},
    ])
    with pytest.raises(MalformedRecordError) as err:
        ingest(raw, SPEC)
    assert err.value.line_number == 4
    assert "'a'" in err.value.reason


def test_ingest_takes_integer_speakers_and_ids(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _write_raw(raw, [{"conv": 7, "speaker": 1, "text": "hi"},
                     {"conv": 7, "speaker": 2, "text": "yo"}])
    (d,) = ingest(raw, SPEC).dialogues
    assert (d.id, d.roles) == ("demo:7", ("1", "2"))


# Raw speakers: aliased ones, several that normalize to one name ("Ann"),
# some that normalize to nothing, marker-like names, and integers.
_ALIASES = {"agent": "Ann", "u1": " Ann\t", "ghost": "\u200b", "sys": "<s>", "7": "Ann"}
_SPEAKERS = st.one_of(
    st.sampled_from(["Ann", " Ann", "Ann\u200b", "A\x00nn", "agent", "u1", "ghost", "sys",
                     "Bob", "bob", "B ob", "B  ob", "Bob’s", "", "  ", "\ufeff",
                     "<eou>", "x<mask>y", "<", "Ann`"]),
    st.integers(0, 8))
_UTTERANCES = st.one_of(
    st.sampled_from(["", " ", "\u200b", "\t\n", "hello", "hi  there", " well… ok ",
                     "“quoted”", "a <mask> b", "<s>", "x <eou", "mask> y", "a`b", "é\x7f",
                     "line\u2028break", "\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
_DIALOGUE_ROWS = st.lists(st.tuples(_SPEAKERS, _UTTERANCES), min_size=1, max_size=7)


@settings(max_examples=300, deadline=None)
@given(dialogues=st.lists(_DIALOGUE_ROWS, max_size=5), int_ids=st.booleans())
def test_ingest_matches_per_row_oracle(tmp_path_factory, dialogues, int_ids):
    raw = tmp_path_factory.mktemp("raw") / "raw.jsonl"
    _write_raw(raw, [{"conv": i if int_ids else f"c{i}", "speaker": speaker, "text": text}
                     for i, rows in enumerate(dialogues) for speaker, text in rows])
    spec = SPEC._replace(aliases=_ALIASES)
    result = ingest(raw, spec)
    expected, report = oracle_ingest(raw, spec)
    assert result.dialogues == expected
    assert vars(result.report) == report


def test_spec_requires_mapping():
    with pytest.raises(ValueError):
        IngestSpec(speaker_field="", utterance_field="t", id_field="i", dataset_tag="x")
    with pytest.raises(ValueError):
        IngestSpec(speaker_field="s", utterance_field="t", id_field="i", dataset_tag="")


def test_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "speaker_field": "who", "utterance_field": "said",
        "id_field": "dlg", "dataset_tag": "tagged",
        "aliases": {"u1": "Customer"}}))
    spec = IngestSpec.from_file(path)
    assert spec.dataset_tag == "tagged"
    assert spec.aliases == {"u1": "Customer"}
