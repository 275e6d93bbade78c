"""Turn raw dataset exports into canonical dialogues.

The generic source format is line-delimited JSON with one utterance per line.
Field names come from an :class:`IngestSpec`; consecutive lines whose id field
holds the same value form one dialogue, in file order. Twenty bespoke dataset
adapters would all reduce to this shape, so the adapter IS the spec file.

Utterances are normalized before anything else. Normalization collapses
whitespace, strips ends, maps curly quotes / long dashes / ellipses to their
plain ASCII forms, and removes control and format characters; it never
case-folds content. The exact table lives in ``_CHAR_MAP`` and is fixed so
downstream statistics are reproducible.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import jsonl
from .errors import MalformedRecordError, UnmappedFieldError
from .records import RESERVED_MARKERS, Dialogue, Turn, validate_dialogue, validated

_CHAR_MAP = str.maketrans({
    "‘": "'", "’": "'", "‚": "'", "‛": "'",  # curly single quotes
    "ʼ": "'", "´": "'", "`": "'",                 # modifier/spacing accents
    "“": '"', "”": '"', "„": '"', "‟": '"',  # curly double quotes
    "«": '"', "»": '"',                                # guillemets
    "‐": "-", "‑": "-", "‒": "-", "–": "-",  # hyphens, en dash
    "—": "-", "―": "-", "−": "-",                 # em dash, bar, minus
    "…": "...",
})


def normalize_text(raw: str) -> str:
    """Normalize punctuation, special characters and whitespace. Idempotent."""
    text = raw.translate(_CHAR_MAP)
    # Printable text holds no Cc/Cf character: the filter would keep it whole.
    if not text.isprintable():
        text = "".join(
            ch for ch in text
            if ch.isspace() or unicodedata.category(ch) not in ("Cc", "Cf"))
    return " ".join(text.split())


def merge_same_speaker(d: Dialogue) -> Dialogue:
    """Concatenate consecutive turns by the same speaker into one turn (dual-turn form).

    Texts are joined with a single space; turn order is otherwise preserved.
    Idempotent.
    """
    merged: list[Turn] = []
    for turn in d.turns:
        if merged and merged[-1].role_index == turn.role_index:
            merged[-1] = Turn(turn.role_index, merged[-1].text + " " + turn.text)
        else:
            merged.append(turn)
    return Dialogue(id=d.id, source_dataset=d.source_dataset,
                    roles=d.roles, turns=tuple(merged))


@validated
class IngestSpec(NamedTuple):
    """Field mapping for one raw dataset export."""

    speaker_field: str
    utterance_field: str
    id_field: str
    dataset_tag: str
    aliases: Mapping[str, str] = MappingProxyType({})

    def _check(self):
        if not self.speaker_field or not self.utterance_field or not self.id_field:
            raise ValueError("speaker_field, utterance_field and id_field must all be mapped")
        if not self.dataset_tag:
            raise ValueError("dataset_tag must be non-empty")

    @classmethod
    def from_file(cls, path: str | Path) -> "IngestSpec":
        obj = jsonl.read_object(path, {"speaker_field": str, "utterance_field": str,
                                       "id_field": str, "dataset_tag": str, "aliases": dict})
        if not all(isinstance(alias, str) for alias in obj.get("aliases", {}).values()):
            raise ValueError(f"{path}: every alias must be a string")
        return cls(
            speaker_field=obj.get("speaker_field", ""),
            utterance_field=obj.get("utterance_field", ""),
            id_field=obj.get("id_field", ""),
            dataset_tag=obj.get("dataset_tag", ""),
            aliases=dict(obj.get("aliases", {})),
        )


class IngestReport:
    """What happened to the raw records that did not become dialogue content."""

    def __init__(self):
        self.dialogues = 0
        self.dropped_empty_utterances = 0
        self.dropped_empty_dialogues: list[str] = []
        self.dropped_invalid_dialogues: list[str] = []


class IngestResult(NamedTuple):
    dialogues: tuple[Dialogue, ...]
    report: IngestReport


def _build_dialogue(raw_id: str, utterances: list[tuple[str, str]],
                    spec: IngestSpec, report: IngestReport) -> Dialogue | None:
    """Assemble one dialogue from (speaker, text) pairs; None if nothing survives."""
    dialogue_id = f"{spec.dataset_tag}:{raw_id}"
    roles: list[str] = []
    turns: list[Turn] = []
    for speaker, text in utterances:
        text = normalize_text(text)
        if not text:
            report.dropped_empty_utterances += 1
            continue
        if "<" in text and any(marker in text for marker in RESERVED_MARKERS):
            report.dropped_invalid_dialogues.append(dialogue_id)
            return None
        speaker = normalize_text(spec.aliases.get(speaker, speaker))
        if not speaker:
            report.dropped_invalid_dialogues.append(dialogue_id)
            return None
        if speaker not in roles:
            roles.append(speaker)
        turns.append(Turn(role_index=roles.index(speaker), text=text))
    if not turns:
        report.dropped_empty_dialogues.append(dialogue_id)
        return None
    d = merge_same_speaker(Dialogue(
        id=dialogue_id, source_dataset=spec.dataset_tag,
        roles=tuple(roles), turns=tuple(turns)))
    violations = validate_dialogue(d)
    if violations:
        # Raw data that still breaks an invariant after normalization and
        # merging (e.g. a marker-like speaker name) is rejected, not patched.
        report.dropped_invalid_dialogues.append(dialogue_id)
        return None
    return d


def _text_of_key(value, name: str, line_number: int) -> str:
    """A raw speaker or id as text. It must be a JSON string or integer; a
    ``true`` passes ``isinstance(value, int)``, but its type is bool."""
    if type(value) not in (str, int):
        raise MalformedRecordError(line_number, f"{name!r} must be a string or an integer")
    return str(value)


def ingest(path: str | Path, spec: IngestSpec) -> IngestResult:
    """Read a raw export and return normalized, merged, validated dialogues.

    Speaker order of first appearance defines each dialogue's role table.
    Dialogues whose utterances all normalize to nothing are dropped and
    counted in the report. Each utterance must be a string, and each speaker
    and raw id a string or an integer. A raw id that reappears after other
    rows would make two dialogues with one id, and so would ``1`` after
    ``"1"``; each of these raises :class:`MalformedRecordError` at its line.
    """
    report = IngestReport()
    dialogues: list[Dialogue] = []
    current_raw = None  # never a raw id's value
    current: list[tuple[str, str]] = []

    def flush():
        if current:
            d = _build_dialogue(str(current_raw), current, spec, report)
            if d is not None:
                dialogues.append(d)

    first_lines: dict[str, int] = {}
    for line_number, obj in jsonl.read(path):
        for name in (spec.speaker_field, spec.utterance_field, spec.id_field):
            if name not in obj:
                raise UnmappedFieldError(name)
        text = obj[spec.utterance_field]
        if type(text) is not str:
            raise MalformedRecordError(line_number, f"{spec.utterance_field!r} must be a string")
        speaker = _text_of_key(obj[spec.speaker_field], spec.speaker_field, line_number)
        raw = obj[spec.id_field]
        raw_id = _text_of_key(raw, spec.id_field, line_number)
        if raw != current_raw:  # 1 and "1" differ here, though their ids do not
            first = first_lines.setdefault(raw_id, line_number)
            if first != line_number:
                raise MalformedRecordError(
                    line_number, f"dialogue id {raw_id!r} reappears (first at line {first})")
            flush()
            current_raw, current = raw, []
        current.append((speaker, text))
    flush()
    report.dialogues = len(dialogues)
    return IngestResult(dialogues=tuple(dialogues), report=report)
