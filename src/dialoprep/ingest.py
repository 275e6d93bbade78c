"""Turn raw dataset exports into canonical dialogues.

The generic source format is line-delimited JSON with one utterance per line.
Field names come from an :class:`IngestSpec`; consecutive lines whose id field
holds the same value form one dialogue, in file order. Twenty bespoke dataset
adapters would all reduce to this shape, so the adapter IS the spec file.

Utterances are normalized before anything else. Normalization collapses
whitespace, strips ends, maps curly quotes / long dashes / ellipses to their
plain ASCII forms, and removes control and format characters; it never
case-folds content. The exact table lives in ``_CHAR_MAP`` and is fixed so
downstream statistics are reproducible. Its one ASCII key is the backtick,
so ASCII text takes one ``str.replace`` instead of the table; and text that
comes out printable, with no space at an end and none doubled, is returned
as it is, because U+0020 is the only printable whitespace character and such
a text is already canonical.

Each dialogue normalizes a raw speaker once: a dict from the raw speaker to
its role index serves every later utterance of it, and same-speaker runs are
merged as the turns are built.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import jsonl
from .errors import MalformedRecordError, UnmappedFieldError
from .records import Dialogue, Turn, markers_in, validate_dialogue, validated

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
    text = raw.replace("`", "'") if raw.isascii() else raw.translate(_CHAR_MAP)
    if text.isprintable():
        # Printable text holds no Cc/Cf character, and no whitespace but
        # U+0020: with single spaces inside it, it is canonical already.
        if text[:1] != " " and text[-1:] != " " and "  " not in text:
            return text
    else:
        text = "".join(
            ch for ch in text
            if ch.isspace() or unicodedata.category(ch) not in ("Cc", "Cf"))
    return " ".join(text.split())


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
        mapped = [name for name in cls._fields if name not in cls._field_defaults]
        obj = jsonl.read_object(path, {**dict.fromkeys(mapped, str), "aliases": dict})
        if not all(isinstance(alias, str) for alias in obj.get("aliases", {}).values()):
            raise ValueError(f"{path}: every alias must be a string")
        return cls(**{**dict.fromkeys(mapped, ""), **obj})  # "" fails _check


class IngestReport:
    """What happened to the raw records that did not become dialogue content."""

    def __init__(self):
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
    roles: dict[str, int] = {}  # normalized name -> role index
    role_of: dict[str, int] = {}  # raw speaker -> role index
    indices: list[int] = []
    texts: list[str] = []
    for speaker, text in utterances:
        text = normalize_text(text)
        if not text:
            report.dropped_empty_utterances += 1
            continue
        if markers_in(text):
            report.dropped_invalid_dialogues.append(dialogue_id)
            return None
        index = role_of.get(speaker)
        if index is None:
            name = normalize_text(spec.aliases.get(speaker, speaker))
            if not name:
                report.dropped_invalid_dialogues.append(dialogue_id)
                return None
            index = role_of[speaker] = roles.setdefault(name, len(roles))
        if indices and indices[-1] == index:  # a same-speaker run merges
            texts[-1] += " " + text
        else:
            indices.append(index)
            texts.append(text)
    if not texts:
        report.dropped_empty_dialogues.append(dialogue_id)
        return None
    d = Dialogue(id=dialogue_id, source_dataset=spec.dataset_tag, roles=tuple(roles),
                 turns=tuple(map(Turn, indices, texts)))
    # Normalized texts and names are canonical and the texts hold no marker,
    # so only a role name holding "<" can still break an invariant (e.g. a
    # marker-like speaker name): such a dialogue is rejected, not patched.
    if any("<" in name for name in roles) and validate_dialogue(d):
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
    current_raw = object()  # never a raw id's value
    current: list[tuple[str, str]] = []

    def flush():
        if current:
            d = _build_dialogue(str(current_raw), current, spec, report)
            if d is not None:
                dialogues.append(d)

    first_lines: dict[str, int] = {}
    fields = (spec.speaker_field, spec.utterance_field, spec.id_field)
    for line_number, obj in jsonl.read(path):
        try:
            speaker, text, raw = obj[fields[0]], obj[fields[1]], obj[fields[2]]
        except KeyError:
            raise UnmappedFieldError(next(name for name in fields if name not in obj)) from None
        if type(text) is not str:
            raise MalformedRecordError(line_number, f"{spec.utterance_field!r} must be a string")
        if type(speaker) is not str:
            speaker = _text_of_key(speaker, spec.speaker_field, line_number)
        # An id equal to the current one, and of its type, was checked at
        # the dialogue's first row (``true`` equals 1, and 1 and "1" give
        # one id).
        if raw != current_raw or type(raw) is not type(current_raw):
            raw_id = _text_of_key(raw, spec.id_field, line_number)
            first = first_lines.setdefault(raw_id, line_number)
            if first != line_number:
                raise MalformedRecordError(
                    line_number, f"dialogue id {raw_id!r} reappears (first at line {first})")
            flush()
            current_raw, current = raw, []
        current.append((speaker, text))
    flush()
    return IngestResult(dialogues=tuple(dialogues), report=report)
