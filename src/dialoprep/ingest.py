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
from dataclasses import dataclass, field
from pathlib import Path

from . import jsonl
from .errors import MalformedRecordError, UnmappedFieldError
from .records import RESERVED_MARKERS, Dialogue, Turn, validate_dialogue

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


@dataclass(frozen=True)
class IngestSpec:
    """Field mapping for one raw dataset export."""

    speaker_field: str
    utterance_field: str
    id_field: str
    dataset_tag: str
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.speaker_field or not self.utterance_field:
            raise ValueError("speaker_field and utterance_field must both be mapped")
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


@dataclass
class IngestReport:
    """What happened to the raw records that did not become dialogue content."""

    dialogues: int = 0
    dropped_empty_utterances: int = 0
    dropped_empty_dialogues: list[str] = field(default_factory=list)
    dropped_invalid_dialogues: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class IngestResult:
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


def ingest(path: str | Path, spec: IngestSpec) -> IngestResult:
    """Read a raw export and return normalized, merged, validated dialogues.

    Speaker order of first appearance defines each dialogue's role table.
    Dialogues whose utterances all normalize to nothing are dropped and
    counted in the report. A raw id that reappears after other rows would
    make two dialogues with one id, so it raises :class:`MalformedRecordError`.
    """
    report = IngestReport()
    dialogues: list[Dialogue] = []
    current_id: str | None = None
    current: list[tuple[str, str]] = []

    def flush():
        if current_id is None:
            return
        d = _build_dialogue(current_id, current, spec, report)
        if d is not None:
            dialogues.append(d)

    seen_ids: set[str] = set()
    for line_number, obj in jsonl.read(path):
        for name in (spec.speaker_field, spec.utterance_field, spec.id_field):
            if name not in obj:
                raise UnmappedFieldError(name)
        raw_id = str(obj[spec.id_field])
        if raw_id != current_id:
            if raw_id in seen_ids:
                raise MalformedRecordError(
                    line_number, f"dialogue id {raw_id!r} reappears after other rows")
            seen_ids.add(raw_id)
            flush()
            current_id = raw_id
            current = []
        current.append((str(obj[spec.speaker_field]), str(obj[spec.utterance_field])))
    flush()
    report.dialogues = len(dialogues)
    return IngestResult(dialogues=tuple(dialogues), report=report)
