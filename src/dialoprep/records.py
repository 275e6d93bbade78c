"""Canonical dialogue / summary records and their line-delimited file format.

A corpus file holds one JSON record per line (UTF-8). Dialogue records carry
``schema_version``, ``id``, ``source_dataset``, ``roles`` and ``turns``;
parallel records additionally carry ``summaries``. In memory both are a
:class:`Dialogue`, a parallel record's with ``summaries`` not empty. The
records, and the configs of every layer, are immutable values, safe to share
across threads: ``NamedTuple`` types, compared and hashed field for field. A
config type checks its fields in the constructor, through :func:`validated`.

Utterance and role texts are stored whitespace-canonical (non-empty, equal to
``" ".join(text.split())``: single U+0020 spaces, no other whitespace, none at
the ends) and must not contain the reserved marker strings, ``BOS`` to
``UTTR_MASK``, defined here for the serialization layer; :func:`markers_in`
is the one test for them. Both rules are enforced by :func:`validate_dialogue`
rather than escaped at write time, so corrupted inputs can never be confused
with control tokens downstream.

A record is written as :func:`record_line` assembles it from
``jsonl.string`` of each text, the escaper the JSON encoder itself calls, so
the line is ``jsonl.line`` of the record's JSON object without building the
object. Loading checks a record in the pass that builds its turns and
calls :func:`validate_dialogue` only for a record that fails a cheap check,
so every message still comes from the validator.

There is one reader, for both kinds of record: :func:`iter_corpus` yields
each record as its line is read, validated and with its id checked unique,
and with its summaries when it has them: a stage that uses summaries checks
each record where it uses it. A stage that keeps
something smaller than the records (``noise`` keeps a compact form of each)
never holds them all. :func:`load_corpus` is its list. :func:`save_corpus`
writes records as they are drawn, so a stage that maps one record to one
(``roles``, ``augment``) streams from reader to writer, and returns what it
wrote (:class:`Written`), the facts a manifest's ``corpus`` block needs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import jsonl
from .errors import MalformedRecordError

SCHEMA_VERSION = 1

#: Serialization markers (see ``noising``): dialogue start and end, role and
#: utterance ends, a masked span, a masked utterance.
BOS, EOS, EOR, EOU, MASK, UTTR_MASK = "<s>", "</s>", "<eor>", "<eou>", "<mask>", "<uttr-mask>"

#: Strings that may never occur inside role or utterance text.
RESERVED_MARKERS = (BOS, EOS, EOR, EOU, MASK, UTTR_MASK)

SUMMARY_ORIGINS = ("annotated", "reference", "augmented")


def validated(cls):
    """Pass each value that the NamedTuple class ``cls`` makes, ``_replace``'s
    too, through ``cls._check``, which raises for an invalid value and may
    return a value to keep in its place, its fields converted. (A
    NamedTuple's body may not define ``__new__`` or ``_make``.)"""
    make = cls.__new__

    def __new__(cls_, *args, **kwargs):
        value = make(cls_, *args, **kwargs)
        return value._check() or value

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls_, iterable: cls_(*iterable))
    return cls


class Turn(NamedTuple):
    """One utterance, owned by the role at ``role_index`` in the dialogue's role table."""

    role_index: int
    text: str


class SummaryRecord(NamedTuple):
    text: str
    origin: str  # one of SUMMARY_ORIGINS


class Dialogue(NamedTuple):
    """A multi-turn dialogue in dual-turn form (no two consecutive turns share
    a speaker); a parallel record is one whose ``summaries`` is not empty."""

    id: str
    source_dataset: str
    roles: tuple[str, ...]
    turns: tuple[Turn, ...]
    summaries: tuple[SummaryRecord, ...] = ()


def is_canonical(text: str) -> bool:
    """Non-empty, and no whitespace but single spaces between other characters."""
    if text.isprintable():
        # U+0020 is the only whitespace character that is printable, so a
        # printable text is canonical exactly when its spaces are single
        # and inside it.
        return text != "" and text[0] != " " and text[-1] != " " and "  " not in text
    return text == " ".join(text.split()) and text != ""


def markers_in(text: str) -> list[str]:
    """The reserved markers ``text`` holds, in ``RESERVED_MARKERS`` order (none: empty)."""
    if "<" not in text:  # every reserved marker starts with "<"
        return []
    return [marker for marker in RESERVED_MARKERS if marker in text]


def validate_dialogue(d: Dialogue) -> list[str]:
    """Return every violated invariant of ``d`` (empty list means valid).

    Violations are data, not errors: callers decide whether to raise, drop,
    or report.
    """
    violations: list[str] = []
    if not d.turns:
        violations.append("dialogue has no turns")
    if not d.roles:
        violations.append("dialogue has no roles")
    seen_roles = set()
    for i, role in enumerate(d.roles):
        if not is_canonical(role):
            violations.append(f"role {i}: name is empty or not whitespace-canonical")
        for marker in markers_in(role):
            violations.append(f"role {i}: reserved marker {marker!r} in name")
        if role in seen_roles:
            violations.append(f"role {i}: duplicate role name {role!r}")
        seen_roles.add(role)
    prev_index = None
    for i, turn in enumerate(d.turns):
        if not 0 <= turn.role_index < len(d.roles):
            violations.append(f"turn {i}: role_index out of range")
        if not is_canonical(turn.text):
            violations.append(f"turn {i}: text is empty or not whitespace-canonical")
        for marker in markers_in(turn.text):
            violations.append(f"turn {i}: reserved marker {marker!r} in text")
        if prev_index is not None and turn.role_index == prev_index:
            violations.append(f"turn {i}: consecutive turns share speaker")
        prev_index = turn.role_index
    return violations


def render_dialogue_text(d: Dialogue) -> str:
    """Render a dialogue as one ``role: utterance`` line per turn."""
    return "\n".join(f"{d.roles[t.role_index]}: {t.text}" for t in d.turns)


def _dialogue_fields(d: Dialogue) -> str:
    string = jsonl.string
    turns = ", ".join([f'{{"role_index": {t.role_index}, "text": {string(t.text)}}}'
                       for t in d.turns])
    return (f'{{"schema_version": {SCHEMA_VERSION}, "id": {string(d.id)}, '
            f'"source_dataset": {string(d.source_dataset)}, '
            f'"roles": [{", ".join(map(string, d.roles))}], "turns": [{turns}]')


def record_line(d: Dialogue) -> str:
    """The line save_corpus writes for one record: ``jsonl.line`` of its JSON object,
    assembled from ``jsonl.string`` of each text without building the object;
    ``"summaries"`` is written when there are any."""
    if not d.summaries:
        return _dialogue_fields(d) + "}\n"
    string = jsonl.string
    summaries = ", ".join([f'{{"text": {string(s.text)}, "origin": {string(s.origin)}}}'
                           for s in d.summaries])
    return f'{_dialogue_fields(d)}, "summaries": [{summaries}]}}\n'


def _require(obj: dict, key: str, line_number: int):
    if key not in obj:
        raise MalformedRecordError(line_number, f"record missing {key!r} field")
    return obj[key]


def _require_str(obj: dict, key: str, line_number: int) -> str:
    value = _require(obj, key, line_number)
    if not isinstance(value, str):
        raise MalformedRecordError(line_number, f"{key} must be a string")
    return value


def dialogue_from_obj(obj: dict, line_number: int = 0) -> Dialogue:
    """Parse and validate one record object (as read by load_corpus), its
    ``summaries`` too when it has the key.

    The pass that builds the turns also makes the checks that a valid
    record passes: distinct role names, each turn's role in range and unlike
    the one before, and the names and texts, joined by single spaces,
    canonical and free of ``<`` (so of every marker). The join is canonical
    exactly when each of them is canonical and not empty, since an empty
    text or an edge space would meet a joining space or an end. Only a
    record that fails a check goes to :func:`validate_dialogue`, which words
    every violation.
    """
    version = _require(obj, "schema_version", line_number)
    if type(version) is not int or version != SCHEMA_VERSION:  # not true, not 1.0
        raise MalformedRecordError(line_number, f"unsupported schema_version {version!r}")
    roles = _require(obj, "roles", line_number)
    raw_turns = _require(obj, "turns", line_number)
    if not isinstance(roles, list) or not all(isinstance(r, str) for r in roles):
        raise MalformedRecordError(line_number, "roles must be an array of strings")
    if not isinstance(raw_turns, list):
        raise MalformedRecordError(line_number, "turns must be an array")
    turns = []
    texts = roles[:]
    n_roles, prev_index, alternating = len(roles), -1, True
    for t in raw_turns:
        if not isinstance(t, dict) or "role_index" not in t or "text" not in t:
            raise MalformedRecordError(line_number, "turn must have role_index and text")
        role_index, text = t["role_index"], t["text"]
        if isinstance(role_index, bool) or not isinstance(role_index, int):
            raise MalformedRecordError(line_number, "turn role_index must be an integer")
        if not isinstance(text, str):
            raise MalformedRecordError(line_number, "turn text must be a string")
        if role_index == prev_index or not 0 <= role_index < n_roles:
            alternating = False
        prev_index = role_index
        turns.append(Turn(role_index, text))
        texts.append(text)
    d = Dialogue(
        id=_require_str(obj, "id", line_number),
        source_dataset=_require_str(obj, "source_dataset", line_number),
        roles=tuple(roles),
        turns=tuple(turns),
    )
    joined = " ".join(texts)
    if not (raw_turns and alternating and len(set(roles)) == n_roles
            and "<" not in joined and is_canonical(joined)):
        violations = validate_dialogue(d)
        if violations:
            raise MalformedRecordError(line_number, "; ".join(violations))
    if "summaries" not in obj:
        return d
    raw = obj["summaries"]
    if not isinstance(raw, list) or not raw:
        raise MalformedRecordError(line_number, "summaries must be a non-empty array")
    summaries = []
    for s in raw:
        if not isinstance(s, dict) or "text" not in s or "origin" not in s:
            raise MalformedRecordError(line_number, "summary must have text and origin")
        if s["origin"] not in SUMMARY_ORIGINS:
            raise MalformedRecordError(line_number, f"unknown summary origin {s['origin']!r}")
        if not isinstance(s["text"], str):
            raise MalformedRecordError(line_number, "summary text must be a string")
        if not s["text"]:
            raise MalformedRecordError(line_number, "summary text is empty")
        summaries.append(SummaryRecord(text=s["text"], origin=s["origin"]))
    return d._replace(summaries=tuple(summaries))


def iter_corpus(path: str | Path) -> Iterator[Dialogue]:
    """The records of a corpus file, each yielded as soon as its line is read,
    with ``summaries`` filled from a record that has them.

    Every yielded record is fully validated, and dialogue ids are unique;
    the first bad line, or the second line with an id, raises
    :class:`MalformedRecordError` with its 1-based line number, after the
    records of the lines before it.
    """
    first_lines: dict[str, int] = {}
    for line_number, obj in jsonl.read(path):
        record = dialogue_from_obj(obj, line_number)
        first = first_lines.setdefault(record.id, line_number)
        if first != line_number:
            raise MalformedRecordError(
                line_number, f"dialogue id {record.id!r} reappears (first at line {first})")
        yield record


def load_corpus(path: str | Path) -> list[Dialogue]:
    """The records of a corpus file, as a list: see :func:`iter_corpus`."""
    return list(iter_corpus(path))


class Written(NamedTuple):
    """What :func:`save_corpus` wrote: the record count, and each record's
    ``source_dataset`` once, in order of first appearance."""

    examples: int
    source_datasets: tuple[str, ...]


def save_corpus(records: Iterable[Dialogue], path: str | Path) -> Written:
    """Write records to ``path``, one JSON object per line, as they are drawn.

    Output bytes are a pure function of the records: field order and JSON
    formatting are fixed. ``path`` is replaced only after the last record.
    """
    sources: dict[str, None] = {}

    def lines() -> Iterator[str]:
        for d in records:
            sources[d.source_dataset] = None
            yield record_line(d)

    return Written(jsonl.write_lines(path, lines()), tuple(sources))

