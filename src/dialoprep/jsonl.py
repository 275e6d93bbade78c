"""The one parser and the one formatter of JSON: record files, config files, HTTP bodies.

Each stage hands its work to the next as a UTF-8 file of one JSON object per
line, which :func:`write_lines` writes. Whole files are written to a
temporary file beside the target that replaces it only after the last byte,
so a failure leaves any earlier file.
A config file holds one JSON object; the annotation endpoint exchanges JSON
bodies. A record line is decoded where it starts, and only a line that is
not one whole value (leading whitespace, extra data, a byte-order mark,
invalid JSON) goes through ``json.loads`` for its result or its message.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import MalformedRecordError


# Decodes one value at the start of a line and says where it ends: it skips
# the strip, the BOM test and the two whitespace scans of ``json.loads``.
_decode_value = json.JSONDecoder().raw_decode


def read(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, obj)`` per non-blank line; blank lines still count.

    Invalid JSON and a line that is not an object raise MalformedRecordError.

    A line is first decoded where it stands: when it starts with a value and
    only whitespace follows it, that value is what ``json.loads`` gives for
    the stripped line. Any other line (leading whitespace, extra data, a
    byte-order mark, invalid JSON) is stripped and handed to ``json.loads``,
    so every message is the one it gives.
    """
    with open(path, encoding="utf-8") as fh:
        for line_number, text in enumerate(fh, start=1):
            try:
                obj, end = _decode_value(text)
                whole = end == len(text) or text[end:].isspace()
            except ValueError:  # JSONDecodeError included
                whole = False
            if not whole:
                text = text.strip()
                if not text:
                    continue
                try:
                    obj = json.loads(text)
                except ValueError as exc:  # also an integer too long to convert
                    message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                    raise MalformedRecordError(line_number, f"invalid JSON: {message}") from exc
            if not isinstance(obj, dict):
                raise MalformedRecordError(line_number, "record is not an object")
            yield line_number, obj


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_JSON_TYPE_NAMES = {dict: "an object", str: "a string", int: "an integer", float: "a number"}


def read_object(path: str | Path, fields: Mapping[str, type] | None = None) -> dict:
    """The one JSON object a whole file holds, such as a config file.

    With ``fields``, every key must be one of them and its value of that type
    (``float`` accepts any JSON number). Invalid JSON (``NaN`` and
    ``Infinity`` included), a document that is not an object, an unknown key
    or a mistyped value raise ValueError naming the file and the field.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_refuse_constant)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the file does not hold a JSON object")
    if fields is None:
        return obj
    for key, value in obj.items():
        if key not in fields:
            raise ValueError(f"{path}: unknown field {key!r}")
        expected = fields[key]
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if expected is float else expected):
            raise ValueError(f"{path}: field {key!r} must be {_JSON_TYPE_NAMES[expected]}")
    return obj


def encode(obj) -> bytes:
    """A request body: compact ASCII JSON, with NaN and infinities refused (ValueError)."""
    return json.dumps(obj, allow_nan=False).encode("ascii")


def decode(text: str):
    """The JSON value ``text`` holds; ValueError when it holds none."""
    return json.loads(text)


# json.dumps(obj, ensure_ascii=False) builds an encoder per call; this one is
# built once with the same settings and holds no state between calls.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def line(obj: dict) -> str:
    """One record's line: fixed JSON formatting, non-ASCII kept, newline-terminated."""
    return _LINE_ENCODER.encode(obj) + "\n"


#: ``text`` as the JSON string that :func:`line` writes for it: quoted, with
#: ``"``, ``\\`` and U+0000-U+001F escaped and everything else kept. The line
#: encoder calls this very function for every string, so a line assembled
#: from its results is byte-identical to :func:`line`'s.
string = json.encoder.encode_basestring


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # Writes of 64 KB, not of the file system's block size (often 4 KB):
        # a pairs file runs to megabytes.
        with open(tmp, "w", encoding="utf-8", buffering=1 << 16) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Replace ``path`` with ``lines``, each ending in a newline, written as
    drawn; the count."""
    count = 0
    with _replacing(path) as fh:
        for count, text in enumerate(lines, start=1):
            fh.write(text)
    return count


def write_json(path: str | Path, obj) -> None:
    """Replace ``path`` with one indented JSON document and a newline.

    NaN and infinities have no JSON form: they raise ValueError, and ``path``
    is left as it was.
    """
    with _replacing(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=2, allow_nan=False) + "\n")
