"""Record files: the one parser and the one writer of line-delimited JSON.

Each stage hands its work to the next as a UTF-8 file of one JSON object per
line. Whole files are written to a temporary file beside the target that
replaces it only after the last byte, so a failure leaves any earlier file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import MalformedRecordError


def read(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, obj)`` per non-blank line; blank lines still count.

    Invalid JSON and a line that is not an object raise MalformedRecordError.
    """
    with open(path, encoding="utf-8") as fh:
        for line_number, text in enumerate(fh, start=1):
            text = text.strip()
            if not text:
                continue
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(line_number, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise MalformedRecordError(line_number, "record is not an object")
            yield line_number, obj


def line(obj: dict) -> str:
    """One record's line: fixed JSON formatting, non-ASCII kept, newline-terminated."""
    return json.dumps(obj, ensure_ascii=False) + "\n"


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path: str | Path, objs: Iterable[dict]) -> int:
    """Replace ``path`` with one line per object, written as drawn from ``objs``; the count."""
    count = 0
    with _replacing(path) as fh:
        for count, obj in enumerate(objs, start=1):
            fh.write(line(obj))
    return count


def write_json(path: str | Path, obj) -> None:
    """Replace ``path`` with one indented JSON document and a newline."""
    with _replacing(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=2) + "\n")
