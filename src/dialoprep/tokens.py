"""The one tokenizer of every statistic and similarity, apart from
:mod:`dialoprep.metrics` so that clean and noise tokenize without loading it.

ASCII text is lowercased and split by one byte table, which gives the
regular expression's tokens: on ASCII the pattern matches exactly the
letters and digits, and ``str.lower`` changes only ``A``-``Z``."""

from __future__ import annotations

import re

# Unicode letters and digits; underscore excluded.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same split on ASCII text, as a 256-byte table for ``bytes.translate``:
# an ASCII letter or digit maps to its lowercase form, every other byte to a
# space, and ``split`` drops the runs of spaces. (``str.translate`` with a
# dict looks each character up again on every call.)
_ASCII_TOKENS = bytes(ord(c.lower()) if c.isascii() and c.isalnum() else 32
                      for c in map(chr, range(256)))

#: Recorded in reports so stored statistics name the convention they used.
TOKENIZER_LABEL = "lowercase, non-alphanumeric split, no stemming"


def tokenize_for_metrics(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric run. Never yields empty tokens.

    ASCII text goes through the byte table, which lowercases ASCII exactly as
    ``str.lower`` does. Other text is lowercased first and takes the table
    only if it is ASCII then, because some non-ASCII characters lowercase to
    ASCII ones (U+212A KELVIN SIGN to ``k``); else the regular expression."""
    if not text.isascii():
        text = text.lower()
        if not text.isascii():
            return _TOKEN_RE.findall(text)
    return text.encode().translate(_ASCII_TOKENS).decode().split()
