"""The one tokenizer of every statistic and similarity, apart from
:mod:`dialoprep.metrics` so that clean and noise tokenize without loading it."""

from __future__ import annotations

import re

# Unicode letters and digits; underscore excluded.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same split on ASCII text: every ASCII character the pattern does not
# match becomes a space, and ``split`` drops the runs of spaces.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})

#: Recorded in reports so stored statistics name the convention they used.
TOKENIZER_LABEL = "lowercase, non-alphanumeric split, no stemming"


def tokenize_for_metrics(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric run. Never yields empty tokens.

    The ASCII test is made after lowercasing, because some non-ASCII
    characters lowercase to ASCII ones (U+212A KELVIN SIGN to ``k``)."""
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(lowered)
