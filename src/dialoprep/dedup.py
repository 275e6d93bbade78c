"""Duplicate removal, evaluation-set leakage removal, and minimum-size filtering.

Similarity is Jaccard over shingle sets built from utterance text only (role
names are randomized later and would only add noise). Decisions are exact and
sequential in input order, first occurrence wins, so results are order-stable.
The pair search is an exact filtered similarity join (prefix filtering as in
AllPairs, Bayardo et al. 2007, and PPJoin, Xiao et al. 2008): shingles become
integer ids, rarest first, each set is posted under its shortest prefix that
any set at or above the threshold must share, and every candidate passes a
length filter and is verified on integer bitsets. The filters only skip pairs
that cannot reach the threshold, so the result is the brute-force scan's.
A :class:`ShingleIndex` tokenizes each dialogue once for all three filters.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from . import jsonl
from .metrics import tokenize_for_metrics
from .records import Dialogue


@dataclass(frozen=True)
class DedupConfig:
    jaccard_threshold: float = 0.8
    shingle_k: int = 1  # 1 = unigram token sets; k > 1 = k-token shingles
    min_turns: int = 4
    min_tokens: int = 32

    def __post_init__(self):
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ValueError("jaccard_threshold must be in (0, 1]")
        if self.shingle_k < 1:
            raise ValueError("shingle_k must be >= 1")
        if self.min_turns < 1 or self.min_tokens < 1:
            raise ValueError("min_turns and min_tokens must be >= 1")

    @classmethod
    def from_file(cls, path: str | Path) -> "DedupConfig":
        """Fields from a JSON object; each value has its default's type."""
        return cls(**jsonl.read_object(path, {f.name: type(f.default) for f in fields(cls)}))


@dataclass(frozen=True)
class RemovalRecord:
    removed_id: str
    reason: str
    matched_id: str | None = None
    score: float | None = None

    def to_dict(self) -> dict:
        obj: dict = {"removed_id": self.removed_id, "reason": self.reason}
        if self.matched_id is not None:
            obj["matched_id"] = self.matched_id
        if self.score is not None:
            obj["score"] = self.score
        return obj


def save_removal_report(records: Iterable[RemovalRecord], path: str | Path) -> int:
    return jsonl.write(path, (r.to_dict() for r in records))


def _shingles(tokens: Sequence[str], k: int) -> frozenset:
    if k == 1:
        return frozenset(tokens)
    return frozenset(tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1))


def dialogue_text(d: Dialogue) -> str:
    """Utterance text of a dialogue, roles excluded."""
    return " ".join(t.text for t in d.turns)


def dialogue_shingles(d: Dialogue, shingle_k: int = 1) -> frozenset:
    return _shingles(tokenize_for_metrics(dialogue_text(d)), shingle_k)


# ---------------------------------------------------------------------------
# Exact filtered similarity join
# ---------------------------------------------------------------------------

def _size_bounds(size: int, threshold: float) -> tuple[int, int]:
    """Sizes a set may have and still reach ``threshold`` with a set of ``size``
    shingles, since J <= min / max; tested with the verifier's own float
    division, which ``ceil(threshold * size)`` can round away from.

    The lower bound is also the fewest shingles such a pair shares: inter / size
    >= inter / union, and correctly rounded division keeps that order."""
    lo = max(1, int(threshold * size))
    while lo > 1 and (lo - 1) / size >= threshold:
        lo -= 1
    while lo / size < threshold:
        lo += 1
    hi = int(size / threshold)
    while size / (hi + 1) >= threshold:
        hi += 1
    while size / hi < threshold:
        hi -= 1
    return lo, hi


class _PrefixJoin:
    """Exact candidate filter for Jaccard >= threshold (AllPairs / PPJoin prefix
    filtering) over sets encoded by a :class:`ShingleIndex`.

    Two sets at J >= threshold share at least ``lo`` shingles, so their first
    ``size - lo + 1`` ids intersect under any fixed shingle order, and every such
    pair is a candidate. Candidates pass the length filter and are verified
    exactly in ascending row order, so the first match is the lowest reference
    row at or above the threshold."""

    def __init__(self, threshold: float):
        self._threshold = threshold
        self._postings: dict[int, list[int]] = {}
        self._sets: list[tuple[int, int]] = []
        self._first_empty: int | None = None

    def add(self, entry: tuple) -> None:
        """Index an encoded set as the next reference row."""
        size, bits, prefix, _, _ = entry
        row = len(self._sets)
        self._sets.append((size, bits))
        if size == 0 and self._first_empty is None:
            self._first_empty = row
        for i in prefix:
            self._postings.setdefault(i, []).append(row)

    def first_match(self, entry: tuple) -> tuple[int, float] | None:
        """(row, score) of the lowest reference row at J >= threshold, or None."""
        size, bits, prefix, lo, hi = entry
        if size == 0:  # two empty sets score 1.0; an empty and a non-empty one 0.0
            return None if self._first_empty is None else (self._first_empty, 1.0)
        candidates: set[int] = set()
        for i in prefix:
            candidates.update(self._postings.get(i, ()))
        for row in sorted(candidates):
            other, other_bits = self._sets[row]
            if lo <= other <= hi:
                inter = (bits & other_bits).bit_count()
                score = inter / (size + other - inter)
                if score >= self._threshold:
                    return row, score
        return None


@dataclass(frozen=True)
class _Profile:
    """What the clean filters read of one dialogue, from one tokenization."""

    shingles: frozenset
    tokens: int  # utterance tokens, the count ``filter_min_size`` bounds


def _profile(d: Dialogue, shingle_k: int) -> _Profile:
    """Tokenizes turn by turn. Neither a token nor the context of a case
    mapping (final sigma) crosses the space ``dialogue_text`` joins turns with,
    so the tokens are the joined text's and the shingles ``dialogue_shingles``.
    Tokens are interned: an index holds the sets of all dialogues at once, and
    then holds one string per distinct token instead of one per occurrence."""
    tokens: list[str] = []
    for turn in d.turns:
        tokens += map(sys.intern, tokenize_for_metrics(turn.text))
    return _Profile(_shingles(tokens, shingle_k), len(tokens))


class ShingleIndex:
    """Dialogues tokenized once for the clean filters.

    For each dialogue object it is built from, keyed by the object's identity,
    it holds the utterance token count and the shingle set encoded as (size,
    bitset, prefix, lo, hi), where [lo, hi] are the set sizes it can still
    reach the threshold with; it keeps the objects alive so the keys stay
    valid. All the sets are numbered together, rarest shingle first, ties
    broken by the shingle itself, and the sets themselves are not kept. The
    corpus operations take it as ``index=``: then each dialogue is read from
    it, and the dedup and eval-overlap joins share one numbering, which leaves
    their matches unchanged because prefix filtering is exact under any fixed
    shingle order. It must be built under the ``cfg`` they are given, from
    every dialogue they are given.
    """

    def __init__(self, dialogues: Iterable[Dialogue], cfg: DedupConfig):
        profiles = {id(d): (d, _profile(d, cfg.shingle_k)) for d in dialogues}
        freq: Counter = Counter()
        for _, profile in profiles.values():
            freq.update(profile.shingles)
        ids = {g: i for i, g in enumerate(sorted(freq, key=lambda g: (freq[g], g)))}
        self._rows = {key: (d, profile.tokens,
                            _encode(profile.shingles, ids, cfg.jaccard_threshold))
                      for key, (d, profile) in profiles.items()}

    def tokens(self, d: Dialogue) -> int:
        return self._rows[id(d)][1]

    def entry(self, d: Dialogue) -> tuple:
        return self._rows[id(d)][2]


def _encode(shingles: frozenset, ids: dict, threshold: float) -> tuple:
    sorted_ids = sorted(map(ids.__getitem__, shingles))
    bits = 0
    for i in sorted_ids:
        bits |= 1 << i
    size = len(sorted_ids)
    if not size:
        return 0, 0, [], 0, 0
    lo, hi = _size_bounds(size, threshold)
    return size, bits, sorted_ids[:size - lo + 1], lo, hi


def _drop_similar(dialogues: Sequence[Dialogue], references: Sequence[Dialogue] | None,
                  cfg: DedupConfig, reason: str,
                  index: ShingleIndex | None) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """Drop each dialogue whose Jaccard with some reference reaches the threshold,
    reporting the first such reference. ``references=None`` joins the corpus with
    itself: the references are then the dialogues kept so far."""
    refs = [] if references is None else list(references)
    if index is None:
        index = ShingleIndex(chain(dialogues, refs), cfg)
    join = _PrefixJoin(cfg.jaccard_threshold)
    for r in refs:
        join.add(index.entry(r))

    kept: list[Dialogue] = []
    removed: list[RemovalRecord] = []
    for d in dialogues:
        entry = index.entry(d)
        match = join.first_match(entry)
        if match is not None:
            row, score = match
            removed.append(RemovalRecord(
                removed_id=d.id, reason=reason, matched_id=refs[row].id, score=score))
        else:
            kept.append(d)
            if references is None:
                join.add(entry)
                refs.append(d)
    return kept, removed


# ---------------------------------------------------------------------------
# Corpus operations
# ---------------------------------------------------------------------------

def dedup_corpus(dialogues: Sequence[Dialogue], cfg: DedupConfig, *,
                 index: ShingleIndex | None = None
                 ) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """Drop every dialogue similar (>= threshold) to an earlier kept one.

    First occurrence wins; kept order is input order. The report pairs each
    removed dialogue with the kept dialogue it matched.
    """
    return _drop_similar(dialogues, None, cfg, "duplicate", index)


def remove_eval_overlap(dialogues: Sequence[Dialogue],
                        eval_sets: Sequence[Sequence[Dialogue]], cfg: DedupConfig, *,
                        index: ShingleIndex | None = None
                        ) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """Drop every training dialogue similar to any evaluation dialogue.

    Evaluation sets are never modified; after this pass no kept dialogue is
    within the threshold of any evaluation dialogue.
    """
    return _drop_similar(dialogues, [d for eval_set in eval_sets for d in eval_set],
                         cfg, "eval_overlap", index)


def filter_min_size(dialogues: Sequence[Dialogue], cfg: DedupConfig, *,
                    index: ShingleIndex | None = None
                    ) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """Keep dialogues with at least ``min_turns`` turns AND ``min_tokens`` utterance
    tokens (metrics tokenizer, roles excluded). Boundaries are inclusive."""
    kept: list[Dialogue] = []
    removed: list[RemovalRecord] = []
    for d in dialogues:
        if len(d.turns) < cfg.min_turns:
            removed.append(RemovalRecord(removed_id=d.id, reason="too_few_turns"))
            continue
        tokens = (sum(len(tokenize_for_metrics(t.text)) for t in d.turns)
                  if index is None else index.tokens(d))
        if tokens < cfg.min_tokens:
            removed.append(RemovalRecord(removed_id=d.id, reason="too_few_tokens"))
            continue
        kept.append(d)
    return kept, removed
