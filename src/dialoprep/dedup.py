"""Duplicate removal, evaluation-set leakage removal, and minimum-size filtering.

Similarity is Jaccard over the sets of token types (unigram shingles) of
utterance text only (role names are randomized later and would only add
noise). Decisions are exact and sequential in input order, first occurrence
wins, so results are order-stable.

Each pass first runs one exact similarity join, then decides in input order:
a duplicate is matched with its lowest earlier dialogue that is still kept, an
evaluation leak with its lowest evaluation dialogue. The join only finds the
rows that have any match, which does not depend on what was kept. A row
without one is kept as it is met; every other row is looked up among the
references posted so far (the dialogues kept before it, or all evaluation
dialogues), its candidates verified lowest first. Where the postings under its
probe prefix hold more entries than there are references posted, it scans all
of these in order instead of sorting their union. The join verifies a pair
only while its row has no match, so a cluster of k mutually similar
dialogues costs about k verifications, not k * k / 2. It meets each distinct
shingle set once; a later row with an equal set, and an empty set, which it
skips, are looked up.

The join is AllPairs (Bayardo et al., WWW 2007). Each dialogue's shingles take
integer ids as it is tokenized, a new shingle the next id in one dict over
all dialogues, and only its list of ids is kept, no set of strings. Once all
are read, the ids are renumbered rarest first, ties broken by the shingle, so
the numbering does not follow the hash order a set iterates in. The sets are
swept in (size, row) order, so every set met before is at most as large as
the one probing. The length filter is then a start position in that order. A
set probes the postings with the prefix that any set at or above the
threshold must share a shingle with, and is posted under the shorter prefix
that suffices against sets no smaller than itself. Each candidate pair is
verified at most once, on integer bitsets: one AND and a bit count, where a
merge of sorted id lists would loop in Python over about as many ids as the
sets hold. Where the postings a probe would scan outnumber the sets in its
length range, the whole range is its candidates. The filters only skip pairs
that cannot reach the threshold, and their bounds are tested with the
verifier's own float division, so the result is the brute-force scan's.
:func:`clean` tokenizes each dialogue once, into a row that serves all three
passes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import jsonl
from .records import Dialogue, validated
from .tokens import tokenize_for_metrics


@validated
class DedupConfig(NamedTuple):
    jaccard_threshold: float = 0.8
    min_turns: int = 4
    min_tokens: int = 32

    def _check(self):
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ValueError("jaccard_threshold must be in (0, 1]")
        if self.min_turns < 1 or self.min_tokens < 1:
            raise ValueError("min_turns and min_tokens must be >= 1")


class RemovalRecord(NamedTuple):
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
    return jsonl.write_lines(path, (jsonl.line(r.to_dict()) for r in records))


def dialogue_text(d: Dialogue) -> str:
    """Utterance text of a dialogue, roles excluded."""
    return " ".join(t.text for t in d.turns)


def _utterance_tokens(d: Dialogue) -> list[str]:
    """The tokens of the joined text; their count is what ``filter_min_size``
    bounds. Neither a token nor the context of a case mapping (final sigma)
    crosses the space ``dialogue_text`` joins turns with, so the count is
    also the sum of the turns' token counts."""
    return tokenize_for_metrics(dialogue_text(d))


def dialogue_shingles(d: Dialogue) -> frozenset:
    """The set of a dialogue's utterance token types, which Jaccard compares."""
    return frozenset(_utterance_tokens(d))


# ---------------------------------------------------------------------------
# Shingle index
# ---------------------------------------------------------------------------

def _fewest(accepts: Callable[[int], bool], size: int) -> int:
    """Smallest ``a`` in [1, size] that ``accepts``, which holds at ``size`` and
    at every ``a`` above one where it holds."""
    lo, hi = 1, size
    while lo < hi:
        mid = (lo + hi) // 2
        if accepts(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _overlap_bounds(size: int, threshold: float) -> tuple[int, int]:
    """The fewest shingles a set of ``size`` shares with any set it reaches
    ``threshold`` with, and the fewest it shares with any such set at least as
    large, each tested with the verifier's own float division.

    For a pair reaching the threshold, inter / size >= inter / union, and
    inter / (2 * size - inter) >= inter / union when the other set is no
    smaller; correctly rounded division keeps both orders. Both ratios are
    1.0 at ``size``, so the bounds hold for any threshold in (0, 1]."""
    return (_fewest(lambda a: a / size >= threshold, size),
            _fewest(lambda a: a / (2 * size - a) >= threshold, size))


def _rows(dialogues: Iterable[Dialogue], cfg: DedupConfig) -> list[tuple]:
    """One row per dialogue, in order: (dialogue, utterance token count, set
    encoded as (size, bitset, probe prefix, lo, index prefix length)), where
    lo is the fewest shingles the set shares with any set it reaches the
    threshold with.

    Each set is read into a list of ids as its dialogue is tokenized, a
    shingle met for the first time taking the next id. Neither the sets nor
    interned tokens are kept: one string per distinct shingle, as the key of
    that id, until the ids are renumbered over all rows, rarest shingle
    first, ties broken by the shingle itself. The numbering then depends on
    the sets alone and not on the order a set iterates in, and any
    fixed numbering leaves the joins' matches unchanged, since prefix
    filtering is exact. Each sorted id list is encoded as a bitset, so that a
    pair is verified with one AND and a bit count, not a Python loop over ids."""
    ids: dict = {}  # shingle -> id, in the order first read
    read = []
    for d in dialogues:
        tokens = _utterance_tokens(d)
        types = frozenset(tokens)
        ids.update(zip(types.difference(ids), count(len(ids))))
        read.append((d, len(tokens), list(map(ids.__getitem__, types))))
    freq = Counter(chain.from_iterable(row[2] for row in read))
    shingles = list(ids)  # by id
    del ids
    # By (count, shingle): a stable sort by count of the ids in shingle order.
    ranked = sorted(sorted(range(len(shingles)), key=shingles.__getitem__),
                    key=freq.__getitem__)
    del shingles  # the strings go before the bitsets are built
    rank = [0] * len(ranked)
    for i, g in enumerate(ranked):
        rank[g] = i
    bounds: dict[int, tuple[int, int]] = {}
    for row, (d, tokens, read_ids) in enumerate(read):  # each id list dropped as it is encoded
        read[row] = d, tokens, _encode(sorted(map(rank.__getitem__, read_ids)),
                                       cfg.jaccard_threshold, bounds)
    return read


def _encode(sorted_ids: list[int], threshold: float, bounds: dict) -> tuple:
    if not sorted_ids:
        return 0, 0, [], 0, 0
    size = len(sorted_ids)
    if size not in bounds:
        bounds[size] = _overlap_bounds(size, threshold)
    lo, alpha = bounds[size]
    buf = bytearray((sorted_ids[-1] >> 3) + 1)
    for i in sorted_ids:
        buf[i >> 3] |= 1 << (i & 7)
    return (size, int.from_bytes(buf, "little"), sorted_ids[:size - lo + 1], lo,
            size - alpha + 1)


# ---------------------------------------------------------------------------
# Exact similarity join
# ---------------------------------------------------------------------------

def _score(a: tuple, b: tuple) -> float:
    """Jaccard of two encoded sets; two empty sets score 1.0."""
    inter = (a[1] & b[1]).bit_count()
    union = a[0] + b[0] - inter
    return inter / union if union else 1.0


def _join(rows: dict[int, tuple], refs: dict[int, tuple] | None, threshold: float) -> set[int]:
    """The rows that reach J >= threshold with some reference, over non-empty
    sets encoded by :func:`_rows` and keyed by row and by reference.
    ``refs=None`` joins the rows with themselves: a row's references are then
    the rows before it. A pair is verified only while its row has no match, so
    each row passes at most one verification, however many sets it is similar
    to."""
    cross = refs is not None
    # One pool per side, in sweep order: sizes, bitsets, keys, whether each is
    # a row still without a match, and postings (shingle id -> pool
    # positions). A set probes the other side's pool, and in a self-join the
    # one side's.
    pools = [([], [], [], bytearray(), {}) for _ in range(1 + cross)]
    sides = (rows, refs) if cross else (rows,)
    for size, side, key in sorted((e[0], side, key) for side, entries in enumerate(sides)
                                  for key, e in entries.items()):
        _, bits, prefix, lo, index_len = sides[side][key]
        target = side ^ cross
        sizes, bitsets, keys, open_, postings = pools[target]
        start = bisect_left(sizes, lo)
        end = len(sizes)
        unmatched = side == 0  # the set is a row, and has no match yet
        if start < end:
            lists = [p for p in map(postings.get, prefix) if p is not None]
            cuts = [bisect_left(p, start) for p in lists]
            whole_range = sum(map(len, lists)) - sum(cuts) > end - start
            found: Sequence[int] = (range(start, end) if whole_range else list(set(
                chain.from_iterable(p[cut:] for p, cut in zip(lists, cuts)))))
            # ``_score`` inlined, with the overlap bound checked first: this
            # loop is where clean spends its time.
            unvisited = reversed(found)
            bound = end
            if unmatched:
                # The row's own pairs until one passes, largest sets first (a
                # set of its size met before it is an earlier row), and the
                # pairs of pool rows without a match on the way.
                for pos in unvisited:
                    if ((cross or open_[pos] or keys[pos] < key)
                            and (inter := (bits & bitsets[pos]).bit_count()) >= lo
                            and inter / (size + sizes[pos] - inter) >= threshold):
                        if cross or keys[pos] < key:
                            unmatched = False
                            bound = pos
                            break
                        open_[pos] = 0
                else:
                    bound = start
            if not target:
                # Then only the pairs whose row is a pool row without a match.
                for pos in (compress(range(start, bound), open_[start:bound]) if whole_range
                            else (pos for pos in unvisited if open_[pos])):
                    if ((cross or keys[pos] > key)
                            and (inter := (bits & bitsets[pos]).bit_count()) >= lo
                            and inter / (size + sizes[pos] - inter) >= threshold):
                        open_[pos] = 0
        sizes, bitsets, keys, open_, postings = pools[side]
        pos = len(sizes)
        sizes.append(size)
        bitsets.append(bits)
        keys.append(key)
        open_.append(unmatched)
        for g in prefix[:index_len]:
            postings.setdefault(g, []).append(pos)
    return {key for key, open_row in zip(pools[0][2], pools[0][3]) if not open_row}


_EMPTY = (-1,)  # the posting key of the empty set, which shares no shingle


def _post(postings: dict[int, list[int]], posted: list[int], e: tuple, ref: int) -> None:
    for g in e[2] or _EMPTY:
        postings.setdefault(g, []).append(ref)
    posted.append(ref)


def _lowest_match(e: tuple, postings: dict[int, list[int]], posted: list[int],
                  ref_entries: Sequence[tuple], threshold: float) -> tuple[int, float] | None:
    """(reference, score) of the lowest posted reference that ``e`` reaches the
    threshold with, or None. References are posted under their whole probe
    prefix, since they may be larger or smaller than ``e``, and in ``posted``
    in ascending order; the candidates pass the length filter both ways and
    are verified lowest first. Where the postings under ``e``'s prefix hold
    more entries than ``posted``, all of ``posted`` are the candidates: any
    reference that reaches the threshold shares a prefix shingle with ``e``."""
    size, _, prefix, lo, _ = e
    lists = list(map(postings.get, prefix or _EMPTY, repeat(())))
    for ref in (posted if sum(map(len, lists)) > len(posted)
                else sorted(set(chain.from_iterable(lists)))):
        other = ref_entries[ref]
        if other[0] >= lo and size >= other[3]:
            score = _score(e, other)
            if score >= threshold:
                return ref, score
    return None


def _distinct(entries: Sequence[tuple]) -> dict[int, tuple]:
    """The first row of each distinct encoded set, with its entry, in row order."""
    first: dict[int, int] = {}
    for row, e in enumerate(entries):
        first.setdefault(e[1], row)
    return {row: entries[row] for row in first.values()}


def _drop_similar(rows: Sequence[tuple], references: Sequence[tuple] | None,
                  cfg: DedupConfig, reason: str) -> tuple[list[tuple], list[RemovalRecord]]:
    """Drop each row whose Jaccard with some reference row reaches the
    threshold, reporting the lowest such reference. ``references=None`` joins
    the rows with themselves: the references are then the rows kept so far."""
    threshold = cfg.jaccard_threshold
    self_join = references is None
    refs = rows if self_join else references
    entries = [row[2] for row in rows]
    ref_entries = entries if self_join else [ref[2] for ref in refs]
    # The join meets each distinct non-empty set at its first row; a row it
    # does not meet is looked up like a matched one.
    firsts = {i: e for i, e in _distinct(entries).items() if e[0]}
    postings: dict[int, list[int]] = {}
    posted: list[int] = []
    if self_join:
        matched = _join(firsts, None, threshold)
    else:
        distinct_refs = _distinct(ref_entries)
        matched = _join(firsts, {ref: e for ref, e in distinct_refs.items() if e[0]}, threshold)
        for ref, e in distinct_refs.items():
            _post(postings, posted, e, ref)

    kept: list[tuple] = []
    removed: list[RemovalRecord] = []
    for i, (row, e) in enumerate(zip(rows, entries)):
        match = (_lowest_match(e, postings, posted, ref_entries, threshold)
                 if i in matched or i not in firsts else None)
        if match is None:
            kept.append(row)
            if self_join:
                _post(postings, posted, e, i)
        else:
            ref, score = match
            removed.append(RemovalRecord(removed_id=row[0].id, reason=reason,
                                         matched_id=refs[ref][0].id, score=score))
    return kept, removed


def _drop_small(rows: Iterable[tuple], cfg: DedupConfig
                ) -> tuple[list[tuple], list[RemovalRecord]]:
    kept: list[tuple] = []
    removed: list[RemovalRecord] = []
    for row in rows:
        d, tokens = row[0], row[1]
        if len(d.turns) < cfg.min_turns:
            removed.append(RemovalRecord(removed_id=d.id, reason="too_few_turns"))
        elif tokens < cfg.min_tokens:
            removed.append(RemovalRecord(removed_id=d.id, reason="too_few_tokens"))
        else:
            kept.append(row)
    return kept, removed


# ---------------------------------------------------------------------------
# Corpus operations
# ---------------------------------------------------------------------------

def clean(dialogues: Sequence[Dialogue], eval_sets: Sequence[Sequence[Dialogue]],
          cfg: DedupConfig) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """:func:`dedup_corpus`, :func:`remove_eval_overlap` when there are
    evaluation dialogues, then :func:`filter_min_size`, on one list of rows;
    the dialogues kept, and the removals of each pass in turn."""
    rows, n = _rows(chain(dialogues, *eval_sets), cfg), len(dialogues)
    kept, removals = _drop_similar(rows[:n], None, cfg, "duplicate")
    if len(rows) > n:
        kept, removed = _drop_similar(kept, rows[n:], cfg, "eval_overlap")
        removals += removed
    kept, removed = _drop_small(kept, cfg)
    return [row[0] for row in kept], removals + removed


def dedup_corpus(dialogues: Sequence[Dialogue], cfg: DedupConfig
                 ) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """Drop every dialogue similar (>= threshold) to an earlier kept one.

    First occurrence wins; kept order is input order. The report pairs each
    removed dialogue with the kept dialogue it matched.
    """
    kept, removed = _drop_similar(_rows(dialogues, cfg), None, cfg, "duplicate")
    return [row[0] for row in kept], removed


def remove_eval_overlap(dialogues: Sequence[Dialogue],
                        eval_sets: Sequence[Sequence[Dialogue]], cfg: DedupConfig
                        ) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """Drop every training dialogue similar to any evaluation dialogue.

    Evaluation sets are never modified; after this pass no kept dialogue is
    within the threshold of any evaluation dialogue.
    """
    rows, n = _rows(chain(dialogues, *eval_sets), cfg), len(dialogues)
    kept, removed = _drop_similar(rows[:n], rows[n:], cfg, "eval_overlap")
    return [row[0] for row in kept], removed


def filter_min_size(dialogues: Sequence[Dialogue], cfg: DedupConfig
                    ) -> tuple[list[Dialogue], list[RemovalRecord]]:
    """Keep dialogues with at least ``min_turns`` turns AND ``min_tokens`` utterance
    tokens (metrics tokenizer, roles excluded). Boundaries are inclusive."""
    # Rows cut to (dialogue, token count): this pass needs no encoded sets.
    kept, removed = _drop_small([(d, len(_utterance_tokens(d))) for d in dialogues], cfg)
    return [row[0] for row in kept], removed
