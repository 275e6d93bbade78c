"""ROUGE-1/2/L, extractive fragments, corpus statistics, evaluation protocols.

One tokenizer is used everywhere a statistic is computed,
:func:`dialoprep.tokens.tokenize_for_metrics` (also public here): lowercase,
split on runs of non-alphanumeric characters, no stemming, stopwords kept.
Empty-input ROUGE conventions are total: both sides empty scores 1.0, exactly
one side empty scores 0.0 (packages differ here; ours is fixed so golden
files are stable).

ROUGE-L's longest common subsequence is exact and bit-parallel: match masks
(token -> int) over the longer text, one word-parallel step per token of the
shorter. ROUGE-N's clipped overlap is symmetric and walks the side with fewer
n-gram types. The evaluation protocols tokenize and count each text once, and
a dialogue's masks are reused for every reference it is scored against.

Corpus statistics follow the per-example-average convention: every corpus
field is the unweighted mean of per-example values, never a ratio of corpus
totals. Per-example dialogue text is the rendered ``role: utterance`` form,
so summaries that mention speakers by name can match. Extractive fragments
and instance-based novelty come from one longest-match scan of the summary
against the dialogue: the greedy tiling walks the per-position longest
matches, and the n-gram at a position is novel exactly when its match is
shorter than n.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import PipelineError
from .records import Dialogue, render_dialogue_text
from .tokens import TOKENIZER_LABEL, tokenize_for_metrics  # both public here too


def _as_tokens(text_or_tokens: str | Sequence[str]) -> list[str]:
    if isinstance(text_or_tokens, str):
        return tokenize_for_metrics(text_or_tokens)
    return list(text_or_tokens)


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f1: float


class EvalScores(NamedTuple):
    """The R-1 / R-2 / R-L triple reported by the evaluation protocols."""

    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore

    def rouge_avg(self) -> float:
        return (self.rouge1.f1 + self.rouge2.f1 + self.rougeL.f1) / 3.0


def _score(precision: float, recall: float) -> RougeScore:
    if precision + recall == 0.0:
        return RougeScore(precision, recall, 0.0)
    return RougeScore(precision, recall, 2.0 * precision * recall / (precision + recall))


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _overlap_score(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    """Precision and recall of ``overlap`` matched units out of each side's total."""
    if not cand_total and not ref_total:
        return RougeScore(1.0, 1.0, 1.0)
    if not cand_total or not ref_total:
        return RougeScore(0.0, 0.0, 0.0)
    return _score(overlap / cand_total, overlap / ref_total)


def _clipped_overlap(a: Counter, b: Counter) -> int:
    """Sum over shared n-grams of the smaller count. Symmetric; the key
    intersection walks the smaller side."""
    return sum(min(a[g], b[g]) for g in a.keys() & b.keys())


def rouge_n(candidate: str | Sequence[str], reference: str | Sequence[str], n: int,
            unique_ngrams: bool = False) -> RougeScore:
    """Clipped n-gram overlap ROUGE. ``unique_ngrams`` counts each n-gram type once
    (the convention used for gap-utterance scoring)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _ngrams(_as_tokens(candidate), n)
    ref = _ngrams(_as_tokens(reference), n)
    if unique_ngrams:
        cand_set, ref_set = set(cand), set(ref)
        return _overlap_score(len(cand_set & ref_set), len(cand_set), len(ref_set))
    return _overlap_score(_clipped_overlap(Counter(cand), Counter(ref)), len(cand), len(ref))


def _match_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Token -> int whose bit i is set where ``tokens[i]`` is that token."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def _lcs_bits(masks: dict[str, int], n: int, other: Sequence[str]) -> int:
    """LCS length of the ``n`` tokens that ``masks`` was built over and ``other``.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): after a prefix of
    ``other`` has been read, bit i of ``v`` is 0 exactly where the LCS of that
    prefix with the first i + 1 tokens exceeds the LCS with the first i, so
    the LCS is the count of zero bits."""
    full = (1 << n) - 1
    v = full
    get = masks.get
    for tok in other:
        m = get(tok)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if len(a) < len(b):
        a, b = b, a
    return _lcs_bits(_match_masks(a), len(a), b)


def rouge_l(candidate: str | Sequence[str], reference: str | Sequence[str]) -> RougeScore:
    """Longest-common-subsequence ROUGE over metric tokens."""
    cand = _as_tokens(candidate)
    ref = _as_tokens(reference)
    return _overlap_score(_lcs_length(cand, ref), len(cand), len(ref))


class _Text:
    """One text's metric tokens, unigram and bigram counts, and (built on
    first use) its LCS match masks: everything ``score_pair`` needs, computed
    once however many texts it is scored against."""

    __slots__ = ("tokens", "unigrams", "bigrams", "_masks")

    def __init__(self, text_or_tokens: str | Sequence[str]):
        self.tokens = _as_tokens(text_or_tokens)
        self.unigrams = Counter(self.tokens)
        self.bigrams = Counter(zip(self.tokens, self.tokens[1:]))
        self._masks: dict[str, int] | None = None

    def masks(self) -> dict[str, int]:
        if self._masks is None:
            self._masks = _match_masks(self.tokens)
        return self._masks


def _lcs_texts(a: _Text, b: _Text) -> int:
    """``_lcs_length`` of two texts, reusing the longer one's masks."""
    if len(a.tokens) < len(b.tokens):
        a, b = b, a
    return _lcs_bits(a.masks(), len(a.tokens), b.tokens)


def _score_texts(cand: _Text, ref: _Text) -> EvalScores:
    m, n = len(cand.tokens), len(ref.tokens)
    return EvalScores(
        rouge1=_overlap_score(_clipped_overlap(cand.unigrams, ref.unigrams), m, n),
        rouge2=_overlap_score(_clipped_overlap(cand.bigrams, ref.bigrams),
                              max(m - 1, 0), max(n - 1, 0)),
        rougeL=_overlap_score(_lcs_texts(cand, ref), m, n),
    )


def score_pair(candidate: str | Sequence[str], reference: str | Sequence[str]) -> EvalScores:
    """R-1, R-2 and R-L for one candidate/reference pair."""
    return _score_texts(_Text(candidate), _Text(reference))


# ---------------------------------------------------------------------------
# Extractive fragments (greedy longest-match tiling of the summary)
# ---------------------------------------------------------------------------

class Fragment(NamedTuple):
    summary_start: int
    dialogue_start: int
    length: int


class FragmentSet(NamedTuple):
    """Greedy extractive fragments of a summary against a dialogue.

    Fragments are non-overlapping in the summary and sorted by summary
    position; coverage and density are derived from fragment lengths.
    """

    fragments: tuple[Fragment, ...]
    summary_length: int

    def coverage(self) -> float:
        if self.summary_length == 0:
            return 0.0
        return sum(f.length for f in self.fragments) / self.summary_length

    def density(self) -> float:
        if self.summary_length == 0:
            return 0.0
        return sum(f.length ** 2 for f in self.fragments) / self.summary_length


def _longest_matches(dialogue_tokens: Sequence[str],
                     summary_tokens: Sequence[str]) -> list[tuple[int, int]]:
    """For each summary position i, ``(length, start)`` of the longest common
    substring that starts at i and occurs in the dialogue, with its earliest
    dialogue start; ``(0, -1)`` where the token is not in the dialogue.

    One scan from the end of the summary: a match at (i, j) is one longer
    than the match at (i + 1, j + 1)."""
    # Dialogue positions, in order, of the tokens the summary uses.
    positions: dict[str, list[int]] = {tok: [] for tok in summary_tokens}
    for j, tok in enumerate(dialogue_tokens):
        if tok in positions:
            positions[tok].append(j)
    matches = [(0, -1)] * len(summary_tokens)
    following: dict[int, int] = {}  # dialogue start -> match length at i + 1
    for i in range(len(summary_tokens) - 1, -1, -1):
        here: dict[int, int] = {}
        best_len, best_j = 0, -1
        for j in positions[summary_tokens[i]]:
            length = here[j] = following.get(j + 1, 0) + 1
            if length > best_len:
                best_len, best_j = length, j
        matches[i] = (best_len, best_j)
        following = here
    return matches


def _tile(matches: Sequence[tuple[int, int]]) -> FragmentSet:
    """The greedy walk: take the match at each position and jump past it;
    an unmatched position advances by one with no fragment."""
    fragments: list[Fragment] = []
    i = 0
    while i < len(matches):
        length, j = matches[i]
        if length:
            fragments.append(Fragment(summary_start=i, dialogue_start=j, length=length))
            i += length
        else:
            i += 1
    return FragmentSet(fragments=tuple(fragments), summary_length=len(matches))


def extractive_fragments(dialogue_tokens: Sequence[str],
                         summary_tokens: Sequence[str]) -> FragmentSet:
    """Scan the summary left to right; at each position take the longest common
    substring starting there that occurs anywhere in the dialogue (earliest
    dialogue occurrence on ties), emit it and jump past it. Unmatched tokens
    advance by one with no fragment."""
    return _tile(_longest_matches(dialogue_tokens, summary_tokens))


# ---------------------------------------------------------------------------
# Per-example and corpus statistics
# ---------------------------------------------------------------------------

class ExampleStats(NamedTuple):
    dialogue_tokens: int
    summary_tokens: int
    compression: float
    coverage: float
    density: float
    novel_ngram_pct: tuple[float, float, float]      # n = 1, 2, 3
    redundant_ngram_pct: tuple[float, float, float]  # n = 1, 2, 3


class CorpusStats(NamedTuple):
    n_dialogues: int
    mean_dialogue_tokens: float
    mean_summary_tokens: float
    compression: float
    coverage: float
    density: float
    novel_ngram_pct: tuple[float, float, float]
    redundant_ngram_pct: tuple[float, float, float]


def novel_ngram_pct(summary_tokens: Sequence[str], dialogue_tokens: Sequence[str],
                    n: int) -> float:
    """Percentage of summary n-gram instances that never occur in the dialogue."""
    return _novel_instance_pct(_longest_matches(dialogue_tokens, summary_tokens), n)


def _novel_instance_pct(matches: Sequence[tuple[int, int]], n: int) -> float:
    """``novel_ngram_pct`` (instance-based) from the summary's longest matches."""
    total = len(matches) - n + 1
    if total <= 0:
        return 0.0
    novel = sum(1 for length, _ in matches[:total] if length < n)
    return 100.0 * novel / total


def redundant_ngram_pct(summary_tokens: Sequence[str], n: int) -> float:
    """Percentage of repeated n-gram instances within a summary: 100 * (1 - unique/total)."""
    grams = _ngrams(list(summary_tokens), n)
    if not grams:
        return 0.0
    return 100.0 * (1.0 - len(set(grams)) / len(grams))


def example_stats(ex: Dialogue) -> ExampleStats:
    """Compression, coverage, density, novelty and redundancy for one example,
    against its first summary.

    The dialogue side is the rendered ``role: utterance`` text, tokenized with
    the metrics tokenizer.
    """
    if not ex.summaries:
        raise PipelineError(f"dialogue {ex.id!r} has no summary")
    dialogue_tokens = tokenize_for_metrics(render_dialogue_text(ex))
    summary_tokens = tokenize_for_metrics(ex.summaries[0].text)
    if not summary_tokens:
        raise PipelineError(f"summary 0 of dialogue {ex.id!r} has no tokens")
    matches = _longest_matches(dialogue_tokens, summary_tokens)
    frags = _tile(matches)
    return ExampleStats(
        dialogue_tokens=len(dialogue_tokens),
        summary_tokens=len(summary_tokens),
        compression=len(dialogue_tokens) / len(summary_tokens),
        coverage=frags.coverage(),
        density=frags.density(),
        # The n-gram at i occurs in the dialogue iff the longest match there is >= n.
        novel_ngram_pct=tuple(_novel_instance_pct(matches, n) for n in (1, 2, 3)),
        redundant_ngram_pct=tuple(redundant_ngram_pct(summary_tokens, n) for n in (1, 2, 3)),
    )


def corpus_report(examples: Iterable[Dialogue]) -> CorpusStats:
    """Unweighted per-example means of every statistic over a corpus, read
    once. Each statistic keeps only its values, as doubles, so ``math.fsum``
    gives the means that it gives over the whole list of example stats."""
    # The five scalar statistics, then novel and redundant n-gram % for n = 1, 2, 3.
    columns = [array("d") for _ in range(5 + 3 + 3)]
    for ex in examples:
        s = example_stats(ex)
        for column, value in zip(columns, (*s[:5], *s.novel_ngram_pct,
                                           *s.redundant_ngram_pct)):
            column.append(value)
    n = len(columns[0])
    if not n:
        raise PipelineError("cannot compute statistics over an empty corpus")
    means = [math.fsum(column) / n for column in columns]
    return CorpusStats(n, *means[:5], tuple(means[5:8]), tuple(means[8:]))


def format_stats_table(stats: CorpusStats) -> str:
    """Human-readable rendering of a corpus report."""
    rows = [
        ("dialogues", f"{stats.n_dialogues}"),
        ("tokens/dialogue", f"{stats.mean_dialogue_tokens:.1f}"),
        ("tokens/summary", f"{stats.mean_summary_tokens:.1f}"),
        ("compression", f"{stats.compression:.2f}"),
        ("coverage", f"{stats.coverage:.2f}"),
        ("density", f"{stats.density:.2f}"),
    ]
    for k, n in enumerate((1, 2, 3)):
        rows.append((f"novel {n}-gram %", f"{stats.novel_ngram_pct[k]:.2f}"))
    for k, n in enumerate((1, 2, 3)):
        rows.append((f"redundant {n}-gram %", f"{stats.redundant_ngram_pct[k]:.2f}"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


# ---------------------------------------------------------------------------
# Evaluation protocols
# ---------------------------------------------------------------------------

def multi_reference_rouge(candidate: str | Sequence[str],
                          references: Sequence[str | Sequence[str]]) -> EvalScores:
    """Arithmetic mean of each metric (P, R and F1 componentwise) over all references."""
    if not references:
        raise ValueError("at least one reference is required")
    cand = _Text(candidate)
    scored = [_score_texts(cand, _Text(ref)) for ref in references]

    def mean_score(pick) -> RougeScore:
        n = len(scored)
        return RougeScore(
            precision=math.fsum(pick(s).precision for s in scored) / n,
            recall=math.fsum(pick(s).recall for s in scored) / n,
            f1=math.fsum(pick(s).f1 for s in scored) / n,
        )

    return EvalScores(
        rouge1=mean_score(lambda s: s.rouge1),
        rouge2=mean_score(lambda s: s.rouge2),
        rougeL=mean_score(lambda s: s.rougeL),
    )


def select_training_reference(dialogue: str,
                              references: Sequence[str | Sequence[str]]) -> int:
    """Index of the reference with the highest ROUGE-Avg (mean of R-1/R-2/R-L F1)
    against the dialogue text; lowest index wins ties."""
    if not references:
        raise ValueError("at least one reference is required")
    text = _Text(dialogue)
    best_index = 0
    best_score = -1.0
    for i, ref in enumerate(references):
        avg = _score_texts(text, _Text(ref)).rouge_avg()
        if avg > best_score:
            best_score = avg
            best_index = i
    return best_index


def truncate_summary(text_or_tokens: str | Sequence[str], max_length: int) -> list[str]:
    """First ``max_length`` metric tokens of a summary (the zero-shot length limit)."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    return _as_tokens(text_or_tokens)[:max_length]
