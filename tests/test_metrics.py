from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    lcs_dp_oracle,
    oracle_example_stats,
    oracle_extractive_fragments,
    oracle_multi_reference_rouge,
    oracle_novel_ngram_pct,
    oracle_score_pair,
    oracle_select_training_reference,
    oracle_tokenize,
)
from dialoprep import metrics
from dialoprep.errors import EmptyCorpusError, EmptySummaryError, PipelineError
from dialoprep.metrics import (
    _lcs_length,
    corpus_report,
    example_stats,
    extractive_fragments,
    multi_reference_rouge,
    novel_ngram_pct,
    redundant_ngram_pct,
    rouge_l,
    rouge_n,
    score_pair,
    select_training_reference,
    tokenize_for_metrics,
    truncate_summary,
)
from dialoprep.records import (
    Dialogue,
    SummaryRecord,
    Turn,
    render_dialogue_text,
)


def test_tokenize_basic():
    assert tokenize_for_metrics("Hello, world!") == ["hello", "world"]


def test_tokenize_empty():
    assert tokenize_for_metrics("") == []


def test_tokenize_apostrophe_split():
    assert tokenize_for_metrics("don't stop") == ["don", "t", "stop"]


def test_tokenize_no_empty_tokens():
    assert tokenize_for_metrics("...!!!---") == []
    assert "" not in tokenize_for_metrics("a--b  c!")


# ASCII text takes the fast path; the file separators U+001C-U+001F are
# whitespace to ``str.split``, "_" is a word character to the pattern, U+212A
# KELVIN SIGN lowercases to ASCII "k", U+0130 to "i" plus a combining dot, and
# "Σ" lowercases to "ς" at the end of a word.
_TOKENIZER_TEXT = (st.text(st.characters(max_codepoint=127))
                   | st.text(st.sampled_from(["a", "Z", "7", "_", " ", "-", "'", "\x1c", "\x1d",
                                              "\x1e", "\x1f", "\t", "\u212a", "\u0130",
                                              "\u03a3", "\u03c2", "\u00e9"]))
                   | st.text())


@given(_TOKENIZER_TEXT)
def test_tokenize_matches_oracle(text):
    assert tokenize_for_metrics(text) == oracle_tokenize(text)


@pytest.mark.parametrize("text, tokens", [
    ("\u212aelvin_2", ["kelvin", "2"]), ("a\x1cb\x1fc", ["a", "b", "c"]),
    ("\u03a3\u03a3 \u03a3", ["\u03c3\u03c2", "\u03c3"]),
])
def test_tokenize_case_mapping_and_separators(text, tokens):
    assert tokenize_for_metrics(text) == oracle_tokenize(text) == tokens


# ---------------------------------------------------------------------------
# ROUGE
# ---------------------------------------------------------------------------

def test_rouge1_anchor():
    score = rouge_n("the cat sat", "the cat", 1)
    assert score.precision == pytest.approx(2 / 3, abs=1e-12)
    assert score.recall == 1.0
    assert abs(score.f1 - 0.8) < 1e-9


def test_rouge_identity():
    for n in (1, 2, 3):
        score = rouge_n("a b c", "a b c", n)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
    score = rouge_l("a b c", "a b c")
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_disjoint():
    score = rouge_n("a b", "x y", 1)
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)
    score = rouge_l("a b", "x y")
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_empty_conventions():
    assert rouge_n("", "", 1).f1 == 1.0
    assert rouge_n("a", "", 1).f1 == 0.0
    assert rouge_n("", "a", 1).f1 == 0.0
    assert rouge_l("", "").f1 == 1.0
    assert rouge_l("a", "").f1 == 0.0


def test_rouge_clipped_counts():
    # candidate repeats "a" three times; reference has it once
    score = rouge_n(["a", "a", "a"], ["a", "b"], 1)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)


def test_rouge_unique_ngrams():
    score = rouge_n(["a", "a", "b"], ["a", "c"], 1, unique_ngrams=True)
    assert score.precision == pytest.approx(1 / 2)  # types {a, b}
    assert score.recall == pytest.approx(1 / 2)


def test_rouge_l_anchor():
    score = rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "b"])
    assert abs(score.f1 - 0.75) < 1e-9
    assert score.precision == score.recall == 0.75


def test_rouge_l_prefix():
    score = rouge_l(["a", "b"], ["a", "b", "c", "d"])
    assert score.precision == 1.0
    assert score.recall == 0.5


def _lcs_oracle(a: tuple, b: tuple) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


@given(st.lists(st.sampled_from("abcd"), max_size=10),
       st.lists(st.sampled_from("abcd"), max_size=10))
def test_rouge_l_matches_recursive_oracle(a, b):
    score = rouge_l(a, b)
    if not a and not b:
        assert score.f1 == 1.0
        return
    if not a or not b:
        assert score.f1 == 0.0
        return
    lcs = _lcs_oracle(tuple(a), tuple(b))
    assert _lcs_length(a, b) == lcs
    assert score.precision == lcs / len(a)
    assert score.recall == lcs / len(b)


# Alphabets of one, four and 200 token types: all matches, dense partial
# matches, and nearly disjoint sequences.
_ALPHABETS = {size: [f"t{i}" for i in range(size)] for size in (1, 4, 200)}


@st.composite
def _token_lists(draw, *max_sizes: int):
    """One token list per ``max_sizes`` entry, all over one alphabet, each
    with a length drawn from 0 up to its entry (300 crosses the 64- and
    256-bit mask widths)."""
    alphabet = _ALPHABETS[draw(st.sampled_from(sorted(_ALPHABETS)))]
    lists = []
    for max_size in max_sizes:
        size = draw(st.integers(0, max_size))
        lists.append(draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size)))
    return lists


@settings(deadline=None)
@given(_token_lists(300, 300))
def test_lcs_length_matches_dp_oracle(pair):
    a, b = pair
    assert _lcs_length(a, b) == lcs_dp_oracle(a, b) == _lcs_length(b, a)


@pytest.mark.parametrize("size", sorted(_ALPHABETS))
@pytest.mark.parametrize("len_a, len_b", [
    (0, 300), (1, 300), (63, 64), (64, 65), (65, 64), (255, 257), (257, 256),
    (300, 300), (300, 17),
])
def test_lcs_length_matches_dp_oracle_at_word_boundaries(size, len_a, len_b):
    rng = random.Random(f"{size}:{len_a}:{len_b}")
    a = rng.choices(_ALPHABETS[size], k=len_a)
    b = rng.choices(_ALPHABETS[size], k=len_b)
    assert _lcs_length(a, b) == lcs_dp_oracle(a, b) == _lcs_length(b, a)


def test_lcs_masks_built_once_over_the_longer_side(monkeypatch):
    built = []
    match_masks = metrics._match_masks

    def recording(tokens):
        built.append(list(tokens))
        return match_masks(tokens)

    monkeypatch.setattr(metrics, "_match_masks", recording)
    assert _lcs_length(["a", "b"], ["b", "a", "b"]) == 2
    assert built == [["b", "a", "b"]]
    built.clear()
    dialogue = "alice went home and bob stayed at home today"
    assert select_training_reference(dialogue, ["bob went home", "alice", "at home"]) == 0
    assert built == [tokenize_for_metrics(dialogue)]
    built.clear()
    # Masks over each longer reference; the candidate's are built once.
    multi_reference_rouge(["a", "b"], [["a", "b", "c"], ["b"], ["c", "a", "d", "e"], ["a"]])
    assert built == [["a", "b", "c"], ["a", "b"], ["c", "a", "d", "e"]]


@settings(deadline=None)
@given(_token_lists(60, 60))
def test_score_pair_equals_oracle(pair):
    a, b = pair
    assert score_pair(a, b) == oracle_score_pair(a, b)
    assert score_pair(" ".join(a), " ".join(b)) == oracle_score_pair(a, b)


@settings(deadline=None)
@given(_token_lists(60, 60, 60, 60, 60), st.integers(1, 4))
def test_multi_reference_rouge_equals_oracle(lists, n_refs):
    candidate, references = lists[0], lists[1:1 + n_refs]
    assert multi_reference_rouge(candidate, references) \
        == oracle_multi_reference_rouge(candidate, references)


@settings(deadline=None)
@given(_token_lists(200, 40, 40, 40, 40), st.integers(1, 4))
def test_select_training_reference_equals_oracle(lists, n_refs):
    dialogue = " ".join(lists[0])
    references = [" ".join(ref) for ref in lists[1:1 + n_refs]]
    assert select_training_reference(dialogue, references) \
        == oracle_select_training_reference(dialogue, references)


@given(st.text(max_size=40), st.text(max_size=40))
def test_rouge_symmetry_and_bounds(a, b):
    for score_ab, score_ba in ((rouge_n(a, b, 1), rouge_n(b, a, 1)),
                               (rouge_l(a, b), rouge_l(b, a))):
        assert score_ab.precision == pytest.approx(score_ba.recall)
        assert score_ab.recall == pytest.approx(score_ba.precision)
        assert 0.0 <= score_ab.f1 <= 1.0
        if score_ab.precision > 0 and score_ab.recall > 0:
            assert score_ab.f1 <= max(score_ab.precision, score_ab.recall) + 1e-12
            assert score_ab.f1 >= min(score_ab.precision, score_ab.recall) - 1e-12


# ---------------------------------------------------------------------------
# Extractive fragments
# ---------------------------------------------------------------------------

def _oracle_fragments(a: list, s: list) -> list[tuple[int, int, int]]:
    """Enumerate every common substring, then simulate the greedy scan."""
    common: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(s)):
        for j in range(len(a)):
            length = 0
            while i + length < len(s) and j + length < len(a) and s[i + length] == a[j + length]:
                length += 1
            for l in range(1, length + 1):
                common.setdefault(i, []).append((l, j))
    fragments = []
    i = 0
    while i < len(s):
        options = common.get(i, [])
        if not options:
            i += 1
            continue
        best_len = max(l for l, _ in options)
        best_j = min(j for l, j in options if l == best_len)
        fragments.append((i, best_j, best_len))
        i += best_len
    return fragments


def test_fragments_worked_example():
    result = extractive_fragments(list("abcde"), list("bce"))
    assert [(f.summary_start, f.dialogue_start, f.length) for f in result.fragments] \
        == [(0, 1, 2), (2, 4, 1)]
    assert result.coverage() == pytest.approx(1.0)
    assert result.density() == pytest.approx(5 / 3)


def test_fragments_disjoint():
    result = extractive_fragments(list("abc"), list("xyz"))
    assert result.fragments == ()
    assert result.coverage() == 0.0
    assert result.density() == 0.0


def test_fragments_identity():
    result = extractive_fragments(list("abcd"), list("abcd"))
    assert [(f.summary_start, f.dialogue_start, f.length) for f in result.fragments] \
        == [(0, 0, 4)]
    assert result.coverage() == 1.0
    assert result.density() == 4.0


def test_fragments_match_oracle_randomized():
    rng = random.Random(99)
    for _ in range(300):
        a = [rng.choice("abcd") for _ in range(rng.randint(0, 12))]
        s = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
        result = extractive_fragments(a, s)
        assert [(f.summary_start, f.dialogue_start, f.length) for f in result.fragments] \
            == _oracle_fragments(a, s)


def test_density_at_least_coverage():
    rng = random.Random(5)
    for _ in range(100):
        a = [rng.choice("abc") for _ in range(10)]
        s = [rng.choice("abc") for _ in range(5)]
        result = extractive_fragments(a, s)
        assert result.density() >= result.coverage() - 1e-12


# ---------------------------------------------------------------------------
# Example and corpus statistics
# ---------------------------------------------------------------------------

def _example(dialogue_texts: list[str], summary: str) -> Dialogue:
    roles = ("A", "B")
    turns = tuple(Turn(i % 2, t) for i, t in enumerate(dialogue_texts))
    return Dialogue(id="s", source_dataset="u", roles=roles, turns=turns,
                    summaries=(SummaryRecord(summary, "annotated"),))


def test_compression_ratio():
    # rendered dialogue = 4 role tokens + 4 x 24 utterance tokens = 100
    utterance = " ".join(f"w{i}" for i in range(24))
    summary = " ".join(f"s{i}" for i in range(25))
    ex = _example([utterance] * 4, summary)
    stats = example_stats(ex)
    assert stats.dialogue_tokens == 100
    assert stats.summary_tokens == 25
    assert stats.compression == pytest.approx(4.0)


def test_redundant_bigrams():
    assert redundant_ngram_pct(["a", "b", "a", "b"], 2) == pytest.approx(100 * (1 - 2 / 3))


def test_novel_bigrams():
    # summary bigrams {a b, b x}; dialogue contains only "a b"
    assert novel_ngram_pct(["a", "b", "x"], ["a", "b", "c"], 2) == pytest.approx(50.0)


def test_novel_counts_instances():
    # instances: [a b] x2 + [b a]; each occurrence counts
    summary = ["a", "b", "a", "b"]
    dialogue = ["a", "b"]
    assert novel_ngram_pct(summary, dialogue, 2) == pytest.approx(100 / 3)


def test_empty_summary_raises():
    ex = _example(["hello there"], "...")
    with pytest.raises(EmptySummaryError):
        example_stats(ex)
    # A dialogue record without summaries has no first summary to compare with.
    with pytest.raises(PipelineError, match="dialogue 's' has no summary"):
        example_stats(ex._replace(summaries=()))


# Few token types, so summaries repeat n-grams and match the dialogue (role
# names "A" and "B" included) at many places.
@settings(max_examples=300, deadline=None)
@given(turns=st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=12).map(" ".join),
                      min_size=1, max_size=5),
       summary=st.lists(st.sampled_from("abcde"), min_size=1, max_size=15).map(" ".join))
def test_example_stats_match_oracle(turns, summary):
    ex = _example(turns, summary)
    assert example_stats(ex) == oracle_example_stats(ex)
    a = tokenize_for_metrics(render_dialogue_text(ex))
    s = tokenize_for_metrics(summary)
    assert [(f.summary_start, f.dialogue_start, f.length)
            for f in extractive_fragments(a, s).fragments] == oracle_extractive_fragments(a, s)
    for n in (1, 2, 3, 4):
        assert novel_ngram_pct(s, a, n) == oracle_novel_ngram_pct(s, a, n)


def test_corpus_report_single_equals_example():
    ex = _example(["one two three four", "five six"], "one two five")
    report = corpus_report([ex])
    stats = example_stats(ex)
    assert report.compression == pytest.approx(stats.compression)
    assert report.coverage == pytest.approx(stats.coverage)
    assert report.n_dialogues == 1


def test_corpus_report_mean_of_compressions():
    u8 = " ".join(f"w{i}" for i in range(7))    # 7 + 1 role token = 8
    u16 = " ".join(f"w{i}" for i in range(15))  # 15 + 1 role token = 16
    first = _example([u8], "x y")    # compression 4.0
    second = _example([u16], "p q")  # compression 8.0... adjust to 6.0 pair
    assert example_stats(first).compression == pytest.approx(4.0)
    assert example_stats(second).compression == pytest.approx(8.0)
    report = corpus_report([first, second])
    assert report.compression == pytest.approx(6.0)


def test_corpus_report_permutation_invariant():
    rng = random.Random(17)
    examples = []
    for i in range(6):
        texts = [" ".join(rng.choices("abcdefg", k=5)) for _ in range(3)]
        examples.append(_example(texts, " ".join(rng.choices("abcdefg", k=4))))
    forward = corpus_report(examples)
    backward = corpus_report(list(reversed(examples)))
    assert forward == backward


def test_corpus_report_empty_raises():
    with pytest.raises(EmptyCorpusError):
        corpus_report([])


# ---------------------------------------------------------------------------
# Evaluation protocols
# ---------------------------------------------------------------------------

def test_multi_reference_single_equals_plain():
    result = multi_reference_rouge("the cat sat", ["the cat"])
    plain = score_pair("the cat sat", "the cat")
    assert result == plain


def test_multi_reference_identical_and_disjoint():
    result = multi_reference_rouge("alpha beta", ["alpha beta", "gamma delta"])
    assert result.rouge1.f1 == pytest.approx(0.5)
    assert result.rouge2.f1 == pytest.approx(0.5)
    assert result.rougeL.f1 == pytest.approx(0.5)


def test_multi_reference_order_invariant():
    refs = ["alpha beta", "gamma delta", "alpha gamma"]
    forward = multi_reference_rouge("alpha beta gamma", refs)
    backward = multi_reference_rouge("alpha beta gamma", list(reversed(refs)))
    assert forward.rouge1.f1 == pytest.approx(backward.rouge1.f1)
    assert forward.rougeL.f1 == pytest.approx(backward.rougeL.f1)


def test_select_training_reference_identity_wins():
    assert select_training_reference("alice went home",
                                     ["alice went home", "zzz yyy"]) == 0
    assert select_training_reference("alice went home",
                                     ["zzz yyy", "alice went home"]) == 1


def test_select_training_reference_single_and_ties():
    assert select_training_reference("whatever text", ["only one"]) == 0
    assert select_training_reference("a b c", ["a b", "a b"]) == 0


def test_select_training_reference_worse_appended():
    refs = ["alice went home", "alice went"]
    base = select_training_reference("alice went home today", refs)
    assert select_training_reference("alice went home today", refs + ["zzz"]) == base


def test_select_training_reference_on_rendered_dialogue():
    d = Dialogue(id="d", source_dataset="u", roles=("A", "B"),
                 turns=(Turn(0, "alice went home"), Turn(1, "indeed she did")))
    refs = ["b indeed she did a alice went home", "unrelated words"]
    assert select_training_reference(render_dialogue_text(d), refs) == 0


def test_truncate_summary():
    tokens = [f"t{i}" for i in range(100)]
    assert truncate_summary(tokens, 60) == tokens[:60]
    assert truncate_summary(tokens[:10], 60) == tokens[:10]
    once = truncate_summary(tokens, 40)
    assert truncate_summary(once, 40) == once
    assert truncate_summary("A, b c!", 2) == ["a", "b"]
    with pytest.raises(ValueError):
        truncate_summary(tokens, 0)
