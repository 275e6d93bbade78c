from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dialoprep import dedup
from dialoprep.dedup import (
    DedupConfig,
    _join,
    _rows,
    clean,
    dedup_corpus,
    dialogue_shingles,
    filter_min_size,
    remove_eval_overlap,
    save_removal_report,
)
from dialoprep.records import Dialogue, Turn, load_corpus, save_corpus

from conftest import (
    brute_force_dedup,
    brute_force_eval_overlap,
    brute_force_matched,
    make_dialogue,
    oracle_clean,
    oracle_filter_min_size,
    oracle_jaccard,
    oracle_shingles,
    oracle_utterance_tokens,
)


def _dlg(dialogue_id: str, texts: list[str]) -> Dialogue:
    return Dialogue(id=dialogue_id, source_dataset="u", roles=("A", "B"),
                    turns=tuple(Turn(i % 2, t) for i, t in enumerate(texts)))


def test_jaccard_identity():
    assert oracle_jaccard("the same text", "the same text") == 1.0


def test_jaccard_hand_count():
    assert oracle_jaccard("a b c", "b c d") == pytest.approx(0.5)


def test_jaccard_disjoint():
    assert oracle_jaccard("a b", "x y") == 0.0


def test_jaccard_both_empty():
    assert oracle_jaccard("", "") == 1.0
    assert oracle_jaccard("...", "!!!") == 1.0  # no alphanumeric tokens


@given(st.text(max_size=40), st.text(max_size=40))
def test_jaccard_symmetric_bounded(a, b):
    ab = oracle_jaccard(a, b)
    assert ab == oracle_jaccard(b, a)
    assert 0.0 <= ab <= 1.0


CFG = DedupConfig(jaccard_threshold=0.8, min_turns=1, min_tokens=1)


def test_dedup_exact_duplicate():
    first = _dlg("first", ["alpha beta gamma", "delta epsilon"])
    clone = _dlg("clone", ["alpha beta gamma", "delta epsilon"])
    other = _dlg("other", ["completely different words here", "yes indeed"])
    kept, removed = dedup_corpus([first, clone, other], CFG)
    assert [d.id for d in kept] == ["first", "other"]
    assert len(removed) == 1
    assert removed[0].removed_id == "clone"
    assert removed[0].matched_id == "first"
    assert removed[0].score == 1.0


def test_dedup_below_threshold_kept():
    # shared {c1 c2 c3}; J = 3/10 = 0.3 < 0.8
    a = _dlg("a", ["c1 c2 c3 a1", "a2 a3 a4"])
    b = _dlg("b", ["c1 c2 c3", "b1 b2 b3"])
    assert oracle_jaccard("c1 c2 c3 a1 a2 a3 a4", "c1 c2 c3 b1 b2 b3") == pytest.approx(0.3)
    kept, removed = dedup_corpus([a, b], CFG)
    assert len(kept) == 2
    assert removed == []


def test_dedup_planted_near_duplicate_and_idempotence():
    tokens = [f"tok{i}" for i in range(10)]
    original = _dlg("orig", [" ".join(tokens[:5]), " ".join(tokens[5:])])
    modified = tokens.copy()
    modified[9] = "changed"
    near = _dlg("near", [" ".join(modified[:5]), " ".join(modified[5:])])
    score = oracle_jaccard(" ".join(tokens), " ".join(modified))
    assert score == pytest.approx(9 / 11)
    assert score >= 0.8
    kept, removed = dedup_corpus([original, near], CFG)
    assert [d.id for d in kept] == ["orig"]
    assert removed[0].score == pytest.approx(9 / 11)
    kept_again, removed_again = dedup_corpus(kept, CFG)
    assert kept_again == kept
    assert removed_again == []


def test_dedup_first_occurrence_wins_order_stable():
    rng = random.Random(1)
    ds = [make_dialogue(rng, f"d{i}") for i in range(20)]
    ds.insert(5, _dlg("dupe-of-2", [t.text for t in ds[2].turns]))
    kept, _ = dedup_corpus(ds, CFG)
    ids = [d.id for d in kept]
    assert "dupe-of-2" not in ids or ds[2].id not in ids
    assert ids == [d.id for d in ds if d.id in set(ids)]  # input order preserved


def test_dedup_matches_oracle_small_corpora():
    rng = random.Random(42)
    base = [make_dialogue(rng, f"d{i}", n_turns=rng.randint(2, 5)) for i in range(120)]
    corpus = []
    for d in base:
        corpus.append(d)
        if rng.random() < 0.3:  # plant exact and near duplicates
            texts = [t.text for t in d.turns]
            if rng.random() < 0.5 and len(texts[0].split()) > 1:
                texts[0] = texts[0] + " extra"
            corpus.append(_dlg(d.id + "-copy", texts))
    assert len(corpus) <= 200
    for cfg in (CFG, DedupConfig(jaccard_threshold=0.5, min_turns=1, min_tokens=1)):
        kept, removed = dedup_corpus(corpus, cfg)
        assert (kept, removed) == brute_force_dedup(corpus, cfg)
        # every removal cites an earlier kept dialogue at or above threshold
        kept_ids = {d.id for d in kept}
        for record in removed:
            assert record.matched_id in kept_ids
            assert record.score >= cfg.jaccard_threshold
        # no kept pair is within threshold
        shingle_sets = {d.id: dialogue_shingles(d) for d in kept}
        ids = [d.id for d in kept]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                sa, sb = shingle_sets[ids[i]], shingle_sets[ids[j]]
                if sa or sb:
                    assert len(sa & sb) / len(sa | sb) < cfg.jaccard_threshold


def _assert_join_exact(dialogues, references, cfg):
    """``_join`` finds exactly the rows with a match, among the first rows of
    the distinct non-empty shingle sets, as ``_drop_similar`` calls it."""
    entries = [e for _, _, e in _rows(itertools.chain(dialogues, references or ()), cfg)]
    ref_entries = entries[len(dialogues):]

    def distinct(ds):
        first: dict = {}
        for i, d in enumerate(ds):
            first.setdefault(oracle_shingles(d), i)
        return {i: s for s, i in first.items() if s}

    rows = distinct(dialogues)
    refs = None if references is None else distinct(references)
    found = _join({i: entries[i] for i in rows},
                  None if refs is None else {i: ref_entries[i] for i in refs},
                  cfg.jaccard_threshold)
    assert found == brute_force_matched(rows, refs, cfg.jaccard_threshold)


def test_dedup_never_grows_corpus():
    rng = random.Random(31)
    ds = [make_dialogue(rng, f"d{i}") for i in range(30)]
    kept, _ = dedup_corpus(ds, CFG)
    assert len(kept) <= len(ds)
    kept, _ = remove_eval_overlap(ds, [ds[:3]], CFG)
    assert len(kept) <= len(ds)


def test_join_matches_brute_force_planted_copies():
    rng = random.Random(7)
    corpus = []
    for i in range(300):
        d = make_dialogue(rng, f"d{i}", n_turns=rng.randint(3, 6), max_tokens=8)
        corpus.append(d)
        if i % 4 == 0:
            corpus.append(_dlg(f"d{i}-dup", [t.text for t in d.turns]))
    assert dedup_corpus(corpus, CFG) == brute_force_dedup(corpus, CFG)
    eval_sets = [corpus[:40], corpus[200:230]]
    assert (remove_eval_overlap(corpus, eval_sets, CFG)
            == brute_force_eval_overlap(corpus, eval_sets, CFG))


def test_join_matches_brute_force_near_copies():
    rng = random.Random(55)
    corpus = []
    for i in range(200):
        d = make_dialogue(rng, f"b{i}", n_turns=6, max_tokens=10)
        texts = [t.text for t in d.turns]
        texts[-1] = texts[-1] + " zweak"
        corpus.append(d)
        corpus.append(_dlg(f"b{i}-near", texts))
    kept, removed = dedup_corpus(corpus, CFG)
    assert (kept, removed) == brute_force_dedup(corpus, CFG)
    assert sum(r.score >= CFG.jaccard_threshold + 0.05 for r in removed) > 100


def test_join_chain_resolved_in_input_order():
    # A~B and B~C but not A~C: B goes as A's duplicate, so C, whose only earlier
    # match is the removed B, stays
    words = [f"w{i}" for i in range(12)]
    a, b, c = (_dlg(name, [" ".join(words[lo:hi])])
               for name, lo, hi in (("a", 0, 10), ("b", 0, 11), ("c", 1, 12)))
    assert oracle_jaccard(" ".join(words[0:10]), " ".join(words[1:12])) < CFG.jaccard_threshold
    for order in itertools.permutations([a, b, c]):
        assert dedup_corpus(order, CFG) == brute_force_dedup(order, CFG)
    kept, removed = dedup_corpus([a, b, c], CFG)
    assert [d.id for d in kept] == ["a", "c"]
    assert [(r.removed_id, r.matched_id) for r in removed] == [("b", "a")]
    assert (remove_eval_overlap([a, c], [[b]], CFG)
            == brute_force_eval_overlap([a, c], [[b]], CFG))


def test_join_equal_sizes_in_every_order():
    # five sets of ten shingles each: the size-ordered sweep meets them in row
    # order, whatever the input order
    words = [f"w{i}" for i in range(14)]
    rows = [_dlg(f"r{i}", [" ".join(words[i:i + 10])]) for i in range(5)]
    rows.append(_dlg("r0-again", [" ".join(reversed(words[:10]))]))
    cfg = DedupConfig(jaccard_threshold=0.6, min_turns=1, min_tokens=1)
    for order in itertools.permutations(rows):
        assert dedup_corpus(order, cfg) == brute_force_dedup(order, cfg)
        assert (remove_eval_overlap(order[:3], [order[3:]], cfg)
                == brute_force_eval_overlap(order[:3], [order[3:]], cfg))


def test_eval_overlap_same_object_as_training_and_eval_row():
    words = [f"w{i}" for i in range(11)]
    shared = _dlg("shared", [" ".join(words[:10])])
    near = _dlg("near", [" ".join(words[1:11])])  # J = 9/11 with shared
    other = _dlg("other", ["nothing in common here"])
    for eval_sets in ([[shared]], [[near, shared]], [[other], [shared, near]]):
        dialogues = [other, shared, near]
        expected = brute_force_eval_overlap(dialogues, eval_sets, CFG)
        assert remove_eval_overlap(dialogues, eval_sets, CFG) == expected
        assert clean(dialogues, eval_sets, CFG) == oracle_clean(dialogues, eval_sets, CFG)
    kept, removed = remove_eval_overlap([shared], [[shared]], CFG)
    assert kept == [] and removed[0].matched_id == "shared" and removed[0].score == 1.0


class _CountedBits(int):
    """A bitset that counts the intersections taken of it."""

    taken = 0

    def __and__(self, other):
        _CountedBits.taken += 1
        return int.__and__(self, other)

    __rand__ = __and__


def _cluster(n: int, order: str) -> list[Dialogue]:
    """``n`` variants of one 60-word dialogue, each with one word replaced by
    its own and some shared words appended, so every pair is at J >= 0.8. The
    appended words make ten size groups, whose sizes run as ``order`` says."""
    rng = random.Random(f"cluster:{order}")
    corpus = []
    for i in range(n):
        words = [f"w{j}" for j in range(60)]
        words[rng.randrange(60)] = f"x{i}"
        group = 0 if order == "equal" else i * 10 // n
        words += [f"e{j}" for j in range(9 - group if order == "descending" else group)]
        corpus.append(_dlg(f"c{i}", [" ".join(words[:30]), " ".join(words[30:])]))
    if order == "shuffled":
        rng.shuffle(corpus)
    return corpus


@pytest.mark.parametrize("order", ["equal", "ascending", "descending", "shuffled"])
def test_cluster_costs_verifications_per_row_not_per_pair(order, monkeypatch):
    # Joining every pair first must not verify every pair of a cluster:
    # 300 mutually similar rows have 44,850 pairs at J >= 0.8
    corpus = _cluster(300, order)
    encode = dedup._encode

    def counted_encode(*args):
        size, bits, *rest = encode(*args)
        return (size, _CountedBits(bits), *rest)

    monkeypatch.setattr(dedup, "_encode", counted_encode)
    _CountedBits.taken = 0
    result = dedup_corpus(corpus, CFG)
    assert _CountedBits.taken <= 2 * len(corpus)
    assert result == brute_force_dedup(corpus, CFG)
    assert len(result[0]) == 1
    _CountedBits.taken = 0
    result = remove_eval_overlap(corpus[:150], [corpus[150:]], CFG)
    assert _CountedBits.taken <= 2 * 150
    assert result == brute_force_eval_overlap(corpus[:150], [corpus[150:]], CFG)
    assert result[0] == []
    monkeypatch.undo()
    _assert_join_exact(corpus, None, CFG)
    _assert_join_exact(corpus[:150], corpus[150:], CFG)


def _edited_corpus(rng: random.Random) -> list[Dialogue]:
    """A few rows, most of them an earlier row with one word dropped, added or
    replaced, so similar sets come both larger and smaller than their
    earlier matches."""
    vocabulary = [f"w{i}" for i in range(rng.randint(8, 20))]
    texts: list[list[str]] = []
    for _ in range(rng.randint(4, 12)):
        if texts and rng.random() < 0.7:
            words = list(rng.choice(texts))
            edit = rng.random()
            if edit < 0.4 and len(words) > 2:
                words.pop(rng.randrange(len(words)))
            elif edit < 0.7:
                words.append(rng.choice(vocabulary))
            else:
                words[rng.randrange(len(words))] = rng.choice(vocabulary)
        else:
            words = rng.sample(vocabulary, rng.randint(3, min(10, len(vocabulary))))
        texts.append(words)
    return [_dlg(f"d{i}", [" ".join(words)]) for i, words in enumerate(texts)]


def test_join_finds_exactly_the_rows_with_a_match_edited_copies():
    rng = random.Random("edited-copies")
    for _ in range(300):
        corpus = _edited_corpus(rng)
        cut = rng.randrange(1, len(corpus))
        for threshold in (0.5, 0.6, 0.7, 0.8):
            cfg = DedupConfig(jaccard_threshold=threshold, min_turns=1, min_tokens=1)
            _assert_join_exact(corpus, None, cfg)
            _assert_join_exact(corpus[:cut], corpus[cut:], cfg)
            assert dedup_corpus(corpus, cfg) == brute_force_dedup(corpus, cfg)


_ROOT = Path(__file__).resolve().parent.parent
_SAMPLE_CORPUS = _ROOT / "data" / "sample" / "golden" / "corpus.dlg"


def _sample_vocabulary() -> list[str]:
    return sorted({w for d in load_corpus(_SAMPLE_CORPUS)
                   for t in d.turns for w in t.text.split()})


def _near_copy(rng: random.Random, d: Dialogue, vocabulary: list[str],
               dialogue_id: str) -> Dialogue:
    """``d`` with one word replaced."""
    texts = [t.text.split() for t in d.turns]
    turn = rng.randrange(len(texts))
    texts[turn][rng.randrange(len(texts[turn]))] = rng.choice(vocabulary)
    return _dlg(dialogue_id, [" ".join(words) for words in texts])


def _sample_vocabulary_corpus(rng: random.Random, vocabulary: list[str],
                              n: int) -> list[Dialogue]:
    """``n`` dialogues over ``vocabulary``, about 30 % of them a near copy of
    an earlier one."""
    corpus: list[Dialogue] = []
    for i in range(n):
        if corpus and rng.random() < 0.3:
            corpus.append(_near_copy(rng, rng.choice(corpus), vocabulary, f"s{i}"))
        else:
            corpus.append(_dlg(f"s{i}", [" ".join(rng.choices(vocabulary, k=rng.randint(2, 14)))
                                         for _ in range(rng.randint(1, 9))]))
    return corpus


def _assert_sample_vocabulary_join(threshold: float, vocabulary: list[str]) -> None:
    rng = random.Random(f"sample-vocabulary:{threshold}")
    corpus = _sample_vocabulary_corpus(rng, vocabulary, 300)
    cfg = DedupConfig(jaccard_threshold=threshold, min_turns=1, min_tokens=1)
    kept, removed = dedup_corpus(corpus, cfg)
    assert (kept, removed) == brute_force_dedup(corpus, cfg)
    assert len(removed) > 30
    eval_sets = [corpus[250:], rng.sample(corpus, 20)]
    assert (remove_eval_overlap(kept, eval_sets, cfg)
            == brute_force_eval_overlap(kept, eval_sets, cfg))
    _assert_join_exact(corpus, None, cfg)
    _assert_join_exact(kept, [*eval_sets[0], *eval_sets[1]], cfg)


@pytest.mark.parametrize("threshold", [0.5, 0.8, 0.9])
def test_join_matches_brute_force_sample_vocabulary(threshold):
    # The sample corpus's small vocabulary makes pairwise Jaccard high, and the
    # sizes spread from a few shingles to about a hundred, so the length ranges
    # and postings the probes meet are long
    _assert_sample_vocabulary_join(threshold, _sample_vocabulary())


@pytest.mark.parametrize("threshold", [0.5, 0.8, 0.9])
def test_join_matches_brute_force_all_empty_sets(threshold):
    # Utterances with no letter or digit give only empty sets, which all match
    # each other
    _assert_sample_vocabulary_join(threshold, ["...", "!", "?!", "--", "'"])


def test_clean_output_does_not_follow_the_hash_seed(tmp_path):
    # A shingle's first id follows the order a set of strings iterates in,
    # which the hash seed sets; only the renumbering may reach the output
    rng = random.Random("hash-seed:1")
    vocabulary = _sample_vocabulary()
    corpus = _sample_vocabulary_corpus(rng, vocabulary, 400)
    # Evaluation dialogues: training rows, half of them with one word replaced
    leaks = [_near_copy(rng, d, vocabulary, f"e{i}") if i % 2 else d._replace(id=f"e{i}")
             for i, d in enumerate(rng.sample(corpus, 40))]
    save_corpus(corpus, tmp_path / "corpus.dlg")
    save_corpus(leaks, tmp_path / "eval.dlg")
    outputs = []
    for seed in ("0", "1"):
        out, report = tmp_path / f"out{seed}.dlg", tmp_path / f"removals{seed}.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", "dialoprep.cli", "clean", "--in", str(tmp_path / "corpus.dlg"),
             "--eval-set", str(tmp_path / "eval.dlg"), "--out", str(out), "--report", str(report)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(_ROOT / "src")})
        assert done.returncode == 0, done.stderr
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    reasons = {json.loads(line)["reason"] for line in outputs[0][1].splitlines()}
    assert {"duplicate", "eval_overlap"} <= reasons
    assert outputs[0][0].count(b"\n") > 100


_WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "..."])
_TEXTS = st.lists(st.lists(_WORDS, max_size=8).map(" ".join), min_size=1, max_size=3)


@given(corpus=st.lists(_TEXTS, max_size=25), eval_corpus=st.lists(_TEXTS, max_size=6),
       shared=st.lists(st.integers(0, 24), max_size=3),
       threshold=st.sampled_from([0.5, 0.7, 0.8, 0.9, 1.0]),
       min_turns=st.integers(1, 3), min_tokens=st.integers(1, 6))
def test_join_matches_brute_force_property(corpus, eval_corpus, shared, threshold,
                                           min_turns, min_tokens):
    # "..." tokenizes to nothing, so empty shingle sets (J = 1.0 between two) occur often
    cfg = DedupConfig(jaccard_threshold=threshold, min_turns=min_turns,
                      min_tokens=min_tokens)
    dialogues = [_dlg(f"d{i}", texts) for i, texts in enumerate(corpus)]
    # The second eval set holds training dialogue objects themselves.
    eval_sets = [[_dlg(f"e{i}", texts) for i, texts in enumerate(eval_corpus)],
                 [dialogues[i] for i in shared if i < len(dialogues)]]
    assert dedup_corpus(dialogues, cfg) == brute_force_dedup(dialogues, cfg)
    assert (remove_eval_overlap(dialogues, eval_sets, cfg)
            == brute_force_eval_overlap(dialogues, eval_sets, cfg))
    assert filter_min_size(dialogues, cfg) == oracle_filter_min_size(dialogues, cfg)
    # clean: one list of rows, numbered over the corpus and both eval sets, serves all passes
    assert clean(dialogues, eval_sets, cfg) == oracle_clean(dialogues, eval_sets, cfg)
    _assert_join_exact(dialogues, None, cfg)
    _assert_join_exact(dialogues, [*eval_sets[0], *eval_sets[1]], cfg)


# "Σ" lowercases by its context and "_" and "'" split tokens; "..." and " "
# alone tokenize to nothing.
_TURN_TEXT = (st.text(st.sampled_from(["a", "B", "Σ", "ς", "é", "1", "_", "'", ".", " "]),
                      max_size=10)
              | st.text(max_size=10) | st.just("..."))


@given(texts=st.lists(_TURN_TEXT, min_size=1, max_size=5))
def test_profile_matches_oracle(texts):
    d = _dlg("d", texts)
    assert dialogue_shingles(d) == oracle_shingles(d)
    _, tokens, (size, *_) = _rows([d], DedupConfig())[0]
    assert tokens == oracle_utterance_tokens(d)
    assert size == len(oracle_shingles(d))


def _pair_at(inter: int, union: int, subset: bool) -> tuple[str, str]:
    """Two texts whose unigram sets share ``inter`` of ``union`` tokens; with
    ``subset`` the first set lies inside the second."""
    words = [f"w{i}" for i in range(union)]
    if subset:
        return " ".join(words[:inter]), " ".join(words)
    extra = (union - inter) // 2
    return " ".join(words[:inter + extra]), " ".join(words[:inter] + words[inter + extra:])


@pytest.mark.parametrize("threshold, inter, union, subset", [
    (0.8, 4, 5, False), (0.8, 4, 5, True), (0.8, 8, 10, True), (0.8, 16, 20, False),
    (0.7, 7, 10, False), (0.7, 7, 10, True), (0.7, 14, 20, True),
    (0.9, 9, 10, True), (0.9, 18, 20, False), (0.9, 27, 30, True),
    (0.5, 3, 6, True), (0.55, 55, 100, True), (1.0, 6, 6, True),
])
def test_prefix_boundary_exact_threshold(threshold, inter, union, subset):
    # exactly at the threshold the pair is removed, one shared token fewer it is not,
    # whichever side comes first and whichever side is the reference
    cfg = DedupConfig(jaccard_threshold=threshold, min_turns=1, min_tokens=1)
    at = _pair_at(inter, union, subset)
    below = _pair_at(inter - 1, union, subset)
    assert oracle_jaccard(*at) == inter / union >= threshold
    assert oracle_jaccard(*below) < threshold
    for (x, y), removed_expected in ((at, True), (below, False)):
        for first, second in ((x, y), (y, x)):
            a, b = _dlg("first", [first]), _dlg("second", [second])
            kept, removed = dedup_corpus([a, b], cfg)
            assert [r.removed_id for r in removed] == (["second"] if removed_expected else [])
            kept, removed = remove_eval_overlap([b], [[a]], cfg)
            assert [r.matched_id for r in removed] == (["first"] if removed_expected else [])
            if removed_expected:
                assert removed[0].score == inter / union


def test_eval_overlap_identity_removed():
    train = [_dlg("t1", ["alpha beta gamma", "delta epsilon"]),
             _dlg("t2", ["nothing like the others at all", "truly unique"])]
    eval_set = [_dlg("e1", ["alpha beta gamma", "delta epsilon"])]
    kept, removed = remove_eval_overlap(train, [eval_set], CFG)
    assert [d.id for d in kept] == ["t2"]
    assert removed[0].removed_id == "t1"
    assert removed[0].matched_id == "e1"
    assert removed[0].reason == "eval_overlap"


def test_eval_overlap_empty_eval_set():
    rng = random.Random(3)
    train = [make_dialogue(rng, f"d{i}") for i in range(5)]
    kept, removed = remove_eval_overlap(train, [], CFG)
    assert kept == train
    assert removed == []


def test_eval_overlap_planted_leak():
    tokens = [f"tk{i}" for i in range(9)]
    eval_d = _dlg("eval", [" ".join(tokens[:5]), " ".join(tokens[5:])])
    leaked = tokens.copy()
    leaked[0] = "swapped"  # J = 8/10 = 0.8
    train = [_dlg("leak", [" ".join(leaked[:5]), " ".join(leaked[5:])]),
             _dlg("clean", ["utterly different content", "for sure"])]
    assert oracle_jaccard(" ".join(tokens), " ".join(leaked)) == pytest.approx(0.8)
    kept, removed = remove_eval_overlap(train, [[eval_d]], CFG)
    assert [d.id for d in kept] == ["clean"]
    assert removed[0].removed_id == "leak"
    # eval corpus untouched; second pass removes nothing
    kept_again, removed_again = remove_eval_overlap(kept, [[eval_d]], CFG)
    assert kept_again == kept and removed_again == []


def _sized(dialogue_id: str, n_turns: int, total_tokens: int) -> Dialogue:
    per_turn = [total_tokens // n_turns] * n_turns
    for i in range(total_tokens - sum(per_turn)):
        per_turn[i] += 1
    texts = [" ".join(f"w{t}x{j}" for j in range(k)) for t, k in enumerate(per_turn)]
    return _dlg(dialogue_id, texts)


def test_filter_min_size_boundaries():
    cfg = DedupConfig()
    assert (cfg.min_turns, cfg.min_tokens) == (4, 32)
    few_turns = _sized("few-turns", 3, 100)
    few_tokens = _sized("few-tokens", 10, 31)
    boundary = _sized("boundary", 4, 32)
    kept, removed = filter_min_size([few_turns, few_tokens, boundary], cfg)
    assert [d.id for d in kept] == ["boundary"]
    reasons = {r.removed_id: r.reason for r in removed}
    assert reasons == {"few-turns": "too_few_turns", "few-tokens": "too_few_tokens"}
    assert (kept, removed) == oracle_filter_min_size([few_turns, few_tokens, boundary], cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        DedupConfig(jaccard_threshold=0.0)
    with pytest.raises(ValueError):
        DedupConfig(jaccard_threshold=1.2)
    with pytest.raises(ValueError):
        DedupConfig(min_turns=0)


def test_removal_report_round_trip(tmp_path):
    import json

    _, removed = dedup_corpus(
        [_dlg("x", ["one two three", "four five"]),
         _dlg("y", ["one two three", "four five"])], CFG)
    path = tmp_path / "removals.jsonl"
    assert save_removal_report(removed, path) == 1
    obj = json.loads(path.read_text().splitlines()[0])
    assert obj == {"removed_id": "y", "reason": "duplicate", "matched_id": "x", "score": 1.0}
