from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dialoprep.dedup import (
    DedupConfig,
    ShingleIndex,
    _profile,
    dedup_corpus,
    dialogue_shingles,
    filter_min_size,
    remove_eval_overlap,
    save_removal_report,
)
from dialoprep.records import Dialogue, Turn

from conftest import (
    brute_force_dedup,
    brute_force_eval_overlap,
    make_dialogue,
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


def test_jaccard_shingle_k():
    # bigram shingles: "a b c" -> {ab, bc}; "a b d" -> {ab, bd}
    assert oracle_jaccard("a b c", "a b d", shingle_k=2) == pytest.approx(1 / 3)


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
        shingle_sets = {d.id: dialogue_shingles(d, cfg.shingle_k) for d in kept}
        ids = [d.id for d in kept]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                sa, sb = shingle_sets[ids[i]], shingle_sets[ids[j]]
                if sa or sb:
                    assert len(sa & sb) / len(sa | sb) < cfg.jaccard_threshold


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


_WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "..."])
_TEXTS = st.lists(st.lists(_WORDS, max_size=8).map(" ".join), min_size=1, max_size=3)


@given(corpus=st.lists(_TEXTS, max_size=25), eval_corpus=st.lists(_TEXTS, max_size=6),
       threshold=st.sampled_from([0.5, 0.7, 0.8, 0.9, 1.0]), shingle_k=st.sampled_from([1, 2]))
def test_join_matches_brute_force_property(corpus, eval_corpus, threshold, shingle_k):
    # "..." tokenizes to nothing, so empty shingle sets (J = 1.0 between two) occur often
    cfg = DedupConfig(jaccard_threshold=threshold, shingle_k=shingle_k, min_turns=1, min_tokens=1)
    dialogues = [_dlg(f"d{i}", texts) for i, texts in enumerate(corpus)]
    eval_sets = [[_dlg(f"e{i}", texts) for i, texts in enumerate(eval_corpus)]]
    assert dedup_corpus(dialogues, cfg) == brute_force_dedup(dialogues, cfg)
    assert (remove_eval_overlap(dialogues, eval_sets, cfg)
            == brute_force_eval_overlap(dialogues, eval_sets, cfg))
    # one index, numbered over the corpus and the eval set, serves both passes
    index = ShingleIndex([*dialogues, *eval_sets[0]], cfg)
    kept, removed = dedup_corpus(dialogues, cfg, index=index)
    assert (kept, removed) == brute_force_dedup(dialogues, cfg)
    assert (remove_eval_overlap(kept, eval_sets, cfg, index=index)
            == brute_force_eval_overlap(kept, eval_sets, cfg))


# "Σ" lowercases by its context and "_" and "'" split tokens; "..." and " "
# alone tokenize to nothing.
_TURN_TEXT = (st.text(st.sampled_from(["a", "B", "Σ", "ς", "é", "1", "_", "'", ".", " "]),
                      max_size=10)
              | st.text(max_size=10) | st.just("..."))


@given(texts=st.lists(_TURN_TEXT, min_size=1, max_size=5), shingle_k=st.integers(1, 3))
def test_profile_matches_oracle(texts, shingle_k):
    d = _dlg("d", texts)
    profile = _profile(d, shingle_k)
    assert profile.shingles == oracle_shingles(d, shingle_k)
    assert profile.tokens == oracle_utterance_tokens(d)
    assert ShingleIndex([d], DedupConfig(shingle_k=shingle_k)).tokens(d) == profile.tokens


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
    with pytest.raises(ValueError):
        DedupConfig(shingle_k=0)


def test_removal_report_round_trip(tmp_path):
    import json

    _, removed = dedup_corpus(
        [_dlg("x", ["one two three", "four five"]),
         _dlg("y", ["one two three", "four five"])], CFG)
    path = tmp_path / "removals.jsonl"
    assert save_removal_report(removed, path) == 1
    obj = json.loads(path.read_text().splitlines()[0])
    assert obj == {"removed_id": "y", "reason": "duplicate", "matched_id": "x", "score": 1.0}
