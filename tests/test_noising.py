from __future__ import annotations

import copy
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoprep import jsonl, noising
from dialoprep.noising import (
    BOS,
    EOR,
    EOS,
    EOU,
    MASK,
    RECONSTRUCTION_TASKS,
    UTTR_MASK,
    NoisingConfig,
    SerializedInput,
    TaskMix,
    _plan_infill,
    make_task_oriented_pair,
    mixed_pair,
    noise_dialogue,
    pair_lines,
    pair_to_obj,
    round_half_up,
    sample_poisson,
    save_pairs,
    select_gap_utterances,
    serialize_dialogue,
)
from dialoprep.records import RESERVED_MARKERS, Dialogue, SummaryRecord, Turn, validate_dialogue
from dialoprep.seeding import derive_rng

from conftest import (apply_infill, assign_speaker_ids, deserialize_dialogue, load_pairs,
                      make_dialogue, make_example, mixed_pairs, oracle_pair, oracle_plan)

CFG = NoisingConfig()
MARKERS = (BOS, EOS, EOR, EOU, MASK, UTTR_MASK)


def _dlg(texts, roles=("A", "B"), indices=None):
    if indices is None:
        indices = [i % 2 for i in range(len(texts))]
    return Dialogue(id="n1", source_dataset="u", roles=roles,
                    turns=tuple(Turn(i, t) for i, t in zip(indices, texts)))


def _texts(d: Dialogue) -> list[str]:
    """The utterance texts of ``d``, as gap selection takes them."""
    return [t.text for t in d.turns]


# Independent structural parser used as the test-side oracle.

def parse_turn_groups(s: SerializedInput, allow_bare_mask=False):
    """Split a serialization into (tokens, speaker_id) groups."""
    tokens = list(s.tokens)
    ids = list(s.speaker_ids)
    assert tokens[0] == BOS and tokens[-1] == EOS
    groups = []
    i = 1
    end = len(tokens) - 1
    while i < end:
        if allow_bare_mask and tokens[i] == MASK:
            groups.append((["<mask-group>"], ids[i]))
            i += 1
            continue
        eor = tokens.index(EOR, i, end)
        eou = tokens.index(EOU, eor + 1, end)
        group_ids = set(ids[i:eou + 1])
        assert len(group_ids) == 1, "a group must carry one speaker id"
        groups.append(((tokens[i:eor], tokens[eor + 1:eou]), group_ids.pop()))
        i = eou + 1
    return groups


def assert_ids_alternate(s: SerializedInput, allow_bare_mask=False):
    groups = parse_turn_groups(s, allow_bare_mask)
    assert [speaker for _, speaker in groups] == [i % 2 for i in range(len(groups))]
    assert s.speaker_ids[0] == 0
    assert s.speaker_ids[-1] == s.speaker_ids[-2]


def utterance_tokens(s: SerializedInput) -> list[str]:
    out = []
    for (group, _) in parse_turn_groups(s):
        _, utterance = group
        out.extend(utterance)
    return out


def is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(tok in it for tok in short)


# ---------------------------------------------------------------------------
# Ids and serialization
# ---------------------------------------------------------------------------

def test_speaker_ids_two_roles():
    d = _dlg(["a", "b", "c", "d"])
    assert assign_speaker_ids(d) == [0, 1, 0, 1]


def test_speaker_ids_single_turn():
    d = _dlg(["solo"], roles=("A",), indices=[0])
    assert assign_speaker_ids(d) == [0]


def test_speaker_ids_three_roles_flip_on_transition():
    d = _dlg(["x", "y", "z"], roles=("A", "B", "C"), indices=[0, 1, 2])
    assert assign_speaker_ids(d) == [0, 1, 0]


def test_serialize_worked_example():
    d = Dialogue(id="s", source_dataset="u", roles=("Danny", "Alejandra"),
                 turns=(Turn(0, "hi"), Turn(1, "hello")))
    s = serialize_dialogue(d)
    assert s.tokens == ("<s>", "Danny", "<eor>", "hi", "<eou>",
                        "Alejandra", "<eor>", "hello", "<eou>", "</s>")
    assert s.speaker_ids == (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)


def test_serialize_marker_discipline():
    rng = random.Random(8)
    for i in range(30):
        d = make_dialogue(rng, f"d{i}", n_roles=3)
        s = serialize_dialogue(d)
        assert s.tokens.count(BOS) == 1 and s.tokens[0] == BOS
        assert s.tokens.count(EOS) == 1 and s.tokens[-1] == EOS
        assert s.tokens.count(EOR) == len(d.turns)
        assert s.tokens.count(EOU) == len(d.turns)
        assert_ids_alternate(s)


def test_round_trip_random_dialogues():
    rng = random.Random(9)
    for i in range(50):
        d = make_dialogue(rng, f"d{i}", n_roles=rng.randint(2, 4))
        assert deserialize_dialogue(serialize_dialogue(d), d.id, d.source_dataset) == d


def test_deserialize_rejects_corrupted():
    with pytest.raises(ValueError):
        deserialize_dialogue(SerializedInput(("<s>", "A", "<eor>", "x"), (0, 0, 0, 0)))
    with pytest.raises(ValueError):
        deserialize_dialogue(SerializedInput(
            ("<s>", "A", "<eor>", "<mask>", "<eou>", "</s>"), (0,) * 6))


def test_round_half_up():
    assert round_half_up(0.4) == 0
    assert round_half_up(0.5) == 1
    assert round_half_up(2.0) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(1.9) == 2


# ---------------------------------------------------------------------------
# Token masking
# ---------------------------------------------------------------------------

def test_token_masking_counts_per_utterance():
    texts = [" ".join(f"w{i}{j}" for j in range(10)) for i in range(4)]
    pair = noise_dialogue(_dlg(texts), "token_mask", CFG, random.Random(0))
    for (group, _) in parse_turn_groups(pair.source):
        _, utterance = group
        assert utterance.count(MASK) == 2  # round(0.2 * 10)
        assert len(utterance) == 10
    assert pair.target_tokens == serialize_dialogue(_dlg(texts)).tokens


def test_token_masking_rate_zero_identity():
    d = _dlg(["one two three", "four five"])
    pair = noise_dialogue(d, "token_mask", NoisingConfig(token_mask_rate=0.0), random.Random(0))
    assert pair.source.tokens == pair.target_tokens


def test_token_masking_two_token_utterance_unchanged():
    d = _dlg(["only two", "and here three"])
    pair = noise_dialogue(d, "token_mask", CFG, random.Random(0))
    groups = parse_turn_groups(pair.source)
    (_, first_utterance), _ = groups[0]
    assert first_utterance == ["only", "two"]  # round(0.4) == 0 masks


def test_token_masking_roles_untouched():
    rng = random.Random(11)
    for i in range(20):
        d = make_dialogue(rng, f"d{i}")
        pair = noise_dialogue(d, "token_mask", CFG, random.Random(i))
        for ((role, _), _), turn in zip(parse_turn_groups(pair.source), d.turns):
            assert role == d.roles[turn.role_index].split()


# ---------------------------------------------------------------------------
# Token deletion
# ---------------------------------------------------------------------------

def test_token_deletion_count():
    texts = ["a b c d e", "f g h i j", "k l m n o", "p q r s t"]  # N = 20
    d = _dlg(texts)
    pair = noise_dialogue(d, "token_delete", CFG, random.Random(0))
    source_count = len(utterance_tokens(pair.source))
    target = serialize_dialogue(d)
    assert source_count == len(utterance_tokens(target)) - 4  # round(0.2 * 20)


def test_token_deletion_rate_zero_identity():
    d = _dlg(["one two", "three four"])
    pair = noise_dialogue(d, "token_delete", NoisingConfig(token_delete_rate=0.0),
                          random.Random(0))
    assert pair.source.tokens == pair.target_tokens


def test_token_deletion_subsequence():
    rng = random.Random(12)
    for i in range(40):
        d = make_dialogue(rng, f"d{i}", max_tokens=8)
        pair = noise_dialogue(d, "token_delete", CFG, random.Random(i))
        survivors = utterance_tokens(pair.source)
        original = utterance_tokens(serialize_dialogue(d))
        assert is_subsequence(survivors, original)


def test_token_deletion_empty_utterance_keeps_markers():
    d = _dlg(["x", "y z w v u t s r q p"])  # rate high enough to kill "x"
    cfg = NoisingConfig(token_delete_rate=1.0)
    pair = noise_dialogue(d, "token_delete", cfg, random.Random(0))
    assert pair.source.tokens == ("<s>", "A", "<eor>", "<eou>",
                                  "B", "<eor>", "<eou>", "</s>")


# ---------------------------------------------------------------------------
# Poisson sampler
# ---------------------------------------------------------------------------

def test_poisson_sanity():
    rng = random.Random(3442)
    draws = [sample_poisson(3.0, rng) for _ in range(20000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 3.0) < 0.1
    assert all(k >= 0 for k in draws)


def test_poisson_invalid_lambda():
    with pytest.raises(ValueError):
        sample_poisson(0.0, random.Random(0))


def test_poisson_refuses_nan_lambda_before_drawing():
    # A sampler that accepted NaN would draw forever; this generator fails instead.
    never_drawn = SimpleNamespace(random=lambda: pytest.fail("drew with lambda NaN"))
    with pytest.raises(ValueError):
        sample_poisson(float("nan"), never_drawn)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_config_requires_finite_positive_lambda(lam):
    with pytest.raises(ValueError, match="infill_lambda"):
        NoisingConfig(infill_lambda=lam)


# ---------------------------------------------------------------------------
# Utterance infilling
# ---------------------------------------------------------------------------

def test_infill_span_collapses_to_one_mask():
    texts = ["t0 a", "t1 b", "t2 c", "t3 d", "t4 e"]
    d = _dlg(texts)
    pair = apply_infill(d, spans=[(1, 2)], insertions=0, rng=random.Random(0))
    assert pair.source.tokens == (
        "<s>", "A", "<eor>", "t0", "a", "<eou>",
        MASK,
        "B", "<eor>", "t3", "d", "<eou>",
        "A", "<eor>", "t4", "e", "<eou>", "</s>")
    assert_ids_alternate(pair.source, allow_bare_mask=True)
    assert deserialize_dialogue(
        SerializedInput(pair.target_tokens, serialize_dialogue(d).speaker_ids),
        d.id, d.source_dataset) == d


def test_infill_zero_length_span_adds_one_token():
    d = _dlg(["a b", "c d", "e f", "g h"])
    pair = apply_infill(d, spans=[], insertions=1, rng=random.Random(5))
    assert len(pair.source.tokens) == len(pair.target_tokens) + 1
    assert pair.source.tokens.count(MASK) == 1
    # all original tokens still present, in order
    without_mask = [t for t in pair.source.tokens if t != MASK]
    assert tuple(without_mask) == pair.target_tokens


def test_infill_budget_zero_identity():
    d = _dlg(["a b", "c d"])
    cfg = NoisingConfig(infill_utterance_budget_rate=0.0)
    pair = noise_dialogue(d, "uttr_infill", cfg, random.Random(0))
    assert pair.source.tokens == pair.target_tokens


def test_infill_plan_consumes_budget():
    rng = random.Random(77)
    for trial in range(50):
        n = rng.randint(2, 12)
        budget = round_half_up(0.4 * n)
        if budget == 0:
            continue
        spans, insertions = _plan_infill(n, budget, 3.0, random.Random(trial))
        consumed = sum(length for _, length in spans)
        assert consumed == budget
        assert insertions >= 0
        # spans never overlap
        covered = set()
        for start, length in spans:
            span_range = set(range(start, start + length))
            assert not (covered & span_range)
            assert 0 <= start and start + length <= n
            covered |= span_range


def test_infill_end_to_end_structure():
    rng = random.Random(13)
    for i in range(40):
        d = make_dialogue(rng, f"d{i}", n_turns=rng.randint(4, 10))
        pair = noise_dialogue(d, "uttr_infill", CFG, random.Random(i))
        assert_ids_alternate(pair.source, allow_bare_mask=True)
        groups = parse_turn_groups(pair.source, allow_bare_mask=True)
        survivors = [g for g, _ in groups if g != ["<mask-group>"]]
        original = parse_turn_groups(serialize_dialogue(d))
        # surviving turn groups appear in original order with original content
        original_groups = [g for g, _ in original]
        assert is_subsequence(
            [tuple(map(tuple, g)) for g in survivors],
            [tuple(map(tuple, g)) for g in original_groups])


# ---------------------------------------------------------------------------
# Utterance permutation
# ---------------------------------------------------------------------------

def test_permutation_single_turn_identity():
    d = _dlg(["solo words"], roles=("A",), indices=[0])
    pair = noise_dialogue(d, "uttr_permute", CFG, random.Random(0))
    assert pair.source.tokens == pair.target_tokens


def test_permutation_keeps_role_sequence():
    d = _dlg(["u1 only", "u2 only", "u3 only"],
             roles=("A", "B"), indices=[0, 1, 0])
    pair = noise_dialogue(d, "uttr_permute", CFG, random.Random(1))
    roles = [group[0] for group, _ in parse_turn_groups(pair.source)]
    assert roles == [["A"], ["B"], ["A"]]


def test_permutation_preserves_utterance_multiset():
    rng = random.Random(14)
    for i in range(30):
        d = make_dialogue(rng, f"d{i}", n_turns=rng.randint(2, 8))
        pair = noise_dialogue(d, "uttr_permute", CFG, random.Random(i))
        shuffled = [tuple(g[1]) for g, _ in parse_turn_groups(pair.source)]
        original = [tuple(t.text.split()) for t in d.turns]
        assert sorted(shuffled) == sorted(original)
        assert_ids_alternate(pair.source)


# ---------------------------------------------------------------------------
# Gap-utterance selection and utterance masking
# ---------------------------------------------------------------------------

def test_gap_selection_worked_example():
    assert select_gap_utterances(["alice books", "bob books", "weather today"], 1) == [0]


def test_gap_selection_k_equals_turns():
    assert select_gap_utterances(["a b", "c d", "e f"], 3) == [0, 1, 2]


def _stepwise_oracle(token_lists, k):
    from dialoprep.metrics import rouge_n

    selected = []
    for _ in range(k):
        scores = []
        for i in range(len(token_lists)):
            if i in selected:
                scores.append(None)
                continue
            trial = sorted(selected + [i])
            chosen = [t for j in trial for t in token_lists[j]]
            rest = [t for j in range(len(token_lists)) if j not in trial
                    for t in token_lists[j]]
            scores.append(rouge_n(chosen, rest, 1, unique_ngrams=True).f1)
        best = max(s for s in scores if s is not None)
        selected.append(scores.index(best))
    return sorted(selected)


def test_gap_selection_matches_stepwise_oracle():
    from dialoprep.metrics import tokenize_for_metrics

    rng = random.Random(15)
    dialogues = [make_dialogue(rng, f"d{i}", n_turns=rng.randint(2, 8), max_tokens=6)
                 for i in range(60)]
    # Utterances that tokenize to nothing reach the empty-side conventions:
    # an empty selected side, an empty rest, or both.
    for i in range(60):
        d = make_dialogue(rng, f"e{i}", n_turns=rng.randint(1, 8), max_tokens=3)
        texts = [rng.choice(("...", "!!")) if rng.random() < 0.4 else t.text
                 for t in d.turns]
        dialogues.append(_dlg(texts))
    dialogues += [_dlg(["..."]), _dlg(["...", "!!"]), _dlg(["!!", "a b", "..."]),
                  _dlg(["a", "..."]), _dlg(["a b", "a b", "!!"])]
    for d in dialogues:
        token_lists = [tokenize_for_metrics(t.text) for t in d.turns]
        for k in range(1, len(d.turns) + 1):  # up to k = n
            assert select_gap_utterances(_texts(d), k) == _stepwise_oracle(token_lists, k)


def test_gap_selection_deterministic():
    rng = random.Random(16)
    d = make_dialogue(rng, "dd", n_turns=6)
    assert select_gap_utterances(_texts(d), 2) == select_gap_utterances(_texts(d), 2)


def test_gap_selection_case_invariant():
    rng = random.Random(26)
    for i in range(10):
        d = make_dialogue(rng, f"c{i}", n_turns=5)
        upper = [text.upper() for text in _texts(d)]
        assert select_gap_utterances(_texts(d), 2) == select_gap_utterances(upper, 2)


def test_gap_selection_bounds():
    with pytest.raises(ValueError):
        select_gap_utterances(["a", "b"], 0)
    with pytest.raises(ValueError):
        select_gap_utterances(["a", "b"], 3)


def test_utterance_masking_five_turns_masks_one():
    texts = [f"text number {i} here" for i in range(5)]
    d = _dlg(texts, roles=("A", "B"), indices=[0, 1, 0, 1, 0])
    pair = noise_dialogue(d, "uttr_mask", CFG, None)
    masked = [g for g, _ in parse_turn_groups(pair.source) if g[1] == [UTTR_MASK]]
    assert len(masked) == 1  # max(1, round(0.2 * 5))


def test_utterance_masking_keeps_roles_and_markers():
    d = _dlg(["alice books", "bob books", "weather today"],
             roles=("A", "B"), indices=[0, 1, 0])
    pair = noise_dialogue(d, "uttr_mask", CFG, None)
    groups = parse_turn_groups(pair.source)
    # principal utterance (index 0) replaced; its role group intact
    assert groups[0][0] == (["A"], [UTTR_MASK])
    assert groups[1][0] == (["B"], ["bob", "books"])
    assert pair.source.tokens.count(EOR) == 3
    assert pair.source.tokens.count(EOU) == 3


def test_utterance_masking_follows_the_rate_on_a_reused_dialogue():
    rng = random.Random(32)
    d = make_dialogue(rng, "rate", n_turns=10)
    for rate in (0.2, 0.5, 0.2, 1.0):
        pair = noise_dialogue(d, "uttr_mask", NoisingConfig(uttr_mask_rate=rate), None)
        masked = [i for i, (g, _) in enumerate(parse_turn_groups(pair.source))
                  if g[1] == [UTTR_MASK]]
        assert masked == select_gap_utterances(_texts(d), round_half_up(rate * 10))


def test_utterance_masking_single_turn_min_one():
    d = _dlg(["just one utterance"], roles=("A",), indices=[0])
    pair = noise_dialogue(d, "uttr_mask", CFG, None)
    assert pair.source.tokens == ("<s>", "A", "<eor>", UTTR_MASK, "<eou>", "</s>")


# ---------------------------------------------------------------------------
# Task-oriented pairs
# ---------------------------------------------------------------------------

def test_task_oriented_uses_annotated_summary():
    rng = random.Random(17)
    d = make_dialogue(rng, "t1")
    ex = d._replace(summaries=(
        SummaryRecord("a reference text", "reference"),
        SummaryRecord("the annotated one", "annotated")))
    pair = make_task_oriented_pair(ex)
    assert pair.target_tokens == ("the", "annotated", "one")
    assert pair.target_origin == "annotated"
    assert pair.source.tokens == serialize_dialogue(d).tokens


def test_task_oriented_reference_fallback_flagged():
    rng = random.Random(18)
    ex = make_dialogue(rng, "t2")._replace(
        summaries=(SummaryRecord("only reference", "reference"),))
    pair = make_task_oriented_pair(ex)
    assert pair.target_tokens == ("only", "reference")
    assert pair.target_origin == "reference"


def test_task_oriented_source_never_corrupted():
    rng = random.Random(19)
    for i in range(10):
        pair = make_task_oriented_pair(make_example(rng, f"t{i}"))
        assert MASK not in pair.source.tokens
        assert UTTR_MASK not in pair.source.tokens


# ---------------------------------------------------------------------------
# Reconstruction invariant: target always deserializes to the original
# ---------------------------------------------------------------------------

def _rng(task, i):  # utterance masking is greedy: it takes no generator
    return None if task == "uttr_mask" else random.Random(i)


def test_marker_discipline_all_task_sources():
    rng = random.Random(27)
    for i in range(20):
        d = make_dialogue(rng, f"md{i}", n_turns=rng.randint(2, 8))
        for task in RECONSTRUCTION_TASKS:
            source = noise_dialogue(d, task, CFG, _rng(task, i)).source
            assert source.tokens[0] == BOS and source.tokens.count(BOS) == 1
            assert source.tokens[-1] == EOS and source.tokens.count(EOS) == 1
            assert source.tokens.count(EOR) == source.tokens.count(EOU)
            if task != "uttr_infill":
                assert source.tokens.count(EOR) == len(d.turns)


def test_all_tasks_target_is_original_serialization():
    rng = random.Random(20)
    for i in range(20):
        d = make_dialogue(rng, f"d{i}", n_turns=rng.randint(2, 8))
        clean = serialize_dialogue(d)
        for task in RECONSTRUCTION_TASKS:
            pair = noise_dialogue(d, task, CFG, _rng(task, i))
            assert pair.target_tokens == clean.tokens
            restored = deserialize_dialogue(
                SerializedInput(pair.target_tokens, clean.speaker_ids),
                d.id, d.source_dataset)
            assert restored == d


@pytest.mark.parametrize("task", ["task_oriented", "token_masking", ""])
def test_noise_dialogue_refuses_a_task_that_is_not_reconstruction(task):
    d = make_dialogue(random.Random(26), "r0")
    with pytest.raises(ValueError, match=f"unknown reconstruction task {task!r}"):
        noise_dialogue(d, task, CFG, random.Random(0))


# ---------------------------------------------------------------------------
# Task mixing
# ---------------------------------------------------------------------------

def test_mix_degenerate_weights():
    rng = random.Random(21)
    items = [make_dialogue(rng, f"d{i}") for i in range(5)]
    mix = TaskMix(weights={"token_mask": 1.0})
    pairs = list(mixed_pairs(items, mix, CFG, 50, seed=7))
    assert len(pairs) == 50
    assert all(p.task == "token_mask" for p in pairs)


def test_mix_same_seed_identical_streams(tmp_path):
    rng = random.Random(22)
    items = [make_example(rng, f"e{i}") for i in range(6)]
    mix = TaskMix(weights={t: 1.0 for t in
                           ("token_mask", "token_delete", "uttr_infill",
                            "uttr_permute", "uttr_mask", "task_oriented")})
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_pairs(mixed_pairs(items, mix, CFG, 200, seed=3442), first)
    save_pairs(mixed_pairs(items, mix, CFG, 200, seed=3442), second)
    assert first.read_bytes() == second.read_bytes()
    assert load_pairs(first) == load_pairs(second)


def test_mix_scheduling_independent():
    rng = random.Random(23)
    items = [make_dialogue(rng, f"d{i}") for i in range(4)]
    mix = TaskMix.equal_reconstruction()
    in_order = [mixed_pair(items, mix, CFG, i, seed=1) for i in range(30)]
    reversed_order = [mixed_pair(items, mix, CFG, i, seed=1) for i in reversed(range(30))]
    assert in_order == list(reversed(reversed_order))


def test_mix_task_oriented_requires_parallel():
    rng = random.Random(24)
    items = [make_dialogue(rng, "d0")]
    mix = TaskMix(weights={"task_oriented": 1.0})
    with pytest.raises(ValueError):
        list(mixed_pairs(items, mix, CFG, 1, seed=0))


def test_mix_weight_validation():
    with pytest.raises(ValueError):
        TaskMix(weights={})
    with pytest.raises(ValueError):
        TaskMix(weights={"token_mask": -1.0})
    with pytest.raises(ValueError):
        TaskMix(weights={"bogus_task": 1.0})


@pytest.mark.parametrize("weights, message", [
    ({"token_mask": float("nan")}, "must be finite"),
    ({"token_mask": float("inf"), "token_delete": 1.0}, "must be finite"),
    ({"token_mask": 10**400}, "must be finite"),
    ({"token_mask": 1e308, "token_delete": 1e308}, "must sum to a finite number"),
    ({"token_mask": 10**308, "token_delete": 10**308}, "must sum to a finite number"),
])
def test_mix_refuses_non_finite_weights(weights, message):
    with pytest.raises(ValueError, match=message):
        TaskMix(weights=weights)


def test_mix_draws_every_task_near_the_float_limit():
    mix = TaskMix(weights={"token_mask": 1e308, "token_delete": 7e307})
    items = [make_dialogue(random.Random(0), "big")]
    assert {p.task for p in mixed_pairs(items, mix, CFG, 60, seed=2)} == {"token_mask",
                                                                          "token_delete"}


def test_pairs_file_round_trip(tmp_path):
    rng = random.Random(25)
    items = [make_example(rng, f"e{i}") for i in range(3)]
    pairs = [make_task_oriented_pair(ex) for ex in items]
    pairs.append(noise_dialogue(items[0], "token_mask", CFG, random.Random(0)))
    path = tmp_path / "pairs.jsonl"
    assert save_pairs(pairs, path) == 4
    assert load_pairs(path) == pairs


# ---------------------------------------------------------------------------
# Nothing shared between pairs
# ---------------------------------------------------------------------------

_WORD = st.sampled_from(["a", "b", "c", "Cold", "tea", "x-ray"])


@st.composite
def _corpora(draw):
    """Distinct-id dialogues in dual-turn form; parallel examples when ``parallel``."""
    parallel = draw(st.booleans())
    items = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 7))
        turns = tuple(Turn(j % 2, " ".join(draw(st.lists(_WORD, min_size=1, max_size=5))))
                      for j in range(n))
        d = Dialogue(id=f"h{i}", source_dataset="h", roles=("A", "B")[:min(n, 2)],
                     turns=turns)
        items.append(d._replace(summaries=(SummaryRecord("a b", "annotated"),))
                     if parallel else d)
    return items, parallel


_RATE = st.sampled_from([0.0, 0.2, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(corpus=_corpora(), weights=st.lists(st.sampled_from([0.0, 1.0, 2.5]),
                                           min_size=6, max_size=6),
       rates=st.tuples(_RATE, _RATE, _RATE, _RATE), lam=st.sampled_from([0.5, 3.0]),
       seed=st.integers(0, 2**16))
def test_mixed_pairs_share_no_state(corpus, weights, rates, lam, seed):
    items, parallel = corpus
    tasks = noising.ALL_TASKS if parallel else RECONSTRUCTION_TASKS
    weights = dict(zip(tasks, weights))
    if not any(weights.values()):
        weights["uttr_mask"] = 1.0
    mix = TaskMix(weights=weights)
    cfg = NoisingConfig(token_mask_rate=rates[0], token_delete_rate=rates[1],
                        infill_lambda=lam, infill_utterance_budget_rate=rates[2],
                        uttr_mask_rate=rates[3])
    dialogues = {d.id: d for d in items}
    for ordinal, pair in enumerate(mixed_pairs(items, mix, cfg, 12, seed=seed)):
        assert pair == mixed_pair(copy.deepcopy(items), mix, cfg, ordinal, seed=seed)
        if pair.task == "task_oriented":
            continue
        d = dialogues[pair.dialogue_id]
        assert pair.target_tokens == serialize_dialogue(d).tokens
        if pair.task == "uttr_mask":
            k = max(1, round_half_up(cfg.uttr_mask_rate * len(d.turns)))
            masked = [i for i, ((_, utterance), _) in enumerate(parse_turn_groups(pair.source))
                      if utterance == [UTTR_MASK]]
            assert masked == select_gap_utterances(_texts(d), k)


def test_gap_selection_runs_once_per_dialogue(monkeypatch):
    calls = Counter()
    select = noising.select_gap_utterances

    def counting(utterances, k):
        calls[tuple(utterances)] += 1
        return select(utterances, k)

    monkeypatch.setattr(noising, "select_gap_utterances", counting)
    rng = random.Random(31)
    items = [make_dialogue(rng, f"memo{i}", n_turns=rng.randint(1, 8)) for i in range(6)]
    mix = TaskMix(weights={"uttr_mask": 1.0})
    pairs = list(mixed_pairs(items, mix, CFG, 120, seed=5))
    assert {p.dialogue_id for p in pairs} == {d.id for d in items}
    assert calls == Counter({tuple(_texts(d)): 1 for d in items})
    # Nothing outlives a stream: a second one selects each dialogue's gaps again.
    lines = list(pair_lines(items, mix, CFG, 120, seed=5))
    assert [noising._pair_of_line(line) for line in lines] == pairs
    assert calls == Counter({tuple(_texts(d)): 2 for d in items})


@settings(max_examples=80, deadline=None)
@given(corpus=_corpora(), weights=st.lists(st.sampled_from([0.0, 1.0, 2.5]),
                                           min_size=6, max_size=6),
       rates=st.tuples(_RATE, _RATE, _RATE, _RATE), lam=st.sampled_from([0.5, 3.0]),
       seed=st.integers(0, 2**16), count=st.integers(0, 60))
def test_pair_lines_are_each_ordinals_pair_line(corpus, weights, rates, lam, seed, count):
    items, parallel = corpus
    weights = dict(zip(noising.ALL_TASKS if parallel else RECONSTRUCTION_TASKS, weights))
    weights["uttr_mask"] += 1.0
    mix = TaskMix(weights=weights)
    cfg = NoisingConfig(token_mask_rate=rates[0], token_delete_rate=rates[1],
                        infill_lambda=lam, infill_utterance_budget_rate=rates[2],
                        uttr_mask_rate=rates[3])
    assert ("".join(pair_lines(iter(items), mix, cfg, count, seed=seed))
            == "".join(jsonl.line(pair_to_obj(mixed_pair(items, mix, cfg, o, seed=seed)))
                       for o in range(count)))


# ---------------------------------------------------------------------------
# Pairs rendered from text equal the token-list oracle, and their lines the
# encoded pairs
# ---------------------------------------------------------------------------

# Characters JSON escapes (", \\ and the controls that are not whitespace),
# characters it keeps (U+007F, non-ASCII, astral) and "<" of the markers.
_TRICKY = ['"', "\\", "\x01", "\x08", "\x0e", "\x1b", "\x7f", "é", "中", "\U0001f600",
           "<", ">", "/", "a", "b"]
_CHAR = st.one_of(st.sampled_from(_TRICKY),
                  st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs"))
                  .filter(lambda c: not c.isspace()))
_TOKEN = st.text(_CHAR, min_size=1, max_size=3).filter(
    lambda t: not any(marker in t for marker in RESERVED_MARKERS))
_TEXT = st.lists(_TOKEN, min_size=1, max_size=4).map(" ".join)
# Summaries carry no whitespace rule: tabs, newlines, runs and edge spaces.
_SUMMARY = st.lists(st.one_of(st.sampled_from([" ", "  ", "\t", "\n", "\u3000"]), _TOKEN),
                   min_size=1, max_size=6).map("".join)


@st.composite
def _canonical_items(draw):
    """Valid dialogues (one or more turns, one or two roles) or parallel examples."""
    parallel = draw(st.booleans())
    items = []
    for i in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 5))
        roles = tuple(draw(st.lists(_TEXT, min_size=min(n, 2), max_size=min(n, 2),
                                    unique=True)))
        turns = tuple(Turn(j % 2, draw(_TEXT)) for j in range(n))
        d = Dialogue(id=f"{draw(_TEXT)}#{i}", source_dataset="h", roles=roles, turns=turns)
        assert validate_dialogue(d) == []
        if parallel:
            origins = st.sampled_from(["annotated", "reference", "augmented"])
            summaries = draw(st.lists(st.builds(SummaryRecord, _SUMMARY, origins),
                                      min_size=1, max_size=2))
            items.append(d._replace(summaries=tuple(summaries)))
        else:
            items.append(d)
    return items, parallel


@settings(max_examples=150, deadline=None)
@given(corpus=_canonical_items(), task=st.sampled_from(noising.ALL_TASKS),
       rates=st.tuples(_RATE, _RATE, _RATE, _RATE), lam=st.sampled_from([0.5, 3.0, 50.0]),
       seed=st.integers(0, 2**32), ordinal=st.integers(0, 10**6))
def test_pair_line_is_the_encoded_pair(corpus, task, rates, lam, seed, ordinal):
    items, parallel = corpus
    if task == "task_oriented" and not parallel:
        task = "token_mask"
    mix = TaskMix(weights={task: 1.0})
    # A budget rate of 1 with a large lambda collapses every turn to one mask.
    cfg = NoisingConfig(token_mask_rate=rates[0], token_delete_rate=rates[1],
                        infill_lambda=lam, infill_utterance_budget_rate=rates[2],
                        uttr_mask_rate=rates[3])
    pair = mixed_pair(items, mix, cfg, ordinal, seed=seed)
    assert pair.task == task
    d = next(i for i in items if i.id == pair.dialogue_id)
    if task == "task_oriented":
        expected = oracle_pair(task, d, summary=noising._summary(d))
        assert make_task_oriented_pair(d) == expected
    else:
        # The plan drawn from the raw texts with the pair's own generator.
        plan = oracle_plan(task, d, cfg, derive_rng(seed, "pair", d.id, ordinal))
        expected = oracle_pair(task, d, plan)
        assert noise_dialogue(d, task, cfg, derive_rng(seed, "pair", d.id, ordinal)) == expected
    # The stream's pair, drawn and rendered from the compact form.
    assert pair == expected
    assert serialize_dialogue(d) == oracle_pair(task, d).source
    # The line the stream writes at the ordinal, drawn alone: the stream has
    # no shortcut to an ordinal as far as 10**6.
    line = noising._pair_line(list(map(noising._compact, items)), noising._draws(mix), cfg,
                              ordinal, seed, {})
    assert line == jsonl.line(pair_to_obj(pair))


@pytest.mark.parametrize("task", ["token_mask", "token_delete"])
def test_token_tasks_match_the_oracle_on_samples_set_branch(task):
    # At rate 0.2, sample(range(n), k) tracks drawn ints in a set for n of
    # 22-27, 86-107 and 278-427 (and past 1045): utterances of 22-27 tokens
    # for token_mask, and 13-16 of them (286-432 tokens) for token_delete.
    # The property above draws no utterance over 4 tokens.
    rng = random.Random(12)
    for trial in range(25):
        d = make_dialogue(rng, f"long{trial}", n_turns=rng.randint(13, 16),
                          min_tokens=22, max_tokens=27)
        plan = oracle_plan(task, d, CFG, random.Random(trial))
        assert noise_dialogue(d, task, CFG, random.Random(trial)) == oracle_pair(task, d, plan)


def test_pair_lines_are_the_saved_pairs(tmp_path):
    rng = random.Random(33)
    items = [make_example(rng, f"l{i}", n_turns=rng.randint(1, 8)) for i in range(5)]
    mix = TaskMix(weights={task: 1.0 for task in noising.ALL_TASKS})
    path = tmp_path / "pairs.jsonl"
    save_pairs(mixed_pairs(items, mix, CFG, 200, seed=9), path)
    lines = [jsonl.line(pair_to_obj(mixed_pair(items, mix, CFG, ordinal, seed=9)))
             for ordinal in range(200)]
    assert "".join(lines) == path.read_text(encoding="utf-8")
