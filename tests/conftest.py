from __future__ import annotations

import json
import math
import os
import random
import re
import unicodedata
from collections import Counter

from pathlib import Path

from hypothesis import settings

from dialoprep import noising
from dialoprep.dedup import RemovalRecord
from dialoprep.metrics import EvalScores, ExampleStats, RougeScore
from dialoprep.noising import BOS, EOR, EOS, EOU, MASK, UTTR_MASK, NoisedPair, SerializedInput
from dialoprep.records import (
    RESERVED_MARKERS,
    SCHEMA_VERSION,
    SUMMARY_ORIGINS,
    Dialogue,
    SummaryRecord,
    Turn,
    render_dialogue_text,
    validate_dialogue,
)

WORDS = [
    "alice", "books", "weather", "today", "meeting", "coffee", "train", "ticket",
    "order", "refund", "delivery", "thanks", "please", "schedule", "project",
    "movie", "dinner", "garden", "music", "travel", "hotel", "flight", "laptop",
    "phone", "update", "report", "friday", "morning", "question", "answer",
]

ROLE_NAMES = ["Ava", "Ben", "Cole", "Dana", "Eli", "Fay"]

# CI searches each property deeper than a local run; a test's own
# ``max_examples`` still wins over the profile.
settings.register_profile("ci", max_examples=500)
if os.environ.get("CI"):
    settings.load_profile("ci")


def make_dialogue(rng: random.Random, dialogue_id: str, n_turns: int | None = None,
                  n_roles: int = 2, min_tokens: int = 1, max_tokens: int = 6,
                  source: str = "synth") -> Dialogue:
    """Random valid dialogue in dual-turn form with first-appearance role order."""
    if n_turns is None:
        n_turns = rng.randint(2, 8)
    n_roles = min(n_roles, n_turns) if n_turns > 1 else 1
    indices = [0]
    for _ in range(n_turns - 1):
        choices = [r for r in range(n_roles) if r != indices[-1]]
        indices.append(rng.choice(choices))
    # Rebuild the role table in first-appearance order so serialization
    # round-trips compare equal.
    order: list[int] = []
    for i in indices:
        if i not in order:
            order.append(i)
    remap = {old: new for new, old in enumerate(order)}
    roles = tuple(ROLE_NAMES[old] for old in order)
    turns = tuple(
        Turn(remap[i], " ".join(rng.choices(WORDS, k=rng.randint(min_tokens, max_tokens))))
        for i in indices)
    return Dialogue(id=dialogue_id, source_dataset=source, roles=roles, turns=turns)


def make_example(rng: random.Random, dialogue_id: str, origin: str = "annotated",
                 **kwargs) -> Dialogue:
    d = make_dialogue(rng, dialogue_id, **kwargs)
    summary = " ".join(rng.choices(WORDS, k=rng.randint(3, 8)))
    return d._replace(summaries=(SummaryRecord(summary, origin),))


def validate_example(ex: Dialogue) -> list[str]:
    """Violations of a parallel example: dialogue invariants plus summary rules."""
    violations = validate_dialogue(ex)
    if not ex.summaries:
        violations.append("example has no summaries")
    for i, s in enumerate(ex.summaries):
        if not s.text:
            violations.append(f"summary {i}: empty text")
        if s.origin not in SUMMARY_ORIGINS:
            violations.append(f"summary {i}: unknown origin {s.origin!r}")
    return violations


# ---------------------------------------------------------------------------
# Record oracle: the JSON object of one corpus record, built field by field.
# ``records.record_line`` must equal ``jsonl.line`` of it.
# ---------------------------------------------------------------------------

def record_to_obj(d: Dialogue) -> dict:
    """The JSON object form of one corpus record, as written by save_corpus:
    a parallel record's has ``summaries``, a dialogue record's has none."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "id": d.id,
        "source_dataset": d.source_dataset,
        "roles": list(d.roles),
        "turns": [{"role_index": t.role_index, "text": t.text} for t in d.turns],
    }
    if d.summaries:
        obj["summaries"] = [{"text": s.text, "origin": s.origin} for s in d.summaries]
    return obj


# ---------------------------------------------------------------------------
# Serializer oracle: token lists from ``str.split()`` with one speaker id per
# token, built apart from the line that ``dialoprep.noising`` renders. Every
# pair the noising API returns must equal it.
# ---------------------------------------------------------------------------

def oracle_serialize(groups) -> SerializedInput:
    """``<s>``, then each group, a (role tokens, utterance tokens) turn or a
    bare ``MASK``, then ``</s>``; ids alternate 0/1 over the groups and
    ``</s>`` repeats the last one."""
    tokens, ids = [BOS], [0]
    for position, group in enumerate(groups):
        group_tokens = [MASK] if group == MASK else [*group[0], EOR, *group[1], EOU]
        tokens += group_tokens
        ids += [position % 2] * len(group_tokens)
    tokens.append(EOS)
    ids.append(ids[-1])
    return SerializedInput(tokens, ids)


def oracle_pair(task: str, d: Dialogue, plan=None, summary: SummaryRecord | None = None):
    """The pair whose source serializes ``plan``, an :func:`oracle_plan`, or
    the clean dialogue when None, and whose target is ``d`` clean or, when
    given, ``summary``'s tokens."""
    roles = [role.split() for role in d.roles]
    turns = [(roles[t.role_index], t.text.split()) for t in d.turns]
    source = turns if plan is None else [
        turns[group] if type(group) is int else
        MASK if group == MASK else
        (roles[group[0]], group[1].split())
        for group in plan]
    if summary is None:
        return NoisedPair(task, oracle_serialize(source), oracle_serialize(turns).tokens, d.id)
    return NoisedPair(task, oracle_serialize(source), summary.text.split(), d.id,
                      summary.origin)


# Plan oracle: each reconstruction task's groups, drawn from the raw texts of
# a dialogue with the draws ``dialoprep.noising`` makes: a turn index (that
# turn, intact), ``MASK`` (a bare mask) or ``(role index, text)`` for an
# utterance the task changed or moved, whitespace-canonical or empty.

def _oracle_token_mask(d: Dialogue, cfg, rng: random.Random) -> list:
    groups = []
    for i, turn in enumerate(d.turns):
        tokens = turn.text.split(" ")
        k = noising.round_half_up(cfg.token_mask_rate * len(tokens))
        if not k:  # sample(range(n), 0) draws nothing
            groups.append(i)
            continue
        for position in rng.sample(range(len(tokens)), k):
            tokens[position] = MASK
        groups.append((turn.role_index, " ".join(tokens)))
    return groups


def _oracle_token_delete(d: Dialogue, cfg, rng: random.Random) -> list:
    total = sum(len(turn.text.split(" ")) for turn in d.turns)
    doomed = set(rng.sample(range(total), noising.round_half_up(cfg.token_delete_rate * total)))
    groups = []
    offset = 0
    for i, turn in enumerate(d.turns):
        tokens = turn.text.split(" ")
        kept = [token for j, token in enumerate(tokens, offset) if j not in doomed]
        groups.append(i if len(kept) == len(tokens) else (turn.role_index, " ".join(kept)))
        offset += len(tokens)
    return groups


def _oracle_uttr_infill(d: Dialogue, cfg, rng: random.Random) -> list:
    budget = noising.round_half_up(cfg.infill_utterance_budget_rate * len(d.turns))
    spans, insertions = noising._plan_infill(len(d.turns), budget, cfg.infill_lambda, rng)
    starts = dict(spans)
    groups: list = []
    i = 0
    while i < len(d.turns):
        if i in starts:
            groups.append(MASK)
            i += starts[i]
        else:
            groups.append(i)
            i += 1
    for _ in range(insertions):
        groups.insert(rng.randrange(len(groups) + 1), MASK)
    return groups


def _oracle_uttr_permute(d: Dialogue, cfg, rng: random.Random) -> list:
    order = list(range(len(d.turns)))
    rng.shuffle(order)
    turns = d.turns
    return [i if turns[i].role_index == turn.role_index else (turn.role_index, turns[i].text)
            for turn, i in zip(turns, order)]


def _oracle_uttr_mask(d: Dialogue, cfg, rng: random.Random | None) -> list:
    k = max(1, noising.round_half_up(cfg.uttr_mask_rate * len(d.turns)))
    chosen = noising.select_gap_utterances([turn.text for turn in d.turns], k)
    return [(turn.role_index, UTTR_MASK) if i in chosen else i
            for i, turn in enumerate(d.turns)]


_ORACLE_PLANS = {
    "token_mask": _oracle_token_mask,
    "token_delete": _oracle_token_delete,
    "uttr_infill": _oracle_uttr_infill,
    "uttr_permute": _oracle_uttr_permute,
    "uttr_mask": _oracle_uttr_mask,
}


def oracle_plan(task: str, d: Dialogue, cfg, rng: random.Random | None) -> list:
    """The groups of reconstruction ``task`` on ``d``, drawn from ``rng``."""
    return _ORACLE_PLANS[task](d, cfg, rng)


# ---------------------------------------------------------------------------
# Serialization inverses: parse what ``dialoprep.noising`` writes back into
# dialogues and pairs.
# ---------------------------------------------------------------------------

def assign_speaker_ids(d: Dialogue) -> list[int]:
    """Per-turn speaker ids: turn 0 gets 0, then flip at every turn boundary.

    In dual-turn form every boundary is a role transition, so ids stay in
    {0, 1} for any number of roles.
    """
    return [i % 2 for i in range(len(d.turns))]


def deserialize_dialogue(s: SerializedInput, dialogue_id: str = "",
                         source_dataset: str = "") -> Dialogue:
    """Parse a clean serialization back into a Dialogue.

    The role table is rebuilt in order of first appearance, which matches how
    every pipeline stage constructs dialogues. Corrupted sequences (stray
    masks, unterminated groups) raise ValueError.
    """
    tokens = list(s.tokens)
    if len(tokens) < 2 or tokens[0] != BOS or tokens[-1] != EOS:
        raise ValueError("serialization must start with <s> and end with </s>")
    roles: list[str] = []
    turns: list[Turn] = []
    i = 1
    end = len(tokens) - 1
    while i < end:
        try:
            eor = tokens.index(EOR, i, end)
            eou = tokens.index(EOU, eor + 1, end)
        except ValueError:
            raise ValueError("unterminated role or utterance group") from None
        role_tokens = tokens[i:eor]
        utterance_tokens = tokens[eor + 1:eou]
        group_tokens = role_tokens + utterance_tokens
        if not role_tokens or not utterance_tokens:
            raise ValueError("empty role or utterance group")
        if any(t in (BOS, EOS, EOR, EOU, MASK, UTTR_MASK) for t in group_tokens):
            raise ValueError("marker token inside a content group")
        role = " ".join(role_tokens)
        if role not in roles:
            roles.append(role)
        turns.append(Turn(role_index=roles.index(role), text=" ".join(utterance_tokens)))
        i = eou + 1
    if not turns:
        raise ValueError("serialization contains no turns")
    return Dialogue(id=dialogue_id, source_dataset=source_dataset,
                    roles=tuple(roles), turns=tuple(turns))


def apply_infill(d: Dialogue, spans, insertions: int, rng: random.Random) -> NoisedPair:
    """The ``uttr_infill`` pair of ``d`` for the given spans (start, length)
    and bare-mask insertions, as ``noising`` renders them, decoded."""
    form = noising._compact(d)
    return noising._pair_of_line(noising._line(
        "uttr_infill", form, *noising._infill_groups(form, spans, insertions, rng)))


def mixed_pairs(items, mix, cfg, count: int, *, seed: int):
    """The pairs of ``noising.pair_lines``, the lines ``noise`` writes, decoded."""
    return map(noising._pair_of_line, noising.pair_lines(items, mix, cfg, count, seed=seed))


def load_pairs(path: str | Path) -> list[NoisedPair]:
    """The pairs of a file written by ``noising.save_pairs`` or ``noise``."""
    with open(path, encoding="utf-8") as fh:
        return [noising._pair_of_line(line) for line in fh]


def oracle_tokenize(text: str) -> list[str]:
    """The metrics tokenizer's definition: lowercase, then the runs of Unicode
    letters and digits, underscore excluded."""
    return re.findall(r"[^\W_]+", text.lower())


def oracle_shingles(d: Dialogue) -> frozenset:
    """Token types of a dialogue's joined utterance text, built apart from ``dedup``."""
    return frozenset(oracle_tokenize(" ".join(t.text for t in d.turns)))


def _oracle_jaccard(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a | b) if a or b else 1.0


def oracle_jaccard(a: str, b: str) -> float:
    """|Sa & Sb| / |Sa | Sb| over the token type sets of two texts; 1.0 when
    both sets are empty."""
    return _oracle_jaccard(frozenset(oracle_tokenize(a)), frozenset(oracle_tokenize(b)))


def _brute_force_first_match(dialogues, references, cfg, reason):
    """The O(n^2) first-match scan the dedup join must reproduce: each dialogue
    is compared with every reference in order and dropped with the first at
    Jaccard >= threshold; ``references=None`` means the dialogues kept so far."""
    refs = [] if references is None else [(r, oracle_shingles(r)) for r in references]
    kept, removed = [], []
    for d in dialogues:
        shingles = oracle_shingles(d)
        for ref, ref_shingles in refs:
            score = _oracle_jaccard(shingles, ref_shingles)
            if score >= cfg.jaccard_threshold:
                removed.append(RemovalRecord(removed_id=d.id, reason=reason,
                                             matched_id=ref.id, score=score))
                break
        else:
            kept.append(d)
            if references is None:
                refs.append((d, shingles))
    return kept, removed


def brute_force_matched(sets: dict, references: dict | None, threshold: float) -> set:
    """The keys of ``sets`` whose set is at Jaccard >= threshold with some
    reference set, compared pair by pair; ``references=None`` means the sets
    at lower keys."""
    return {key for key, s in sets.items()
            if any(_oracle_jaccard(s, r) >= threshold
                   for ref, r in (sets if references is None else references).items()
                   if references is not None or ref < key)}


def brute_force_dedup(dialogues, cfg):
    """Reference for ``dedup_corpus``."""
    return _brute_force_first_match(dialogues, None, cfg, "duplicate")


def brute_force_eval_overlap(dialogues, eval_sets, cfg):
    """Reference for ``remove_eval_overlap``."""
    return _brute_force_first_match(dialogues, [d for s in eval_sets for d in s],
                                    cfg, "eval_overlap")


def oracle_clean(dialogues, eval_sets, cfg):
    """Reference for ``clean``: the dedup, eval-overlap and size references
    chained, with their removals in that order."""
    kept, removals = brute_force_dedup(dialogues, cfg)
    kept, removed = brute_force_eval_overlap(kept, eval_sets, cfg)
    removals += removed
    kept, removed = oracle_filter_min_size(kept, cfg)
    return kept, removals + removed


def oracle_utterance_tokens(d: Dialogue) -> int:
    return sum(len(oracle_tokenize(t.text)) for t in d.turns)


def oracle_filter_min_size(dialogues, cfg):
    """Reference for ``filter_min_size``."""
    kept, removed = [], []
    for d in dialogues:
        if len(d.turns) < cfg.min_turns:
            removed.append(RemovalRecord(removed_id=d.id, reason="too_few_turns"))
        elif oracle_utterance_tokens(d) < cfg.min_tokens:
            removed.append(RemovalRecord(removed_id=d.id, reason="too_few_tokens"))
        else:
            kept.append(d)
    return kept, removed


# ---------------------------------------------------------------------------
# ROUGE oracles: the quadratic LCS dynamic program and the Counter-based
# clipped overlap, with the scoring conventions of ``dialoprep.metrics``
# rebuilt on top of them. The fast paths must equal these exactly.
# ---------------------------------------------------------------------------

def lcs_dp_oracle(a, b) -> int:
    """O(mn) longest-common-subsequence length."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def clipped_overlap_oracle(cand_counts: Counter, ref_counts: Counter) -> int:
    """Clipped n-gram overlap, walking the candidate's counts."""
    return sum(min(c, ref_counts[g]) for g, c in cand_counts.items())


def _oracle_score(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    if not cand_total and not ref_total:
        return RougeScore(1.0, 1.0, 1.0)
    if not cand_total or not ref_total:
        return RougeScore(0.0, 0.0, 0.0)
    precision, recall = overlap / cand_total, overlap / ref_total
    if precision + recall == 0.0:
        return RougeScore(precision, recall, 0.0)
    return RougeScore(precision, recall, 2.0 * precision * recall / (precision + recall))


def _oracle_tokens(text_or_tokens) -> list:
    if isinstance(text_or_tokens, str):
        return oracle_tokenize(text_or_tokens)
    return list(text_or_tokens)


def _oracle_grams(tokens, n: int) -> list[tuple]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def oracle_rouge_n(candidate, reference, n: int) -> RougeScore:
    cand, ref = _oracle_tokens(candidate), _oracle_tokens(reference)
    cand_grams, ref_grams = _oracle_grams(cand, n), _oracle_grams(ref, n)
    overlap = clipped_overlap_oracle(Counter(cand_grams), Counter(ref_grams))
    return _oracle_score(overlap, len(cand_grams), len(ref_grams))


def oracle_rouge_l(candidate, reference) -> RougeScore:
    cand, ref = _oracle_tokens(candidate), _oracle_tokens(reference)
    return _oracle_score(lcs_dp_oracle(cand, ref), len(cand), len(ref))


def oracle_score_pair(candidate, reference) -> EvalScores:
    return EvalScores(rouge1=oracle_rouge_n(candidate, reference, 1),
                      rouge2=oracle_rouge_n(candidate, reference, 2),
                      rougeL=oracle_rouge_l(candidate, reference))


def oracle_multi_reference_rouge(candidate, references) -> EvalScores:
    scored = [oracle_score_pair(candidate, ref) for ref in references]

    def mean_score(pick) -> RougeScore:
        n = len(scored)
        return RougeScore(precision=math.fsum(pick(s).precision for s in scored) / n,
                          recall=math.fsum(pick(s).recall for s in scored) / n,
                          f1=math.fsum(pick(s).f1 for s in scored) / n)

    return EvalScores(rouge1=mean_score(lambda s: s.rouge1),
                      rouge2=mean_score(lambda s: s.rouge2),
                      rougeL=mean_score(lambda s: s.rougeL))


def oracle_select_training_reference(dialogue, references) -> int:
    if isinstance(dialogue, Dialogue):
        dialogue = render_dialogue_text(dialogue)
    best_index, best_score = 0, -1.0
    for i, ref in enumerate(references):
        avg = oracle_score_pair(dialogue, ref).rouge_avg()
        if avg > best_score:
            best_index, best_score = i, avg
    return best_index


# ---------------------------------------------------------------------------
# Normalizer oracle: the punctuation table and a per-character Cc/Cf filter
# run on every text. ``ingest.normalize_text`` must equal it on every input.
# ---------------------------------------------------------------------------

ORACLE_CHAR_MAP = str.maketrans({
    "‘": "'", "’": "'", "‚": "'", "‛": "'",  # curly single quotes
    "ʼ": "'", "´": "'", "`": "'",                 # modifier/spacing accents
    "“": '"', "”": '"', "„": '"', "‟": '"',  # curly double quotes
    "«": '"', "»": '"',                                # guillemets
    "‐": "-", "‑": "-", "‒": "-", "–": "-",  # hyphens, en dash
    "—": "-", "―": "-", "−": "-",                 # em dash, bar, minus
    "…": "...",
})


def normalize_text_oracle(raw: str) -> str:
    """Normalize punctuation, special characters and whitespace. Idempotent."""
    text = raw.translate(ORACLE_CHAR_MAP)
    text = "".join(
        ch for ch in text
        if ch.isspace() or unicodedata.category(ch) not in ("Cc", "Cf"))
    return " ".join(text.split())


def merge_same_speaker(d: Dialogue) -> Dialogue:
    """Concatenate consecutive turns by the same speaker into one turn (dual-turn form).

    Texts are joined with a single space; turn order is otherwise preserved.
    Idempotent.
    """
    merged: list[Turn] = []
    for turn in d.turns:
        if merged and merged[-1].role_index == turn.role_index:
            merged[-1] = Turn(turn.role_index, merged[-1].text + " " + turn.text)
        else:
            merged.append(turn)
    return Dialogue(id=d.id, source_dataset=d.source_dataset,
                    roles=d.roles, turns=tuple(merged))


# ---------------------------------------------------------------------------
# Ingest oracle: the per-row algorithm. Every speaker is normalized at every
# utterance, its role found with ``list.index``, the turns merged afterwards
# by ``merge_same_speaker`` and every dialogue checked by the validator
# oracle. ``ingest.ingest`` must give the same dialogues and report.
# ---------------------------------------------------------------------------

def _oracle_build_dialogue(raw_id: str, utterances, spec, report: dict):
    dialogue_id = f"{spec.dataset_tag}:{raw_id}"
    roles: list[str] = []
    turns: list[Turn] = []
    for speaker, text in utterances:
        text = normalize_text_oracle(text)
        if not text:
            report["dropped_empty_utterances"] += 1
            continue
        if any(marker in text for marker in RESERVED_MARKERS):
            report["dropped_invalid_dialogues"].append(dialogue_id)
            return None
        speaker = normalize_text_oracle(spec.aliases.get(speaker, speaker))
        if not speaker:
            report["dropped_invalid_dialogues"].append(dialogue_id)
            return None
        if speaker not in roles:
            roles.append(speaker)
        turns.append(Turn(roles.index(speaker), text))
    if not turns:
        report["dropped_empty_dialogues"].append(dialogue_id)
        return None
    d = merge_same_speaker(Dialogue(id=dialogue_id, source_dataset=spec.dataset_tag,
                                    roles=tuple(roles), turns=tuple(turns)))
    if oracle_validate_dialogue(d):
        report["dropped_invalid_dialogues"].append(dialogue_id)
        return None
    return d


def oracle_ingest(path: str | Path, spec) -> tuple[tuple[Dialogue, ...], dict]:
    """The dialogues and the report ``ingest --report`` writes for a raw export whose
    rows all map the spec's fields to well-typed values, each raw id in one run."""
    report = {"dialogues": 0, "dropped_empty_utterances": 0,
              "dropped_empty_dialogues": [], "dropped_invalid_dialogues": []}
    runs: list[tuple[object, list]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            raw = row[spec.id_field]
            if not runs or runs[-1][0] != raw:
                runs.append((raw, []))
            runs[-1][1].append((str(row[spec.speaker_field]), row[spec.utterance_field]))
    dialogues = tuple(d for d in (_oracle_build_dialogue(str(raw), rows, spec, report)
                                  for raw, rows in runs) if d is not None)
    report["dialogues"] = len(dialogues)
    return dialogues, report


# ---------------------------------------------------------------------------
# Validator oracle: the split/join whitespace test and the six-marker scan,
# run on every role and utterance. ``records.validate_dialogue`` must give
# the same violations, in the same order, on every input.
# ---------------------------------------------------------------------------

def oracle_is_canonical(text: str) -> bool:
    return text == " ".join(text.split()) and text != ""


def oracle_validate_dialogue(d: Dialogue) -> list[str]:
    violations: list[str] = []
    if not d.turns:
        violations.append("dialogue has no turns")
    if not d.roles:
        violations.append("dialogue has no roles")
    seen_roles = set()
    for i, role in enumerate(d.roles):
        if not oracle_is_canonical(role):
            violations.append(f"role {i}: name is empty or not whitespace-canonical")
        for marker in RESERVED_MARKERS:
            if marker in role:
                violations.append(f"role {i}: reserved marker {marker!r} in name")
        if role in seen_roles:
            violations.append(f"role {i}: duplicate role name {role!r}")
        seen_roles.add(role)
    prev_index = None
    for i, turn in enumerate(d.turns):
        if not 0 <= turn.role_index < len(d.roles):
            violations.append(f"turn {i}: role_index out of range")
        if not oracle_is_canonical(turn.text):
            violations.append(f"turn {i}: text is empty or not whitespace-canonical")
        for marker in RESERVED_MARKERS:
            if marker in turn.text:
                violations.append(f"turn {i}: reserved marker {marker!r} in text")
        if prev_index is not None and turn.role_index == prev_index:
            violations.append(f"turn {i}: consecutive turns share speaker")
        prev_index = turn.role_index
    return violations


# ---------------------------------------------------------------------------
# Statistics oracles: the per-position fragment scan and tuple-set n-gram
# novelty. ``metrics.example_stats`` must equal ``oracle_example_stats``.
# ---------------------------------------------------------------------------

def oracle_extractive_fragments(a, s) -> list[tuple[int, int, int]]:
    """Greedy tiling: at each reached summary position, extend every dialogue
    occurrence of its token and take the longest (earliest on ties)."""
    positions: dict = {}
    for j, tok in enumerate(a):
        positions.setdefault(tok, []).append(j)
    fragments = []
    i = 0
    while i < len(s):
        best_len, best_j = 0, -1
        for j in positions.get(s[i], ()):
            length = 1
            while i + length < len(s) and j + length < len(a) and s[i + length] == a[j + length]:
                length += 1
            if length > best_len:
                best_len, best_j = length, j
        if best_len > 0:
            fragments.append((i, best_j, best_len))
            i += best_len
        else:
            i += 1
    return fragments


def oracle_novel_ngram_pct(summary, dialogue, n: int) -> float:
    grams = _oracle_grams(summary, n)
    if not grams:
        return 0.0
    dialogue_grams = set(_oracle_grams(dialogue, n))
    return 100.0 * sum(1 for g in grams if g not in dialogue_grams) / len(grams)


def _oracle_redundant_pct(summary, n: int) -> float:
    grams = _oracle_grams(summary, n)
    return 100.0 * (1.0 - len(set(grams)) / len(grams)) if grams else 0.0


def oracle_example_stats(ex: Dialogue) -> ExampleStats:
    dialogue = oracle_tokenize(render_dialogue_text(ex))
    summary = oracle_tokenize(ex.summaries[0].text)
    lengths = [length for _, _, length in oracle_extractive_fragments(dialogue, summary)]
    return ExampleStats(
        dialogue_tokens=len(dialogue),
        summary_tokens=len(summary),
        compression=len(dialogue) / len(summary),
        coverage=sum(lengths) / len(summary),
        density=sum(length ** 2 for length in lengths) / len(summary),
        novel_ngram_pct=tuple(oracle_novel_ngram_pct(summary, dialogue, n) for n in (1, 2, 3)),
        redundant_ngram_pct=tuple(_oracle_redundant_pct(summary, n) for n in (1, 2, 3)),
    )
