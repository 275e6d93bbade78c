from __future__ import annotations

import random

from dialoprep.dedup import RemovalRecord, _jaccard_sets, dialogue_shingles
from dialoprep.records import Dialogue, ParallelExample, SummaryRecord, Turn

WORDS = [
    "alice", "books", "weather", "today", "meeting", "coffee", "train", "ticket",
    "order", "refund", "delivery", "thanks", "please", "schedule", "project",
    "movie", "dinner", "garden", "music", "travel", "hotel", "flight", "laptop",
    "phone", "update", "report", "friday", "morning", "question", "answer",
]

ROLE_NAMES = ["Ava", "Ben", "Cole", "Dana", "Eli", "Fay"]


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
                 **kwargs) -> ParallelExample:
    d = make_dialogue(rng, dialogue_id, **kwargs)
    summary = " ".join(rng.choices(WORDS, k=rng.randint(3, 8)))
    return ParallelExample(dialogue=d, summaries=(SummaryRecord(summary, origin),))


def _brute_force_first_match(dialogues, references, cfg, reason):
    """The O(n^2) first-match scan the dedup join must reproduce: each dialogue
    is compared with every reference in order and dropped with the first at
    Jaccard >= threshold; ``references=None`` means the dialogues kept so far."""
    refs = [] if references is None else [(r, dialogue_shingles(r, cfg.shingle_k))
                                           for r in references]
    kept, removed = [], []
    for d in dialogues:
        shingles = dialogue_shingles(d, cfg.shingle_k)
        for ref, ref_shingles in refs:
            score = _jaccard_sets(shingles, ref_shingles)
            if score >= cfg.jaccard_threshold:
                removed.append(RemovalRecord(removed_id=d.id, reason=reason,
                                             matched_id=ref.id, score=score))
                break
        else:
            kept.append(d)
            if references is None:
                refs.append((d, shingles))
    return kept, removed


def brute_force_dedup(dialogues, cfg):
    """Reference for ``dedup_corpus``."""
    return _brute_force_first_match(dialogues, None, cfg, "duplicate")


def brute_force_eval_overlap(dialogues, eval_sets, cfg):
    """Reference for ``remove_eval_overlap``."""
    return _brute_force_first_match(dialogues, [d for s in eval_sets for d in s],
                                    cfg, "eval_overlap")
