"""Denoising pre-training pairs: corruption tasks, serialization, task mixing.

A dialogue serializes to ``<s> R1 <eor> U1 <eou> ... Rm <eor> Un <eou> </s>``
with whitespace-split content tokens (subword vocabularies are downstream
territory). Every token carries a speaker id; ids alternate 0/1 over the
top-level groups of the sequence (turn groups, and mask groups produced by
infilling), so they stay binary for any number of roles and remain consistent
on corrupted inputs.

Five reconstruction tasks corrupt the input while the target stays the clean
serialization of the original dialogue; the task-oriented pairs map the clean
dialogue to a summary. Corruption counts use round-half-up of rate * n.
All sampling flows through generators derived from (seed, dialogue id,
ordinal), so generation order never depends on scheduling.

Each task draws a plan: the groups of its source, most of them intact turns
of the dialogue. A plan renders once, straight to the pair's JSON line, from
the dialogue's text: ``pair_line``, which ``noise`` writes through, returns
that line, and ``mixed_pair``, the task functions and ``serialize_dialogue``
return it decoded into token tuples. Role and utterance texts are
whitespace-canonical (records guarantee it on load), so a text's tokens are
its space-separated pieces and its token array is one JSON-escaped string
with each space closed and reopened as ``", "``.

Utterance masking's greedy gap selection runs once per dialogue: it is kept,
a few turn indices, only while the dialogue is alive. Nothing else outlives
a pair, so memory stays flat at any pair count.
"""

from __future__ import annotations

import math
import random
import sys
import weakref
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import jsonl
from .metrics import tokenize_for_metrics
from .records import Dialogue, ParallelExample, SummaryRecord
from .seeding import derive_rng

BOS = "<s>"
EOS = "</s>"
EOR = "<eor>"
EOU = "<eou>"
MASK = "<mask>"
UTTR_MASK = "<uttr-mask>"

RECONSTRUCTION_TASKS = ("token_mask", "token_delete", "uttr_infill",
                        "uttr_permute", "uttr_mask")
ALL_TASKS = RECONSTRUCTION_TASKS + ("task_oriented",)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class NoisingConfig:
    token_mask_rate: float = 0.2
    token_delete_rate: float = 0.2
    infill_lambda: float = 3.0
    infill_utterance_budget_rate: float = 0.2
    uttr_mask_rate: float = 0.2

    def __post_init__(self):
        for name in ("token_mask_rate", "token_delete_rate",
                     "infill_utterance_budget_rate", "uttr_mask_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not (math.isfinite(self.infill_lambda) and self.infill_lambda > 0):
            raise ValueError("infill_lambda must be a finite number > 0")

    @classmethod
    def from_file(cls, path: str | Path) -> "NoisingConfig":
        """Fields from a JSON object; each value has its default's type."""
        return cls(**jsonl.read_object(path, {f.name: type(f.default) for f in fields(cls)}))


@dataclass(frozen=True)
class TaskMix:
    weights: dict[str, float]

    def __post_init__(self):
        unknown = set(self.weights) - set(ALL_TASKS)
        if unknown:
            raise ValueError(f"unknown tasks in mix: {sorted(unknown)}")
        weights = self.weights.values()
        if any(w < 0 for w in weights):
            raise ValueError("task weights must be non-negative")
        if not all(w <= sys.float_info.max for w in weights):  # NaN compares false
            raise ValueError("task weights must be finite and within float range")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one task weight must be positive")
        if not sum(map(float, weights)) <= sys.float_info.max:  # _draw scales by the sum
            raise ValueError("task weights must sum to a finite number")

    @classmethod
    def equal_reconstruction(cls) -> "TaskMix":
        return cls(weights={t: 1.0 for t in RECONSTRUCTION_TASKS})

    @classmethod
    def from_file(cls, path: str | Path) -> "TaskMix":
        obj = jsonl.read_object(path, {"weights": dict})
        if "weights" not in obj:
            raise ValueError(f"{path}: missing field 'weights'")
        for task, weight in obj["weights"].items():
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise ValueError(f"{path}: the weight of {task!r} must be a number")
        return cls(weights=obj["weights"])


@dataclass(frozen=True)
class SerializedInput:
    tokens: tuple[str, ...]
    speaker_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "speaker_ids", tuple(self.speaker_ids))
        if len(self.tokens) != len(self.speaker_ids):
            raise ValueError("tokens and speaker_ids must have equal length")


@dataclass(frozen=True)
class NoisedPair:
    task: str
    source: SerializedInput
    target_tokens: tuple[str, ...]
    dialogue_id: str
    target_origin: str | None = None  # set for task_oriented pairs only

    def __post_init__(self):
        object.__setattr__(self, "target_tokens", tuple(self.target_tokens))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# A pair renders once, from its dialogue's text, to the line that
# ``jsonl.line(pair_to_obj(pair))`` writes. Role and utterance texts are
# whitespace-canonical (``records.validate_dialogue``) and markers hold no
# space, so a serialized sequence joined by single spaces has its tokens as
# space-separated pieces; JSON escaping neither makes nor removes a U+0020.

# A group is one top-level unit of the serialized sequence: a turn, or a bare
# mask produced by infilling.
_MaskGroup = object()

_SPEAKER_IDS = ("0, ", "1, ")


def _group_text(role: str, text: str) -> str:
    """A turn group's tokens joined by spaces; ``text`` may be empty."""
    return f"{role} {EOR} {text} {EOU}" if text else f"{role} {EOR} {EOU}"


def _token_array(groups: list[str]) -> str:
    """The JSON array body of ``<s>``, the tokens of ``groups``, ``</s>``."""
    return jsonl.string(f"{BOS} {' '.join(groups)} {EOS}").replace(" ", '", "')


def _render_line(task: str, d: Dialogue, groups: Sequence | None,
                 summary: SummaryRecord | None = None) -> str:
    """The line of the pair whose source serializes the plan ``groups``, or
    the clean dialogue when ``groups`` is None, and whose target is the clean
    serialization of ``d``, or ``summary``'s tokens when it is given."""
    turns = [_group_text(d.roles[turn.role_index], turn.text) for turn in d.turns]
    if groups is None:
        source = turns
    else:
        source = [turns[group] if type(group) is int else
                  MASK if group is _MaskGroup else
                  _group_text(d.roles[group[0]], group[1])
                  for group in groups]
    ids = "0, " + "".join([_SPEAKER_IDS[position & 1] * (text.count(" ") + 1)
                           for position, text in enumerate(source)])
    ids += ids[-3]  # </s> repeats the last group's id
    if summary is None:
        target = _token_array(turns)
        tail = ""
    else:
        target = ", ".join(map(jsonl.string, summary.text.split()))
        tail = f', "target_origin": {jsonl.string(summary.origin)}'
    return (f'{{"task": "{task}", "source_tokens": [{_token_array(source)}], '
            f'"source_speaker_ids": [{ids}], "target_tokens": [{target}], '
            f'"dialogue_id": {jsonl.string(d.id)}{tail}}}\n')


def _pair_of_line(line: str) -> NoisedPair:
    """The pair a line of :func:`_render_line` or :func:`save_pairs` holds."""
    obj = jsonl.decode(line)
    return NoisedPair(task=obj["task"],
                      source=SerializedInput(obj["source_tokens"], obj["source_speaker_ids"]),
                      target_tokens=obj["target_tokens"], dialogue_id=obj["dialogue_id"],
                      target_origin=obj.get("target_origin"))


def serialize_dialogue(d: Dialogue) -> SerializedInput:
    """Clean serialization of a dialogue with markers and speaker ids."""
    return _pair_of_line(_render_line("", d, None)).source


# ---------------------------------------------------------------------------
# Corruption plans
# ---------------------------------------------------------------------------
#
# A task's plan is the list of groups its source serializes, which
# ``_render_line`` renders: a turn index (that turn, intact), ``_MaskGroup``,
# or ``(role index, text)`` for an utterance the task changed or moved,
# whitespace-canonical (as the dialogue's own texts are) or empty.

def _plan_token_mask(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> list:
    groups = []
    for i, turn in enumerate(d.turns):
        n = turn.text.count(" ") + 1
        k = round_half_up(cfg.token_mask_rate * n)
        if not k:  # sample(range(n), 0) draws nothing
            groups.append(i)
            continue
        tokens = turn.text.split(" ")
        for position in rng.sample(range(n), k):
            tokens[position] = MASK
        groups.append((turn.role_index, " ".join(tokens)))
    return groups


def _plan_token_delete(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> list:
    total = sum(turn.text.count(" ") + 1 for turn in d.turns)
    doomed = set(rng.sample(range(total), round_half_up(cfg.token_delete_rate * total)))
    groups = []
    offset = 0
    for i, turn in enumerate(d.turns):
        tokens = turn.text.split(" ")
        kept = [token for j, token in enumerate(tokens, offset) if j not in doomed]
        groups.append(i if len(kept) == len(tokens) else (turn.role_index, " ".join(kept)))
        offset += len(tokens)
    return groups


def sample_poisson(lam: float, rng: random.Random) -> int:
    """Exact Poisson draw (Knuth's product-of-uniforms method)."""
    if not lam > 0:  # also refuses NaN, for which the loop below never ends
        raise ValueError("lambda must be > 0")
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _uncovered_runs(covered: list[bool]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(covered + [True]):
        if not flag and start is None:
            start = i
        elif flag and start is not None:
            runs.append((start, i - start))
            start = None
    return runs


def _plan_infill(n_turns: int, budget: int, lam: float,
                 rng: random.Random) -> tuple[list[tuple[int, int]], int]:
    """Sample utterance spans until ``budget`` turns are consumed.

    Returns (spans as (start, length) over turn indices, number of 0-length
    insertions). Span lengths are Poisson draws clipped to the remaining
    budget and to the longest uncovered run; 0-length draws insert a mask
    without consuming budget, so iterations are capped to stay finite.
    """
    covered = [False] * n_turns
    spans: list[tuple[int, int]] = []
    insertions = 0
    consumed = 0
    iterations = 0
    while consumed < budget and iterations < 10 * budget + 10:
        iterations += 1
        length = sample_poisson(lam, rng)
        if length == 0:
            insertions += 1
            continue
        runs = _uncovered_runs(covered)
        if not runs:
            break
        length = min(length, budget - consumed, max(r[1] for r in runs))
        starts = [s for run_start, run_len in runs
                  for s in range(run_start, run_start + run_len - length + 1)]
        start = starts[rng.randrange(len(starts))]
        spans.append((start, length))
        for i in range(start, start + length):
            covered[i] = True
        consumed += length
    spans.sort()
    return spans, insertions


def _infill_groups(d: Dialogue, spans: Sequence[tuple[int, int]], insertions: int,
                   rng: random.Random) -> list:
    """Collapse each span's turns to one ``<mask>`` and insert ``insertions``
    bare masks at sampled gaps of the collapsed sequence."""
    groups: list = []
    starts = {start: length for start, length in spans}
    i = 0
    while i < len(d.turns):
        if i in starts:
            groups.append(_MaskGroup)
            i += starts[i]
        else:
            groups.append(i)
            i += 1
    for _ in range(insertions):
        groups.insert(rng.randrange(len(groups) + 1), _MaskGroup)
    return groups


def _plan_uttr_infill(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> list:
    budget = round_half_up(cfg.infill_utterance_budget_rate * len(d.turns))
    spans, insertions = _plan_infill(len(d.turns), budget, cfg.infill_lambda, rng)
    return _infill_groups(d, spans, insertions, rng)


def _plan_uttr_permute(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> list:
    order = list(range(len(d.turns)))
    rng.shuffle(order)  # its draws depend only on the length
    turns = d.turns
    return [i if turns[i].role_index == turn.role_index else (turn.role_index, turns[i].text)
            for turn, i in zip(turns, order)]


def select_gap_utterances(d: Dialogue, k: int) -> list[int]:
    """Greedy principal-utterance selection.

    Repeat k times: add the turn index maximizing ROUGE-1 F1 (unigram types
    counted once) between the selected utterances and the remaining ones.
    Lowest index wins ties; the result is deterministic.

    Each trial is scored from counts kept across trials, in time linear in
    the trial turn's types, and equals ``rouge_n(selected, rest, 1,
    unique_ngrams=True).f1`` bit for bit: both sides empty score 1.0, one
    side empty scores 0.0.
    """
    n = len(d.turns)
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, turns]")
    type_sets = [set(tokenize_for_metrics(t.text)) for t in d.turns]
    # Per type, the number of unselected turns that contain it.
    remaining = Counter(t for types in type_sets for t in types)
    remaining_size = len(remaining)  # types in at least one unselected turn
    chosen: set[str] = set()         # types of the selected turns
    shared = 0                       # |chosen & remaining types|
    selected: list[int] = []
    while len(selected) < k:
        best_index = -1
        best_score = -1.0
        for i in range(n):
            if i in selected:
                continue
            added = 0        # types of turn i new to the chosen side
            lost = 0         # types that leave the rest with turn i
            kept_new = 0     # new chosen types still in the rest
            lost_shared = 0  # chosen types that leave the rest with turn i
            for t in type_sets[i]:
                last = remaining[t] == 1
                if t in chosen:
                    if last:
                        lost_shared += 1
                else:
                    added += 1
                    if not last:
                        kept_new += 1
                if last:
                    lost += 1
            cand_size = len(chosen) + added
            ref_size = remaining_size - lost
            if not cand_size or not ref_size:
                score = 1.0 if cand_size == ref_size else 0.0
            else:
                overlap = shared - lost_shared + kept_new
                precision, recall = overlap / cand_size, overlap / ref_size
                score = (0.0 if precision + recall == 0.0
                         else 2.0 * precision * recall / (precision + recall))
            if score > best_score:
                best_score = score
                best_index = i
        selected.append(best_index)
        for t in type_sets[best_index]:
            remaining[t] -= 1
            gone = remaining[t] == 0
            if gone:
                remaining_size -= 1
            if t in chosen:
                shared -= gone
            else:
                chosen.add(t)
                shared += not gone
    return sorted(selected)


# Each live dialogue's last gap selection. A selection of k turns holds k
# distinct indices, so its size tells which k it was made for. An entry goes
# when its dialogue is collected, so the memo never outlives the corpus.
_GAP_SELECTIONS: weakref.WeakKeyDictionary[Dialogue, frozenset[int]] = (
    weakref.WeakKeyDictionary())


def _plan_uttr_mask(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> list:
    """Greedy, not random: it draws nothing from ``rng``. Selection runs once
    per dialogue and k; later draws of the same dialogue reuse it."""
    k = max(1, round_half_up(cfg.uttr_mask_rate * len(d.turns)))
    chosen = _GAP_SELECTIONS.get(d)
    if chosen is None or len(chosen) != k:
        chosen = _GAP_SELECTIONS[d] = frozenset(select_gap_utterances(d, k))
    return [(turn.role_index, UTTR_MASK) if i in chosen else i
            for i, turn in enumerate(d.turns)]


_PLANS = {
    "token_mask": _plan_token_mask,
    "token_delete": _plan_token_delete,
    "uttr_infill": _plan_uttr_infill,
    "uttr_permute": _plan_uttr_permute,
    "uttr_mask": _plan_uttr_mask,
}


# ---------------------------------------------------------------------------
# Corruption tasks: plans rendered as pairs
# ---------------------------------------------------------------------------

def _reconstruction_pair(task: str, d: Dialogue, groups: Sequence) -> NoisedPair:
    """``groups`` serialized as the source; the target is ``d`` clean."""
    return _pair_of_line(_render_line(task, d, groups))


def token_masking(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> NoisedPair:
    """Replace round(rate * n) tokens of each utterance with ``<mask>``.

    Roles and structural markers are never touched.
    """
    return _reconstruction_pair("token_mask", d, _plan_token_mask(d, cfg, rng))


def token_deletion(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> NoisedPair:
    """Delete round(rate * N) utterance tokens across the whole dialogue.

    Surviving tokens keep their relative order; an utterance deleted to
    emptiness keeps its role and markers.
    """
    return _reconstruction_pair("token_delete", d, _plan_token_delete(d, cfg, rng))


def _apply_infill(d: Dialogue, spans: Sequence[tuple[int, int]], insertions: int,
                  rng: random.Random) -> NoisedPair:
    return _reconstruction_pair("uttr_infill", d, _infill_groups(d, spans, insertions, rng))


def utterance_infilling(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> NoisedPair:
    """Replace sampled spans of consecutive turns with single ``<mask>`` tokens.

    The total replaced-turn budget is round(budget_rate * turns); span lengths
    are Poisson(lambda) draws, and a 0-length draw inserts a mask at a turn
    boundary without removing anything.
    """
    return _reconstruction_pair("uttr_infill", d, _plan_uttr_infill(d, cfg, rng))


def utterance_permutation(d: Dialogue, cfg: NoisingConfig, rng: random.Random) -> NoisedPair:
    """Shuffle utterances across turn slots while the role sequence stays fixed,
    so utterances may sit next to the wrong role."""
    return _reconstruction_pair("uttr_permute", d, _plan_uttr_permute(d, cfg, rng))


def utterance_masking(d: Dialogue, cfg: NoisingConfig) -> NoisedPair:
    """Replace the max(1, round(rate * turns)) principal gap-utterances with
    ``<uttr-mask>``, keeping each slot's role and markers.

    Selection is greedy, not random, so it takes no generator; it runs once
    per dialogue and k, and later draws of the same dialogue reuse it.
    """
    return _reconstruction_pair("uttr_mask", d, _plan_uttr_mask(d, cfg, None))


def _summary(ex: ParallelExample) -> SummaryRecord:
    """The first summary with origin ``annotated``, else the first summary."""
    return next((s for s in ex.summaries if s.origin == "annotated"), ex.summaries[0])


def make_task_oriented_pair(ex: ParallelExample) -> NoisedPair:
    """Clean dialogue serialization paired with a summary token sequence.

    Uses the first summary with origin ``annotated``; falls back to the first
    summary otherwise and flags the fallback origin in the pair.
    """
    return _pair_of_line(_render_line("task_oriented", ex.dialogue, None, _summary(ex)))


def noise_dialogue(d: Dialogue, task: str, cfg: NoisingConfig,
                   rng: random.Random) -> NoisedPair:
    """Apply one reconstruction task to a dialogue."""
    if task not in _PLANS:
        raise ValueError(f"unknown reconstruction task {task!r}")
    return _reconstruction_pair(task, d, _PLANS[task](d, cfg, rng))


# ---------------------------------------------------------------------------
# Multi-task mixing
# ---------------------------------------------------------------------------

def _dialogue_of(item: Dialogue | ParallelExample) -> Dialogue:
    return item.dialogue if isinstance(item, ParallelExample) else item


def _draw(items: Sequence[Dialogue | ParallelExample], mix: TaskMix, ordinal: int,
          seed: int) -> tuple[str, Dialogue | ParallelExample]:
    """The task and the item of the pair at ``ordinal``, from a generator
    derived from (seed, "select", ordinal)."""
    if not items:
        raise ValueError("cannot mix over an empty corpus")
    active = [(task, mix.weights[task]) for task in ALL_TASKS
              if mix.weights.get(task, 0.0) > 0.0]
    total = sum(w for _, w in active)
    selector = derive_rng(seed, "select", ordinal)
    draw = selector.random() * total
    cumulative = 0.0
    task = active[-1][0]
    for name, weight in active:
        cumulative += weight
        if draw < cumulative:
            task = name
            break
    item = items[selector.randrange(len(items))]
    if task == "task_oriented" and not isinstance(item, ParallelExample):
        raise ValueError("task_oriented requires parallel examples")
    return task, item


def pair_line(items: Sequence[Dialogue | ParallelExample], mix: TaskMix,
              cfg: NoisingConfig, ordinal: int, *, seed: int) -> str:
    """The line of the pair at position ``ordinal`` of the mixed stream, as
    :func:`save_pairs` writes it.

    Task and dialogue are drawn from a generator derived from (seed,
    "select", ordinal); corruption uses a generator derived from (seed,
    "pair", dialogue id, ordinal). Both depend only on their inputs, so any
    scheduling of ordinals yields the same stream.
    """
    task, item = _draw(items, mix, ordinal, seed)
    if task == "task_oriented":
        return _render_line(task, item.dialogue, None, _summary(item))
    dialogue = _dialogue_of(item)
    pair_rng = derive_rng(seed, "pair", dialogue.id, ordinal)
    return _render_line(task, dialogue, _PLANS[task](dialogue, cfg, pair_rng))


def mixed_pair(items: Sequence[Dialogue | ParallelExample], mix: TaskMix,
               cfg: NoisingConfig, ordinal: int, *, seed: int) -> NoisedPair:
    """The pair at position ``ordinal`` of the mixed stream: the decoded
    :func:`pair_line`."""
    return _pair_of_line(pair_line(items, mix, cfg, ordinal, seed=seed))


def mix_tasks(items: Sequence[Dialogue | ParallelExample], mix: TaskMix,
              cfg: NoisingConfig, count: int, *, seed: int) -> Iterator[NoisedPair]:
    """Stream ``count`` pairs with tasks drawn proportionally to mix weights."""
    if count < 0:
        raise ValueError("count must be >= 0")
    for ordinal in range(count):
        yield mixed_pair(items, mix, cfg, ordinal, seed=seed)


# ---------------------------------------------------------------------------
# Pair records on disk
# ---------------------------------------------------------------------------

def pair_to_obj(pair: NoisedPair) -> dict:
    """A pair's record; its tuples are written as JSON arrays."""
    obj = {
        "task": pair.task,
        "source_tokens": pair.source.tokens,
        "source_speaker_ids": pair.source.speaker_ids,
        "target_tokens": pair.target_tokens,
        "dialogue_id": pair.dialogue_id,
    }
    if pair.target_origin is not None:
        obj["target_origin"] = pair.target_origin
    return obj


def save_pairs(pairs: Iterable[NoisedPair], path: str | Path) -> int:
    """Write pairs one line each as they are drawn from ``pairs``; the count.

    ``path`` is replaced only after the last pair (see :func:`jsonl.write`).
    """
    return jsonl.write(path, map(pair_to_obj, pairs))
