"""Denoising pre-training pairs: corruption tasks, serialization, task mixing.

A dialogue serializes to ``<s> R1 <eor> U1 <eou> ... Rm <eor> Un <eou> </s>``
with whitespace-split content tokens (subword vocabularies are downstream
territory). Every token carries a speaker id; ids alternate 0/1 over the
top-level groups of the sequence (turn groups, and mask groups produced by
infilling), so they stay binary for any number of roles and remain consistent
on corrupted inputs. The markers, ``BOS`` to ``UTTR_MASK``, come from ``records``.

Five reconstruction tasks corrupt the input while the target stays the clean
serialization of the original dialogue; the task-oriented pairs map the clean
dialogue to a summary. Corruption counts use round-half-up of rate * n.
All sampling flows through generators derived from (seed, dialogue id,
ordinal), so generation order never depends on scheduling, and every draw
goes through ``seeding``'s samplers, so outputs rest only on ``seed()``,
``getrandbits()`` and ``random()``.

Each record is escaped once, into a compact form: its roles and its turns'
groups (``role <eor> utterance <eou>``) as JSON-escaped token-array text,
the clean dialogue's array as one string, token counts per turn and, for a
parallel record, its summary's rendered target and origin. ``pair_lines``,
which ``noise`` writes, turns each record into this form as the corpus
streams in and keeps only the forms. Each task draws a plan: the groups of
its source, most of them intact turns. A plan renders straight to the pair's
JSON line from the stored pieces, escaping nothing again; permutation moves
escaped utterances, and token masking and deletion edit one list of the
clean array's escaped tokens. This is exact:
role and utterance texts are whitespace-canonical (records guarantee it on
load), escaping goes character by character and keeps spaces, so a text's
token array is its escaped string with each space closed and reopened as
``", "``, and ``", "`` occurs in it only between tokens. The token-tuple
API returns the lines decoded: ``mixed_pair`` a pair of the stream,
``noise_dialogue`` one reconstruction task's pair,
``make_task_oriented_pair`` a summary pair and ``serialize_dialogue`` the
clean source.

Utterance masking's greedy gap selection runs once per dialogue of a
stream, on the utterance texts that ``_utterances`` decodes from the form's
groups, each group without its role's tokens, ``<eor>`` and ``<eou>``.
``pair_lines`` keeps the selection, a few turn indices, by corpus position
until the stream ends. Nothing else outlives a pair, so memory beyond the
forms stays flat at any pair count.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, cycle
from operator import mul
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import jsonl
from .records import (BOS, EOR, EOS, EOU, MASK, UTTR_MASK, Dialogue, SummaryRecord,
                      validated)
from .seeding import below, derive_rng, sample_range, shuffle
from .tokens import tokenize_for_metrics

RECONSTRUCTION_TASKS = ("token_mask", "token_delete", "uttr_infill",
                        "uttr_permute", "uttr_mask")
ALL_TASKS = RECONSTRUCTION_TASKS + ("task_oriented",)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@validated
class NoisingConfig(NamedTuple):
    token_mask_rate: float = 0.2
    token_delete_rate: float = 0.2
    infill_lambda: float = 3.0
    infill_utterance_budget_rate: float = 0.2
    uttr_mask_rate: float = 0.2

    def _check(self):
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
        return cls(**jsonl.read_object(path, {name: type(default) for name, default
                                              in cls._field_defaults.items()}))


@validated
class TaskMix(NamedTuple):
    weights: dict[str, float]

    def _check(self):
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
        if not sum(map(float, weights)) <= sys.float_info.max:  # _draw scales by the running sum
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


@validated
class SerializedInput(NamedTuple):
    tokens: tuple[str, ...]
    speaker_ids: tuple[int, ...]

    def _check(self):
        if len(self.tokens) != len(self.speaker_ids):
            raise ValueError("tokens and speaker_ids must have equal length")
        if type(self.tokens) is not tuple or type(self.speaker_ids) is not tuple:
            return self._replace(tokens=tuple(self.tokens), speaker_ids=tuple(self.speaker_ids))


@validated
class NoisedPair(NamedTuple):
    task: str
    source: SerializedInput
    target_tokens: tuple[str, ...]
    dialogue_id: str
    target_origin: str | None = None  # set for task_oriented pairs only

    def _check(self):
        if type(self.target_tokens) is not tuple:
            return self._replace(target_tokens=tuple(self.target_tokens))


# ---------------------------------------------------------------------------
# The compact form and serialization
# ---------------------------------------------------------------------------

# A pair's line is ``jsonl.line(pair_to_obj(pair))``, assembled from pieces of
# JSON-escaped text: a token array's body is its escaped tokens joined by
# ``_SEP``, which occurs in such a body only between tokens (see the module
# docstring).

_SEP = '", "'
_EOR_SEP = f'{_SEP}{EOR}{_SEP}'
_EOU_SEP = f'{_SEP}{EOU}'
_SPEAKER_IDS = ("0, ", "1, ")


def _escaped(text: str) -> str:
    """The body of the JSON token array of the canonical ``text``."""
    return jsonl.string(text)[1:-1].replace(" ", _SEP)


class _Compact(NamedTuple):
    """A corpus record as ``noise`` keeps it: every text escaped once, into
    the pieces of the pairs' lines.

    A turn's group is the escaped tokens ``role <eor> utterance <eou>``. The
    token array of a sequence of groups is their join by ``", "``, so the
    dialogue's own join, ``body``, is the clean target as it is written, an
    intact turn is a slice of it, and a corrupted one is rebuilt from its
    group's tokens. The numbers per turn are kept in arrays, not in tuples
    of int objects.
    """

    id: str
    heads: tuple[str, ...]       # per role: its escaped tokens and <eor>, as its groups start
    role_sizes: tuple[int, ...]  # per role: its token count
    body: str                    # the turns' groups joined by ", "
    ends: array                  # per turn: the end of its group in body, plus len(", ")
    speakers: array              # per turn: its role index
    sizes: array                 # per turn: its group's token count
    summary: str | None = None   # a parallel record's summary tokens, as a JSON array body
    origin: str | None = None    # and that summary's origin


def _compact(item: Dialogue) -> _Compact:
    summary = origin = None
    if item.summaries:
        chosen = _summary(item)
        summary = ", ".join(map(jsonl.string, chosen.text.split()))
        origin = chosen.origin
    heads = tuple([_escaped(role) + _EOR_SEP for role in item.roles])
    role_sizes = tuple([role.count(" ") + 1 for role in item.roles])
    groups = [heads[t.role_index] + _escaped(t.text) + _EOU_SEP for t in item.turns]
    return _Compact(
        item.id, heads, role_sizes, _SEP.join(groups),
        array("I", accumulate([len(group) + len(_SEP) for group in groups])),
        array("I", [t.role_index for t in item.turns]),
        array("I", [role_sizes[t.role_index] + t.text.count(" ") + 3 for t in item.turns]),
        summary, origin)


def _groups(form: _Compact) -> list[str]:
    """The groups of ``form``'s turns, in order."""
    body, start, groups = form.body, 0, []
    for end in form.ends:
        groups.append(body[start:end - len(_SEP)])
        start = end
    return groups


def _line(task: str, form: _Compact, groups: Sequence[str], sizes: Sequence[int]) -> str:
    """The line of the pair whose source is ``groups``, escaped groups of
    ``sizes`` tokens (``[form.body]`` and ``form.sizes`` for the clean
    dialogue), and whose target is the dialogue clean, or the summary for
    ``task_oriented``."""
    ids = "".join(map(mul, cycle(_SPEAKER_IDS), sizes))
    if task == "task_oriented":
        target = form.summary
        tail = f', "target_origin": {jsonl.string(form.origin)}'
    else:
        target = f'"{BOS}{_SEP}{form.body}{_SEP}{EOS}"'
        tail = ""
    # </s> repeats the last group's speaker id.
    return (f'{{"task": "{task}", "source_tokens": ["{BOS}{_SEP}{_SEP.join(groups)}{_SEP}{EOS}"], '
            f'"source_speaker_ids": [0, {ids}{ids[-3]}], "target_tokens": [{target}], '
            f'"dialogue_id": {jsonl.string(form.id)}{tail}}}\n')


def _pair_of_line(line: str) -> NoisedPair:
    """The pair a line of :func:`_line` or :func:`save_pairs` holds."""
    obj = jsonl.decode(line)
    return NoisedPair(task=obj["task"],
                      source=SerializedInput(obj["source_tokens"], obj["source_speaker_ids"]),
                      target_tokens=obj["target_tokens"], dialogue_id=obj["dialogue_id"],
                      target_origin=obj.get("target_origin"))


def serialize_dialogue(d: Dialogue) -> SerializedInput:
    """Clean serialization of a dialogue with markers and speaker ids."""
    form = _compact(d)
    return _pair_of_line(_line("", form, [form.body], form.sizes)).source


def _utterances(form: _Compact) -> list[str]:
    """The utterance texts of ``form``'s turns: its groups decoded, each
    without its role's tokens, ``<eor>`` and ``<eou>``."""
    groups = jsonl.decode('[["' + '"], ["'.join(_groups(form)) + '"]]')
    return [" ".join(tokens[form.role_sizes[r] + 1:-1])
            for r, tokens in zip(form.speakers, groups)]


# ---------------------------------------------------------------------------
# Corruption plans
# ---------------------------------------------------------------------------
#
# A task's plan is its source: the list of its groups, escaped as in
# ``_Compact``, and the list of their token counts, which ``_line`` renders.
# An intact turn is its group as stored. The token tasks return the whole
# source as one group: ``form.body.split(_SEP)``, the escaped tokens, edited
# and joined again (``_line`` joins groups with the same ``_SEP``); a turn's
# utterance starts there after its role's tokens and ``<eor>``.

def _plan_token_mask(form: _Compact, cfg: NoisingConfig,
                     rng: random.Random) -> tuple[list[str], Sequence[int]]:
    """Replace round(rate * n) tokens of each utterance with ``<mask>``.

    Roles and structural markers are never touched.
    """
    tokens = form.body.split(_SEP)
    rate, role_sizes = cfg.token_mask_rate, form.role_sizes
    start = 0  # the first token of the turn's group
    for role, size in zip(form.speakers, form.sizes):
        first = start + role_sizes[role] + 1
        n = size - role_sizes[role] - 2
        k = round_half_up(rate * n)
        if k:
            for position in sample_range(rng, n, k):
                tokens[first + position] = MASK
        start += size
    return [_SEP.join(tokens)], form.sizes


def _plan_token_delete(form: _Compact, cfg: NoisingConfig,
                       rng: random.Random) -> tuple[list[str], Sequence[int]]:
    """Delete round(rate * N) utterance tokens across the whole dialogue.

    Surviving tokens keep their relative order; an utterance deleted to
    emptiness keeps its role and markers.
    """
    # Utterance tokens are numbered across the dialogue: turn i holds the
    # numbers below stops[i], and number j of it is token j + shifts[i].
    role_sizes, sizes = form.role_sizes, list(form.sizes)
    stops, shifts = [], []
    start = stop = 0
    for role, size in zip(form.speakers, sizes):
        shifts.append(start + role_sizes[role] + 1 - stop)
        stop += size - role_sizes[role] - 2
        stops.append(stop)
        start += size
    tokens = form.body.split(_SEP)
    for j in sample_range(rng, stop, round_half_up(cfg.token_delete_rate * stop)):
        i = bisect_right(stops, j)
        tokens[j + shifts[i]] = ""  # no token is empty
        sizes[i] -= 1
    return [_SEP.join(filter(None, tokens))], sizes


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
        length = min(length, budget - consumed, max(r[1] for r in runs))
        starts = [s for run_start, run_len in runs
                  for s in range(run_start, run_start + run_len - length + 1)]
        start = starts[below(rng, len(starts))]
        spans.append((start, length))
        for i in range(start, start + length):
            covered[i] = True
        consumed += length
    spans.sort()
    return spans, insertions


def _infill_groups(form: _Compact, spans: Sequence[tuple[int, int]], insertions: int,
                   rng: random.Random) -> tuple[list[str], list[int]]:
    """Collapse each span's turns to one ``<mask>`` and insert ``insertions``
    bare masks at sampled gaps of the collapsed sequence."""
    turns = _groups(form)
    groups: list[str] = []
    sizes: list[int] = []
    starts = dict(spans)
    i = 0
    while i < len(turns):
        if i in starts:
            groups.append(MASK)
            sizes.append(1)
            i += starts[i]
        else:
            groups.append(turns[i])
            sizes.append(form.sizes[i])
            i += 1
    for _ in range(insertions):
        at = below(rng, len(groups) + 1)
        groups.insert(at, MASK)
        sizes.insert(at, 1)
    return groups, sizes


def _plan_uttr_infill(form: _Compact, cfg: NoisingConfig,
                      rng: random.Random) -> tuple[list[str], list[int]]:
    """Replace sampled spans of consecutive turns with single ``<mask>`` tokens.

    The total replaced-turn budget is round(budget_rate * turns); span lengths
    are Poisson(lambda) draws, and a 0-length draw inserts a mask at a turn
    boundary without removing anything.
    """
    n = len(form.ends)
    budget = round_half_up(cfg.infill_utterance_budget_rate * n)
    spans, insertions = _plan_infill(n, budget, cfg.infill_lambda, rng)
    return _infill_groups(form, spans, insertions, rng)


def _plan_uttr_permute(form: _Compact, cfg: NoisingConfig,
                       rng: random.Random) -> tuple[list[str], list[int]]:
    """Shuffle utterances across turn slots while the role sequence stays fixed,
    so utterances may sit next to the wrong role: each slot keeps its role and
    takes the utterance of the turn the shuffle moves there."""
    order = list(range(len(form.ends)))
    shuffle(rng, order)  # its draws depend only on the length
    heads, role_sizes, speakers, sizes = form.heads, form.role_sizes, form.speakers, form.sizes
    turns = _groups(form)
    groups, moved = [], []
    for role, i in zip(speakers, order):
        if speakers[i] == role:
            groups.append(turns[i])
            moved.append(sizes[i])
        else:
            groups.append(heads[role] + turns[i][len(heads[speakers[i]]):])
            moved.append(sizes[i] - role_sizes[speakers[i]] + role_sizes[role])
    return groups, moved


def select_gap_utterances(utterances: Sequence[str], k: int) -> list[int]:
    """Greedy principal-utterance selection over a dialogue's utterance texts.

    Repeat k times: add the turn index maximizing ROUGE-1 F1 (unigram types
    counted once) between the selected utterances and the remaining ones.
    Lowest index wins ties; the result is deterministic.

    Each trial is scored from counts kept across trials, in time linear in
    the trial turn's types, and equals ``rouge_n(selected, rest, 1,
    unique_ngrams=True).f1`` bit for bit: both sides empty score 1.0, one
    side empty scores 0.0.
    """
    n = len(utterances)
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, turns]")
    type_sets = [set(tokenize_for_metrics(text)) for text in utterances]
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


def _gap_selection(form: _Compact, cfg: NoisingConfig) -> tuple[int, ...]:
    """The turns ``uttr_mask`` masks in ``form``'s dialogue."""
    k = max(1, round_half_up(cfg.uttr_mask_rate * len(form.ends)))
    return tuple(select_gap_utterances(_utterances(form), k))


def _plan_uttr_mask(form: _Compact, chosen: Sequence[int]) -> tuple[list[str], list[int]]:
    """Replace the turns ``chosen``, the max(1, round(rate * turns)) principal
    gap-utterances of :func:`_gap_selection`, with ``<uttr-mask>``, keeping
    each slot's role and markers. Selection is greedy: it draws nothing."""
    groups, sizes = _groups(form), list(form.sizes)
    for i in chosen:
        role = form.speakers[i]
        groups[i] = form.heads[role] + UTTR_MASK + _EOU_SEP
        sizes[i] = form.role_sizes[role] + 3
    return groups, sizes


_PLANS = {
    "token_mask": _plan_token_mask,
    "token_delete": _plan_token_delete,
    "uttr_infill": _plan_uttr_infill,
    "uttr_permute": _plan_uttr_permute,
}


# ---------------------------------------------------------------------------
# Corruption tasks: plans rendered as pairs
# ---------------------------------------------------------------------------

def noise_dialogue(d: Dialogue, task: str, cfg: NoisingConfig,
                   rng: random.Random | None) -> NoisedPair:
    """Apply one reconstruction task to a dialogue: the decoded line of its
    plan (see the ``_plan_*`` functions), drawn from ``rng``, which may be
    None for ``uttr_mask``."""
    if task not in RECONSTRUCTION_TASKS:
        raise ValueError(f"unknown reconstruction task {task!r}")
    form = _compact(d)
    plan = (_plan_uttr_mask(form, _gap_selection(form, cfg)) if task == "uttr_mask"
            else _PLANS[task](form, cfg, rng))
    return _pair_of_line(_line(task, form, *plan))


def _summary(ex: Dialogue) -> SummaryRecord:
    """The first summary with origin ``annotated``, else the first summary."""
    return next((s for s in ex.summaries if s.origin == "annotated"), ex.summaries[0])


def make_task_oriented_pair(ex: Dialogue) -> NoisedPair:
    """Clean dialogue serialization paired with a summary token sequence.

    Uses the first summary with origin ``annotated``; falls back to the first
    summary otherwise and flags the fallback origin in the pair.
    """
    if not ex.summaries:
        raise ValueError("task_oriented requires parallel examples")
    form = _compact(ex)
    return _pair_of_line(_line("task_oriented", form, [form.body], form.sizes))


# ---------------------------------------------------------------------------
# Multi-task mixing
# ---------------------------------------------------------------------------

class _Draws(NamedTuple):
    """A mix as the select draw reads it: its tasks of positive weight, in
    ``ALL_TASKS`` order, with their running sums of weight."""

    tasks: tuple[str, ...]
    cumulative: tuple[float, ...]


def _draws(mix: TaskMix) -> _Draws:
    active = [(task, mix.weights[task]) for task in ALL_TASKS
              if mix.weights.get(task, 0.0) > 0.0]
    return _Draws(tuple([task for task, _ in active]),
                  tuple(accumulate([w for _, w in active], initial=0.0))[1:])


def _draw(items: Sequence[_Compact], draws: _Draws, ordinal: int,
          seed: int) -> tuple[str, int]:
    """The task and the corpus position of the pair at ``ordinal``, from a
    generator derived from (seed, "select", ordinal)."""
    if not items:
        raise ValueError("cannot mix over an empty corpus")
    selector = derive_rng(seed, "select", ordinal)
    # The first task whose running sum exceeds the draw scaled to the total, else the last.
    tasks, cumulative = draws
    task = tasks[min(bisect_right(cumulative, selector.random() * cumulative[-1]),
                     len(tasks) - 1)]
    position = below(selector, len(items))
    if task == "task_oriented" and items[position].summary is None:
        raise ValueError("task_oriented requires parallel examples")
    return task, position


def _pair_line(forms: Sequence[_Compact], draws: _Draws, cfg: NoisingConfig, ordinal: int,
               seed: int, gaps: dict[int, tuple[int, ...]]) -> str:
    """The line of the pair at ``ordinal`` over ``forms``, the records'
    compact forms, and ``draws``, the mix's; ``gaps`` holds the gap selections
    already made, by corpus position, and it adds the one it makes."""
    task, position = _draw(forms, draws, ordinal, seed)
    form = forms[position]
    if task == "task_oriented":
        return _line(task, form, [form.body], form.sizes)
    if task == "uttr_mask":
        chosen = gaps.get(position)
        if chosen is None:
            chosen = gaps[position] = _gap_selection(form, cfg)
        return _line(task, form, *_plan_uttr_mask(form, chosen))
    pair_rng = derive_rng(seed, "pair", form.id, ordinal)
    return _line(task, form, *_PLANS[task](form, cfg, pair_rng))


def pair_lines(records: Iterable[Dialogue], mix: TaskMix, cfg: NoisingConfig,
               count: int, *, seed: int) -> Iterator[str]:
    """The lines of the pairs at ordinals 0 to ``count - 1`` of the mixed
    stream, as :func:`save_pairs` writes them.

    Task and dialogue are drawn from a generator derived from (seed,
    "select", ordinal); corruption uses a generator derived from (seed,
    "pair", dialogue id, ordinal). Both depend only on their inputs, so any
    scheduling of ordinals yields the same stream. At the first line, a
    negative ``count`` raises ValueError, or else ``records`` is read to its
    end and only their compact forms are kept; then a mix that draws
    ``task_oriented`` raises ValueError if a record has no summary.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    forms = list(map(_compact, records))
    draws = _draws(mix)
    if "task_oriented" in draws.tasks:
        missing = next((form.id for form in forms if form.summary is None), None)
        if missing is not None:
            raise ValueError(f"the mix gives task_oriented a positive weight, which needs "
                             f"summaries, but dialogue {missing!r} has no summary")
    gaps: dict[int, tuple[int, ...]] = {}
    for ordinal in range(count):
        yield _pair_line(forms, draws, cfg, ordinal, seed, gaps)


def mixed_pair(items: Sequence[Dialogue], mix: TaskMix, cfg: NoisingConfig,
               ordinal: int, *, seed: int) -> NoisedPair:
    """The pair at position ``ordinal`` of the mixed stream: the decoded line
    that :func:`pair_lines` writes there."""
    return _pair_of_line(_pair_line(list(map(_compact, items)), _draws(mix), cfg,
                                    ordinal, seed, {}))


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

    ``path`` is replaced only after the last pair (see :func:`jsonl.write_lines`).
    """
    return jsonl.write_lines(path, map(jsonl.line, map(pair_to_obj, pairs)))
