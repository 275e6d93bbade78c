"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed writes the same
bytes. The program under test only ever reads the files written here; the
truth file with the planted ids stays on the benchmark's side.

Two vocabulary regimes:

- ``sample``: the word list and utterance shape of
  ``scripts/make_sample_data.py`` (an opener plus draws from about 150 words).
  Long dialogues then cover most of the vocabulary, so pairwise Jaccard is
  high and neither the length filter nor MinHash banding prunes much: the
  adversarial case for dedup.
- ``zipf``: about 20k pseudo-word types drawn with Zipfian weights, closer to
  real dialogue text, where most pairs share few types.

Planted near-duplicates, evaluation-set leaks and size rejects are built from
"compact" dialogues (5-8 turns of 7-12 tokens). Their type sets are small
against either vocabulary, so no unplanted dialogue reaches the 0.8 Jaccard
threshold with them by chance and each planted id is removed for exactly the
reason recorded in the truth file.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATASET_TAG = "bench"
SPEAKERS = ("amy", "blake", "casey", "drew", "erin", "felix", "gina", "hugo")
#: Role pool for the ``roles`` stage. Two names, so every two-speaker dialogue
#: gets both and one swap map is valid for every example at ``augment``.
ROLE_POOL = ("Avery", "Rowan")
TASKS = ("token_mask", "token_delete", "uttr_infill", "uttr_permute", "uttr_mask",
         "task_oriented")

ZIPF_TYPES = 20_000
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

DUPLICATE_SHARE = 0.05
LEAK_SHARE = 0.03
REJECT_SHARE = 0.01
EVAL_SHARE = 0.10
MIN_PLANTED_JACCARD = 0.85

Turns = list[tuple[str, str]]  # (speaker, utterance text)


class SampleVocabulary:
    """The sample generator's words, with its ``utterance`` shape."""

    def __init__(self):
        spec = importlib.util.spec_from_file_location(
            "make_sample_data", ROOT / "scripts" / "make_sample_data.py")
        self._module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self._module)

    def words(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self._module.VOCAB, k=k)

    def utterance(self, rng: random.Random, n_tokens: int) -> str:
        return self._module.utterance(rng, n_tokens)


class ZipfVocabulary:
    """Pseudo-words ranked shortest first, drawn with weight 1/rank."""

    def __init__(self, rng: random.Random, types: int = ZIPF_TYPES):
        seen: set[str] = set()
        while len(seen) < types:
            seen.add("".join(rng.choices(_SYLLABLES, k=rng.randint(1, 4))))
        self._words = sorted(seen, key=lambda w: (len(w), w))
        self._cum = list(itertools.accumulate(1.0 / r for r in range(1, types + 1)))

    def words(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self._words, cum_weights=self._cum, k=k)

    def utterance(self, rng: random.Random, n_tokens: int) -> str:
        return " ".join(self.words(rng, n_tokens))


class Shape:
    """Dialogue sizes. Turn and token counts cycle through their ranges from a
    seeded offset, so the work a corpus makes barely depends on the seed; the
    words carry the randomness."""

    def __init__(self, rng: random.Random, turns: tuple[int, int], tokens: tuple[int, int]):
        self._turns = _cycle(rng, *turns)
        self._tokens = _cycle(rng, *tokens)

    def dialogue(self, rng: random.Random, vocab) -> Turns:
        a, b = rng.sample(SPEAKERS, 2)
        return [((a, b)[i % 2], vocab.utterance(rng, next(self._tokens)))
                for i in range(next(self._turns))]


def _cycle(rng: random.Random, lo: int, hi: int):
    values = list(range(lo, hi + 1))
    start = rng.randrange(len(values))
    return itertools.cycle(values[start:] + values[:start])


NORMAL = ((5, 20), (7, 20))
COMPACT = ((5, 8), (7, 12))


def _token_set(turns: Turns) -> set[str]:
    return {w for _, text in turns for w in text.split()}


def _jaccard(a: set, b: set) -> float:
    return len(a & b) / len(a | b)


def near_copy(rng, vocab, turns: Turns) -> Turns:
    """Replace two tokens; the copy keeps Jaccard >= MIN_PLANTED_JACCARD."""
    while True:
        copy = [(speaker, text.split()) for speaker, text in turns]
        for _ in range(2):
            words = rng.choice(copy)[1]
            words[rng.randrange(len(words))] = vocab.words(rng, 1)[0]
        copy = [(speaker, " ".join(words)) for speaker, words in copy]
        if _jaccard(_token_set(turns), _token_set(copy)) >= MIN_PLANTED_JACCARD:
            return copy


def summary(rng, vocab, turns: Turns) -> str:
    """12-25 tokens mixing spans copied from the dialogue with novel words."""
    words: list[str] = []
    target = rng.randint(12, 25)
    while len(words) < target:
        if rng.random() < 0.6:
            source = rng.choice(turns)[1].split()
            start = rng.randrange(len(source))
            words.extend(source[start:start + rng.randint(2, 5)])
        else:
            words.extend(vocab.words(rng, rng.randint(1, 3)))
    return " ".join(words[:target])


def _dialogue_obj(dialogue_id: str, source: str, turns: Turns) -> dict:
    roles: list[str] = []
    for speaker, _ in turns:
        if speaker not in roles:
            roles.append(speaker)
    return {
        "schema_version": 1,
        "id": dialogue_id,
        "source_dataset": source,
        "roles": roles,
        "turns": [{"role_index": roles.index(s), "text": t} for s, t in turns],
    }


def _write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _raw_rows(rng, conv: str, turns: Turns) -> list[dict]:
    """Raw export rows: some utterances split over consecutive same-speaker
    rows (merged back at ingest), some wrapped in curly quotes (normalized at
    ingest)."""
    rows = []
    for speaker, text in turns:
        if rng.random() < 0.03:
            text = f"“{text}”"
        words = text.split()
        if len(words) >= 8 and rng.random() < 0.1:
            cut = rng.randint(3, len(words) - 3)
            rows.append({"conv": conv, "speaker": speaker, "text": " ".join(words[:cut])})
            rows.append({"conv": conv, "speaker": speaker, "text": " ".join(words[cut:])})
        else:
            rows.append({"conv": conv, "speaker": speaker, "text": text})
    return rows


@dataclass(frozen=True)
class Corpus:
    """What the generator wrote for a raw-export workload."""

    raw: Path
    spec: Path
    eval_set: Path
    truth: Path
    rows: int
    dialogues: list[tuple[str, Turns]]  # (dialogue id after ingest, turns)


def write_corpus(rng: random.Random, vocab, n: int, out: Path) -> Corpus:
    """Raw export of ``n`` dialogues plus an evaluation set with planted leaks.

    Ids are unique and consecutive in file order (``c000000``, ...). Each
    planted duplicate sits after the dialogue it copies.
    """
    n_dup = max(1, round(DUPLICATE_SHARE * n))
    n_leak = max(1, round(LEAK_SHARE * n))
    n_reject = max(2, round(REJECT_SHARE * n))
    n_base = n - n_dup - n_leak - n_reject
    n_eval = max(n_leak + 1, round(EVAL_SHARE * n))

    normal, compact = Shape(rng, *NORMAL), Shape(rng, *COMPACT)
    leaked = [compact.dialogue(rng, vocab) for _ in range(n_leak)]
    eval_dialogues = leaked + [normal.dialogue(rng, vocab) for _ in range(n_eval - n_leak)]
    rng.shuffle(eval_dialogues)

    sources = [compact.dialogue(rng, vocab) for _ in range(n_dup)]
    bases = sources + [normal.dialogue(rng, vocab) for _ in range(n_base - n_dup)]
    # (sort key, reason or None, turns); a duplicate's key follows its source's.
    keys = rng.sample(range(n_base), n_base)
    items = [(float(k), None, turns) for k, turns in zip(keys, bases)]
    for k, turns in zip(keys, sources):
        items.append((rng.uniform(k, n_base), "duplicate", near_copy(rng, vocab, turns)))
    for turns in leaked:
        items.append((rng.uniform(0, n_base), "eval_overlap", near_copy(rng, vocab, turns)))
    few_tokens, few_turns = Shape(rng, (4, 4), (5, 6)), Shape(rng, (3, 3), (12, 15))
    for i in range(n_reject):
        reason, shape = ("too_few_tokens", few_tokens) if i % 2 else ("too_few_turns", few_turns)
        turns = shape.dialogue(rng, vocab)
        items.append((rng.uniform(0, n_base), reason, turns))
    items.sort(key=lambda item: item[0])

    truth: dict[str, list[str]] = {"duplicate": [], "eval_overlap": [],
                                   "too_few_turns": [], "too_few_tokens": []}
    dialogues = []
    rows = []
    for i, (_, reason, turns) in enumerate(items):
        conv = f"c{i:06d}"
        dialogue_id = f"{DATASET_TAG}:{conv}"
        if reason is not None:
            truth[reason].append(dialogue_id)
        dialogues.append((dialogue_id, turns))
        rows.extend(_raw_rows(rng, conv, turns))

    corpus = Corpus(raw=out / "raw.jsonl", spec=out / "ingest_spec.json",
                    eval_set=out / "eval.dlg", truth=out / "truth.json",
                    rows=len(rows), dialogues=dialogues)
    _write_jsonl(corpus.raw, rows)
    _write_json(corpus.spec, {"speaker_field": "speaker", "utterance_field": "text",
                              "id_field": "conv", "dataset_tag": DATASET_TAG})
    _write_jsonl(corpus.eval_set, (_dialogue_obj(f"eval:e{i:05d}", "eval", turns)
                                   for i, turns in enumerate(eval_dialogues)))
    _write_json(corpus.truth, truth)
    return corpus


def write_eval_inputs(rng, vocab, dialogues: list[tuple[str, Turns]], out: Path) -> None:
    """Three references and one candidate summary per dialogue id."""
    refs, cands = [], []
    for dialogue_id, turns in dialogues:
        refs.append({"id": dialogue_id,
                     "texts": [summary(rng, vocab, turns) for _ in range(3)]})
        cands.append({"id": dialogue_id, "text": summary(rng, vocab, turns)})
    _write_jsonl(out / "refs.jsonl", refs)
    _write_jsonl(out / "cands.jsonl", cands)


def write_role_files(out: Path) -> None:
    (out / "pool.txt").write_text("\n".join(ROLE_POOL) + "\n", encoding="utf-8")
    _write_json(out / "role_map.json", {ROLE_POOL[0]: ROLE_POOL[1], ROLE_POOL[1]: ROLE_POOL[0]})


def write_parallel_corpus(rng, vocab, n: int, out: Path) -> Path:
    """``n`` annotated examples, as the annotate stage would have left them."""
    path = out / "annotated.plx"
    normal = Shape(rng, *NORMAL)

    def examples():
        for i in range(n):
            turns = normal.dialogue(rng, vocab)
            obj = _dialogue_obj(f"{DATASET_TAG}:c{i:06d}", DATASET_TAG, turns)
            obj["summaries"] = [{"text": summary(rng, vocab, turns), "origin": "annotated"}]
            yield obj

    _write_jsonl(path, examples())
    _write_json(out / "mix.json", {"weights": {task: 1.0 for task in TASKS}})
    return path
