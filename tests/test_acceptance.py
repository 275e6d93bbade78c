"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Everything here is offline; annotation criteria use the mock endpoint.
"""

from __future__ import annotations

import math
import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import (brute_force_dedup, brute_force_eval_overlap, deserialize_dialogue,
                      make_dialogue, oracle_jaccard)

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "data" / "sample"


@contextmanager
def criterion(number: int, label: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  criterion {number:2d}: {label} ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_c01_rouge_anchors():
    from dialoprep.metrics import rouge_l, rouge_n

    with criterion(1, "ROUGE anchors", budget_seconds=1.0):
        assert abs(rouge_n("the cat sat", "the cat", 1).f1 - 0.8) < 1e-9
        assert abs(rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "b"]).f1 - 0.75) < 1e-9
        for n in (1, 2):
            identical = rouge_n("x y z", "x y z", n)
            assert (identical.precision, identical.recall, identical.f1) == (1.0, 1.0, 1.0)
        disjoint = rouge_n("a b", "p q", 1)
        assert (disjoint.precision, disjoint.recall, disjoint.f1) == (0.0, 0.0, 0.0)
        assert rouge_l("a b", "p q").f1 == 0.0
        assert rouge_l("m n", "m n").f1 == 1.0


def _fragment_oracle(a: list, s: list) -> list[tuple[int, int, int]]:
    """Enumerate all common substrings, then simulate the greedy tiling."""
    common: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(s)):
        for j in range(len(a)):
            length = 0
            while (i + length < len(s) and j + length < len(a)
                   and s[i + length] == a[j + length]):
                length += 1
            for sub_len in range(1, length + 1):
                common.setdefault(i, []).append((sub_len, j))
    fragments = []
    i = 0
    while i < len(s):
        options = common.get(i, [])
        if not options:
            i += 1
            continue
        best_len = max(length for length, _ in options)
        best_j = min(j for length, j in options if length == best_len)
        fragments.append((i, best_j, best_len))
        i += best_len
    return fragments


def test_c02_fragment_oracle():
    from dialoprep.metrics import extractive_fragments

    with criterion(2, "extractive fragments match brute-force oracle "
                      "(1,000 random pairs)", budget_seconds=10.0):
        rng = random.Random(3442)
        for _ in range(1000):
            alphabet = "abcd"[:rng.randint(1, 4)]
            a = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
            s = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
            result = extractive_fragments(a, s)
            expected = _fragment_oracle(a, s)
            assert [(f.summary_start, f.dialogue_start, f.length)
                    for f in result.fragments] == expected
            expected_cov = sum(l for _, _, l in expected) / len(s) if s else 0.0
            expected_den = sum(l * l for _, _, l in expected) / len(s) if s else 0.0
            assert result.coverage() == expected_cov
            assert result.density() == expected_den


def test_c03_gap_selection_oracle():
    from dialoprep.metrics import rouge_n, tokenize_for_metrics
    from dialoprep.noising import select_gap_utterances
    from dialoprep.records import Dialogue, Turn

    def stepwise_oracle(token_lists, k):
        selected: list[int] = []
        for _ in range(k):
            best_i, best_score = -1, -1.0
            for i in range(len(token_lists)):
                if i in selected:
                    continue
                trial = sorted(selected + [i])
                chosen = [t for j in trial for t in token_lists[j]]
                rest = [t for j in range(len(token_lists)) if j not in trial
                        for t in token_lists[j]]
                score = rouge_n(chosen, rest, 1, unique_ngrams=True).f1
                if score > best_score:
                    best_i, best_score = i, score
            selected.append(best_i)
        return sorted(selected)

    with criterion(3, "gap-utterance selection matches stepwise-exhaustive "
                      "argmax (500 random dialogues)", budget_seconds=30.0):
        worked = Dialogue(
            id="w", source_dataset="u", roles=("A", "B"),
            turns=(Turn(0, "alice books"), Turn(1, "bob books"), Turn(0, "weather today")))
        assert select_gap_utterances(worked, 1) == [0]

        rng = random.Random(3443)
        for i in range(500):
            d = make_dialogue(rng, f"g{i}", n_turns=rng.randint(2, 8), max_tokens=6)
            token_lists = [tokenize_for_metrics(t.text) for t in d.turns]
            k = rng.randint(1, len(d.turns))
            assert select_gap_utterances(d, k) == stepwise_oracle(token_lists, k)


def test_c04_noising_invariants():
    from dialoprep.noising import (
        BOS, EOR, EOS, EOU, MASK, UTTR_MASK,
        NoisingConfig, SerializedInput, _apply_infill,
        round_half_up, serialize_dialogue,
        token_deletion, token_masking, utterance_infilling,
        utterance_masking, utterance_permutation,
    )

    cfg = NoisingConfig()

    def groups_of(tokens, ids, allow_mask):
        tokens, ids = list(tokens), list(ids)
        groups, i, end = [], 1, len(tokens) - 1
        assert tokens[0] == BOS and tokens[-1] == EOS
        while i < end:
            if allow_mask and tokens[i] == MASK:
                groups.append((None, None, ids[i]))
                i += 1
                continue
            eor = tokens.index(EOR, i, end)
            eou = tokens.index(EOU, eor + 1, end)
            assert len(set(ids[i:eou + 1])) == 1
            groups.append((tokens[i:eor], tokens[eor + 1:eou], ids[i]))
            i = eou + 1
        return groups

    with criterion(4, "noising invariant suite (200 dialogues per task)",
                   budget_seconds=30.0):
        rng = random.Random(3444)
        for i in range(200):
            d = make_dialogue(rng, f"n{i}", n_turns=rng.randint(1, 10),
                              n_roles=rng.randint(2, 4), max_tokens=10)
            clean = serialize_dialogue(d)

            # token masking: per-utterance mask count == round(0.2 n)
            pair = token_masking(d, cfg, random.Random(i))
            for (role, utt, _), turn in zip(
                    groups_of(pair.source.tokens, pair.source.speaker_ids, False), d.turns):
                n = len(turn.text.split())
                assert utt.count(MASK) == round_half_up(0.2 * n)
                assert len(utt) == n
                assert role == d.roles[turn.role_index].split()

            # token deletion: survivors form a subsequence of the original
            pair = token_deletion(d, cfg, random.Random(i))
            survivors = [t for _, utt, _ in groups_of(
                pair.source.tokens, pair.source.speaker_ids, False) for t in utt]
            original = [t for turn in d.turns for t in turn.text.split()]
            total = len(original)
            assert len(survivors) == total - round_half_up(0.2 * total)
            it = iter(original)
            assert all(tok in it for tok in survivors)

            # infilling: forced 0-length span adds exactly one token
            pair = _apply_infill(d, spans=[], insertions=1, rng=random.Random(i))
            assert len(pair.source.tokens) == len(pair.target_tokens) + 1
            assert pair.source.tokens.count(MASK) == 1
            # sampled infilling keeps ids alternating over groups
            pair = utterance_infilling(d, cfg, random.Random(i))
            inf_groups = groups_of(pair.source.tokens, pair.source.speaker_ids, True)
            assert [g[2] for g in inf_groups] == [k % 2 for k in range(len(inf_groups))]

            # permutation: utterance multiset and exact role sequence preserved
            pair = utterance_permutation(d, cfg, random.Random(i))
            perm_groups = groups_of(pair.source.tokens, pair.source.speaker_ids, False)
            assert [tuple(g[0]) for g in perm_groups] == \
                [tuple(d.roles[t.role_index].split()) for t in d.turns]
            assert sorted(tuple(g[1]) for g in perm_groups) == \
                sorted(tuple(t.text.split()) for t in d.turns)

            # utterance masking: exactly max(1, round(0.2 turns)) slots masked,
            # roles and markers intact
            pair = utterance_masking(d, cfg)
            mask_groups = groups_of(pair.source.tokens, pair.source.speaker_ids, False)
            masked = [g for g in mask_groups if g[1] == [UTTR_MASK]]
            assert len(masked) == max(1, round_half_up(0.2 * len(d.turns)))
            assert pair.source.tokens.count(EOR) == len(d.turns)
            assert pair.source.tokens.count(EOU) == len(d.turns)

            # every reconstruction target deserializes to the original dialogue
            for task_pair in (token_masking(d, cfg, random.Random(i)),
                              token_deletion(d, cfg, random.Random(i)),
                              utterance_infilling(d, cfg, random.Random(i)),
                              utterance_permutation(d, cfg, random.Random(i)),
                              utterance_masking(d, cfg)):
                assert task_pair.target_tokens == clean.tokens
                restored = deserialize_dialogue(
                    SerializedInput(task_pair.target_tokens, clean.speaker_ids),
                    d.id, d.source_dataset)
                assert restored == d
                # clean serializations alternate ids 0/1 over turns
                turn_ids = [clean.speaker_ids[k] for k, tok in enumerate(clean.tokens)
                            if tok == EOR]
                assert turn_ids == [k % 2 for k in range(len(d.turns))]


def test_c05_poisson_sampler():
    from dialoprep.noising import sample_poisson

    with criterion(5, "Poisson sampler moments (1e6 draws, lambda 3)",
                   budget_seconds=5.0):
        rng = random.Random(3442)
        n = 10 ** 6
        total = total_sq = zeros = 0
        for _ in range(n):
            k = sample_poisson(3.0, rng)
            total += k
            total_sq += k * k
            zeros += k == 0
        mean = total / n
        variance = total_sq / n - mean * mean
        assert abs(mean - 3.0) <= 0.05
        assert abs(variance - 3.0) <= 0.1
        assert abs(zeros / n - math.exp(-3)) <= 0.003


def test_c06_dedup_and_leakage():
    from dialoprep.dedup import (
        DedupConfig, dedup_corpus, dialogue_shingles, remove_eval_overlap,
    )
    from dialoprep.records import Dialogue, Turn

    def dlg(did, texts):
        return Dialogue(id=did, source_dataset="u", roles=("A", "B"),
                        turns=tuple(Turn(i % 2, t) for i, t in enumerate(texts)))

    cfg = DedupConfig(jaccard_threshold=0.8, min_turns=1, min_tokens=1)
    with criterion(6, "dedup, leakage removal, join == brute force on 2,000 dialogues",
                   budget_seconds=60.0):
        # planted duplicate / near-duplicate / dissimilar
        tokens = [f"tok{i}" for i in range(10)]
        changed = tokens.copy()
        changed[9] = "changed"
        base = dlg("base", [" ".join(tokens[:5]), " ".join(tokens[5:])])
        exact = dlg("exact", [" ".join(tokens[:5]), " ".join(tokens[5:])])
        near = dlg("near", [" ".join(changed[:5]), " ".join(changed[5:])])
        assert oracle_jaccard(" ".join(tokens), " ".join(changed)) >= 0.8
        dissimilar = dlg("far", ["c1 c2 c3 a1", "a2 a3 a4"])
        other = dlg("far2", ["c1 c2 c3", "b1 b2 b3"])
        assert oracle_jaccard(
            " ".join(t.text for t in dissimilar.turns),
            " ".join(t.text for t in other.turns)) == pytest.approx(0.3)
        kept, removed = dedup_corpus([base, exact, near, dissimilar, other], cfg)
        assert [d.id for d in kept] == ["base", "far", "far2"]
        assert {r.removed_id for r in removed} == {"exact", "near"}
        kept2, removed2 = dedup_corpus(kept, cfg)
        assert kept2 == kept and removed2 == []

        # leakage removal leaves nothing within threshold of the eval set
        eval_set = [dlg("e0", [" ".join(tokens[:5]), " ".join(tokens[5:])])]
        train = [base, near, dissimilar]
        kept, removed = remove_eval_overlap(train, [eval_set], cfg)
        eval_shingles = [dialogue_shingles(d) for d in eval_set]
        for d in kept:
            s = dialogue_shingles(d)
            for es in eval_shingles:
                assert len(s & es) / len(s | es) < cfg.jaccard_threshold
        assert {r.removed_id for r in removed} == {"base", "near"}

        # the filtered join equals the brute-force scan on a 2,000-dialogue corpus,
        # removal records (matched id and score) included
        rng = random.Random(4242)
        corpus = []
        for i in range(1600):
            d = make_dialogue(rng, f"d{i}", n_turns=rng.randint(3, 7), max_tokens=8)
            corpus.append(d)
            if i % 4 == 0:
                texts = [t.text for t in d.turns]
                if rng.random() < 0.5:
                    texts[0] += " padding"
                corpus.append(dlg(f"d{i}-dup", texts))
        corpus = corpus[:2000]
        assert len(corpus) == 2000
        kept, removed = dedup_corpus(corpus, cfg)
        assert len(removed) >= 300
        assert (kept, removed) == brute_force_dedup(corpus, cfg)
        eval_sets = [corpus[:100], corpus[1000:1100]]
        assert (remove_eval_overlap(corpus, eval_sets, cfg)
                == brute_force_eval_overlap(corpus, eval_sets, cfg))


def test_c07_role_pipeline():
    from dialoprep.records import Dialogue, ParallelExample, SummaryRecord, Turn
    from dialoprep.roles import NamePool, RoleMap, assign_role_group, augment_role_replace

    with criterion(7, "role assignment stability, swap involution, "
                      "customer-service rewrite", budget_seconds=5.0):
        pool = NamePool(names=("Danny", "Alejandra", "Marcus", "Priya", "Wei", "Sofia"))
        rng = random.Random(1)
        dialogues = [make_dialogue(rng, f"r{i}") for i in range(20)]
        first = [assign_role_group(d, pool, seed=3442) for d in dialogues]
        second = [assign_role_group(d, pool, seed=3442) for d in dialogues]
        assert first == second

        support = ParallelExample(
            dialogue=Dialogue(
                id="cs", source_dataset="u", roles=("Agent", "Customer"),
                turns=(Turn(0, "hello this is Agent speaking"),
                       Turn(1, "hi Agent my parcel is missing"),
                       Turn(0, "sorry Customer let me check"))),
            summaries=(SummaryRecord(
                "Customer reports a missing parcel and Agent investigates.",
                "annotated"),))
        renamed = augment_role_replace(
            support, RoleMap(pairs={"Agent": "Danny", "Customer": "Alejandra"}))
        all_tokens = [tok for t in renamed.dialogue.turns for tok in t.text.split()]
        all_tokens += renamed.summaries[0].text.replace(".", "").split()
        all_tokens += [tok for r in renamed.dialogue.roles for tok in r.split()]
        assert "Agent" not in all_tokens and "Customer" not in all_tokens
        assert renamed.summaries[0].origin == "augmented"

        # swap applied twice restores the input bit-exact
        swap = RoleMap(pairs={"Danny": "Alejandra", "Alejandra": "Danny"})
        assert augment_role_replace(augment_role_replace(renamed, swap), swap) == renamed


def test_c08_cleaning_boundaries():
    from dialoprep.dedup import DedupConfig, filter_min_size
    from dialoprep.records import Dialogue, Turn

    def sized(did, n_turns, total_tokens):
        per_turn = [total_tokens // n_turns] * n_turns
        for i in range(total_tokens - sum(per_turn)):
            per_turn[i] += 1
        return Dialogue(
            id=did, source_dataset="u", roles=("A", "B"),
            turns=tuple(Turn(i % 2, " ".join(f"w{i}x{j}" for j in range(k)))
                        for i, k in enumerate(per_turn)))

    with criterion(8, "minimum-size boundaries (4 turns / 32 tokens inclusive)"):
        cfg = DedupConfig()
        kept, removed = filter_min_size(
            [sized("t3", 3, 100), sized("k31", 10, 31),
             sized("ok", 4, 32), sized("ok2", 5, 40)], cfg)
        assert [d.id for d in kept] == ["ok", "ok2"]
        assert {r.removed_id: r.reason for r in removed} == \
            {"t3": "too_few_turns", "k31": "too_few_tokens"}


def test_c09_evaluation_protocols():
    from dialoprep.metrics import (
        multi_reference_rouge, score_pair, select_training_reference,
        tokenize_for_metrics, truncate_summary,
    )

    with criterion(9, "evaluation protocols (multi-ref mean, training-ref "
                      "selection, length limit)", budget_seconds=5.0):
        result = multi_reference_rouge("alpha beta", ["alpha beta", "qq zz"])
        assert result.rouge1.f1 == pytest.approx(0.5)
        assert result.rouge2.f1 == pytest.approx(0.5)
        assert result.rougeL.f1 == pytest.approx(0.5)

        assert select_training_reference(
            "alice went home", ["qq zz", "alice went home", "alice went"]) == 1

        candidate = "one two three four five six seven"
        reference = "one two three"
        truncated = truncate_summary(tokenize_for_metrics(candidate), 3)
        direct = score_pair(truncated, reference)
        recomputed = score_pair("one two three", reference)
        assert direct == recomputed
        assert direct.rouge1.f1 == 1.0


def test_c10_end_to_end_determinism(tmp_path):
    from dialoprep.cli import main
    from dialoprep.demo import GOLDEN_FILES, sample_pipeline_argv

    with criterion(10, "pipeline reproduces committed goldens byte-exact "
                       "at --jobs 1 and 3", budget_seconds=60.0):
        for jobs in (1, 3):
            outdir = tmp_path / f"jobs{jobs}"
            outdir.mkdir()
            for argv in sample_pipeline_argv(SAMPLE / "raw_sample.jsonl",
                                             SAMPLE / "ingest_spec.json",
                                             outdir, jobs=jobs):
                assert main(argv) == 0
            for name in GOLDEN_FILES:
                assert (outdir / name).read_bytes() == \
                    (SAMPLE / "golden" / name).read_bytes(), f"{name} differs"


def test_c11_mixer_statistics(tmp_path):
    from collections import Counter

    from dialoprep.noising import (
        RECONSTRUCTION_TASKS, NoisingConfig, TaskMix, mix_tasks, save_pairs,
    )

    with criterion(11, "mixer statistics (equal weights 10,000 samples, "
                       "degenerate weights, identical streams)"):
        rng = random.Random(7)
        items = [make_dialogue(rng, f"m{i}", n_turns=4) for i in range(10)]
        cfg = NoisingConfig()
        mix = TaskMix(weights={t: 1.0 for t in RECONSTRUCTION_TASKS})
        counts = Counter(p.task for p in mix_tasks(items, mix, cfg, 10_000, seed=3442))
        assert sum(counts.values()) == 10_000
        for task in RECONSTRUCTION_TASKS:
            assert abs(counts[task] - 2000) <= 150, (task, counts[task])

        degenerate = TaskMix(weights={"uttr_permute": 5.0})
        assert {p.task for p in mix_tasks(items, degenerate, cfg, 100, seed=0)} == {"uttr_permute"}

        first, second = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        save_pairs(mix_tasks(items, mix, cfg, 500, seed=3442), first)
        save_pairs(mix_tasks(items, mix, cfg, 500, seed=3442), second)
        assert first.read_bytes() == second.read_bytes()


def test_c12_annotation_client_mock(tmp_path):
    from dialoprep.annotate import (
        AnnotationJob, MockEndpoint, RetryPolicy, annotate_batch,
    )
    from dialoprep.records import load_corpus

    class Scripted:
        def __init__(self, script):
            self.script = list(script)
            self.calls = 0

        def complete(self, payload):
            response = self.script[min(self.calls, len(self.script) - 1)]
            self.calls += 1
            return response

    class Gating:
        def __init__(self):
            self.active = 0
            self.peak = 0
            self._lock = threading.Lock()

        def complete(self, payload):
            with self._lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.01)
            with self._lock:
                self.active -= 1
            return 200, {"choices": [{"message": {"content": "s."}}]}

    ok = (200, {"choices": [{"message": {"content": "fine."}}]})
    no_backoff = RetryPolicy(max_attempts=3, base_backoff=0.0)
    with criterion(12, "annotation client: resume, in-flight bound, retry, budget"):
        rng = random.Random(9)
        dialogues = [make_dialogue(rng, f"a{i}") for i in range(6)]

        # resume skips completed ids (counting mock never sees them again)
        out = tmp_path / "resume.plx"
        annotate_batch(dialogues[:3], AnnotationJob(model="m"),
                       MockEndpoint("fixed:s."), out, no_backoff)
        counting = MockEndpoint("fixed:s.")
        report = annotate_batch(dialogues, AnnotationJob(model="m"),
                                counting, out, no_backoff)
        assert counting.calls == 3
        assert sorted(report.skipped_existing) == sorted(d.id for d in dialogues[:3])

        # in-flight bound respected under the gating mock
        gate = Gating()
        annotate_batch(dialogues, AnnotationJob(model="m", max_in_flight=2),
                       gate, tmp_path / "gate.plx", no_backoff)
        assert gate.peak <= 2

        # 429 then 200 succeeds with one recorded retry
        scripted = Scripted([(429, "slow"), ok])
        report = annotate_batch(dialogues[:1], AnnotationJob(model="m"),
                                scripted, tmp_path / "retry.plx", no_backoff)
        assert report.completed == [dialogues[0].id]
        assert report.retries == {dialogues[0].id: 1}

        # budget exhaustion is reported and the run is resumable
        out = tmp_path / "budget.plx"
        report = annotate_batch(dialogues, AnnotationJob(model="m", budget=2),
                                MockEndpoint("fixed:s."), out, no_backoff)
        assert len(report.completed) == 2
        assert report.budget_exhausted and len(report.not_attempted) == 4
        report = annotate_batch(dialogues, AnnotationJob(model="m"),
                                MockEndpoint("fixed:s."), out, no_backoff)
        assert len(report.completed) == 4
        assert len(load_corpus(out, "parallel")) == 6
