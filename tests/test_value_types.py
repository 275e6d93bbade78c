"""Every public record and config type is an immutable value: compared and
hashed field for field, never assigned to."""

from __future__ import annotations

import pytest

from dialoprep.annotate import AnnotationJob, RetryPolicy
from dialoprep.dedup import DedupConfig, RemovalRecord
from dialoprep.ingest import IngestReport, IngestResult, IngestSpec
from dialoprep.metrics import (
    CorpusStats,
    EvalScores,
    ExampleStats,
    Fragment,
    FragmentSet,
    RougeScore,
)
from dialoprep.noising import NoisedPair, NoisingConfig, SerializedInput, TaskMix
from dialoprep.records import Dialogue, SummaryRecord, Turn
from dialoprep.roles import NamePool, RoleMap

_TURNS = (Turn(0, "hello there"), Turn(1, "hi"))
_REPORT = IngestReport()

#: (type, a function giving its fields afresh on each call, one field and another
#: value for it, whether its values hash). Fields that hold a dict make a value
#: unhashable.
_CASES = [
    (Turn, lambda: {"role_index": 0, "text": "a b"}, "text", "a c", True),
    (Dialogue, lambda: {"id": "d1", "source_dataset": "unit", "roles": ("Ava", "Ben"),
                        "turns": _TURNS, "summaries": (SummaryRecord("s", "annotated"),)},
     "roles", ("Ava", "Bo"), True),
    (SummaryRecord, lambda: {"text": "they talk", "origin": "annotated"},
     "origin", "augmented", True),
    (DedupConfig, lambda: {"jaccard_threshold": 0.5, "min_tokens": 8}, "min_turns", 3, True),
    (RemovalRecord, lambda: {"removed_id": "b", "reason": "duplicate", "matched_id": "a",
                             "score": 0.9}, "score", 0.8, True),
    (IngestSpec, lambda: {"speaker_field": "s", "utterance_field": "t", "id_field": "i",
                          "dataset_tag": "x", "aliases": {"a": "A"}},
     "dataset_tag", "y", False),
    # The report is a mutable accumulator, shared by identity.
    (IngestResult, lambda: {"dialogues": (Dialogue("d1", "unit", ("A", "B"), _TURNS),),
                            "report": _REPORT}, "dialogues", (), False),
    (RetryPolicy, lambda: {"max_attempts": 2, "base_backoff": 0.25}, "base_backoff", 0.5, True),
    (AnnotationJob, lambda: {"model": "m", "template": "preceding", "budget": 4},
     "budget", None, True),
    (NamePool, lambda: {"names": ("Ann", "Bo")}, "names", ("Ann", "Cy"), True),
    (RoleMap, lambda: {"pairs": {"Ann": "Bo"}}, "pairs", {"Ann": "Cy"}, False),
    (RougeScore, lambda: {"precision": 0.5, "recall": 0.25, "f1": 1 / 3}, "recall", 0.5, True),
    (EvalScores, lambda: {"rouge1": RougeScore(1.0, 1.0, 1.0), "rouge2": RougeScore(0, 0, 0),
                          "rougeL": RougeScore(0.5, 0.5, 0.5)},
     "rouge2", RougeScore(0.5, 0.5, 0.5), True),
    (Fragment, lambda: {"summary_start": 0, "dialogue_start": 2, "length": 3},
     "length", 4, True),
    (FragmentSet, lambda: {"fragments": (Fragment(0, 2, 3),), "summary_length": 5},
     "summary_length", 6, True),
    (ExampleStats, lambda: {"dialogue_tokens": 9, "summary_tokens": 3, "compression": 3.0,
                            "coverage": 0.5, "density": 1.5,
                            "novel_ngram_pct": (10.0, 20.0, 30.0),
                            "redundant_ngram_pct": (0.0, 0.0, 0.0)},
     "novel_ngram_pct", (10.0, 20.0, 31.0), True),
    (CorpusStats, lambda: {"n_dialogues": 2, "mean_dialogue_tokens": 9.0,
                           "mean_summary_tokens": 3.0, "compression": 3.0, "coverage": 0.5,
                           "density": 1.5, "novel_ngram_pct": (10.0, 20.0, 30.0),
                           "redundant_ngram_pct": (0.0, 0.0, 0.0)},
     "n_dialogues", 3, True),
    (NoisingConfig, lambda: {"token_mask_rate": 0.3}, "uttr_mask_rate", 0.4, True),
    (TaskMix, lambda: {"weights": {"token_mask": 1.0, "uttr_mask": 2.0}},
     "weights", {"token_mask": 1.0}, False),
    (SerializedInput, lambda: {"tokens": ("<s>", "a", "</s>"), "speaker_ids": (0, 0, 0)},
     "speaker_ids", (0, 1, 1), True),
    (NoisedPair, lambda: {"task": "token_mask",
                          "source": SerializedInput(("<s>", "</s>"), (0, 0)),
                          "target_tokens": ("<s>", "a", "</s>"), "dialogue_id": "d1"},
     "target_origin", "annotated", True),
]
_IDS = [case[0].__name__ for case in _CASES]


@pytest.mark.parametrize("cls, fields, name, other, hashable", _CASES, ids=_IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields, name, other, hashable):
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, name, other, hashable", _CASES, ids=_IDS)
def test_a_differing_field_gives_unequal_values(cls, fields, name, other, hashable):
    a, b = cls(**fields()), cls(**{**fields(), name: other})
    assert getattr(b, name) == other
    assert a != b and not a == b


@pytest.mark.parametrize("cls, fields, name, other, hashable", _CASES, ids=_IDS)
def test_assigning_a_field_raises(cls, fields, name, other, hashable):
    value = cls(**fields())
    for field in fields():
        with pytest.raises(AttributeError):
            setattr(value, field, other)
    assert value == cls(**fields())


def test_replace_checks_and_converts_the_new_value():
    with pytest.raises(ValueError):
        DedupConfig()._replace(jaccard_threshold=2.0)
    assert NamePool(("Ann",))._replace(names=["Bo", "Cy"]).names == ("Bo", "Cy")
