from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dialoprep import jsonl
from dialoprep.annotate import TEMPLATES
from dialoprep.cli import _build_parser, main
from dialoprep.dedup import DedupConfig
from dialoprep.metrics import tokenize_for_metrics, truncate_summary
from dialoprep.records import Dialogue, Turn, load_corpus, render_dialogue_text, save_corpus

from conftest import (
    WORDS,
    brute_force_dedup,
    brute_force_eval_overlap,
    make_dialogue,
    make_example,
    oracle_filter_min_size,
    oracle_multi_reference_rouge,
    oracle_score_pair,
    oracle_select_training_reference,
    record_to_obj,
)

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample"

# The pinned SHA-256 of each file that a digest test below writes, by file
# name, in the `sha256sum` format that CI checks the same files against.
DIGESTS = {name: digest for digest, name in
           map(str.split, (SAMPLE / "digests.sha256").read_text("utf-8").splitlines())}


def _matches_digest(path: Path) -> bool:
    return hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[path.name]


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["stats", "--in", "x.plx"]) == 2


def test_eval_modes_are_exclusive_exits_2(tmp_path, capsys):
    texts = tmp_path / "texts.jsonl"
    texts.write_text('{"id": "1", "texts": ["a b", "c"]}\n')
    assert main(["eval", "--candidates", str(texts), "--references", str(texts),
                 "--out", str(tmp_path / "report.json"),
                 "--select-train-ref", "--multi-ref"]) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["texts.jsonl"]


def test_annotate_mock_and_endpoint_are_exclusive_exits_2(tmp_path, capsys):
    assert main(["annotate", "--in", str(SAMPLE / "golden" / "named.dlg"),
                 "--out", str(tmp_path / "a.plx"), "--mock", "digest:3",
                 "--endpoint", "http://127.0.0.1:9"]) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Two outputs of one run that are one file: the later write would replace the
# earlier one, a corpus with its removal report or paid annotations with an
# empty failure report.
@pytest.mark.parametrize("argv, clash", [
    (["ingest", "--in", "{raw}", "--spec", "{spec}", "--out", "{tmp}/c.dlg",
      "--report", "{tmp}/c.dlg"], "--out and --report"),
    (["ingest", "--in", "{raw}", "--spec", "{spec}", "--out", "{tmp}/c.dlg",
      "--report", "{tmp}/c.dlg.manifest.json"], "--report and the manifest"),
    (["clean", "--in", "{corpus}", "--out", "{tmp}/c.dlg", "--report", "{tmp}/c.dlg"],
     "--out and --report"),
    (["clean", "--in", "{corpus}", "--out", "{tmp}/c.dlg",
      "--report", "{tmp}/sub/../c.dlg.manifest.json"], "--report and the manifest"),
    (["annotate", "--in", "{named}", "--out", "{tmp}/a.plx", "--mock", "digest:3",
      "--failures", "{tmp}/./a.plx"], "--out and --failures"),
    (["annotate", "--in", "{named}", "--out", "{tmp}/a.plx", "--mock", "digest:3",
      "--failures", "{tmp}/a.plx.manifest.json"], "--failures and the manifest"),
], ids=["ingest-out-report", "ingest-report-manifest", "clean-out-report",
        "clean-report-manifest", "annotate-out-failures", "annotate-failures-manifest"])
def test_one_file_for_two_outputs_exits_1_and_writes_nothing(tmp_path, capsys, argv, clash):
    paths = {"tmp": tmp_path, "raw": SAMPLE / "raw_sample.jsonl",
             "spec": SAMPLE / "ingest_spec.json", "corpus": SAMPLE / "golden" / "corpus.dlg",
             "named": SAMPLE / "golden" / "named.dlg"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert clash in err
    assert list(tmp_path.iterdir()) == []


# An output that is an input would replace it, and the manifest would then
# give the input the output's digest. The files are copies, so a write shows.
_SAMPLE_INPUTS = {"raw.jsonl": "raw_sample.jsonl", "spec.json": "ingest_spec.json",
                  "c.dlg": "golden/corpus.dlg", "n.dlg": "golden/named.dlg",
                  "a.plx": "golden/annotated.plx", "c.jsonl": "eval_candidates.jsonl",
                  "r.jsonl": "eval_references.jsonl",
                  # inputs named as an output of the run beside them is named
                  "n.dlg.manifest.json": "golden/named.dlg",
                  "a.plx.failures.jsonl": "golden/named.dlg"}


@pytest.mark.parametrize("argv, clash", [
    (["ingest", "--in", "raw.jsonl", "--spec", "spec.json", "--out", "c2.dlg",
      "--report", "spec.json"], "--spec and --report"),
    (["ingest", "--in", "raw.jsonl", "--spec", "spec.json", "--out", "raw.jsonl"],
     "--in and --out"),
    (["clean", "--in", "c.dlg", "--out", "d.dlg", "--report", "c.dlg"], "--in and --report"),
    (["clean", "--in", "c.dlg", "--eval-set", "n.dlg", "--eval-set", "a.plx",
      "--out", "sub/../a.plx"], "--eval-set and --out"),
    (["roles", "--in", "n.dlg", "--out", "n.dlg", "--seed", "1"], "--in and --out"),
    (["roles", "--in", "c.dlg", "--out", "n.dlg", "--seed", "1",
      "--names", "n.dlg.manifest.json"], "--names and the manifest"),
    (["augment", "--in", "a.plx", "--map", "c.jsonl", "--out", "c.jsonl"], "--map and --out"),
    (["annotate", "--in", "n.dlg", "--out", "a2.plx", "--mock", "digest:3",
      "--failures", "n.dlg"], "--in and --failures"),
    (["annotate", "--in", "a.plx.failures.jsonl", "--out", "a.plx", "--mock", "digest:3"],
     "--in and --failures"),
    (["noise", "--in", "n.dlg", "--out", "p.jsonl", "--count", "3", "--seed", "1",
      "--mix", "p.jsonl.manifest.json"], "--mix and the manifest"),
    (["noise", "--in", "n.dlg", "--out", "c.jsonl", "--count", "3", "--seed", "1",
      "--config", "c.jsonl"], "--config and --out"),
    (["stats", "--in", "a.plx", "--out", "a.plx"], "--in and --out"),
    (["eval", "--candidates", "c.jsonl", "--references", "r.jsonl", "--out", "r.jsonl"],
     "--references and --out"),
    (["eval", "--candidates", "c.jsonl.manifest.json", "--references", "r.jsonl",
      "--out", "c.jsonl"], "--candidates and the manifest"),
], ids=["ingest-spec-report", "ingest-in-out", "clean-in-report", "clean-eval-set-out",
        "roles-in-place", "roles-names-manifest", "augment-map-out", "annotate-in-failures",
        "annotate-in-default-failures", "noise-mix-manifest", "noise-config-out",
        "stats-in-out", "eval-references-out", "eval-candidates-manifest"])
def test_an_output_that_is_an_input_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                               argv, clash):
    for name, source in _SAMPLE_INPUTS.items():
        (tmp_path / name).write_bytes((SAMPLE / source).read_bytes())
    (tmp_path / "sub").mkdir()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert clash in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["clean", "--in", "{named}", "--out", "{out}", "--config", "{tmp}/c.json"],
    ["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
     "--kind", "parallel"],
    ["clean", "--in", "{named}", "--out", "{out}", "--shingle-k", "2"],
    ["roles", "--in", "{named}", "--out", "{out}", "--seed", "1", "--no-force"],
    ["stats", "--in", "{annotated}", "--out", "{out}", "--summary-index", "0"],
], ids=["clean-config", "noise-kind", "clean-shingle-k", "roles-no-force",
        "stats-summary-index"])
def test_removed_flags_exit_2(tmp_path, capsys, argv):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"min_turns": 40}))
    paths = {"named": SAMPLE / "golden" / "named.dlg",
             "annotated": SAMPLE / "golden" / "annotated.plx", "out": tmp_path / "out",
             "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_data_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "does-not-exist.plx"
    out = tmp_path / "report.json"
    assert main(["stats", "--in", str(missing), "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_malformed_corpus_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.dlg"
    bad.write_text('{"schema_version": 1, "id": "x"}\n')
    out = tmp_path / "out.dlg"
    assert main(["clean", "--in", str(bad), "--out", str(out)]) == 1


def test_stats_golden(tmp_path):
    out = tmp_path / "stats.json"
    code = main(["stats", "--in", str(SAMPLE / "golden" / "annotated.plx"),
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (SAMPLE / "golden" / "stats.json").read_bytes()


def test_manifest_contents(tmp_path):
    out = tmp_path / "stats.json"
    main(["stats", "--in", str(SAMPLE / "golden" / "annotated.plx"), "--out", str(out)])
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert manifest["command"] == "stats"
    assert manifest["outputs"] == ["stats.json"]
    assert manifest["inputs"][0]["name"] == "annotated.plx"
    assert len(manifest["inputs"][0]["sha256"]) == 64


# Every command with every input flag it takes, given out of the order of
# cli._INPUT_FLAGS where it takes two: the manifest lists them in that order.
@pytest.mark.parametrize("argv, inputs", [
    (["ingest", "--spec", "spec.json", "--in", "raw.jsonl"], ["raw.jsonl", "spec.json"]),
    (["clean", "--eval-set", "e.dlg", "--in", "c.dlg", "--eval-set", "n.dlg"],
     ["c.dlg", "e.dlg", "n.dlg"]),
    (["roles", "--names", "pool.txt", "--in", "n.dlg", "--seed", "1"], ["n.dlg", "pool.txt"]),
    (["augment", "--map", "map.json", "--in", "a.plx"], ["a.plx", "map.json"]),
    (["annotate", "--in", "n.dlg", "--mock", "digest:3"], ["n.dlg"]),
    (["noise", "--in", "n.dlg", "--mix", "mix.json", "--config", "c.json", "--count", "3",
      "--seed", "1"], ["n.dlg", "mix.json", "c.json"]),
    (["stats", "--in", "a.plx"], ["a.plx"]),
    (["eval", "--references", "r.jsonl", "--candidates", "c.jsonl"], ["c.jsonl", "r.jsonl"]),
], ids=["ingest", "clean", "roles", "augment", "annotate", "noise", "stats", "eval"])
def test_manifest_is_derived_from_the_flags(tmp_path, monkeypatch, argv, inputs):
    for name, source in _SAMPLE_INPUTS.items():
        (tmp_path / name).write_bytes((SAMPLE / source).read_bytes())
    corpus = (SAMPLE / "golden" / "corpus.dlg").read_text(encoding="utf-8")
    (tmp_path / "e.dlg").write_text("".join(corpus.splitlines(True)[:12]), encoding="utf-8")
    (tmp_path / "pool.txt").write_text("Ann\nBo\n", encoding="utf-8")
    (tmp_path / "map.json").write_text("{}")
    (tmp_path / "mix.json").write_text(json.dumps({"weights": {"token_mask": 1}}))
    (tmp_path / "c.json").write_text(json.dumps({"token_mask_rate": 0.05}))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["seed"] == (1 if "--seed" in argv else None)
    assert manifest["outputs"] == ["out"]
    assert manifest["inputs"] == [
        {"name": name, "sha256": hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}
        for name in inputs]


def test_noise_same_seed_identical_bytes(tmp_path):
    rng = random.Random(0)
    corpus = tmp_path / "in.dlg"
    save_corpus([make_dialogue(rng, f"d{i}", n_turns=5) for i in range(8)], corpus)
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (first, second):
        assert main(["noise", "--in", str(corpus), "--out", str(out),
                     "--count", "60", "--seed", "3442"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_noise_count_zero(tmp_path):
    rng = random.Random(9)
    corpus = tmp_path / "in.dlg"
    save_corpus([make_dialogue(rng, "d0")], corpus)
    out = tmp_path / "pairs.jsonl"
    assert main(["noise", "--in", str(corpus), "--out", str(out),
                 "--count", "0", "--seed", "1"]) == 0
    assert out.read_bytes() == b""


def test_noise_task_oriented_mix_on_a_parallel_corpus(tmp_path):
    rng = random.Random(1)
    corpus = tmp_path / "in.plx"
    save_corpus([make_example(rng, f"e{i}", n_turns=4) for i in range(4)], corpus)
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"weights": {"task_oriented": 1.0}}))
    out = tmp_path / "pairs.jsonl"
    assert main(["noise", "--in", str(corpus), "--out", str(out),
                 "--count", "10", "--seed", "1", "--mix", str(mix)]) == 0
    tasks = {json.loads(line)["task"] for line in out.read_text().splitlines()}
    assert tasks == {"task_oriented"}


def test_noise_of_a_parallel_corpus_under_the_default_mix_ignores_summaries(tmp_path):
    # Reconstruction pairs ignore summaries: the golden parallel corpus
    # noises as the dialogue corpus it was annotated from.
    out, plain = tmp_path / "pairs.jsonl", tmp_path / "plain.jsonl"
    for corpus, path in (("annotated.plx", out), ("named.dlg", plain)):
        assert main(["noise", "--in", str(SAMPLE / "golden" / corpus), "--out", str(path),
                     "--count", "20", "--seed", "3442"]) == 0
    assert out.read_bytes() == plain.read_bytes()
    manifest = json.loads((tmp_path / "pairs.jsonl.manifest.json").read_text())
    assert "kind" not in manifest["params"]


def test_noise_task_oriented_on_dialogue_corpus_exits_1(tmp_path, capsys):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"weights": {"task_oriented": 1, "token_mask": 1}}))
    out = tmp_path / "pairs.jsonl"
    assert main(["noise", "--in", str(SAMPLE / "golden" / "named.dlg"), "--out", str(out),
                 "--count", "50", "--seed", "1", "--mix", str(mix)]) == 1
    assert "error: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [mix]


@pytest.mark.parametrize("seed", [1, 2, 7, 3442])
def test_noise_task_oriented_refuses_a_record_without_summary(tmp_path, capsys, seed):
    # Whatever the first pair draws, no line is written.
    corpus = tmp_path / "in.plx"
    corpus.write_text(_ANNOTATED[0] + _NAMED[1] + "".join(_ANNOTATED[2:]), encoding="utf-8")
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"weights": {"task_oriented": 1, "token_mask": 1}}))
    out = tmp_path / "pairs.jsonl"
    assert main(["noise", "--in", str(corpus), "--out", str(out),
                 "--count", "1", "--seed", str(seed), "--mix", str(mix)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"dialogue {json.loads(_NAMED[1])['id']!r} has no summary" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.plx", "mix.json"]


# pairs.jsonl's SHA-256 over the golden parallel corpus with all six tasks
# weighted equally. No golden holds task_oriented pairs, so this pins them.
# At token rates of 0.05 every golden dialogue (42-86 utterance tokens) loses
# 2-4 tokens to token_delete, which sample(range(n), k) draws on its set
# branch: that digest pins the branch the default rate reaches in one dialogue.
@pytest.mark.parametrize("seed, token_rate, name", [
    (3442, None, "all_tasks.jsonl"),
    (7, None, "all_tasks_seed7.jsonl"),
    (3442, 0.05, "low_rates.jsonl"),
], ids=["seed-3442", "seed-7", "seed-3442-token-rate-0.05"])
def test_noise_all_tasks_digest(tmp_path, seed, token_rate, name):
    from dialoprep.noising import ALL_TASKS

    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"weights": {task: 1 for task in ALL_TASKS}}))
    config = []
    if token_rate is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"token_mask_rate": token_rate, "token_delete_rate": token_rate}))
        config = ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / name
    assert main(["noise", "--in", str(SAMPLE / "golden" / "annotated.plx"), "--out", str(out),
                 "--count", "300", "--seed", str(seed), "--mix", str(mix), *config]) == 0
    assert _matches_digest(out)


def test_noise_interrupted_leaves_earlier_output(tmp_path, monkeypatch):
    from dialoprep import noising

    corpus = SAMPLE / "golden" / "named.dlg"
    out = tmp_path / "pairs.jsonl"
    argv = ["noise", "--in", str(corpus), "--out", str(out), "--count", "40", "--seed"]
    assert main(argv + ["5"]) == 0
    earlier = out.read_bytes()
    original = noising._pair_line
    reached = []

    def failing(items, mix, cfg, ordinal, seed, gaps):
        if ordinal == 25:
            reached.append(ordinal)
            raise RuntimeError("interrupted")
        return original(items, mix, cfg, ordinal, seed, gaps)

    monkeypatch.setattr(noising, "_pair_line", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(argv + ["6"])
    assert reached == [25]
    assert out.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl",
                                                          "pairs.jsonl.manifest.json"]


_NAMED = (SAMPLE / "golden" / "named.dlg").read_text(encoding="utf-8").splitlines(True)
_ANNOTATED = (SAMPLE / "golden" / "annotated.plx").read_text(encoding="utf-8").splitlines(True)


@pytest.mark.parametrize("last, message", [
    ('{"schema_version": 1, "id": "x"}\n', "record missing 'roles' field"),
    (_NAMED[0], "dialogue id {!r} reappears (first at line 1)".format(
        json.loads(_NAMED[0])["id"])),
], ids=["malformed", "repeated-id"])
def test_noise_bad_last_record_exits_1_and_writes_nothing(tmp_path, capsys, last, message):
    corpus = tmp_path / "in.dlg"
    corpus.write_text("".join(_NAMED) + last, encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    assert main(["noise", "--in", str(corpus), "--out", str(out),
                 "--count", "20", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: line {len(_NAMED) + 1}: {message}\n"
    assert list(tmp_path.iterdir()) == [corpus]


def _edited(line: str, edit) -> str:
    """``line``'s record after ``edit`` changed it in place, as one line."""
    obj = json.loads(line)
    edit(obj)
    return json.dumps(obj) + "\n"


_INPUT_FILES = {
    "empty.dlg": "",
    "mix.json": json.dumps({"weights": {"token_mask": 1, "uttr_mask": -1}}),
    "empty_mix.json": "{}",
    "string_mix.json": json.dumps({"weights": {"token_mask": "1"}}),
    "array.json": "[1]",
    "nan_config.json": '{"infill_lambda": NaN}',
    "infinite_config.json": '{"infill_lambda": Infinity}',
    "seed_config.json": json.dumps({"seed": 3}),
    "seed_mix.json": json.dumps({"weights": {"token_mask": 1}, "seed": 3}),
    "overflow_mix.json": json.dumps({"weights": {"token_mask": 1e308, "token_delete": 1e308}}),
    "infinite_mix.json": '{"weights": {"token_mask": 1e309, "token_delete": 1}}',
    "repeated.dlg": _NAMED[0] + _NAMED[1] + _NAMED[0],
    "texts.jsonl": '{"id": "0", "text": "b"}\n{"id": "1", "text": "a"}\n',
    "no_text.jsonl": '{"id": "0", "text": "b"}\n{"id": "1", "txt": "a"}\n',
    "dialogues.jsonl": _NAMED[0] + '{"id": "2", "turns": []}\n',
    "references.jsonl": ('{"id": "sample:c000", "texts": ["a", "b"]}\n'
                         '{"id": "2", "texts": ["c"]}\n'),
    "one_text.jsonl": '{"id": "1", "text": "a b"}\n',
    "repeated_ids.jsonl": '{"id": "1", "text": "a b"}\n{"id": "1", "text": "c d"}\n',
    "empty_texts.jsonl": '{"id": "1", "texts": []}\n',
    "string_texts.jsonl": '{"id": "1", "texts": "a b"}\n',
    "null_text.jsonl": '{"id": "1", "text": null}\n',
    "list_text.jsonl": '{"id": "1", "text": ["a", "b"]}\n',
    "number_text.jsonl": '{"id": "1", "text": 1}\n',
    "number_id.jsonl": '{"id": 1, "text": "a b"}\n',
    "four_tokens.jsonl": '{"id": "1", "text": "d e f g"}\n',
    "two_references.jsonl": '{"id": "1", "texts": ["a b c", "d e"]}\n',
    "bool_version.dlg": _edited(_NAMED[0], lambda o: o.update(schema_version=True)) + _NAMED[1],
    "float_version.dlg": _edited(_NAMED[0], lambda o: o.update(schema_version=1.0)) + _NAMED[1],
    "string_role_index.dlg": _NAMED[0] + _edited(
        _NAMED[1], lambda o: o["turns"][1].update(role_index="1")),
    "bool_role_index.dlg": _NAMED[0] + _edited(
        _NAMED[1], lambda o: o["turns"][1].update(role_index=True)),
    "number_turn_text.dlg": _NAMED[0] + _edited(
        _NAMED[1], lambda o: o["turns"][1].update(text=5)),
    "number_id.dlg": _NAMED[0] + _edited(_NAMED[1], lambda o: o.update(id=5)),
    "number_summary_text.plx": _ANNOTATED[0] + _edited(
        _ANNOTATED[1], lambda o: o["summaries"][0].update(text=5)),
    "number_source.plx": _ANNOTATED[0] + _edited(
        _ANNOTATED[1], lambda o: o.update(source_dataset=5)),
    "empty_summaries.plx": _ANNOTATED[0] + _edited(
        _ANNOTATED[1], lambda o: o.update(summaries=[])),
    "null_utterance.jsonl": ('{"conv": "a", "speaker": "x", "text": "hi"}\n'
                             '{"conv": "a", "speaker": "y", "text": null}\n'),
    "object_utterance.jsonl": '{"conv": "a", "speaker": "x", "text": {"x": 1}}\n',
    "null_speaker.jsonl": ('{"conv": "a", "speaker": "x", "text": "hi"}\n'
                           '{"conv": "a", "speaker": null, "text": "yo"}\n'),
    "bool_conv.jsonl": '{"conv": true, "speaker": "x", "text": "hi"}\n',
    "float_conv.jsonl": '{"conv": 1.5, "speaker": "x", "text": "hi"}\n',
    "number_then_string_conv.jsonl": ('{"conv": 1, "speaker": "x", "text": "hi"}\n'
                                      '{"conv": "1", "speaker": "y", "text": "yo"}\n'),
    # true == 1: only its type tells it from the id before it.
    "number_then_bool_conv.jsonl": ('{"conv": 1, "speaker": "x", "text": "hi"}\n'
                                    '{"conv": true, "speaker": "y", "text": "yo"}\n'),
    "no_id_spec.json": json.dumps({"speaker_field": "speaker", "utterance_field": "text",
                                   "dataset_tag": "sample"}),
    "spaced_pool.txt": "Cy\nAnn  Lee\nDee\n",
    "tab_pool.txt": "Cy\nBob\tKay\nDee\n",
    "spaced_map.json": json.dumps({"Joshua Johnson": "Zed  Q"}),
    "string_roles.dlg": _NAMED[0] + _edited(_NAMED[1], lambda o: o.update(roles="Ann")),
    "object_turns.dlg": _NAMED[0] + _edited(_NAMED[1], lambda o: o.update(turns={})),
    "bare_turn.dlg": _NAMED[0] + _edited(_NAMED[1], lambda o: o["turns"][1].pop("role_index")),
    "textless_summary.plx": _ANNOTATED[0] + _edited(
        _ANNOTATED[1], lambda o: o["summaries"][0].pop("text")),
    "x_origin.plx": _ANNOTATED[0] + _edited(
        _ANNOTATED[1], lambda o: o["summaries"][0].update(origin="x")),
    "empty_summary_text.plx": _ANNOTATED[0] + _edited(
        _ANNOTATED[1], lambda o: o["summaries"][0].update(text="")),
    "string_rate_config.json": json.dumps({"token_mask_rate": "x"}),
    "large_rate_config.json": json.dumps({"token_mask_rate": 1.5}),
    "number_alias_spec.json": json.dumps({"speaker_field": "speaker", "utterance_field": "text",
                                          "id_field": "conv", "dataset_tag": "sample",
                                          "aliases": {"agent": 1}}),
    "number_name_map.json": json.dumps({"A": 1}),
    "one_name_pool.txt": "Cy\n",
    "unknown_name_map.json": json.dumps({"Zed": "Q"}),
    "present_name_map.json": json.dumps({"Joshua Johnson": "Larry"}),
    "first.plx": _ANNOTATED[0],
    "dots_summary.plx": _edited(_ANNOTATED[0], lambda o: o["summaries"][0].update(text="...")),
    "textless_row.jsonl": '{"conv": "a", "speaker": "x"}\n',
}


@pytest.mark.parametrize("argv, named", [
    (["noise", "--in", "{tmp}/empty.dlg", "--out", "{out}", "--count", "3", "--seed", "1"],
     "empty corpus"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--mix", "{tmp}/mix.json"], "weights"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--mock", "digest:12",
      "--max-in-flight", "0"], "max_in_flight"),
    (["clean", "--in", "{named}", "--out", "{out}", "--jaccard-threshold", "2"],
     "jaccard_threshold"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--mix", "{tmp}/empty_mix.json"], "empty_mix.json: missing field 'weights'"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--mix", "{tmp}/string_mix.json"], "string_mix.json: the weight of 'token_mask'"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--config", "{tmp}/array.json"], "array.json"),
    (["augment", "--in", "{annotated}", "--map", "{tmp}/array.json", "--out", "{out}"],
     "array.json"),
    (["ingest", "--in", "{raw}", "--spec", "{tmp}/array.json", "--out", "{out}"],
     "array.json"),
    (["eval", "--candidates", "{tmp}/no_text.jsonl", "--references", "{tmp}/texts.jsonl",
      "--out", "{out}"], "line 2: record missing 'text' field"),
    (["eval", "--candidates", "{tmp}/texts.jsonl", "--references", "{tmp}/no_text.jsonl",
      "--out", "{out}"], "line 2: record missing 'text' field"),
    (["eval", "--candidates", "{tmp}/dialogues.jsonl",
      "--references", "{tmp}/references.jsonl", "--out", "{out}", "--select-train-ref"],
     "line 2: record missing 'schema_version' field"),
    (["roles", "--in", "{tmp}/repeated.dlg", "--out", "{out}", "--seed", "1"],
     "line 3: dialogue id 'sample:c000' reappears (first at line 1)"),
    (["annotate", "--in", "{tmp}/repeated.dlg", "--out", "{out}", "--mock", "digest:12"],
     "line 3: dialogue id 'sample:c000' reappears (first at line 1)"),
    (["eval", "--candidates", "{tmp}/repeated_ids.jsonl",
      "--references", "{tmp}/one_text.jsonl", "--out", "{out}"],
     "line 2: id '1' reappears (first at line 1)"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/repeated_ids.jsonl", "--out", "{out}"],
     "line 2: id '1' reappears (first at line 1)"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/empty_texts.jsonl", "--out", "{out}"],
     "line 1: 'texts' must be a non-empty list of strings"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/empty_texts.jsonl", "--out", "{out}", "--multi-ref"],
     "line 1: 'texts' must be a non-empty list of strings"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/empty_texts.jsonl", "--out", "{out}", "--select-train-ref"],
     "line 1: 'texts' must be a non-empty list of strings"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/string_texts.jsonl", "--out", "{out}", "--multi-ref"],
     "line 1: 'texts' must be a non-empty list of strings"),
    (["eval", "--candidates", "{tmp}/null_text.jsonl",
      "--references", "{tmp}/one_text.jsonl", "--out", "{out}"],
     "line 1: 'text' must be a string"),
    (["eval", "--candidates", "{tmp}/list_text.jsonl",
      "--references", "{tmp}/one_text.jsonl", "--out", "{out}", "--multi-ref"],
     "line 1: 'text' must be a string"),
    (["eval", "--candidates", "{tmp}/number_text.jsonl",
      "--references", "{tmp}/one_text.jsonl", "--out", "{out}", "--select-train-ref"],
     "line 1: 'text' must be a string"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/null_text.jsonl", "--out", "{out}"],
     "line 1: 'text' must be a string"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/list_text.jsonl", "--out", "{out}", "--multi-ref"],
     "line 1: 'text' must be a string"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/number_text.jsonl", "--out", "{out}", "--select-train-ref"],
     "line 1: 'text' must be a string"),
    (["clean", "--in", "{tmp}/string_role_index.dlg", "--out", "{out}"],
     "line 2: turn role_index must be an integer"),
    (["roles", "--in", "{tmp}/bool_role_index.dlg", "--out", "{out}", "--seed", "1"],
     "line 2: turn role_index must be an integer"),
    (["noise", "--in", "{tmp}/number_turn_text.dlg", "--out", "{out}", "--count", "3",
      "--seed", "1"], "line 2: turn text must be a string"),
    (["annotate", "--in", "{tmp}/number_id.dlg", "--out", "{out}", "--mock", "digest:12"],
     "line 2: id must be a string"),
    (["stats", "--in", "{tmp}/number_summary_text.plx", "--out", "{out}"],
     "line 2: summary text must be a string"),
    (["stats", "--in", "{tmp}/number_source.plx", "--out", "{out}"],
     "line 2: source_dataset must be a string"),
    (["clean", "--in", "{tmp}/bool_version.dlg", "--out", "{out}"],
     "line 1: unsupported schema_version True"),
    (["noise", "--in", "{tmp}/float_version.dlg", "--out", "{out}", "--count", "3",
      "--seed", "1"], "line 1: unsupported schema_version 1.0"),
    (["eval", "--candidates", "{tmp}/number_id.jsonl",
      "--references", "{tmp}/one_text.jsonl", "--out", "{out}"],
     "line 1: id must be a string"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/number_id.jsonl", "--out", "{out}"],
     "line 1: id must be a string"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl",
      "--references", "{tmp}/one_text.jsonl", "--out", "{out}", "--max-length", "0"],
     "max_length must be >= 1"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--mock", "digest:5",
      "--temperature", "nan"], "temperature must be a finite number >= 0"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--mock", "digest:5",
      "--base-backoff", "-1"], "base_backoff must be a finite number >= 0"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "0", "--seed", "1",
      "--config", "{tmp}/nan_config.json"], "nan_config.json: invalid JSON"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "0", "--seed", "1",
      "--config", "{tmp}/infinite_config.json"], "infinite_config.json: invalid JSON"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--config", "{tmp}/seed_config.json"], "seed_config.json: unknown field 'seed'"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--mix", "{tmp}/seed_mix.json"], "seed_mix.json: unknown field 'seed'"),
    (["eval", "--candidates", "{tmp}/one_text.jsonl", "--references", "{tmp}/one_text.jsonl",
      "--out", "{out}", "--select-train-ref", "--max-length", "-5"],
     "max_length must be >= 1"),
    (["eval", "--candidates", "{tmp}/four_tokens.jsonl",
      "--references", "{tmp}/two_references.jsonl", "--out", "{out}", "--select-train-ref",
      "--max-length", "1"], "--max-length does not apply to --select-train-ref"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "400", "--seed", "1",
      "--mix", "{tmp}/overflow_mix.json"], "task weights must sum to a finite number"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "400", "--seed", "1",
      "--mix", "{tmp}/infinite_mix.json"], "task weights must be finite"),
    (["ingest", "--in", "{tmp}/null_utterance.jsonl", "--spec", "{spec}", "--out", "{out}"],
     "line 2: 'text' must be a string"),
    (["ingest", "--in", "{tmp}/object_utterance.jsonl", "--spec", "{spec}", "--out", "{out}"],
     "line 1: 'text' must be a string"),
    (["ingest", "--in", "{tmp}/null_speaker.jsonl", "--spec", "{spec}", "--out", "{out}"],
     "line 2: 'speaker' must be a string or an integer"),
    (["ingest", "--in", "{tmp}/bool_conv.jsonl", "--spec", "{spec}", "--out", "{out}"],
     "line 1: 'conv' must be a string or an integer"),
    (["ingest", "--in", "{tmp}/float_conv.jsonl", "--spec", "{spec}", "--out", "{out}"],
     "line 1: 'conv' must be a string or an integer"),
    (["ingest", "--in", "{tmp}/number_then_string_conv.jsonl", "--spec", "{spec}",
      "--out", "{out}"], "line 2: dialogue id '1' reappears (first at line 1)"),
    (["ingest", "--in", "{tmp}/number_then_bool_conv.jsonl", "--spec", "{spec}",
      "--out", "{out}"], "line 2: 'conv' must be a string or an integer"),
    (["ingest", "--in", "{raw}", "--spec", "{tmp}/no_id_spec.json", "--out", "{out}"],
     "id_field must all be mapped"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--mock", "digest:x"],
     "mock behavior 'digest:x'"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--mock", "bogus"],
     "mock behavior 'bogus'"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--mock", "head:0"],
     "mock behavior 'head:0'"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--endpoint", "notaurl"],
     "endpoint 'notaurl' is not an http or https URL"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "-1", "--seed", "1"],
     "count must be >= 0"),
    (["roles", "--in", "{named}", "--out", "{out}", "--seed", "1",
      "--names", "{tmp}/spaced_pool.txt"], "invalid pool name 'Ann  Lee'"),
    (["roles", "--in", "{named}", "--out", "{out}", "--seed", "1",
      "--names", "{tmp}/tab_pool.txt"], "invalid pool name 'Bob\\tKay'"),
    (["augment", "--in", "{annotated}", "--map", "{tmp}/spaced_map.json", "--out", "{out}"],
     "invalid role name 'Zed  Q'"),
    (["stats", "--in", "{named}", "--out", "{out}"], "dialogue 'sample:c000' has no summary"),
    (["clean", "--in", "{tmp}/empty_summaries.plx", "--out", "{out}"],
     "line 2: summaries must be a non-empty array"),
    (["clean", "--in", "{tmp}/string_roles.dlg", "--out", "{out}"],
     "line 2: roles must be an array of strings"),
    (["roles", "--in", "{tmp}/object_turns.dlg", "--out", "{out}", "--seed", "1"],
     "line 2: turns must be an array"),
    (["noise", "--in", "{tmp}/bare_turn.dlg", "--out", "{out}", "--count", "3",
      "--seed", "1"], "line 2: turn must have role_index and text"),
    (["stats", "--in", "{tmp}/textless_summary.plx", "--out", "{out}"],
     "line 2: summary must have text and origin"),
    (["clean", "--in", "{tmp}/x_origin.plx", "--out", "{out}"],
     "line 2: unknown summary origin 'x'"),
    (["noise", "--in", "{tmp}/empty_summary_text.plx", "--out", "{out}", "--count", "3",
      "--seed", "1"], "line 2: summary text is empty"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--config", "{tmp}/string_rate_config.json"],
     "string_rate_config.json: field 'token_mask_rate' must be a number"),
    (["noise", "--in", "{named}", "--out", "{out}", "--count", "3", "--seed", "1",
      "--config", "{tmp}/large_rate_config.json"], "token_mask_rate must be in [0, 1]"),
    (["ingest", "--in", "{raw}", "--spec", "{tmp}/number_alias_spec.json", "--out", "{out}"],
     "number_alias_spec.json: every alias must be a string"),
    (["augment", "--in", "{annotated}", "--map", "{tmp}/number_name_map.json",
      "--out", "{out}"], "number_name_map.json: the new name for 'A' must be a string"),
    (["annotate", "--in", "{named}", "--out", "{out}", "--mock", "digest:5",
      "--budget", "-1"], "budget must be >= 0"),
    (["roles", "--in", "{named}", "--out", "{out}", "--seed", "1",
      "--names", "{tmp}/one_name_pool.txt"],
     "pool has 1 names but dialogue 'sample:c000' has 2 roles"),
    (["augment", "--in", "{annotated}", "--map", "{tmp}/unknown_name_map.json",
      "--out", "{out}"], "map keys ['Zed'] are not role names of dialogue 'sample:c000'"),
    (["augment", "--in", "{tmp}/first.plx", "--map", "{tmp}/present_name_map.json",
      "--out", "{out}"], "new name 'Larry' already occurs in dialogue 'sample:c000'"),
    (["stats", "--in", "{tmp}/empty.dlg", "--out", "{out}"],
     "cannot compute statistics over an empty corpus"),
    (["stats", "--in", "{tmp}/dots_summary.plx", "--out", "{out}"],
     "summary 0 of dialogue 'sample:c000' has no tokens"),
    (["ingest", "--in", "{tmp}/textless_row.jsonl", "--spec", "{spec}", "--out", "{out}"],
     "line 1: source record has no field 'text'"),
], ids=["noise-empty-corpus", "noise-negative-weight", "annotate-in-flight-0",
        "clean-threshold-2", "noise-mix-without-weights", "noise-mix-string-weight", "noise-config-array",
        "augment-map-array", "ingest-spec-array", "eval-candidate-without-text",
        "eval-reference-without-text", "eval-select-ref-bad-dialogue",
        "roles-repeated-id", "annotate-repeated-id", "eval-repeated-candidate-id",
        "eval-repeated-reference-id", "eval-empty-texts", "eval-multi-ref-empty-texts",
        "eval-select-ref-empty-texts", "eval-multi-ref-string-texts",
        "eval-null-candidate-text", "eval-multi-ref-list-candidate-text",
        "eval-select-ref-number-candidate-text", "eval-null-reference-text",
        "eval-multi-ref-list-reference-text", "eval-select-ref-number-reference-text",
        "clean-string-role-index", "roles-bool-role-index", "noise-number-turn-text",
        "annotate-number-id", "stats-number-summary-text", "stats-number-source-dataset",
        "clean-bool-schema-version", "noise-float-schema-version",
        "eval-number-candidate-id", "eval-number-reference-id", "eval-max-length-0",
        "annotate-nan-temperature", "annotate-negative-backoff", "noise-config-nan",
        "noise-config-infinity", "noise-config-seed", "noise-mix-seed",
        "eval-select-ref-negative-max-length", "eval-select-ref-max-length",
        "noise-mix-weight-sum-overflow", "noise-mix-infinite-weight",
        "ingest-null-utterance", "ingest-object-utterance", "ingest-null-speaker",
        "ingest-bool-id", "ingest-float-id", "ingest-number-then-string-id",
        "ingest-number-then-bool-id", "ingest-spec-without-id-field", "annotate-mock-digest-x",
        "annotate-mock-bogus", "annotate-mock-head-0", "annotate-endpoint-not-a-url",
        "noise-negative-count", "roles-pool-double-space", "roles-pool-tab",
        "augment-map-double-space", "stats-dialogue-corpus", "clean-empty-summaries",
        "clean-string-roles", "roles-object-turns", "noise-turn-without-role-index",
        "stats-summary-without-text", "clean-unknown-summary-origin", "noise-empty-summary-text",
        "noise-config-string-rate", "noise-config-rate-above-1", "ingest-spec-number-alias",
        "augment-map-number-name", "annotate-negative-budget", "roles-pool-too-small",
        "augment-map-unknown-name", "augment-map-name-present", "stats-empty-corpus",
        "stats-summary-without-tokens", "ingest-row-without-text"])
def test_invalid_value_exits_1_with_error_line(tmp_path, capsys, argv, named):
    for name, text in _INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {"out": tmp_path / "out", "tmp": tmp_path,
             "named": SAMPLE / "golden" / "named.dlg",
             "annotated": SAMPLE / "golden" / "annotated.plx",
             "raw": SAMPLE / "raw_sample.jsonl", "spec": SAMPLE / "ingest_spec.json"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and named in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_INPUT_FILES)


def test_roles_cli_uses_bundled_pool(tmp_path):
    rng = random.Random(2)
    corpus = tmp_path / "in.dlg"
    save_corpus([make_dialogue(rng, f"d{i}") for i in range(3)], corpus)
    out = tmp_path / "named.dlg"
    assert main(["roles", "--in", str(corpus), "--out", str(out), "--seed", "7"]) == 0
    renamed = load_corpus(out)
    assert all(r not in ("Ava", "Ben") for d in renamed for r in d.roles)


def test_roles_pool_with_a_byte_order_mark_writes_no_u_feff(tmp_path):
    # U+FEFF is not whitespace: read as plain UTF-8, it stays on the first name.
    pool = tmp_path / "pool.txt"
    pool.write_bytes(b"\xef\xbb\xbfAnn\nBo\nCy\nDee\n")
    out = tmp_path / "named.dlg"
    assert main(["roles", "--in", str(SAMPLE / "golden" / "cleaned.dlg"), "--out", str(out),
                 "--seed", "3442", "--names", str(pool)]) == 0
    assert "\ufeff" not in out.read_text(encoding="utf-8")
    assert {r for d in load_corpus(out) for r in d.roles} == {"Ann", "Bo", "Cy",
                                                                            "Dee"}


# augment's bytes over a parallel corpus of the sample: two pool names, so
# every dialogue (each has two roles) takes the one swap map. Computed before
# a parallel record became a Dialogue with summaries; no golden covers it.
def test_augment_swap_digest(tmp_path):
    pool, swap = tmp_path / "pool.txt", tmp_path / "swap.json"
    pool.write_text("Ann\nBo\n", encoding="utf-8")
    swap.write_text(json.dumps({"Ann": "Bo", "Bo": "Ann"}))
    named, annotated, out = (tmp_path / name for name in ("two.dlg", "two.plx", "swapped.plx"))
    assert main(["roles", "--in", str(SAMPLE / "golden" / "cleaned.dlg"), "--out", str(named),
                 "--seed", "3442", "--names", str(pool)]) == 0
    assert main(["annotate", "--in", str(named), "--out", str(annotated),
                 "--mock", "digest:12"]) == 0
    assert main(["augment", "--in", str(annotated), "--map", str(swap),
                 "--out", str(out)]) == 0
    assert _matches_digest(out)


def test_augment_cli(tmp_path):
    rng = random.Random(3)
    ex = make_example(rng, "e0")
    corpus = tmp_path / "in.plx"
    save_corpus([ex], corpus)
    role_map = tmp_path / "map.json"
    role_map.write_text(json.dumps({ex.roles[0]: "Zora"}))
    out = tmp_path / "aug.plx"
    assert main(["augment", "--in", str(corpus), "--map", str(role_map),
                 "--out", str(out)]) == 0
    augmented = load_corpus(out)[0]
    assert augmented.roles[0] == "Zora"


def test_roles_keeps_summaries(tmp_path):
    annotated, out = SAMPLE / "golden" / "annotated.plx", tmp_path / "renamed.plx"
    assert main(["roles", "--in", str(annotated), "--out", str(out), "--seed", "5"]) == 0
    before, after = load_corpus(annotated), load_corpus(out)
    assert [d.roles for d in after] != [d.roles for d in before]
    assert [d._replace(roles=()) for d in after] == [d._replace(roles=()) for d in before]


def test_augment_renames_a_dialogue_corpus(tmp_path):
    corpus, out = tmp_path / "in.dlg", tmp_path / "aug.dlg"
    save_corpus([Dialogue("d0", "unit", ("Ann", "Bo"),
                          (Turn(0, "hi Bo"), Turn(1, "hello Ann, Ann's here")))], corpus)
    role_map = tmp_path / "map.json"
    role_map.write_text(json.dumps({"Ann": "Cy"}))
    assert main(["augment", "--in", str(corpus), "--map", str(role_map),
                 "--out", str(out)]) == 0
    assert load_corpus(out) == [Dialogue("d0", "unit", ("Cy", "Bo"),
                                         (Turn(0, "hi Bo"), Turn(1, "hello Cy, Cy's here")))]


def test_annotate_resume_refuses_an_output_record_without_summaries(tmp_path, capsys):
    out = tmp_path / "annotated.plx"
    out.write_text(_ANNOTATED[0] + _NAMED[1], encoding="utf-8")
    before = out.read_bytes()
    assert main(["annotate", "--in", str(SAMPLE / "golden" / "named.dlg"), "--out", str(out),
                 "--mock", "digest:12"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"dialogue {json.loads(_NAMED[1])['id']!r} has no summary" in err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["annotated.plx"]


def test_annotate_cli_requires_endpoint_or_mock(tmp_path, capsys):
    rng = random.Random(4)
    corpus = tmp_path / "in.dlg"
    save_corpus([make_dialogue(rng, "d0")], corpus)
    out = tmp_path / "out.plx"
    assert main(["annotate", "--in", str(corpus), "--out", str(out)]) == 1
    assert "mock" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("template", ["preceding", "instruct", "subsequent"])
def test_annotate_template_flag_picks_the_prompt(tmp_path, template):
    corpus, out = tmp_path / "first.dlg", tmp_path / "first.plx"
    corpus.write_text(_NAMED[0], encoding="utf-8")
    assert main(["annotate", "--in", str(corpus), "--out", str(out), "--mock", "head:5",
                 "--template", template]) == 0
    [record] = load_corpus(out)
    # preceding puts its sentence first; the others start with the dialogue.
    dialogue_head = " ".join(render_dialogue_text(record).split()[:5])
    assert record.summaries[0].text == {"preceding": "Summarize the following dialogue into",
                                        "instruct": dialogue_head,
                                        "subsequent": dialogue_head}[template]
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["params"]["template"] == template


def test_template_choices_are_the_template_names():
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    [flag] = [action for action in sub.choices["annotate"]._actions
              if "--template" in action.option_strings]
    assert flag.choices == list(TEMPLATES)


# ---------------------------------------------------------------------------
# eval subcommand
# ---------------------------------------------------------------------------

def test_clean_cli_matches_oracle_chain(tmp_path):
    rng = random.Random(23)
    corpus, eval_set = [], []
    for i in range(160):
        d = make_dialogue(rng, f"c{i}", max_tokens=8)
        corpus.append(d)
        if i % 6 == 0:  # an exact and a near copy later in the corpus
            corpus.append(d._replace(id=f"c{i}-copy"))
            turns = (*d.turns[:-1], d.turns[-1]._replace(text=d.turns[-1].text + " zz"))
            corpus.append(d._replace(id=f"c{i}-near", turns=turns))
        if i % 7 == 0:  # an evaluation dialogue the corpus leaks
            eval_set.append(d._replace(id=f"e{i}", source_dataset="eval"))
    save_corpus(corpus, tmp_path / "corpus.dlg")
    save_corpus(eval_set, tmp_path / "eval.dlg")
    cfg = DedupConfig(jaccard_threshold=0.7, min_turns=3, min_tokens=14)
    assert main(["clean", "--in", str(tmp_path / "corpus.dlg"), "--out", str(tmp_path / "out.dlg"),
                 "--eval-set", str(tmp_path / "eval.dlg"),
                 "--report", str(tmp_path / "removals.jsonl"),
                 "--jaccard-threshold", "0.7", "--min-turns", "3", "--min-tokens", "14"]) == 0

    kept, duplicates = brute_force_dedup(corpus, cfg)
    kept, leaks = brute_force_eval_overlap(kept, [eval_set], cfg)
    kept, small = oracle_filter_min_size(kept, cfg)
    assert load_corpus(tmp_path / "out.dlg") == kept
    removals = [json.loads(line)
                for line in (tmp_path / "removals.jsonl").read_text().splitlines()]
    assert removals == [r.to_dict() for r in duplicates + leaks + small]
    assert {r["reason"] for r in removals} == {"duplicate", "eval_overlap",
                                               "too_few_turns", "too_few_tokens"}


@pytest.mark.parametrize("threshold", ["1e-300", "5e-324"])
def test_clean_cli_tiny_threshold_matches_oracle(tmp_path, threshold):
    # Every threshold in (0, 1] is valid, down to the smallest float: the size
    # bounds of the join once never returned at 1e-300 and overflowed at 5e-324.
    corpus_path = SAMPLE / "golden" / "corpus.dlg"
    done = subprocess.run(
        [sys.executable, "-m", "dialoprep.cli", "clean", "--in", str(corpus_path),
         "--out", str(tmp_path / "out.dlg"), "--report", str(tmp_path / "removals.jsonl"),
         "--jaccard-threshold", threshold],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SAMPLE.parent.parent / "src")})
    assert done.returncode == 0, done.stderr

    cfg = DedupConfig(jaccard_threshold=float(threshold))
    kept, duplicates = brute_force_dedup(load_corpus(corpus_path), cfg)
    kept, small = oracle_filter_min_size(kept, cfg)
    assert duplicates
    assert load_corpus(tmp_path / "out.dlg") == kept
    removals = [json.loads(line)
                for line in (tmp_path / "removals.jsonl").read_text().splitlines()]
    assert removals == [r.to_dict() for r in duplicates + small]


# The sample pipeline cleans without an eval set: clean the golden corpus
# again with its first 12 dialogues as one, which removes for all four reasons.
def test_clean_eval_set_digest(tmp_path):
    eval_set = tmp_path / "eval.dlg"
    lines = (SAMPLE / "golden" / "corpus.dlg").read_text(encoding="utf-8").splitlines(True)
    eval_set.write_text("".join(lines[:12]), encoding="utf-8")
    out, report = tmp_path / "ev.dlg", tmp_path / "ev.rem"
    assert main(["clean", "--in", str(SAMPLE / "golden" / "corpus.dlg"),
                 "--eval-set", str(eval_set), "--out", str(out), "--report", str(report)]) == 0
    assert {json.loads(line)["reason"] for line in report.read_text().splitlines()} == {
        "duplicate", "eval_overlap", "too_few_turns", "too_few_tokens"}
    assert _matches_digest(out) and _matches_digest(report)


def test_clean_writes_a_parallel_corpus_through(tmp_path):
    # Jaccard ignores summaries, and the golden corpus is clean already.
    annotated, out = SAMPLE / "golden" / "annotated.plx", tmp_path / "out.plx"
    assert main(["clean", "--in", str(annotated), "--out", str(out)]) == 0
    assert out.read_bytes() == annotated.read_bytes()


def test_clean_eval_set_parallel_digest(tmp_path):
    lines = (SAMPLE / "golden" / "annotated.plx").read_text(encoding="utf-8").splitlines(True)
    eval_set = tmp_path / "eval.plx"
    eval_set.write_text("".join(lines[:12]), encoding="utf-8")
    out, report = tmp_path / "ev.plx", tmp_path / "ev.plx.rem"
    assert main(["clean", "--in", str(SAMPLE / "golden" / "annotated.plx"),
                 "--eval-set", str(eval_set), "--out", str(out), "--report", str(report)]) == 0
    by_id = {json.loads(line)["id"]: line for line in lines}
    kept = out.read_text(encoding="utf-8").splitlines(True)
    assert kept and all(line == by_id[json.loads(line)["id"]] for line in kept)
    assert _matches_digest(out) and _matches_digest(report)


def test_zipf_clean_digest(tmp_path):
    # The benchmark generator's 10^4-dialogue Zipf corpus, of 20k word types
    # against the sample's 150, ingested and cleaned against its eval set.
    sys.path.insert(0, str(SAMPLE.parent.parent / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    rng = random.Random(7)
    gen.write_corpus(rng, gen.ZipfVocabulary(rng), 10_000, tmp_path)
    corpus, out, report = tmp_path / "zipf.dlg", tmp_path / "zipf_clean.dlg", tmp_path / "zipf.rem"
    assert main(["ingest", "--in", str(tmp_path / "raw.jsonl"),
                 "--spec", str(tmp_path / "ingest_spec.json"), "--out", str(corpus)]) == 0
    assert main(["clean", "--in", str(corpus), "--eval-set", str(tmp_path / "eval.dlg"),
                 "--out", str(out), "--report", str(report)]) == 0
    assert _matches_digest(corpus) and _matches_digest(out) and _matches_digest(report)


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_eval_identity_scores_one(tmp_path):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    _write_jsonl(cands, [{"id": "1", "text": "alpha beta gamma"},
                         {"id": "2", "text": "delta epsilon"}])
    _write_jsonl(refs, [{"id": "1", "text": "alpha beta gamma"},
                        {"id": "2", "text": "delta epsilon"}])
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mean"] == {"rouge1": 1.0, "rouge2": 1.0, "rougeL": 1.0}


def test_eval_multi_ref_half(tmp_path):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    _write_jsonl(cands, [{"id": "1", "text": "alpha beta"}])
    _write_jsonl(refs, [{"id": "1", "texts": ["alpha beta", "zz yy"]}])
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out), "--multi-ref"]) == 0
    report = json.loads(out.read_text())
    assert report["mean"]["rouge1"] == 0.5
    assert report["mean"]["rougeL"] == 0.5


def test_eval_max_length_truncates_before_scoring(tmp_path):
    from dialoprep.metrics import score_pair, truncate_summary, tokenize_for_metrics

    candidate = "one two three four five six"
    reference = "one two three"
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    _write_jsonl(cands, [{"id": "1", "text": candidate}])
    _write_jsonl(refs, [{"id": "1", "text": reference}])
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out), "--max-length", "3"]) == 0
    report = json.loads(out.read_text())
    expected = score_pair(truncate_summary(tokenize_for_metrics(candidate), 3), reference)
    assert report["mean"]["rouge1"] == expected.rouge1.f1 == 1.0


def test_eval_id_mismatch_exits_1(tmp_path, capsys):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    _write_jsonl(cands, [{"id": "1", "text": "a"}, {"id": "3", "text": "b"}])
    _write_jsonl(refs, [{"id": "1", "text": "a"}, {"id": "2", "text": "b"}])
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "2" in err and "3" in err


def test_eval_id_mismatch_message_and_nothing_written(tmp_path, capsys):
    cands, refs, out = tmp_path / "c.jsonl", tmp_path / "r.jsonl", tmp_path / "report.json"
    _write_jsonl(cands, [{"id": "1", "text": "a"}, {"id": "3", "text": "b"}])
    _write_jsonl(refs, [{"id": "1", "text": "a"}, {"id": "2", "text": "b"}])
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: ids only in references: ['2']; "
                                       "ids only in candidates: ['3']\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "r.jsonl"]


def test_eval_bad_line_is_reported_before_an_id_mismatch(tmp_path, capsys):
    # Both files are read to their end before the ids are compared, so the
    # first bad line, references before candidates, wins over a mismatch.
    cands, refs, out = tmp_path / "c.jsonl", tmp_path / "r.jsonl", tmp_path / "report.json"
    _write_jsonl(cands, [{"id": "1", "text": "a"}, {"id": "3", "text": "b"}])
    _write_jsonl(refs, [{"id": "1", "texts": []}, {"id": "2", "text": "b"}])
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: line 1: 'texts' must be a non-empty list of strings\n")
    assert not out.exists()


def test_eval_select_train_ref(tmp_path):
    rng = random.Random(5)
    d = make_dialogue(rng, "d0", n_turns=4)
    dialogue_text = " ".join(t.text for t in d.turns)
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    _write_jsonl(cands, [{"id": "d0", "text": dialogue_text}])
    _write_jsonl(refs, [{"id": "d0", "texts": ["zzz unrelated", dialogue_text]}])
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out), "--select-train-ref"]) == 0
    report = json.loads(out.read_text())
    assert report["per_example"]["d0"]["selected_reference"] == 1


def test_eval_select_train_ref_accepts_dialogue_records(tmp_path):
    rng = random.Random(6)
    d = make_dialogue(rng, "d0", n_turns=4)
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    _write_jsonl(cands, [record_to_obj(d)])
    _write_jsonl(refs, [{"id": d.id, "texts": [render_dialogue_text(d), "qqq"]}])
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out), "--select-train-ref"]) == 0
    report = json.loads(out.read_text())
    assert report["per_example"][d.id]["selected_reference"] == 0
    # Every mode scores a dialogue record by its rendered text.
    plain = tmp_path / "plain.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(plain)]) == 0
    assert json.loads(plain.read_text())["per_example"][d.id] == {
        "rouge1": 1.0, "rouge2": 1.0, "rougeL": 1.0}


# eval's report bytes in each mode over the sample's fixed candidates (the
# annotated summaries, or the named dialogues' records) and 1-4 references
# per id. Computed before the record types changed; no golden covers eval.
@pytest.mark.parametrize("candidates, mode, name", [
    ("eval_candidates.jsonl", [], "single.json"),
    ("eval_candidates.jsonl", ["--multi-ref"], "multi.json"),
    ("golden/named.dlg", ["--select-train-ref"], "select.json"),
], ids=["single-ref", "multi-ref", "select-train-ref"])
def test_eval_digest(tmp_path, candidates, mode, name):
    out = tmp_path / name
    assert main(["eval", "--candidates", str(SAMPLE / candidates),
                 "--references", str(SAMPLE / "eval_references.jsonl"),
                 "--out", str(out), *mode]) == 0
    assert _matches_digest(out)


def _oracle_eval_report(candidates: dict, references: dict, multi_ref: bool,
                        max_length: int | None) -> dict:
    """The report ``eval`` writes, scored by the oracles in conftest."""
    per_example = {}
    for example_id in sorted(candidates):
        cand = tokenize_for_metrics(candidates[example_id])
        if max_length:
            cand = truncate_summary(cand, max_length)
        refs = references[example_id]
        scores = (oracle_multi_reference_rouge(cand, refs) if multi_ref
                  else oracle_score_pair(cand, refs[0]))
        per_example[example_id] = {"rouge1": scores.rouge1.f1, "rouge2": scores.rouge2.f1,
                                   "rougeL": scores.rougeL.f1}
    mean = {key: math.fsum(e[key] for e in per_example.values()) / len(per_example)
            for key in ("rouge1", "rouge2", "rougeL")}
    return {"mode": "multi_ref" if multi_ref else "single_ref", "max_length": max_length,
            "mean": mean, "per_example": per_example}


def test_eval_outputs_equal_oracle_bytes(tmp_path):
    rng = random.Random(60)
    dialogues = [make_dialogue(rng, f"d{i}", n_turns=rng.randint(2, 12), max_tokens=12)
                 for i in range(60)]

    def summary(d) -> str:
        """Dialogue words, other words, or no metric tokens at all."""
        kind = rng.random()
        if kind < 0.15:
            return rng.choice(["", "...", " -- "])
        pool = render_dialogue_text(d).split() if kind < 0.7 else WORDS
        return " ".join(rng.choices(pool, k=rng.randint(1, 25)))

    candidates = {d.id: summary(d) for d in dialogues}
    references = {d.id: [summary(d) for _ in range(rng.randint(1, 4))] for d in dialogues}
    save_corpus(dialogues, tmp_path / "corpus.dlg")
    _write_jsonl(tmp_path / "c.jsonl", [{"id": i, "text": t} for i, t in candidates.items()])
    _write_jsonl(tmp_path / "r.jsonl", [{"id": i, "texts": t} for i, t in references.items()])

    expected = {
        "select": {"mode": "select_train_ref", "per_example": {
            d.id: {"selected_reference": oracle_select_training_reference(d, references[d.id])}
            for d in sorted(dialogues, key=lambda d: d.id)}},
        "single": _oracle_eval_report(candidates, references, False, None),
        "multi": _oracle_eval_report(candidates, references, True, None),
        "short": _oracle_eval_report(candidates, references, True, 5),
    }
    selected = {e["selected_reference"] for e in expected["select"]["per_example"].values()}
    assert selected == {0, 1, 2, 3}
    corpus, cands, refs = (str(tmp_path / name) for name in ("corpus.dlg", "c.jsonl", "r.jsonl"))
    runs = {
        "select": ["--candidates", corpus, "--select-train-ref"],
        "single": ["--candidates", cands],
        "multi": ["--candidates", cands, "--multi-ref"],
        "short": ["--candidates", cands, "--multi-ref", "--max-length", "5"],
    }
    for name, args in runs.items():
        expected_path = tmp_path / f"{name}.expected.json"
        jsonl.write_json(expected_path, expected[name])
        out = tmp_path / f"{name}.json"
        assert main(["eval", *args, "--references", refs, "--out", str(out)]) == 0
        assert out.read_bytes() == expected_path.read_bytes(), name


def test_eval_truncated_line_exits_1(tmp_path, capsys):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text('{"id": "1", "text": "alpha"}\n{"id":"2",\n')
    _write_jsonl(refs, [{"id": "1", "text": "alpha"}, {"id": "2", "text": "beta"}])
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: invalid JSON")
    assert not out.exists()


def test_eval_line_without_id_exits_1(tmp_path, capsys):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    _write_jsonl(cands, [{"id": "1", "text": "alpha"}])
    refs.write_text('{"id": "1", "text": "alpha"}\n\n{"text": "beta"}\n')
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(cands), "--references", str(refs),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: line 3: record missing 'id' field\n"
    assert not out.exists()



def _readme_usage_options() -> dict[str, set[str]]:
    """The ``--options`` of each subcommand in README's first bash block under
    "## Pipeline", continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("\n## Pipeline\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    options: dict[str, set[str]] = {}
    for command in block.replace("\\\n", " ").splitlines():
        words = command.split()
        if words[:1] == ["dialoprep"]:
            options[words[1]] = set(re.findall(r"--[a-z][a-z-]*", command))
    return options


def test_readme_usage_names_every_option():
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    expected = {name: {opt for action in p._actions for opt in action.option_strings
                       if opt.startswith("--")} - {"--help"}
                for name, p in sub.choices.items()}
    assert _readme_usage_options() == expected
