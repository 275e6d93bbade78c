"""Pipeline command-line interface.

Each stage is a subcommand so partial reruns stay cheap:

    ingest | clean | roles | augment | annotate | noise | stats | eval

A command imports only its own layer, inside its ``_cmd_*`` function, so
``--help`` and each stage start without loading the others.

Every run writes ``<out>.manifest.json`` beside its output, worked out from
the run's arguments: command, parameters, seed, the SHA-256 digest of each
file an input flag names (enough to re-run the stage identically) and what
``save_corpus`` stored. ``roles``, ``augment`` and ``stats`` stream their
input record by record; ``eval`` holds its references and streams its
candidates, so a bad line in either file is reported before an id mismatch.
A flag that sets a config field has no default here: the config type holds
it. Exit codes: 0 success, 1 data error or invalid value (message on stderr),
2 usage error.

All randomness flows from ``--seed``; no stage reads the clock or OS entropy,
so a fixed config and seed reproduce outputs byte-for-byte. ``--jobs`` is
accepted and ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

from . import __version__, jsonl, records
from .errors import MalformedRecordError, PipelineError


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


_INPUT_FLAGS = ("--in", "--spec", "--eval-set", "--names", "--map", "--mix", "--config",
                "--candidates", "--references")


def _paths(args, flags: tuple[str, ...]):
    """(flag, path) for each path that one of ``flags`` gives the run."""
    for flag in flags:
        value = getattr(args, "input" if flag == "--in" else flag[2:].replace("-", "_"), None)
        for path in value if isinstance(value, list) else [value] if value else []:
            yield flag, path


def _write_manifest(args, params: dict, corpus: records.Written | None = None) -> None:
    """Write ``<out>.manifest.json`` for the run ``args`` describes: its
    command, seed, every path an input flag gives and its output. ``corpus``,
    what ``save_corpus`` stored at ``--out``, adds the ``corpus`` block."""
    out, seed = Path(args.out).name, getattr(args, "seed", None)
    manifest = {
        "schema_version": records.SCHEMA_VERSION,
        "package": f"dialoprep {__version__}",
        "command": args.command,
        "seed": seed,
        "params": params,
        "inputs": [{"name": Path(p).name, "sha256": _sha256(p)}
                   for _, p in _paths(args, _INPUT_FLAGS)],
        "outputs": [out],
    }
    if corpus is not None:
        manifest["corpus"] = {"name": out, "examples": corpus.examples,
                              "created_with_seed": seed,
                              "source_datasets": list(corpus.source_datasets)}
    jsonl.write_json(f"{args.out}.manifest.json", manifest)


def _failures_path(args) -> str:
    return args.failures or f"{args.out}.failures.jsonl"


def _distinct_paths(args) -> None:
    """Refuse a run, before it reads anything, two of whose outputs are one
    file or one of whose outputs is one of its inputs."""
    seen = {Path(path).resolve(): flag for flag, path in _paths(args, _INPUT_FLAGS)}
    failures = [("--failures", _failures_path(args))] if args.command == "annotate" else []
    for flag, path in [*_paths(args, ("--out", "--report")), *failures,
                       ("the manifest", f"{args.out}.manifest.json")]:
        first = seen.setdefault(Path(path).resolve(), flag)
        if first != flag:
            raise PipelineError(f"{first} and {flag} both name {path}")


def _given(args, config) -> dict:
    """The fields of the config type ``config`` that the command line gives."""
    return {name: value for name, value in vars(args).items() if name in config._fields}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    from . import ingest
    spec = ingest.IngestSpec.from_file(args.spec)
    result = ingest.ingest(args.input, spec)
    written = records.save_corpus(result.dialogues, args.out)
    if args.report:
        jsonl.write_json(args.report, {"dialogues": len(result.dialogues),
                                       **vars(result.report)})
    _write_manifest(args, {"spec": Path(args.spec).name}, written)
    print(f"ingest: {len(result.dialogues)} dialogues "
          f"({len(result.report.dropped_empty_dialogues)} empty, "
          f"{len(result.report.dropped_invalid_dialogues)} invalid dropped)")
    return 0


def _cmd_clean(args) -> int:
    from . import dedup
    cfg = dedup.DedupConfig(**_given(args, dedup.DedupConfig))
    dialogues = records.load_corpus(args.input)
    eval_sets = [records.load_corpus(p) for p in args.eval_set or []]
    kept, removals = dedup.clean(dialogues, eval_sets, cfg)
    written = records.save_corpus(kept, args.out)
    if args.report:
        dedup.save_removal_report(removals, args.report)
    _write_manifest(args, cfg._asdict(), written)
    print(f"clean: kept {len(kept)} of {len(dialogues)} dialogues "
          f"({len(removals)} removed)")
    return 0


def _cmd_roles(args) -> int:
    from . import roles
    pool = (roles.NamePool.from_file(args.names) if args.names
            else roles.bundled_name_pool())
    written = records.save_corpus(
        (roles.assign_role_group(d, pool, args.seed) for d in records.iter_corpus(args.input)),
        args.out)
    _write_manifest(args, {"pool_size": len(pool)}, written)
    print(f"roles: assigned role groups to {written.examples} dialogues")
    return 0


def _cmd_augment(args) -> int:
    from . import roles
    role_map = roles.RoleMap.from_file(args.map)
    written = records.save_corpus(
        (roles.augment_role_replace(ex, role_map) for ex in records.iter_corpus(args.input)),
        args.out)
    _write_manifest(args, {"map": Path(args.map).name}, written)
    print(f"augment: rewrote {written.examples} examples")
    return 0


def _cmd_annotate(args) -> int:
    from . import annotate
    if args.mock:
        endpoint = annotate.MockEndpoint(args.mock)
    elif args.endpoint:
        endpoint = annotate.HttpEndpoint(args.endpoint)
    else:
        raise PipelineError("annotate needs --endpoint URL or --mock BEHAVIOR")
    job = annotate.AnnotationJob(**_given(args, annotate.AnnotationJob))
    policy = annotate.RetryPolicy(**_given(args, annotate.RetryPolicy))
    dialogues = records.load_corpus(args.input)
    report = annotate.annotate_batch(dialogues, job, endpoint, args.out, policy)
    annotate.save_failure_report(report, _failures_path(args))
    _write_manifest(args, {**job._asdict(), "mock": args.mock})
    print(f"annotate: {len(report.completed)} annotated, "
          f"{len(report.skipped_existing)} skipped, "
          f"{len(report.failures)} failed, "
          f"{len(report.not_attempted)} over budget")
    return 0


def _cmd_noise(args) -> int:
    from . import noising
    cfg = (noising.NoisingConfig.from_file(args.config) if args.config
           else noising.NoisingConfig())
    mix = (noising.TaskMix.from_file(args.mix) if args.mix
           else noising.TaskMix.equal_reconstruction())
    written = jsonl.write_lines(args.out, noising.pair_lines(
        records.iter_corpus(args.input), mix, cfg, args.count, seed=args.seed))
    _write_manifest(args, {
        "count": args.count,
        "weights": {t: mix.weights.get(t, 0.0) for t in noising.ALL_TASKS},
        **cfg._asdict(),
    })
    print(f"noise: wrote {written} pairs")
    return 0


def _cmd_stats(args) -> int:
    from . import metrics
    report = metrics.corpus_report(records.iter_corpus(args.input))
    jsonl.write_json(args.out, {"tokenizer": metrics.TOKENIZER_LABEL,
                                **report._asdict()})
    _write_manifest(args, {"tokenizer": metrics.TOKENIZER_LABEL})
    print(metrics.format_stats_table(report))
    return 0


def _keyed(path: str):
    """``(line_number, id, obj)`` per record of ``path``. An id is a string and
    may appear once."""
    first_lines: dict[str, int] = {}
    for line_number, obj in jsonl.read(path):
        if "id" not in obj:
            raise MalformedRecordError(line_number, "record missing 'id' field")
        record_id = obj["id"]
        if not isinstance(record_id, str):
            raise MalformedRecordError(line_number, "id must be a string")
        first = first_lines.setdefault(record_id, line_number)
        if first != line_number:
            raise MalformedRecordError(
                line_number, f"id {record_id!r} reappears (first at line {first})")
        yield line_number, record_id, obj


def _text_field(line_number: int, obj: dict) -> str:
    if "text" not in obj:
        raise MalformedRecordError(line_number, "record missing 'text' field")
    if not isinstance(obj["text"], str):
        raise MalformedRecordError(line_number, "'text' must be a string")
    return obj["text"]


def _candidate_text(line_number: int, obj: dict) -> str:
    if "turns" in obj:  # a dialogue record: use its rendered text
        return records.render_dialogue_text(records.dialogue_from_obj(obj, line_number))
    return _text_field(line_number, obj)


def _reference_texts(line_number: int, obj: dict) -> list[str]:
    if "texts" not in obj:
        return [_text_field(line_number, obj)]
    texts = obj["texts"]
    if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
        raise MalformedRecordError(line_number, "'texts' must be a non-empty list of strings")
    return texts


def _cmd_eval(args) -> int:
    from . import metrics
    if args.max_length is not None and args.max_length < 1:
        raise PipelineError("max_length must be >= 1")
    if args.max_length is not None and args.select_train_ref:
        raise PipelineError("--max-length does not apply to --select-train-ref")

    def score(text: str, refs: list[str]) -> dict:
        if args.select_train_ref:
            return {"selected_reference": metrics.select_training_reference(text, refs)}
        cand = metrics.tokenize_for_metrics(text)
        if args.max_length is not None:
            cand = metrics.truncate_summary(cand, args.max_length)
        scores = (metrics.multi_reference_rouge(cand, refs) if args.multi_ref
                  else metrics.score_pair(cand, refs[0]))
        return {key: s.f1 for key, s in scores._asdict().items()}

    # Each reference is dropped once its candidate is scored, so what is left
    # at the end are the ids only in references.
    references = {record_id: _reference_texts(line_number, obj)
                  for line_number, record_id, obj in _keyed(args.references)}
    scored: dict[str, dict] = {}
    only_cands = []
    for line_number, example_id, obj in _keyed(args.candidates):
        text = _candidate_text(line_number, obj)
        refs = references.pop(example_id, None)
        if refs is None:
            only_cands.append(example_id)
        else:
            scored[example_id] = score(text, refs)
    mismatch = [f"ids only in {name}: {sorted(ids)}"
                for name, ids in (("references", references), ("candidates", only_cands)) if ids]
    if mismatch:
        raise PipelineError("; ".join(mismatch))

    per_example = dict(sorted(scored.items()))
    if args.select_train_ref:
        report = {"mode": "select_train_ref", "per_example": per_example}
    else:
        mean = {key: (math.fsum(f1[key] for f1 in per_example.values()) / len(per_example)
                      if per_example else 0.0) for key in metrics.EvalScores._fields}
        report = {
            "mode": "multi_ref" if args.multi_ref else "single_ref",
            "max_length": args.max_length,
            "mean": mean,
            "per_example": per_example,
        }
        print("mean F1  R-1 {rouge1:.4f}  R-2 {rouge2:.4f}  R-L {rougeL:.4f}".format(**mean))
    jsonl.write_json(args.out, report)
    _write_manifest(args, {"multi_ref": bool(args.multi_ref),
                           "select_train_ref": bool(args.select_train_ref),
                           "max_length": args.max_length})
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialoprep",
        description="Dialogue corpus construction, noising, and evaluation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a raw export to a dialogue corpus")
    p.add_argument("--in", dest="input", required=True,
                   help="raw source file (one utterance per line)")
    p.add_argument("--spec", required=True, help="ingest spec JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="where to write the ingest report JSON")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("clean", help="dedup, leakage removal, and size filtering")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-set", action="append", help="evaluation corpus to exclude against")
    cfg = p.add_argument_group("settings (an unset one takes DedupConfig's default)",
                               argument_default=argparse.SUPPRESS)
    cfg.add_argument("--jaccard-threshold", type=float)
    cfg.add_argument("--min-turns", type=int)
    cfg.add_argument("--min-tokens", type=int)
    p.add_argument("--minhash", action="store_true",
                   help="deprecated no-op: the one exact pair search always runs; "
                        "kept so existing commands still parse")
    p.add_argument("--report", help="removal report path (line-delimited)")
    p.set_defaults(fn=_cmd_clean)

    p = sub.add_parser("roles", help="assign real-name role groups")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--names", help="name pool file (default: bundled pool)")
    p.add_argument("--jobs", type=int, default=1,
                   help="deprecated no-op: the stage runs serially; kept so existing "
                        "commands still parse")
    p.set_defaults(fn=_cmd_roles)

    p = sub.add_parser("augment", help="role-replaced augmentation of a corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--map", required=True, help="role map JSON (old name -> new name)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("annotate", help="summarize dialogues via a chat endpoint")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True, help="parallel corpus output (appended; resumable)")
    p.add_argument("--model", default="gpt-3.5-turbo-0301")
    endpoint = p.add_mutually_exclusive_group()
    endpoint.add_argument("--endpoint", help="base URL of a chat-completion-compatible service")
    endpoint.add_argument("--mock",
                          help="offline endpoint: 'fixed:<text>', 'head:<k>' or 'digest:<k>'")
    cfg = p.add_argument_group("settings (an unset one takes the default of AnnotationJob "
                               "or RetryPolicy)", argument_default=argparse.SUPPRESS)
    # annotate.TEMPLATES's names, spelled out: --help imports no layer.
    cfg.add_argument("--template", choices=["preceding", "instruct", "subsequent"])
    cfg.add_argument("--temperature", type=float)
    cfg.add_argument("--max-in-flight", type=int)
    p.add_argument("--budget", type=int)
    cfg.add_argument("--max-attempts", type=int)
    cfg.add_argument("--base-backoff", type=float)
    p.add_argument("--failures", help="failure report path")
    p.set_defaults(fn=_cmd_annotate)

    p = sub.add_parser("noise", help="generate denoising pre-training pairs")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", help="NoisingConfig JSON")
    p.add_argument("--mix", help="TaskMix JSON")
    p.add_argument("--jobs", type=int, default=1,
                   help="deprecated no-op: pairs are generated serially and written "
                        "as produced; kept so existing commands still parse")
    p.set_defaults(fn=_cmd_noise)

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("--in", dest="input", required=True, help="parallel corpus")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("eval", help="ROUGE evaluation of candidate summaries")
    p.add_argument("--candidates", required=True, help="JSONL of {id, text}")
    p.add_argument("--references", required=True, help="JSONL of {id, text | texts}")
    p.add_argument("--out", required=True, help="report JSON path")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--multi-ref", action="store_true",
                      help="average scores over all references per example")
    mode.add_argument("--select-train-ref", action="store_true",
                      help="pick the highest ROUGE-Avg reference per dialogue")
    p.add_argument("--max-length", type=int,
                   help="truncate candidates to this many tokens before plain or "
                        "--multi-ref scoring")
    p.set_defaults(fn=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _distinct_paths(args)
        return args.fn(args)
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
