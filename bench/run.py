#!/usr/bin/env python3
"""The dialoprep benchmark.

    python3 bench/run.py --workload pipeline_zipf --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout; all paths are resolved from this file.
The inputs are generated from ``--seed`` (bench/gen.py); the program only ever
reads the generated files.

``--trace 0`` (timed run) runs the workload's chain of CLI stages repeatedly,
each stage as its own child process (bench/stage.py), one child at a time,
until ``--seconds`` is spent. It reports the end-to-end metrics named in
BENCHMARK.json: ``setup_s`` is the median cold start (spawn to the end of
``import dialoprep.cli``) over every stage process and a few import-only
probes; ``peak_rss_mb`` is the largest per-stage median ``ru_maxrss``.
``pipeline_ref_s`` is a chain's wall time (spawn to reap of each stage) at a
fixed reference speed of the machine. The wall time is one such cold start per
stage plus, for each stage, its median time from the end of the import to the
reap over the chains. On a shared host the speed of the whole machine drifts
by a fifth over minutes, which no statistic within one run removes. So before
every child this process also runs bench/probe.py, a fixed task of the same
kind that imports nothing from the program (a cold start importing numpy and
requests, then pure-Python work), and the wall time is rescaled by the
probe's reference time over its median time in this run (``PROBE_REF_S``).
Any change to the program moves the result by the same share as the wall
time; the wall time itself is printed as ``pipeline_s``.

``--trace 1`` (traced run) runs the reference chain in this process, in
alternating passes with and without every layer's public functions wrapped
in spans (bench/spans.py). It reports the per-layer metrics as medians over
the traced passes, the stage rates of the untraced passes, and the tracing
overhead; ``--seconds`` does not apply.

Both modes check every output before reporting:

- the bundled sample pipeline reproduces data/sample/golden/ byte for byte;
- every planted near-duplicate, evaluation leak and size reject is removed
  for the reason the generator recorded;
- each output equals the reference chain's, which runs in this process with
  a one-shot annotate and ``noise --jobs 1``: so the two-invocation budgeted
  and resumed annotate, every repeated chain at the same seed, the traced
  chain, and the ``--jobs 2`` pairs of a workload's untimed variant run must
  all give the same bytes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (stage invocations) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SAMPLE = ROOT / "data" / "sample"
WORK = ROOT / ".benchwork"
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
CHILD_TIMEOUT_S = 60
COLD_START_PROBES = 5
IMPORT_PROBES = 3
TRACE_ROUNDS = 3
#: The speed probe's typical seconds on the reference machine (a shared VM
#: with 2 vCPUs); ``pipeline_ref_s`` is rescaled to this speed.
PROBE_REF_S = 0.4

#: Stage label -> (rate metric, unit). Rates are items over the time from
#: after the import to the return of ``cli.main``.
RATES = {
    "ingest": ("ingest_rows_per_s", "rows/s"),
    "clean": ("clean_dialogues_per_s", "dialogues/s"),
    "noise": ("noise_pairs_per_s", "pairs/s"),
    "stats": ("stats_examples_per_s", "examples/s"),
    "eval_multi_ref": ("rouge_examples_per_s", "examples/s"),
    "eval_select_ref": ("select_ref_examples_per_s", "examples/s"),
}


@dataclass(frozen=True)
class Stage:
    """One CLI invocation of a chain and how to check what it wrote."""

    label: str
    argv: list[str]
    #: Files compared byte for byte with the reference chain's.
    outputs: tuple[str, ...] = ()
    #: Further check, given (output dir, reference dir); returns an error or None.
    check: Callable[[Path, Path], str | None] | None = None


@dataclass(frozen=True)
class Plan:
    """A workload over its generated inputs: its chain of stages and item counts."""

    #: (output dir, reference?) -> stages. The reference chain annotates in one
    #: invocation and generates pairs at ``--jobs 1``.
    chain: Callable[[Path, bool], list[Stage]]
    #: (reference output dir) -> items each rated stage processes.
    items: Callable[[Path], dict[str, int]]
    #: Planted removals, for workloads that clean.
    truth: Path | None = None
    #: (output dir) -> stages run once here, untimed, after the reference
    #: chain: another path to the same bytes, checked but not measured.
    variant: Callable[[Path], list[Stage]] | None = None


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _manifested(*names: str) -> tuple[str, ...]:
    return names + (f"{names[0]}.manifest.json",)


def _planted_check(truth_path: Path) -> Callable[[Path, Path], str | None]:
    def check(out: Path, ref: Path) -> str | None:
        recall = planted_recall(truth_path, out / "removals.jsonl")
        return None if recall == 1.0 else f"planted recall {recall:.4f}, expected 1.0"
    return check


def planted_recall(truth_path: Path, removals_path: Path) -> float:
    """Share of planted ids removed for the reason the generator recorded."""
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    with open(removals_path, encoding="utf-8") as fh:
        reasons = {r["removed_id"]: r["reason"] for r in map(json.loads, fh)}
    planted = [(i, reason) for reason, ids in truth.items() for i in ids]
    return sum(reasons.get(i) == reason for i, reason in planted) / len(planted)


def _prefix_check(name: str, lines: int) -> Callable[[Path, Path], str | None]:
    """The budgeted annotate run wrote exactly the one-shot run's first lines."""
    def check(out: Path, ref: Path) -> str | None:
        with open(ref / name, "rb") as fh:
            expected = b"".join(line for _, line in zip(range(lines), fh))
        if (out / name).read_bytes() != expected:
            return f"{name} is not the first {lines} lines of the one-shot output"
        return None
    return check


def _front_stages(corpus: gen.Corpus, out: Path, minhash: bool) -> list[Stage]:
    clean = ["clean", "--in", f"{out}/corpus.dlg", "--out", f"{out}/cleaned.dlg",
             "--eval-set", str(corpus.eval_set), "--report", f"{out}/removals.jsonl"]
    return [
        Stage("ingest", ["ingest", "--in", str(corpus.raw), "--spec", str(corpus.spec),
                         "--out", f"{out}/corpus.dlg", "--report", f"{out}/ingest_report.json"],
              _manifested("corpus.dlg", "ingest_report.json")),
        Stage("clean", clean + (["--minhash"] if minhash else []),
              _manifested("cleaned.dlg", "removals.jsonl"), _planted_check(corpus.truth)),
    ]


def plan_pipeline_zipf(seed: int, scale: float, inp: Path) -> Plan:
    """Every stage on a Zipfian corpus: the realistic mix. MinHash keeps dedup
    cheap here, and the ROUGE-L LCS of ``--select-train-ref`` dominates."""
    rng = random.Random(f"pipeline_zipf:{seed}")
    vocab = gen.ZipfVocabulary(rng)
    corpus = gen.write_corpus(rng, vocab, _scaled(400, scale, 40), inp)
    gen.write_eval_inputs(rng, vocab, corpus.dialogues, inp)
    gen.write_role_files(inp)
    pairs = _scaled(1000, scale, 30)
    budget = len(corpus.dialogues) // 2

    def chain(out: Path, reference: bool) -> list[Stage]:
        annotate = ["annotate", "--in", f"{out}/named.dlg", "--out", f"{out}/annotated.plx",
                    "--mock", "digest:12", "--max-in-flight", "1"]
        annotated = _manifested("annotated.plx", "annotated.plx.failures.jsonl")
        if reference:
            annotate_stages = [Stage("annotate", annotate, annotated)]
        else:
            annotate_stages = [
                Stage("annotate_budget", annotate + ["--budget", str(budget)],
                      check=_prefix_check("annotated.plx", budget)),
                Stage("annotate_resume", annotate, annotated),
            ]
        return [
            *_front_stages(corpus, out, minhash=True),
            Stage("roles", ["roles", "--in", f"{out}/cleaned.dlg", "--out", f"{out}/named.dlg",
                            "--seed", str(seed), "--names", str(inp / "pool.txt"),
                            "--jobs", "1"],
                  _manifested("named.dlg")),
            *annotate_stages,
            Stage("augment", ["augment", "--in", f"{out}/annotated.plx",
                              "--map", str(inp / "role_map.json"),
                              "--out", f"{out}/augmented.plx"],
                  _manifested("augmented.plx")),
            Stage("noise", ["noise", "--in", f"{out}/named.dlg", "--out", f"{out}/pairs.jsonl",
                            "--count", str(pairs), "--seed", str(seed), "--jobs", "1"],
                  _manifested("pairs.jsonl")),
            Stage("stats", ["stats", "--in", f"{out}/annotated.plx",
                            "--out", f"{out}/stats.json"],
                  _manifested("stats.json")),
            Stage("eval_multi_ref", ["eval", "--multi-ref", "--candidates", str(inp / "cands.jsonl"),
                                     "--references", str(inp / "refs.jsonl"),
                                     "--out", f"{out}/rouge.json"],
                  _manifested("rouge.json")),
            Stage("eval_select_ref", ["eval", "--select-train-ref",
                                      "--candidates", f"{out}/corpus.dlg",
                                      "--references", str(inp / "refs.jsonl"),
                                      "--out", f"{out}/select_ref.json"],
                  _manifested("select_ref.json")),
        ]

    def items(ref: Path) -> dict[str, int]:
        n = len(corpus.dialogues)
        return {"ingest": corpus.rows, "clean": n, "noise": pairs,
                "stats": _lines(ref / "annotated.plx"), "eval_multi_ref": n,
                "eval_select_ref": n}

    return Plan(chain, items, corpus.truth)


def plan_dedup_adversarial(seed: int, scale: float, inp: Path) -> Plan:
    """Ingest and exact clean on the sample vocabulary, where pairwise Jaccard
    is high: neither the length filter nor MinHash banding prunes, so dedup
    verification is nearly all the work."""
    rng = random.Random(f"dedup_adversarial:{seed}")
    corpus = gen.write_corpus(rng, gen.SampleVocabulary(), _scaled(1000, scale, 40), inp)

    def chain(out: Path, reference: bool) -> list[Stage]:
        return _front_stages(corpus, out, minhash=False)

    def items(ref: Path) -> dict[str, int]:
        return {"ingest": corpus.rows, "clean": len(corpus.dialogues)}

    return Plan(chain, items, corpus.truth)


def plan_pretrain_pairs(seed: int, scale: float, inp: Path) -> Plan:
    """Only ``noise``, all six tasks at equal weight, 40 pairs per dialogue:
    generation, serialization, the write and memory, with no dedup or metrics.

    It is timed at ``--jobs 1``. ``--jobs 2`` runs on threads that take turns
    at the interpreter lock, so on a shared 2-vCPU host its time follows how
    the host schedules the second vCPU: per-run medians of the same stage
    ranged from 1.4 to 2.0 s while the speed probe stood still. Its output is
    checked once per run instead, against the ``--jobs 1`` reference."""
    rng = random.Random(f"pretrain_pairs:{seed}")
    plx = gen.write_parallel_corpus(rng, gen.ZipfVocabulary(rng), _scaled(50, scale, 10), inp)
    pairs = _scaled(2000, scale, 60)

    def noise(out: Path, jobs: int) -> list[Stage]:
        return [Stage("noise", ["noise", "--in", str(plx), "--out", f"{out}/pairs.jsonl",
                                "--count", str(pairs), "--seed", str(seed),
                                "--mix", str(inp / "mix.json"), "--jobs", str(jobs)],
                      _manifested("pairs.jsonl"))]

    def items(ref: Path) -> dict[str, int]:
        return {"noise": pairs}

    return Plan(lambda out, reference: noise(out, 1), items,
                variant=lambda out: noise(out, 2))


WORKLOADS = {
    "pipeline_zipf": plan_pipeline_zipf,
    "dedup_adversarial": plan_dedup_adversarial,
    "pretrain_pairs": plan_pretrain_pairs,
}


# ---------------------------------------------------------------------------
# Running stages
# ---------------------------------------------------------------------------

class Ledger:
    """Stage invocations attempted, and the error of each that failed."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, label: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{label}: {error}")
            print(f"check failed: {label}: {error}", file=sys.stderr)
        return error is None


def stage_error(stage: Stage, code: int, out: Path, ref: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    for name in stage.outputs:
        if not (out / name).is_file():
            return f"{name} missing"
        if (out / name).read_bytes() != (ref / name).read_bytes():
            return f"{name} differs from the reference output"
    return stage.check(out, ref) if stage.check else None


def run_inprocess(argv: list[str], tracer: spans.Tracer | None = None) -> tuple[int, float]:
    """Call ``cli.main`` here, with its printing discarded; (exit code, seconds)."""
    from dialoprep import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        return code, time.perf_counter() - start


def run_chain_inprocess(stages: list[Stage], out: Path, ref: Path, ledger: Ledger,
                        tracer: spans.Tracer | None = None) -> dict[str, float]:
    """Run a chain here; returns seconds per stage label."""
    out.mkdir(parents=True)
    seconds = {}
    for stage in stages:
        if tracer is not None:
            tracer.run = f"{out.name}/{stage.label}"
        code, seconds[stage.label] = run_inprocess(stage.argv, tracer)
        if not ledger.record(stage.label, stage_error(stage, code, out, ref)):
            break
    return seconds


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float     # spawn to reap
    setup_s: float    # spawn to the end of ``import dialoprep.cli``
    main_s: float     # ``cli.main`` only
    rss_mb: float     # the child's ru_maxrss


def run_child(argv: list[str], work: Path) -> ChildRun:
    """Run bench/stage.py as a child and reap it with os.wait4 for its rusage."""
    result = work / "stage_result.json"
    result.unlink(missing_ok=True)
    start = time.monotonic()
    with open(work / "stage.log", "ab") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH / "stage.py"), str(result), *argv],
                                stdout=log, stderr=subprocess.STDOUT, env=CHILD_ENV, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0 or not result.is_file():
        return ChildRun(proc.returncode or 1, end - start, 0.0, 0.0, rss_mb)
    stamps = json.loads(result.read_text())
    return ChildRun(proc.returncode, end - start, stamps["imported"] - start,
                    stamps["done"] - stamps["imported"], rss_mb)


def probe_seconds() -> float:
    """Spawn to exit of bench/probe.py, a fixed task unrelated to the program."""
    start = time.monotonic()
    subprocess.run([sys.executable, str(BENCH / "probe.py")], env=CHILD_ENV, cwd=ROOT,
                   timeout=CHILD_TIMEOUT_S, check=True)
    return time.monotonic() - start


def check_sample(work: Path, ledger: Ledger) -> None:
    """The bundled sample pipeline reproduces data/sample/golden/ byte for byte."""
    from dialoprep.demo import GOLDEN_FILES, sample_pipeline_argv

    golden = SAMPLE / "golden"
    out = work / "sample"
    out.mkdir()
    seen: set[str] = set()
    for argv in sample_pipeline_argv(SAMPLE / "raw_sample.jsonl",
                                     SAMPLE / "ingest_spec.json", out):
        code, _ = run_inprocess(argv)
        written = {p.name for p in out.iterdir()} - seen
        seen |= written
        error = f"exit code {code}" if code != 0 else None
        for name in sorted(written):
            if error is None and (out / name).read_bytes() != (golden / name).read_bytes():
                error = f"{name} differs from data/sample/golden"
        ledger.record(f"sample {argv[0]}", error)
    missing = sorted(set(GOLDEN_FILES) - seen)
    if missing:
        ledger.record("sample", f"golden files not written: {missing}")


# ---------------------------------------------------------------------------
# Timed run
# ---------------------------------------------------------------------------

def timed_run(plan: Plan, ref: Path, work: Path, seconds: float,
              ledger: Ledger) -> tuple[dict[str, float], dict[str, float]]:
    """Chains of child processes for ``seconds``; (end-to-end metrics, stage rates)."""
    start = time.monotonic()
    setups, probes = [], []
    for _ in range(COLD_START_PROBES):
        probes.append(probe_seconds())
        cold = run_child([], work)
        if ledger.record("cold start", None if cold.code == 0 else f"exit code {cold.code}"):
            setups.append(cold.setup_s)

    out = work / "timed"
    chains: list[list[tuple[str, ChildRun]]] = []
    chain_seconds: list[float] = []
    # Another chain only if one of average length still ends in time.
    while not chains or time.monotonic() - start + statistics.fmean(chain_seconds) <= seconds:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        chain_start = time.monotonic()
        runs = []
        for stage in plan.chain(out, False):
            probes.append(probe_seconds())
            run = run_child(stage.argv, work)
            if not ledger.record(stage.label, stage_error(stage, run.code, out, ref)):
                break
            runs.append((stage.label, run))
            setups.append(run.setup_s)
        else:
            chains.append(runs)
            chain_seconds.append(time.monotonic() - chain_start)
            continue
        break  # a failed stage ends the run; its chain is not measured

    def per_stage(value: Callable[[ChildRun], float]) -> dict[str, float]:
        """Median of one value of each stage's runs, over the chains run."""
        labels = [label for label, _ in chains[0]] if chains else []
        return {label: statistics.median(value(r) for runs in chains
                                         for lbl, r in runs if lbl == label)
                for label in labels}

    wall, main = per_stage(lambda r: r.wall_s), per_stage(lambda r: r.main_s)
    after_import = per_stage(lambda r: r.wall_s - r.setup_s)
    rss = per_stage(lambda r: r.rss_mb)
    for label in wall:
        print(f"stage {label}: wall {wall[label]:.4f} s, main {main[label]:.4f} s, "
              f"peak RSS {rss[label]:.1f} MB (medians)")
    setup_s = statistics.median(setups) if setups else 0.0
    # Every stage process imports the same CLI, so its cold start is taken
    # from all of them; the rest of its wall time from its own runs.
    pipeline_s = len(after_import) * setup_s + sum(after_import.values())
    probe_s = statistics.median(probes)
    print(f"pipeline_s {pipeline_s:.4f} s; speed probe {probe_s:.5f} s (median of {len(probes)})")
    metrics = {
        "setup_s": setup_s,
        "pipeline_ref_s": pipeline_s * PROBE_REF_S / probe_s,
        "peak_rss_mb": max(rss.values(), default=0.0),
    }
    items = plan.items(ref)
    rates = {name: items[label] / main[label]
             for label, (name, _) in RATES.items() if label in main}
    print(f"{len(chains)} chains, {len(setups)} cold starts in {time.monotonic() - start:.1f} s")
    return metrics, rates


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _count_loaded(counts, result, *args, **kwargs):
    counts["records.records_loaded"] += len(result)


def _count_bytes(key: str):
    def count(counts, result, items, path, *args, **kwargs):
        counts[key] += os.path.getsize(path)
    return count


def _count_ingest(counts, result, path, *args, **kwargs):
    counts["ingest.rows"] += _lines(Path(path))
    counts["ingest.dialogues"] += len(result.dialogues)


def _first_match_checks(rows: list[str], removed, candidates: list[str] | None) -> int:
    """Comparisons made by the exact first-match scan, derived from its result.

    A kept row was compared with every candidate; a removed row with the
    candidates up to its match. Without ``candidates`` the candidates are the
    rows kept so far (the dedup pass)."""
    matched = {r.removed_id: r.matched_id for r in removed}
    position: dict[str, int] = {}
    for i, row_id in enumerate(candidates or []):
        position.setdefault(row_id, i)
    checks = 0
    for row_id in rows:
        if row_id in matched:
            checks += position[matched[row_id]] + 1
        elif candidates is None:
            checks += len(position)
            position[row_id] = len(position)
        else:
            checks += len(candidates)
    return checks


def _count_dedup(counts, result, dialogues, *args, **kwargs):
    _, removed = result
    counts["dedup.removed_duplicate"] += len(removed)
    counts["dedup.exact_pair_checks"] += _first_match_checks(
        [d.id for d in dialogues], removed, None)


def _count_eval_overlap(counts, result, dialogues, eval_sets, *args, **kwargs):
    _, removed = result
    counts["dedup.removed_eval_overlap"] += len(removed)
    counts["dedup.exact_pair_checks"] += _first_match_checks(
        [d.id for d in dialogues], removed, [d.id for s in eval_sets for d in s])


def _count_min_size(counts, result, *args, **kwargs):
    counts["dedup.removed_min_size"] += len(result[1])


def _count_annotate(counts, report, *args, **kwargs):
    counts["annotate.completed"] += len(report.completed)
    counts["annotate.skipped_existing"] += len(report.skipped_existing)
    counts["annotate.failures"] += len(report.failures)
    counts["annotate.retries"] += sum(report.retries.values())


def instrument(tracer: spans.Tracer) -> None:
    """Wrap the public functions each layer exposes to the CLI and to its own module."""
    from dialoprep import annotate, dedup, ingest, metrics, noising, records, roles, seeding

    wrap = tracer.wrap
    for owner in (records, annotate):
        wrap(owner, "load_corpus", "records.load_corpus", _count_loaded)
    wrap(records, "save_corpus", "records.save_corpus", _count_bytes("records.bytes_written"))
    wrap(ingest, "ingest", "ingest.ingest", _count_ingest)
    wrap(ingest, "normalize_text", "ingest.normalize")
    wrap(dedup, "dialogue_shingles", "dedup.shingle")
    wrap(dedup, "dedup_corpus", "dedup.dedup_corpus", _count_dedup)
    wrap(dedup, "remove_eval_overlap", "dedup.eval_overlap", _count_eval_overlap)
    wrap(dedup, "filter_min_size", "dedup.min_size", _count_min_size)
    wrap(roles, "assign_role_group", "roles.assign")
    wrap(roles, "augment_role_replace", "roles.augment")
    wrap(annotate, "annotate_batch", "annotate.batch", _count_annotate)
    wrap(annotate, "build_prompt", "annotate.build_prompt")
    tracer.count_calls(annotate.MockEndpoint, "complete", "annotate.requests")
    wrap(noising, "mixed_pair", "noising.mix")
    wrap(noising, "noise_dialogue", lambda d, task, *args, **kwargs: f"noising.{task}")
    wrap(noising, "make_task_oriented_pair", "noising.task_oriented")
    wrap(noising, "select_gap_utterances", "noising.select_gap")
    wrap(noising, "serialize_dialogue", "noising.serialize")
    wrap(noising, "save_pairs", "noising.save_pairs", _count_bytes("noising.bytes_written"))
    for owner in (seeding, roles, noising):
        wrap(owner, "derive_rng", "seeding.derive_rng")
    # noising and dedup bind rouge_n and tokenize_for_metrics by name at
    # import; those calls stay inside gap selection and shingling.
    wrap(metrics, "tokenize_for_metrics", "metrics.tokenize")
    wrap(metrics, "extractive_fragments", "metrics.fragments")
    wrap(metrics, "novel_ngram_pct", "metrics.ngram_pct")
    wrap(metrics, "redundant_ngram_pct", "metrics.ngram_pct")
    wrap(metrics, "corpus_report", "metrics.corpus_report")
    wrap(metrics, "rouge_n", "metrics.rouge_n")
    wrap(metrics, "rouge_l", "metrics.rouge_l")
    wrap(metrics, "multi_reference_rouge", "metrics.multi_ref")
    wrap(metrics, "select_training_reference", "metrics.select_ref")


def import_seconds(modules: tuple[str, ...]) -> float:
    """Median time to import the last module in a fresh interpreter that has
    already imported the others."""
    code = ("import importlib, sys, time\n"
            "for name in sys.argv[1:-1]: importlib.import_module(name)\n"
            "start = time.perf_counter()\n"
            "importlib.import_module(sys.argv[-1])\n"
            "print(time.perf_counter() - start)\n")
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code, *modules], env=CHILD_ENV, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def _layer_values(tracer: spans.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self times and counts."""
    values: dict[str, float] = {}
    for span_name, seconds in tracer.self_times().items():
        suffix = "_self_s" if span_name.startswith("cli.") else "_s"
        values[span_name + suffix] = seconds
    span_counts = tracer.span_counts()
    for task in gen.TASKS:
        values[f"noising.{task}_pairs"] = span_counts[f"noising.{task}"]
    values["seeding.derive_rng_calls"] = span_counts["seeding.derive_rng"]
    values["trace.spans"] = len(tracer.spans)
    values.update(tracer.counts)
    return values


def _pass(plan: Plan, out: Path, ref: Path, ledger: Ledger,
          tracer: spans.Tracer | None = None) -> dict[str, float]:
    """One in-process pass of the reference chain, checked; its seconds.

    Garbage is collected first, so that spans or outputs kept from an earlier
    pass do not slow this one's collections."""
    gc.collect()
    seconds = run_chain_inprocess(plan.chain(out, True), out, ref, ledger, tracer)
    shutil.rmtree(out)
    return seconds


def traced_run(plan: Plan, ref: Path, work: Path, spans_path: Path, ledger: Ledger,
               names: list[str]) -> dict[str, float]:
    """Traced and untraced passes of the reference chain, alternating.

    The reference chain has already run once, so every pass runs warm. Each
    per-layer value is the median over the traced passes; the tracing overhead
    is the median traced chain time minus the median untraced one. Spans are
    written out after each traced pass, outside the timed passes, and dropped
    so that they do not slow the next pass's garbage collections.
    """
    traced, untraced, rounds = [], [], []
    with open(spans_path, "w", encoding="utf-8") as spans_file:
        for round_ in range(TRACE_ROUNDS):
            tracer = spans.Tracer()
            instrument(tracer)
            try:
                traced.append(_pass(plan, work / f"traced{round_}", ref, ledger, tracer))
            finally:
                tracer.restore()
            tracer.write(spans_file)
            rounds.append(_layer_values(tracer))
            del tracer
            untraced.append(_pass(plan, work / f"untraced{round_}", ref, ledger))

    values = dict.fromkeys(names, 0)

    def put(name: str, value: float) -> None:
        if name not in values:
            raise KeyError(f"{name} is not a per-layer metric of BENCHMARK.json")
        values[name] = value

    for name in set().union(*rounds):
        put(name, statistics.median(r.get(name, 0) for r in rounds))
    if plan.truth is not None:
        put("dedup.planted_recall", planted_recall(plan.truth, ref / "removals.jsonl"))
    items = plan.items(ref)
    for label, (name, _) in RATES.items():
        times = [u[label] for u in untraced if label in u]
        if label in items and times:
            put(name, items[label] / statistics.median(times))
    put("dedup.import_s", import_seconds(("dialoprep.metrics", "dialoprep.records",
                                          "dialoprep.dedup")))
    put("annotate.import_s", import_seconds(("dialoprep.errors", "dialoprep.records",
                                             "dialoprep.annotate")))
    traced_s = statistics.median(sum(t.values()) for t in traced)
    put("trace.pipeline_s", traced_s)
    put("trace.overhead_s", traced_s - statistics.median(sum(u.values()) for u in untraced))
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _require_checkout() -> dict:
    needed = [ROOT / "BENCHMARK.json", SRC / "dialoprep" / "cli.py", SAMPLE / "golden",
              ROOT / "scripts" / "make_sample_data.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.exit(f"error: not a dialoprep checkout, missing {', '.join(missing)}")
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's sizes (the smoke test uses a small scale)")
    args = parser.parse_args(argv)
    spec = _require_checkout()
    sys.path.insert(0, str(SRC))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, args.scale, work / "inputs")
        ledger = Ledger()
        check_sample(work, ledger)
        ref = work / "reference"
        run_chain_inprocess(plan.chain(ref, True), ref, ref, ledger)
        if plan.variant is not None:
            variant = work / "variant"
            run_chain_inprocess(plan.variant(variant), variant, ref, ledger)
        if ledger.errors:  # nothing to measure against
            values = dict.fromkeys((m["name"] for m in declared), 0)
        elif args.trace:
            values = traced_run(plan, ref, work,
                                WORK / f"spans-{args.workload}.jsonl", ledger,
                                [m["name"] for m in declared])
        else:
            values, rates = timed_run(plan, ref, work, args.seconds, ledger)
            for label, (name, unit) in RATES.items():
                if name in rates:
                    print(f"{name} {rates[name]:.4f} {unit}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = len(ledger.errors) / ledger.attempted
    if not args.trace:
        print(f"failed_ratio {failed_ratio} ratio")
        values["success_ratio"] = 1.0 - failed_ratio
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": not ledger.errors, "attempted": ledger.attempted,
                      "failed": len(ledger.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
