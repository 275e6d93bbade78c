"""Every public function of the package is one that a stage runs.

The stages run in process under a profiler that records each code object
entered, in this thread and in the threads a run starts (the annotation
workers). A public top-level function of ``src/dialoprep`` that no stage
entered is code the pipeline does not need, unless the allowlist names it.
A function counts as entered when its body ran or a function defined inside
it did (``records.validated`` runs at import; the ``__new__`` it installs
runs at every validated value).
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import dialoprep
from dialoprep import demo
from dialoprep.cli import main
from dialoprep.noising import ALL_TASKS

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample"

#: Public functions that no stage runs, each kept for a named reader.
ALLOWED = {
    # The scorers that README names as library API under "Evaluation protocols".
    "metrics.rouge_n", "metrics.rouge_l", "metrics.extractive_fragments",
    "metrics.novel_ngram_pct",
    # The sample pipeline's stage list, read by the goldens script, CI and tests.
    "demo.sample_pipeline_argv",
    # Until ROADMAP item 2 replaces the tracer: the names bench/run.py's
    # instrument wraps, and pair_to_obj, which save_pairs calls.
    "dedup.dialogue_shingles", "dedup.dedup_corpus", "dedup.remove_eval_overlap",
    "dedup.filter_min_size",
    "noising.serialize_dialogue", "noising.noise_dialogue",
    "noising.make_task_oriented_pair", "noising.mixed_pair", "noising.save_pairs",
    "noising.pair_to_obj",
}


def _public_functions() -> dict[str, object]:
    """Each public top-level function of the package, by ``module.name``."""
    found = {}
    for info in pkgutil.iter_modules(dialoprep.__path__):
        module = importlib.import_module(f"dialoprep.{info.name}")
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = value.__code__
    return found


def _codes(code) -> set:
    """``code`` and the code of every function defined inside it."""
    nested = [c for c in code.co_consts if inspect.iscode(c)]
    return {code}.union(*map(_codes, nested))


def _endpoint():
    """A loopback chat endpoint that answers 503 once, then 200 to each request."""
    replies = [503]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            status = replies.pop() if replies else 200
            body = {"choices": [{"message": {"role": "assistant", "content": "they talk"}}]}
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):
            pass

    return ThreadingHTTPServer(("127.0.0.1", 0), Handler)


def _run_stages(tmp: Path, url: str, sample_argv: list[list[str]]) -> None:
    """Each stage over the sample data: the sample pipeline's ``sample_argv``,
    then every mode it leaves out, and one run that fails on a bad record."""
    def run(*argv, code=0):
        assert main([str(arg) for arg in argv]) == code, argv

    golden = SAMPLE / "golden"
    for argv in sample_argv:
        run(*argv)
    (tmp / "eval.dlg").write_text("".join(
        (golden / "corpus.dlg").read_text(encoding="utf-8").splitlines(True)[:12]),
        encoding="utf-8")
    run("clean", "--in", golden / "corpus.dlg", "--eval-set", tmp / "eval.dlg",
        "--out", tmp / "ev.dlg", "--report", tmp / "ev.rem")
    (tmp / "two.txt").write_text("Ann\nBo\n", encoding="utf-8")
    (tmp / "swap.json").write_text(json.dumps({"Ann": "Bo", "Bo": "Ann"}), encoding="utf-8")
    run("roles", "--in", golden / "cleaned.dlg", "--out", tmp / "two.dlg", "--seed", 3442,
        "--names", tmp / "two.txt")
    run("annotate", "--in", tmp / "two.dlg", "--out", tmp / "two.plx", "--mock", "digest:12")
    run("augment", "--in", tmp / "two.plx", "--map", tmp / "swap.json",
        "--out", tmp / "swapped.plx")
    (tmp / "all.json").write_text(json.dumps({"weights": {t: 1 for t in ALL_TASKS}}),
                                  encoding="utf-8")
    run("noise", "--in", golden / "annotated.plx", "--out", tmp / "all.jsonl",
        "--count", 300, "--seed", 3442, "--mix", tmp / "all.json")
    refs = SAMPLE / "eval_references.jsonl"
    for candidates, mode in [(SAMPLE / "eval_candidates.jsonl", ["--max-length", 8]),
                             (SAMPLE / "eval_candidates.jsonl", ["--multi-ref"]),
                             (golden / "named.dlg", ["--select-train-ref"])]:
        run("eval", "--candidates", candidates, "--references", refs,
            "--out", tmp / f"eval{len(mode)}{mode[0]}.json", *mode)
    (tmp / "one.dlg").write_text(
        (golden / "named.dlg").read_text(encoding="utf-8").splitlines(True)[0],
        encoding="utf-8")
    run("annotate", "--in", tmp / "one.dlg", "--out", tmp / "live.plx", "--endpoint", url,
        "--base-backoff", 0)
    assert json.loads((tmp / "live.plx").read_text(encoding="utf-8"))["summaries"] == [
        {"text": "they talk", "origin": "annotated"}]
    (tmp / "bad.dlg").write_text(
        '{"schema_version": 1, "id": "x", "source_dataset": "u", "roles": ["A", "B"], '
        '"turns": [{"role_index": 0, "text": "two  spaces"}]}\n', encoding="utf-8")
    run("clean", "--in", tmp / "bad.dlg", "--out", tmp / "bad.out", code=1)


def test_every_public_function_is_run_by_a_stage(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    sample_argv = demo.sample_pipeline_argv(SAMPLE / "raw_sample.jsonl",
                                            SAMPLE / "ingest_spec.json", tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    httpd = _endpoint()
    server = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    server.start()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        _run_stages(tmp_path, f"http://127.0.0.1:{httpd.server_port}/", sample_argv)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        httpd.shutdown()
        httpd.server_close()
    capsys.readouterr()

    functions = _public_functions()
    unreached = {name for name, code in functions.items() if not _codes(code) & entered}
    assert ALLOWED <= set(functions), "an allowlisted function is gone"
    assert unreached - ALLOWED == set(), "public functions that no stage runs"
    assert ALLOWED - unreached == set(), "allowlisted functions that a stage runs"
