"""Summarization prompts and the batch annotation client.

A prompt template is one of three names, ``preceding``, ``instruct`` and
``subsequent``; the instruct variant (``Tl;dr:`` after the dialogue) is the
default because it scores best in zero-shot use. The batch client POSTs a
chat-completion body, respects a request budget, bounds in-flight
concurrency, and appends every success to the output file as it lands so an
interrupted run resumes by skipping already-annotated ids. Failures are
reported, never silently dropped.

The retry rule is fixed: statuses 429, 500, 502, 503 and 504 are retried, and
so is -1 (a refused connection or a timeout). Retry number ``k`` waits
``base_backoff * 2 ** (k - 1)`` seconds, for up to ``max_attempts`` tries in
all; :class:`RetryPolicy` holds those two values.

The API key is read from the ``LLM_API_KEY`` environment variable and is
never written to config files, reports, or logs.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence
from urllib.parse import urlsplit

from . import jsonl
from .errors import BudgetExhaustedError, EndpointError, PipelineError
from .records import (
    Dialogue,
    SummaryRecord,
    iter_corpus,
    load_corpus,  # unused here: bench/run.py --trace 1 wraps annotate.load_corpus
    record_line,
    render_dialogue_text,
    validated,
)

API_KEY_ENV = "LLM_API_KEY"

#: Each prompt template's name, and the text before and after the rendered dialogue.
TEMPLATES = {
    "preceding": ("Summarize the following dialogue into a short summary:\n\n", ""),
    "instruct": ("", "\nTl;dr:"),
    "subsequent": ("", "\nSummarize the above dialogue into a short summary:"),
}


def build_prompt(d: Dialogue, template: str = "instruct") -> str:
    """Compose the annotation prompt for one dialogue. Byte-deterministic."""
    before, after = TEMPLATES[template]
    return f"{before}{render_dialogue_text(d)}{after}"


RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})  # and -1: no reply at all
BACKOFF_MULTIPLIER = 2.0


@validated
class RetryPolicy(NamedTuple):
    max_attempts: int = 3
    base_backoff: float = 1.0

    def _check(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (math.isfinite(self.base_backoff) and self.base_backoff >= 0):
            raise ValueError("base_backoff must be a finite number >= 0")

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return self.base_backoff * BACKOFF_MULTIPLIER ** (attempt - 1)


@validated
class AnnotationJob(NamedTuple):
    model: str
    temperature: float = 0.0
    template: str = "instruct"  # a name in TEMPLATES
    max_in_flight: int = 1
    budget: int | None = None  # max requests for this run, retries included

    def _check(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a finite number >= 0")
        if self.template not in TEMPLATES:
            raise ValueError(f"template must be one of {', '.join(TEMPLATES)}, "
                             f"not {self.template!r}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0")


class AnnotationEndpoint(Protocol):
    """Anything that can answer a chat-completion request."""

    def complete(self, payload: dict) -> tuple[int, dict | str]:
        """Return (status code, parsed response body or raw text)."""
        ...


class HttpEndpoint:
    """Live chat-completion-compatible endpoint.

    Every HTTP status comes back as ``(status, body)``; a refused connection
    or a timeout raises. HTTPS checks certificates against the system trust
    store (``ssl``'s default context).
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {base_url!r} is not an http or https URL")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def complete(self, payload: dict) -> tuple[int, dict | str]:
        # Imported here: the HTTP stack (http.client, email, ssl) would add to
        # the cold start of every stage, and only this endpoint sends anything.
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(f"{self.base_url}/chat/completions",
                                         data=jsonl.encode(payload), headers=headers,
                                         method="POST")
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:  # a 4xx or 5xx reply is still a reply
            response = exc
        with response:
            charset = response.headers.get_content_charset() or "utf-8"
            text = response.read().decode(charset, errors="replace")
        try:
            return response.status, jsonl.decode(text)
        except ValueError:
            return response.status, text


class MockEndpoint:
    """Offline endpoint for tests and the demo pipeline.

    ``fixed:<text>`` answers every request with the same summary;
    ``head:<k>`` echoes the first k whitespace tokens of the prompt;
    ``digest:<k>`` writes a fixed preamble plus k evenly spaced prompt tokens,
    a cheap stand-in for an abstractive summarizer. k is an integer >= 1.
    """

    def __init__(self, behavior: str):
        kind, colon, arg = behavior.partition(":")
        if kind in ("head", "digest") and arg.isdecimal() and int(arg) >= 1:
            self._k = int(arg)
        elif kind != "fixed" or not colon:
            raise ValueError(f"mock behavior {behavior!r} is not fixed:<text>, head:<k> "
                             "or digest:<k> with an integer k >= 1")
        self._kind, self._text = kind, arg
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, payload: dict) -> tuple[int, dict]:
        with self._lock:
            self.calls += 1
        words = payload["messages"][0]["content"].split()
        if self._kind == "fixed":
            text = self._text
        elif self._kind == "head":
            text = " ".join(words[:self._k])
        else:
            step = max(1, len(words) // self._k)
            picked = [words[i] for i in range(0, len(words), step)][:self._k]
            text = "overall they discuss " + " ".join(picked)
        return 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}


class AnnotationReport:
    """What one batch did with each dialogue, filled in as results land."""

    def __init__(self):
        self.completed: list[str] = []
        self.skipped_existing: list[str] = []
        self.failures: list[dict] = []
        self.retries: dict[str, int] = {}
        self.not_attempted: list[str] = []


def _extract_summary(body: dict | str) -> str:
    if isinstance(body, dict):
        try:
            return body["choices"][0]["message"]["content"].strip()
        except (KeyError, IndexError, TypeError, AttributeError):
            pass
    raise EndpointError(200, f"unexpected response body: {str(body)[:200]}")


def _annotate_one(d: Dialogue, job: AnnotationJob, endpoint: AnnotationEndpoint,
                  policy: RetryPolicy, budget: threading.Semaphore | None,
                  sleep: Callable[[float], None]) -> tuple[str, int]:
    """Annotate one dialogue with retries. Returns (summary, retry count).

    Raises EndpointError after exhausting attempts and BudgetExhaustedError
    when no request allowance remains in ``budget`` (None: unlimited).
    """
    prompt = build_prompt(d, job.template)
    payload = {
        "model": job.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": job.temperature,
    }
    last_status, last_body = 0, ""
    for attempt in range(1, policy.max_attempts + 1):
        if budget is not None and not budget.acquire(blocking=False):
            raise BudgetExhaustedError(d.id)
        try:
            status, body = endpoint.complete(payload)
        except Exception as exc:  # network timeouts etc. are retryable
            status, body = -1, repr(exc)
        if status == 200:
            summary = _extract_summary(body)
            if not summary:  # a well-formed reply that says nothing: not retried
                raise EndpointError(status, "empty_summary")
            return summary, attempt - 1
        last_status, last_body = status, body
        retryable = status == -1 or status in RETRYABLE_STATUSES
        if not retryable or attempt == policy.max_attempts:
            break
        sleep(policy.backoff(attempt))
    raise EndpointError(last_status, str(last_body)[:200])


def _drop_torn_tail(out_path: str | Path) -> None:
    """Cut an unterminated last line off the output and say so on stderr."""
    if not Path(out_path).exists():
        return
    with open(out_path, "r+b") as fh:
        kept = sum(len(raw) for raw in fh if raw.endswith(b"\n"))
        size = fh.tell()
        if kept < size:
            fh.truncate(kept)
            print(f"annotate: dropped {size - kept} bytes of a torn last line", file=sys.stderr)


def existing_annotated_ids(out_path: str | Path) -> set[str]:
    """Dialogue ids already present in an annotation output file, every
    record of which must have summaries."""
    done: set[str] = set()
    if not Path(out_path).exists():
        return done
    for ex in iter_corpus(out_path):
        if not ex.summaries:
            raise PipelineError(f"{out_path}: dialogue {ex.id!r} has no summary")
        done.add(ex.id)
    return done


def annotate_batch(dialogues: Sequence[Dialogue], job: AnnotationJob,
                   endpoint: AnnotationEndpoint, out_path: str | Path,
                   policy: RetryPolicy | None = None,
                   sleep: Callable[[float], None] = time.sleep) -> AnnotationReport:
    """Annotate a batch, appending each success to ``out_path`` immediately.

    Reruns skip ids already present in the output file, so partial runs are
    resumable. Each record is written whole with its newline, so a run killed
    mid-write can leave only the last line unterminated: it is cut off first,
    with a note on stderr, and its dialogue annotated again. At most
    ``job.max_in_flight`` requests are submitted and not yet consumed: the
    next is submitted as the writer takes the oldest result, so
    memory stays bounded for any batch size. The output file has a single
    writer, which consumes results in input order.
    """
    # Imported here: concurrent.futures brings logging and traceback into the
    # cold start of every process that imports this module.
    from concurrent.futures import Future, ThreadPoolExecutor

    policy = policy or RetryPolicy()
    report = AnnotationReport()
    _drop_torn_tail(out_path)
    done = existing_annotated_ids(out_path)
    pending: list[Dialogue] = []
    for d in dialogues:
        if d.id in done:
            report.skipped_existing.append(d.id)
        else:
            pending.append(d)

    budget = None if job.budget is None else threading.Semaphore(job.budget)
    workers = max(1, min(job.max_in_flight, len(pending)))
    queue = iter(pending)
    in_flight: deque[tuple[Dialogue, Future]] = deque()

    def submit_next() -> None:
        d = next(queue, None)
        if d is not None:
            in_flight.append((d, pool.submit(_annotate_one, d, job, endpoint,
                                              policy, budget, sleep)))

    with open(out_path, "a", encoding="utf-8") as out, \
            ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in range(workers):
            submit_next()
        while in_flight:
            d, future = in_flight.popleft()
            try:
                summary, retry_count = future.result()
            except BudgetExhaustedError:
                report.not_attempted.append(d.id)
                continue
            except EndpointError as exc:
                report.failures.append({
                    "dialogue_id": d.id,
                    "status": exc.status,
                    "reason": exc.body_excerpt,
                })
                continue
            finally:
                submit_next()
            if retry_count:
                report.retries[d.id] = retry_count
            out.write(record_line(d._replace(
                summaries=(SummaryRecord(text=summary, origin="annotated"),))))
            out.flush()
            report.completed.append(d.id)
    return report


def save_failure_report(report: AnnotationReport, path: str | Path) -> None:
    """Write the failure side of a run as line-delimited records."""
    jsonl.write_lines(path, map(jsonl.line, [
        *({"kind": "failure", **failure} for failure in report.failures),
        *({"kind": "budget_exhausted", "dialogue_id": dialogue_id}
          for dialogue_id in report.not_attempted)]))
