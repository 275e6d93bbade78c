from __future__ import annotations

import contextlib
import io
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoprep.annotate import (
    TEMPLATES,
    AnnotationJob,
    MockEndpoint,
    RetryPolicy,
    annotate_batch,
    build_prompt,
    existing_annotated_ids,
    save_failure_report,
)
from dialoprep import jsonl
from dialoprep.records import (
    Dialogue,
    SummaryRecord,
    Turn,
    load_corpus,
    render_dialogue_text,
)

from conftest import make_dialogue, record_to_obj


def _dlg():
    return Dialogue(id="p1", source_dataset="u", roles=("Danny", "Alejandra"),
                    turns=(Turn(0, "hi"), Turn(1, "hello")))


def test_render_single_turn():
    d = Dialogue(id="x", source_dataset="u", roles=("Danny",), turns=(Turn(0, "hi"),))
    assert render_dialogue_text(d) == "Danny: hi"


def test_render_two_turns_in_order():
    assert render_dialogue_text(_dlg()) == "Danny: hi\nAlejandra: hello"


def test_render_deterministic():
    assert render_dialogue_text(_dlg()) == render_dialogue_text(_dlg())


def test_prompt_instruct_ends_with_tldr():
    prompt = build_prompt(_dlg(), "instruct")
    assert prompt.endswith("Tl;dr:")
    assert prompt == "Danny: hi\nAlejandra: hello\nTl;dr:"


def test_prompt_preceding():
    prompt = build_prompt(_dlg(), "preceding")
    assert prompt.startswith("Summarize the following dialogue into a short summary:")
    assert prompt == ("Summarize the following dialogue into a short summary:"
                      "\n\nDanny: hi\nAlejandra: hello")


def test_prompt_subsequent():
    prompt = build_prompt(_dlg(), "subsequent")
    assert prompt.endswith("Summarize the above dialogue into a short summary:")
    assert prompt == ("Danny: hi\nAlejandra: hello\n"
                      "Summarize the above dialogue into a short summary:")


def test_prompt_default_is_instruct():
    assert build_prompt(_dlg()) == build_prompt(_dlg(), "instruct")


def test_each_template_name_gives_its_documented_layout():
    # README: preceding puts its sentence and a blank line before the
    # dialogue; instruct and subsequent append their line after it.
    dialogue = render_dialogue_text(_dlg())
    assert {name: build_prompt(_dlg(), name) for name in TEMPLATES} == {
        "preceding": f"Summarize the following dialogue into a short summary:\n\n{dialogue}",
        "instruct": f"{dialogue}\nTl;dr:",
        "subsequent": f"{dialogue}\nSummarize the above dialogue into a short summary:",
    }


def test_job_refuses_a_template_that_is_not_a_name():
    with pytest.raises(ValueError, match="template must be one of"):
        AnnotationJob(model="m", template="bogus")
    with pytest.raises(ValueError):
        AnnotationJob(model="m")._replace(template="Instruct")


JOB = AnnotationJob(model="test-model")
NO_BACKOFF = RetryPolicy(max_attempts=3, base_backoff=0.0)


def test_mock_fixed_batch(tmp_path):
    rng = random.Random(1)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(4)]
    out = tmp_path / "out.plx"
    report = annotate_batch(dialogues, JOB, MockEndpoint("fixed:summary."), out, NO_BACKOFF)
    assert report.completed == [d.id for d in dialogues]
    assert report.failures == []
    examples = load_corpus(out)
    assert len(examples) == 4
    for ex in examples:
        assert ex.summaries[0].text == "summary."
        assert ex.summaries[0].origin == "annotated"


def test_appended_line_is_the_encoded_record(tmp_path):
    dialogues = [Dialogue(id='q"1\\', source_dataset="ü\u2028", roles=("Zoë", "😀 B"),
                          turns=(Turn(0, 'say "hi" \\ \x01'), Turn(1, "日本\u2028語"))),
                 _dlg()]
    summary = 'She said "ok" \\ \U0001f600 \u2028 é'
    out = tmp_path / "out.plx"
    out.write_text("")
    annotate_batch(dialogues, JOB, MockEndpoint(f"fixed:{summary}"), out, NO_BACKOFF)
    expected = "".join(
        jsonl.line(record_to_obj(d._replace(summaries=(SummaryRecord(summary, "annotated"),))))
        for d in dialogues)
    assert out.read_bytes() == expected.encode("utf-8")


def test_mock_head_echoes_prompt(tmp_path):
    out = tmp_path / "out.plx"
    annotate_batch([_dlg()], JOB, MockEndpoint("head:3"), out, NO_BACKOFF)
    ex = load_corpus(out)[0]
    assert ex.summaries[0].text == "Danny: hi Alejandra:"


class ScriptedEndpoint:
    """Returns a fixed per-call sequence of (status, body)."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def complete(self, payload):
        response = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        return response


def _ok(text="fine."):
    return 200, {"choices": [{"message": {"content": text}}]}


def test_retry_429_then_200(tmp_path):
    endpoint = ScriptedEndpoint([(429, "slow down"), _ok()])
    out = tmp_path / "out.plx"
    report = annotate_batch([_dlg()], JOB, endpoint, out, NO_BACKOFF)
    assert report.completed == ["p1"]
    assert report.retries == {"p1": 1}
    assert endpoint.calls == 2


def test_non_retryable_status_fails_immediately(tmp_path):
    endpoint = ScriptedEndpoint([(400, "bad request"), _ok()])
    out = tmp_path / "out.plx"
    report = annotate_batch([_dlg()], JOB, endpoint, out, NO_BACKOFF)
    assert report.completed == []
    assert endpoint.calls == 1
    assert report.failures[0]["status"] == 400


def test_retries_exhausted_reported(tmp_path):
    endpoint = ScriptedEndpoint([(503, "down")])
    out = tmp_path / "out.plx"
    report = annotate_batch([_dlg()], JOB, endpoint, out, NO_BACKOFF)
    assert report.failures[0]["dialogue_id"] == "p1"
    assert report.failures[0]["status"] == 503
    assert endpoint.calls == 3  # max_attempts


def test_backoff_schedule():
    policy = RetryPolicy(max_attempts=4, base_backoff=0.5)
    assert policy.backoff(1) == 0.5
    assert policy.backoff(2) == 1.0
    assert policy.backoff(3) == 2.0


def test_backoff_sleep_injected(tmp_path):
    delays = []
    endpoint = ScriptedEndpoint([(429, "x"), (429, "x"), _ok()])
    policy = RetryPolicy(max_attempts=3, base_backoff=0.25)
    annotate_batch([_dlg()], JOB, endpoint, tmp_path / "o.plx", policy,
                   sleep=delays.append)
    assert delays == [0.25, 0.5]


def test_budget_two_of_five(tmp_path):
    rng = random.Random(2)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(5)]
    job = AnnotationJob(model="m", budget=2)
    out = tmp_path / "out.plx"
    report = annotate_batch(dialogues, job, MockEndpoint("fixed:s."), out, NO_BACKOFF)
    assert len(report.completed) == 2
    assert report.not_attempted
    assert len(report.not_attempted) == 3
    # resumable: a second run with fresh budget picks up the rest
    report2 = annotate_batch(dialogues, AnnotationJob(model="m"),
                             MockEndpoint("fixed:s."), out, NO_BACKOFF)
    assert sorted(report2.skipped_existing) == sorted(report.completed)
    assert len(report2.completed) == 3
    assert len(load_corpus(out)) == 5


def test_budget_is_spent_exactly_by_many_workers(tmp_path):
    # More workers than cores, switching threads as often as the interpreter
    # allows: a lost update to the budget would let a request too many through.
    rng = random.Random(8)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(64)]
    endpoint = MockEndpoint("fixed:s.")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = annotate_batch(dialogues, AnnotationJob(model="m", max_in_flight=16, budget=20),
                                endpoint, tmp_path / "out.plx", NO_BACKOFF)
    finally:
        sys.setswitchinterval(interval)
    assert endpoint.calls == len(report.completed) == 20
    assert len(report.not_attempted) == 44


def test_resume_skips_completed(tmp_path):
    rng = random.Random(3)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(6)]
    out = tmp_path / "out.plx"
    first = MockEndpoint("fixed:one.")
    annotate_batch(dialogues[:3], JOB, first, out, NO_BACKOFF)
    assert first.calls == 3
    counting = MockEndpoint("fixed:two.")
    report = annotate_batch(dialogues, JOB, counting, out, NO_BACKOFF)
    # never re-requests the 3 completed ids
    assert counting.calls == 3
    assert sorted(report.skipped_existing) == sorted(d.id for d in dialogues[:3])
    assert existing_annotated_ids(out) == {d.id for d in dialogues}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resume_after_torn_output_matches_one_shot(tmp_path_factory, data):
    rng = random.Random(11)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(8)]
    work = tmp_path_factory.mktemp("torn")
    one_shot, resumed = work / "one_shot.plx", work / "resumed.plx"
    annotate_batch(dialogues, JOB, MockEndpoint("digest:12"), one_shot, NO_BACKOFF)
    annotate_batch(dialogues, JOB._replace(budget=5),
                   MockEndpoint("digest:12"), resumed, NO_BACKOFF)
    written = resumed.read_bytes()
    cut = data.draw(st.integers(0, len(written)), label="cut")
    resumed.write_bytes(written[:cut])
    dropped = cut - (written.rfind(b"\n", 0, cut) + 1)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        annotate_batch(dialogues, JOB, MockEndpoint("digest:12"), resumed, NO_BACKOFF)
    assert resumed.read_bytes() == one_shot.read_bytes()
    if dropped:
        assert f"dropped {dropped} bytes" in err.getvalue()
    else:
        assert err.getvalue() == ""


class GatingEndpoint:
    """Tracks the peak number of concurrent in-flight requests."""

    def __init__(self):
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def complete(self, payload):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.02)
        with self._lock:
            self.active -= 1
        return _ok()


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_in_flight_bound_respected(tmp_path, bound):
    rng = random.Random(4)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(8)]
    endpoint = GatingEndpoint()
    job = AnnotationJob(model="m", max_in_flight=bound)
    report = annotate_batch(dialogues, job, endpoint, tmp_path / "o.plx", NO_BACKOFF)
    assert len(report.completed) == 8
    assert endpoint.peak <= bound


@pytest.mark.parametrize("bound", [1, 3])
def test_submitted_work_bounded_by_in_flight(tmp_path, monkeypatch, bound):
    import concurrent.futures

    lock = threading.Lock()
    unconsumed = [0]
    peak = [0]

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        """Counts futures submitted and not yet read by the writer."""

        def submit(self, fn, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            with lock:
                unconsumed[0] += 1
                peak[0] = max(peak[0], unconsumed[0])
            read = future.result

            def result(timeout=None):
                try:
                    return read(timeout)
                finally:
                    with lock:
                        unconsumed[0] -= 1

            future.result = result
            return future

    # annotate_batch imports the pool class from its module when it runs.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    rng = random.Random(5)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(12)]
    job = AnnotationJob(model="m", max_in_flight=bound, budget=9)
    out = tmp_path / "o.plx"
    report = annotate_batch(dialogues, job, GatingEndpoint(), out, NO_BACKOFF)
    assert peak[0] <= bound
    assert unconsumed[0] == 0
    ids = [d.id for d in dialogues]
    assert sorted(report.completed + report.not_attempted) == sorted(ids)
    assert report.completed == [i for i in ids if i in report.completed]  # input order
    assert [ex.id for ex in load_corpus(out)] == report.completed
    if bound == 1:  # one request at a time: the budget covers a prefix
        assert report.completed == ids[:9]


def test_in_flight_bound_above_the_batch_starts_one_worker_per_dialogue(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    dialogue = make_dialogue(random.Random(6), "d0")
    outputs = []
    for bound in (1, 10**8):
        out = tmp_path / f"o{bound}.plx"
        started = time.perf_counter()
        report = annotate_batch([dialogue], AnnotationJob(model="m", max_in_flight=bound),
                                MockEndpoint("digest:5"), out, NO_BACKOFF)
        assert time.perf_counter() - started < 2  # 10**8 idle submissions take seconds
        assert report.completed == ["d0"]
        outputs.append(out.read_bytes())
    assert sizes == [1, 1]
    assert outputs[0] == outputs[1]
    # Every dialogue already annotated: nothing is pending, and one worker idles.
    report = annotate_batch([dialogue], AnnotationJob(model="m", max_in_flight=10**8),
                            MockEndpoint("digest:5"), out, NO_BACKOFF)
    assert report.skipped_existing == ["d0"] and sizes[-1] == 1


def test_whitespace_summary_is_a_failure(tmp_path):
    rng = random.Random(6)
    dialogues = [make_dialogue(rng, f"d{i}") for i in range(3)]
    endpoint = MockEndpoint("fixed:   ")
    out = tmp_path / "out.plx"
    report = annotate_batch(dialogues, JOB, endpoint, out, NO_BACKOFF)
    assert endpoint.calls == 3  # not retried
    assert report.completed == []
    assert report.failures == [{"dialogue_id": d.id, "status": 200, "reason": "empty_summary"}
                               for d in dialogues]
    assert out.read_text() == ""
    # a rerun retries the failed ids and resumes cleanly
    report2 = annotate_batch(dialogues, JOB, MockEndpoint("fixed:ok."), out, NO_BACKOFF)
    assert report2.completed == [d.id for d in dialogues]


def test_failure_report_file(tmp_path):
    import json

    endpoint = ScriptedEndpoint([(500, "boom")])
    out = tmp_path / "out.plx"
    report = annotate_batch([_dlg()], AnnotationJob(model="m", budget=1),
                            endpoint, out, RetryPolicy(max_attempts=1))
    path = tmp_path / "failures.jsonl"
    save_failure_report(report, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["kind"] == "failure"
    assert lines[0]["dialogue_id"] == "p1"


@pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
def test_job_rejects_bad_temperature(value):
    with pytest.raises(ValueError, match="temperature"):
        AnnotationJob(model="m", temperature=value)


@pytest.mark.parametrize("field, value", [
    ("base_backoff", -1.0), ("base_backoff", float("nan")), ("base_backoff", float("inf")),
])
def test_retry_policy_rejects_bad_backoff(field, value):
    with pytest.raises(ValueError, match=field):
        RetryPolicy(**{field: value})


def test_job_validation():
    with pytest.raises(ValueError):
        AnnotationJob(model="m", max_in_flight=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
