"""The live annotation endpoint against a loopback HTTP server."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from dialoprep.annotate import (
    API_KEY_ENV,
    AnnotationJob,
    HttpEndpoint,
    RetryPolicy,
    annotate_batch,
    build_prompt,
)
from dialoprep.records import Dialogue, Turn, load_corpus

JOB = AnnotationJob(model="test-model")
DIALOGUE = Dialogue(id="h1", source_dataset="u", roles=("Zoë", "Ben"),
                    turns=(Turn(0, "café at noon?"), Turn(1, "yes, see you")))
STALL = None  # a scripted reply that never answers


def _chat(text: str) -> tuple[int, str, str]:
    body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    return 200, "application/json", json.dumps(body, ensure_ascii=False)


@pytest.fixture(autouse=True)
def _bypass_proxy(monkeypatch):
    """A proxy set in the environment is not used for the loopback address."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")


@pytest.fixture
def server():
    """A loopback server answering each POST with the next scripted reply.

    Replies are (status, content type, body) tuples or STALL; every request
    is kept as (method, path, headers, raw body).
    """
    replies: list = []
    received: list = []
    release = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            received.append(SimpleNamespace(method=self.command, path=self.path,
                                            headers=self.headers, body=body))
            reply = replies.pop(0)
            if reply is STALL:
                release.wait(5)
                return
            status, content_type, text = reply
            data = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield SimpleNamespace(url=f"http://127.0.0.1:{httpd.server_port}/",
                              replies=replies, received=received)
    finally:
        release.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join()


def _run(url, out, policy=None, timeout=60.0):
    sleeps: list[float] = []
    report = annotate_batch([DIALOGUE], JOB, HttpEndpoint(url, timeout=timeout), out,
                            policy or RetryPolicy(), sleep=sleeps.append)
    return report, sleeps


def test_200_chat_completion_is_written_as_summary(server, tmp_path, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    server.replies.append(_chat("  they meet at the café ✓ "))
    out = tmp_path / "out.plx"
    report, sleeps = _run(server.url, out)
    assert report.completed == ["h1"] and report.failures == [] and sleeps == []
    [example] = load_corpus(out)
    assert example._replace(summaries=()) == DIALOGUE
    assert example.summaries[0].text == "they meet at the café ✓"
    [request] = server.received
    assert (request.method, request.path) == ("POST", "/chat/completions")
    assert request.headers["Content-Type"] == "application/json"
    payload = {"model": "test-model",
               "messages": [{"role": "user", "content": build_prompt(DIALOGUE)}],
               "temperature": 0.0}
    assert request.body == json.dumps(payload).encode("ascii")


def test_503_then_200_is_retried_once(server, tmp_path):
    server.replies += [(503, "text/plain", "busy"), _chat("they agree")]
    out = tmp_path / "out.plx"
    report, sleeps = _run(server.url, out)
    assert report.completed == ["h1"] and report.failures == []
    assert report.retries == {"h1": 1}
    assert sleeps == [1.0]
    assert len(server.received) == 2
    assert load_corpus(out)[0].summaries[0].text == "they agree"


@pytest.mark.parametrize("content_type, body, reason", [
    ("text/plain", "bad request: unknown model", "bad request: unknown model"),
    ("application/json", '{"error": {"message": "unknown model"}}',
     "{'error': {'message': 'unknown model'}}"),
], ids=["text", "json"])
def test_400_is_a_failure_with_status_and_body_excerpt(server, tmp_path, content_type,
                                                        body, reason):
    server.replies.append((400, content_type, body))
    out = tmp_path / "out.plx"
    report, sleeps = _run(server.url, out)
    assert report.completed == [] and sleeps == []
    assert report.failures == [{"dialogue_id": "h1", "status": 400, "reason": reason}]
    assert len(server.received) == 1
    assert out.read_bytes() == b""


@pytest.mark.parametrize("key, header", [
    ("sk-loopback", "Bearer sk-loopback"),
    ("", None),
    (None, None),
], ids=["set", "empty", "unset"])
def test_authorization_header_only_when_key_is_set(server, tmp_path, monkeypatch,
                                                   key, header):
    if key is None:
        monkeypatch.delenv(API_KEY_ENV, raising=False)
    else:
        monkeypatch.setenv(API_KEY_ENV, key)
    server.replies.append(_chat("fine"))
    report, _ = _run(server.url, tmp_path / "out.plx")
    assert report.completed == ["h1"]
    assert server.received[0].headers.get("Authorization") == header


def test_closed_port_fails_with_status_minus_1_after_max_attempts(tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    out = tmp_path / "out.plx"
    report, sleeps = _run(f"http://127.0.0.1:{port}", out)
    assert report.completed == []
    [failure] = report.failures
    assert (failure["dialogue_id"], failure["status"]) == ("h1", -1)
    assert sleeps == [1.0, 2.0]
    assert out.read_bytes() == b""


def test_timeout_fails_with_status_minus_1(server, tmp_path):
    server.replies.append(STALL)
    report, sleeps = _run(server.url, tmp_path / "out.plx",
                          RetryPolicy(max_attempts=1), timeout=0.2)
    assert report.completed == [] and sleeps == []
    assert [(f["dialogue_id"], f["status"]) for f in report.failures] == [("h1", -1)]


def test_default_timeout_and_base_url():
    endpoint = HttpEndpoint("https://api.example.invalid/v1/")
    assert endpoint.timeout == 60.0
    assert endpoint.base_url == "https://api.example.invalid/v1"
