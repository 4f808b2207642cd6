"""The live backend end to end, offline: the real `urllib` transport through
`live_call`, and `maas train` / `maas eval --env live`, against a chat
server on 127.0.0.1.

The server is one `http.server.HTTPServer` on port 0, served by one daemon
thread. Each test scripts the one reply it gives to every request. Retries
sleep through a recording `sleep`, so nothing here sleeps for real.
"""

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from click.testing import CliRunner

from maas.cli import main
from maas.errors import BackendError
from maas.executor import live_call
from maas.optimizer import MUTATOR_PROMPT
from tests.helpers import train_args

REPLY = {"choices": [{"message": {"content": "42"}}],
         "usage": {"prompt_tokens": 3, "completion_tokens": 2}}
HTML = b"<html><body><h1>Unauthorized</h1></body></html>"
PATCH = '{"target_id": "cot", "new_temperature": 0.5}'


class ChatHandler(BaseHTTPRequestHandler):
    """Records each request and answers it with the server's `reply`:
    (status, content type, body bytes, extra Content-Length bytes)."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, dict(self.headers), json.loads(body)))
        status, content_type, data, missing = self.server.reply
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data) + missing))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def json_reply(status, body):
    return status, "application/json", json.dumps(body).encode(), 0


@pytest.fixture
def server(monkeypatch):
    """A chat server that answers every request with `REPLY`, and
    `MAAS_BASE_URL` pointing at it."""
    httpd = HTTPServer(("127.0.0.1", 0), ChatHandler)
    httpd.reply, httpd.seen = json_reply(200, REPLY), []
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    httpd.url = f"http://127.0.0.1:{httpd.server_address[1]}"
    monkeypatch.setenv("MAAS_BASE_URL", httpd.url)
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


def call(base_url):
    """`live_call` through the real transport; returns (content or the
    error's text, the sleeps it asked for)."""
    slept = []
    try:
        content, _, _ = live_call("default", 1.0, "p", base_url, "k", sleep=slept.append)
    except BackendError as exc:
        return str(exc), slept
    return content, slept


@pytest.mark.parametrize("reply,calls,outcome", [
    (json_reply(200, REPLY), 1, "^42$"),
    (json_reply(400, {"error": {"message": "bad request"}}), 1,
     "^chat endpoint returned 400$"),
    ((401, "text/html", HTML, 0), 1, "^chat endpoint returned 401$"),
    (json_reply(429, {"error": "slow down"}), 3,
     "^chat endpoint failed after 3 attempts: chat endpoint returned 429$"),
    ((503, "text/html", HTML, 0), 3,
     "^chat endpoint failed after 3 attempts: chat endpoint returned 503$"),
    ((200, "text/html", HTML, 0), 1,
     "^chat endpoint returned 200 with a body that is not JSON$"),
    ((200, "application/json", b"[" * 100_000, 0), 1,
     "^chat endpoint returned 200 with a body that is not JSON$"),
    ((200, "application/json", json.dumps(REPLY).encode(), 100), 3,
     "^chat endpoint failed after 3 attempts: IncompleteRead"),
], ids=["ok", "400_json", "401_html", "429", "503_html", "200_not_json",
        "200_nested_too_deep", "short_body"])
def test_each_reply_is_judged_by_its_status_first(server, reply, calls, outcome):
    server.reply = reply
    text, slept = call(server.url)
    assert len(server.seen) == calls
    assert slept == [1.0, 2.0][:calls - 1]
    assert re.match(outcome, text), text


def test_a_closed_port_is_retried():
    text, slept = call(closed_port_url())
    assert slept == [1.0, 2.0]
    assert text.startswith("chat endpoint failed after 3 attempts: <urlopen error")


def test_a_url_without_a_scheme_fails_at_once():
    """urllib cannot build the request, so nothing is sent."""
    text, slept = call("example.invalid")
    assert slept == []
    assert text.startswith("cannot send the chat request: unknown url type")


def test_request_is_a_json_post_with_the_bearer_key(server):
    content, _, _ = live_call("small", 0.25, "rendered", server.url, "secret",
                              sleep=pytest.fail)
    assert content == "42"
    [(path, headers, payload)] = server.seen
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    assert payload == {"model": "small", "temperature": 0.25,
                       "messages": [{"role": "user", "content": "rendered"}]}


class TestCommands:
    def test_train_live_with_the_llm_mutator(self, server, workdir):
        server.reply = json_reply(200, {**REPLY, "choices": [
            {"message": {"content": PATCH}}]})
        result = CliRunner().invoke(main, train_args(workdir, [
            "--env", "live", "--mutator", "llm", "--patch-every", "1"]))
        assert result.exit_code == 0, result.output
        checkpoint = json.loads((workdir / "ckpt.json").read_text())
        [cot] = [op for op in checkpoint["registry"]["operators"] if op["id"] == "cot"]
        assert cot["temperature"] == 0.5  # the reply parsed as a patch
        mutator_calls = [p for _, _, p in server.seen if p["messages"][0]["content"]
                         .startswith(MUTATOR_PROMPT.split("{")[0])]
        assert mutator_calls and len(server.seen) > len(mutator_calls)

    @pytest.mark.usefixtures("trained")
    def test_eval_live(self, server, workdir):
        runner = CliRunner()
        result = runner.invoke(main, [
            "eval", "--checkpoint", str(workdir / "ckpt.json"),
            "--dataset", str(workdir / "mix.jsonl"), "--env", "live"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["n_records"] == 20
        # one request per node, whatever its agent count, and no tool list
        assert server.seen
        assert report["mean_llm_calls"] * 20 == pytest.approx(len(server.seen))
        assert not [p for _, _, p in server.seen
                    if "Available tools" in p["messages"][0]["content"]]

    def test_unauthorized_exits_4_after_one_request(self, server, workdir):
        server.reply = (401, "text/html", HTML, 0)
        result = CliRunner().invoke(main, train_args(workdir, ["--env", "live"]))
        assert result.exit_code == 4, result.output
        assert result.output == "backend error: chat endpoint returned 401\n"
        assert len(server.seen) == 1
        assert not (workdir / "ckpt.json").exists()
