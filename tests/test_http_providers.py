"""Wire-format tests for the HTTP providers against a local stub server."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
import requests

from claimlens import cli, http_provider
from claimlens.cli import main
from claimlens.config import PipelineConfig
from claimlens.embedding import Embedder, HttpEmbeddingProvider
from claimlens.errors import ProviderUnavailable, Timeout, UnreadableFile
from claimlens.llm_gateway import (
    TASKS,
    HttpChatProvider,
    LlmGateway,
    MockChatProvider,
    OperationLog,
    PromptInstance,
)

from .conftest import DATA_DIR


class StubHandler(BaseHTTPRequestHandler):
    requests_seen = []
    responses = {}
    fail_times = 0
    fail_status = 503

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        StubHandler.requests_seen.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        if StubHandler.fail_times > 0:
            StubHandler.fail_times -= 1
            self.send_response(StubHandler.fail_status)
            self.end_headers()
            return
        reply = StubHandler.responses[self.path]
        payload = json.dumps(reply(body) if callable(reply) else reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class KeepAliveHandler(StubHandler):
    """The stub over HTTP/1.1, which keeps a connection open between requests
    and counts the connections it accepts."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # an idle kept-alive connection ends its thread
    connections = 0

    def setup(self):
        KeepAliveHandler.connections += 1
        super().setup()


def _serve(handler):
    StubHandler.requests_seen = []
    StubHandler.responses = {}
    StubHandler.fail_times = 0
    StubHandler.fail_status = 503
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def stub_server():
    yield from _serve(StubHandler)


@pytest.fixture
def keep_alive_server():
    KeepAliveHandler.connections = 0
    yield from _serve(KeepAliveHandler)


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """The backoff sleeps the retry loop asks for, recorded instead of slept."""
    slept = []
    monkeypatch.setattr(http_provider, "time", SimpleNamespace(sleep=slept.append))
    return slept


def test_embedding_provider_wire_format(stub_server):
    StubHandler.responses["/embed"] = {"vectors": [[3.0, 4.0], [1.0, 0.0]]}
    provider = HttpEmbeddingProvider(stub_server + "/embed", api_key="sekrit")
    embedder = Embedder(provider)
    vectors = embedder.embed_texts(["first text", "second text"])
    assert [list(v) for v in vectors] == [[0.6, 0.8], [1.0, 0.0]]  # L2-normalized
    seen = StubHandler.requests_seen[-1]
    assert seen["body"] == {"texts": ["first text", "second text"]}
    assert seen["auth"] == "Bearer sekrit"


def test_malformed_embedding_reply_exits_2(stub_server, tmp_path, capsys):
    StubHandler.responses["/embed"] = {"vectors": [["abc", 1.0]]}
    argv = ["ingest", "--corpus", str(DATA_DIR / "corpus.jsonl"), "--out", str(tmp_path),
            "--embed-endpoint", stub_server + "/embed"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "non-number" in err and "Traceback" not in err


def test_ingest_sends_one_embedding_request_per_batch(stub_server, tmp_path, capsys):
    # The fixture corpus holds 92 segments: one batch of 64 and one of 28, no probe.
    StubHandler.responses["/embed"] = lambda body: {
        "vectors": [[1.0, float(len(text) % 5)] for text in body["texts"]]
    }
    argv = ["ingest", "--corpus", str(DATA_DIR / "corpus.jsonl"), "--out", str(tmp_path),
            "--embed-endpoint", stub_server + "/embed"]
    assert main(argv) == 0
    assert "into 92 segments; index dim 2" in capsys.readouterr().out
    assert [len(r["body"]["texts"]) for r in StubHandler.requests_seen] == [64, 28]


def test_embedding_provider_retries_then_fails(stub_server):
    StubHandler.responses["/embed"] = {"vectors": [[1.0, 0.0]]}
    StubHandler.fail_times = 10
    provider = HttpEmbeddingProvider(stub_server + "/embed", api_key="", max_attempts=2)
    with pytest.raises(ProviderUnavailable):
        provider.embed(["text"])
    assert len(StubHandler.requests_seen) == 2


def test_embedding_provider_recovers_within_retry_budget(stub_server):
    StubHandler.responses["/embed"] = {"vectors": [[1.0, 0.0]]}
    StubHandler.fail_times = 1
    provider = HttpEmbeddingProvider(stub_server + "/embed", api_key="", max_attempts=3)
    assert provider.embed(["text"]) == [[1.0, 0.0]]


def test_chat_provider_wire_format(stub_server):
    StubHandler.responses["/chat"] = {"content": json.dumps({"stance": "supports_claim"})}
    provider = HttpChatProvider(stub_server + "/chat", model="judge-mini", api_key="k2")
    gateway = LlmGateway(provider, log=OperationLog())
    instance = PromptInstance(
        task="stance_detect",
        rendered_text="what stance is this",
        expected_schema={"type": "object", "required": ["stance"]},
        context="stance",
    )
    assert gateway.complete_json(instance) == {"stance": "supports_claim"}
    seen = StubHandler.requests_seen[-1]
    assert seen["body"]["model"] == "judge-mini"
    assert seen["body"]["messages"] == [{"role": "user", "content": "what stance is this"}]
    assert seen["body"]["temperature"] == TASKS["stance_detect"].temperature
    assert seen["body"]["top_p"] == 0.99
    assert seen["auth"] == "Bearer k2"


def test_chat_provider_unreachable_endpoint():
    provider = HttpChatProvider("http://127.0.0.1:9/chat", model="m", api_key="",
                                timeout=0.2, max_attempts=2)
    with pytest.raises(ProviderUnavailable):
        provider.complete(TASKS["stance_detect"], "prompt", "hash")


def test_mock_transcript_dir_must_exist(tmp_path):
    with pytest.raises(UnreadableFile):
        MockChatProvider.from_dir(tmp_path / "missing")


def _call(kind, base_url, **kwargs):
    """One call through the chat or the embedding provider."""
    if kind == "chat":
        StubHandler.responses["/chat"] = {"content": "{}"}
        provider = HttpChatProvider(base_url + "/chat", model="m", api_key="", **kwargs)
        return provider.complete(TASKS["stance_detect"], "prompt", "hash")
    StubHandler.responses["/embed"] = {"vectors": [[1.0, 0.0]]}
    return HttpEmbeddingProvider(base_url + "/embed", api_key="", **kwargs).embed(["text"])


@pytest.mark.parametrize("kind", ["chat", "embed"])
@pytest.mark.parametrize("status", [400, 404])
def test_client_error_fails_without_retry(stub_server, sleeps, kind, status):
    StubHandler.fail_times = 10
    StubHandler.fail_status = status
    with pytest.raises(ProviderUnavailable, match=f"HTTP {status}"):
        _call(kind, stub_server, max_attempts=3)
    assert len(StubHandler.requests_seen) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "failures, max_attempts, expected",
    [(10, 3, [0.5, 2.0]), (10, 4, [0.5, 2.0, 2.0]), (1, 3, [0.5]), (0, 3, [])],
)
def test_retries_sleep_the_backoff_schedule(stub_server, sleeps, failures, max_attempts, expected):
    StubHandler.fail_times = failures  # each failure is a 503
    if failures < max_attempts:
        assert _call("embed", stub_server, max_attempts=max_attempts) == [[1.0, 0.0]]
    else:
        with pytest.raises(ProviderUnavailable, match="503"):
            _call("embed", stub_server, max_attempts=max_attempts)
    assert len(StubHandler.requests_seen) == min(failures + 1, max_attempts)
    assert sleeps == expected  # nothing after the last attempt


@pytest.mark.parametrize("kind", ["chat", "embed"])
@pytest.mark.parametrize("status", [408, 429])
def test_retryable_status_is_retried(stub_server, kind, status):
    StubHandler.fail_times = 2
    StubHandler.fail_status = status
    assert _call(kind, stub_server, max_attempts=3) in ("{}", [[1.0, 0.0]])
    assert len(StubHandler.requests_seen) == 3


@pytest.mark.parametrize("body", [{"unexpected": 1}, [1, 2], "just text"])
def test_malformed_body_is_retried_then_fails(stub_server, body):
    StubHandler.responses["/embed"] = body
    provider = HttpEmbeddingProvider(stub_server + "/embed", api_key="", max_attempts=2)
    with pytest.raises(ProviderUnavailable, match="embedding endpoint failed after 2 attempts: "):
        provider.embed(["text"])
    assert len(StubHandler.requests_seen) == 2


@pytest.mark.parametrize("content", [None, 7, {"score": 1}], ids=["null", "number", "object"])
def test_chat_reply_whose_content_is_not_a_string_is_retried_then_exits_2(
    stub_server, tmp_path, capsys, content
):
    StubHandler.responses["/chat"] = {"content": content}
    data = json.loads((DATA_DIR / "golden" / "hierarchy.json").read_text())
    for node in data["nodes"]:
        node["attached_segments"] = []  # so evaluate needs no segment store
    tree = tmp_path / "hierarchy.json"
    tree.write_text(json.dumps(data))
    argv = ["evaluate", "--claim", data["claim"], "--chat-endpoint", stub_server + "/chat",
            "--out", str(tmp_path), str(tree)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "chat endpoint failed after 3 attempts: content is not a str" in err
    assert "Traceback" not in err
    assert len(StubHandler.requests_seen) == 3


@pytest.mark.parametrize("kind, timeout", [("chat", 60.0), ("embed", 30.0)])
def test_providers_the_cli_builds_keep_their_defaults(kind, timeout):
    # A chat reply is generated, so it gets twice an embedding's time per attempt.
    config = PipelineConfig(chat_endpoint="http://stub/chat", embed_endpoint="http://stub/embed")
    if kind == "chat":
        provider = cli.make_gateway(config, OperationLog()).provider
    else:
        provider = cli.make_embedder(config).provider
    timeouts = []

    def post(url, json, headers, timeout):
        timeouts.append(timeout)
        raise requests.ConnectionError("refused")

    provider._session = SimpleNamespace(post=post)
    with pytest.raises(ProviderUnavailable, match="failed after 3 attempts"):
        if kind == "chat":
            provider.complete(TASKS["stance_detect"], "prompt", "hash")
        else:
            provider.embed(["text"])
    assert timeouts == [timeout] * 3


@pytest.mark.parametrize("kind, name", [("chat", "chat"), ("embed", "embedding")])
def test_timeout_raises_typed_error(kind, name):
    # A listening socket that never accepts: connections complete, no reply comes.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        base_url = f"http://127.0.0.1:{silent.getsockname()[1]}"
        with pytest.raises(Timeout, match=f"^{name} endpoint timed out: {base_url}/"):
            _call(kind, base_url, timeout=0.05, max_attempts=2)


@pytest.mark.parametrize("kind", ["chat", "embed"])
def test_provider_calls_share_one_kept_alive_connection(keep_alive_server, kind):
    StubHandler.responses["/chat"] = {"content": "{}"}
    StubHandler.responses["/embed"] = {"vectors": [[1.0, 0.0]]}
    if kind == "chat":
        provider = HttpChatProvider(keep_alive_server + "/chat", model="m", api_key="")
        replies = [provider.complete(TASKS["stance_detect"], "prompt", "hash") for _ in range(3)]
    else:
        provider = HttpEmbeddingProvider(keep_alive_server + "/embed", api_key="")
        replies = [provider.embed(["text"]) for _ in range(3)]
    connections = KeepAliveHandler.connections
    provider._session.close()  # the open connection would warn when collected
    assert replies in (["{}"] * 3, [[[1.0, 0.0]]] * 3)
    assert len(StubHandler.requests_seen) == 3
    assert connections == 1
