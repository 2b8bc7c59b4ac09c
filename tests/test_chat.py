import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from boolsearch import chat
from boolsearch.chat import API_KEY_ENV_VAR, ChatClient, request_hash
from boolsearch.errors import ChatError

from _server import ScriptedServer


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(chat, "BACKOFF_S", 0.01)


def chat_response(content):
    return {"choices": [{"message": {"content": content}}]}


class TestConfiguration:
    def test_unknown_mode(self):
        with pytest.raises(ChatError, match="mode"):
            ChatClient(endpoint="http://x", mode="offline")

    def test_live_requires_endpoint(self):
        with pytest.raises(ChatError, match="endpoint"):
            ChatClient(mode="live")

    def test_replay_requires_cassette(self):
        with pytest.raises(ChatError, match="cassette"):
            ChatClient(mode="replay")

    def test_missing_credential_fails_before_any_request(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV_VAR, raising=False)
        with ScriptedServer(lambda *_: (200, chat_response("x"))) as server:
            client = ChatClient(endpoint=server.url, model="m")
            with pytest.raises(ChatError, match=API_KEY_ENV_VAR):
                client.complete("sys", "user")
            assert server.requests == []


class TestReplay:
    def test_replay_is_byte_identical_without_network(self, tmp_path):
        messages = [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user"},
        ]
        cassette = tmp_path / "c.jsonl"
        cassette.write_text(json.dumps({
            "request_hash": request_hash("m", messages),
            "response": "recorded reply",
        }) + "\n")
        client = ChatClient(model="m", mode="replay", cassette_path=cassette)
        assert client.complete("sys", "user") == "recorded reply"
        assert client.complete("sys", "user") == "recorded reply"

    @pytest.mark.parametrize("line", [
        "{bad",
        json.dumps({"request_hash": "h"}),
        json.dumps({"request_hash": "h", "response": None}),
        json.dumps(["h", "reply"]),
    ])
    def test_malformed_cassette_line_names_path_and_line(self, tmp_path, line):
        cassette = tmp_path / "c.jsonl"
        good = json.dumps({"request_hash": "g", "response": "fine"})
        cassette.write_text(good + "\n\n" + line + "\n")
        with pytest.raises(ChatError, match=f"c.jsonl:3"):
            ChatClient(model="m", mode="replay", cassette_path=cassette)

    def test_unknown_request_rejected(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        cassette.write_text("")
        client = ChatClient(model="m", mode="replay", cassette_path=cassette)
        with pytest.raises(ChatError, match="no recorded response"):
            client.complete("sys", "never seen")


class TestTransport:
    def test_success_and_payload_shape(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")

        def respond(path, body, headers):
            assert body["model"] == "m"
            assert [m["role"] for m in body["messages"]] == ["system", "user"]
            return 200, chat_response("hello")

        with ScriptedServer(respond) as server:
            client = ChatClient(endpoint=server.url, model="m")
            assert client.complete("sys", "user") == "hello"
            auth = server.requests[0]["headers"]["Authorization"]
        assert auth == "Bearer key"

    def test_rate_limit_retried_then_surfaced(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")

        def always_429(path, body, headers):
            return 429, {"error": "slow down"}

        with ScriptedServer(always_429) as server:
            client = ChatClient(endpoint=server.url, model="m")
            with pytest.raises(ChatError, match="429"):
                client.complete("sys", "user")
            assert len(server.requests) == 3

    def test_server_error_retried_then_recovers(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")
        state = {"calls": 0}

        def flaky(path, body, headers):
            state["calls"] += 1
            if state["calls"] == 1:
                return 500, {}
            return 200, chat_response("ok")

        with ScriptedServer(flaky) as server:
            client = ChatClient(endpoint=server.url, model="m")
            assert client.complete("sys", "user") == "ok"

    def test_malformed_payload_rejected(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")

        def respond(path, body, headers):
            return 200, {"unexpected": True}

        with ScriptedServer(respond) as server:
            client = ChatClient(endpoint=server.url, model="m")
            with pytest.raises(ChatError, match="malformed"):
                client.complete("sys", "user")

    @pytest.mark.parametrize("payload", [
        [chat_response("hi")],  # a JSON list, not an object
        chat_response(None),  # null content
        chat_response(["hi"]),
        {"choices": "hi"},
        b"<html>not json</html>",
    ], ids=["list-body", "null-content", "list-content", "string-choices", "not-json"])
    def test_malformed_reply_shapes_fail_closed(self, monkeypatch, payload):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")
        with ScriptedServer(lambda *_: (200, payload)) as server:
            client = ChatClient(endpoint=server.url, model="m")
            with pytest.raises(ChatError, match="malformed"):
                client.complete("sys", "user")
            assert len(server.requests) == 1  # a bad reply is not retried

    def test_client_error_fails_fast(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")
        with ScriptedServer(lambda *_: (400, {"error": "bad"})) as server:
            client = ChatClient(endpoint=server.url, model="m")
            with pytest.raises(ChatError, match="HTTP 400"):
                client.complete("sys", "user")
            assert len(server.requests) == 1


class TestRecord:
    def test_record_then_replay(self, tmp_path, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")
        cassette = tmp_path / "c.jsonl"

        def respond(path, body, headers):
            return 200, chat_response("fresh")

        with ScriptedServer(respond) as server:
            recorder = ChatClient(endpoint=server.url, model="m", mode="record",
                                  cassette_path=cassette)
            assert recorder.complete("sys", "user") == "fresh"
        replayer = ChatClient(model="m", mode="replay", cassette_path=cassette)
        assert replayer.complete("sys", "user") == "fresh"

    def test_shared_recorder_across_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "key")
        cassette = tmp_path / "c.jsonl"
        users = [f"question {i}" for i in range(128)]
        together = threading.Barrier(8)

        def respond(path, body, headers):
            together.wait(timeout=10)  # eight responses arrive at once
            # larger than the 8 KiB write buffer, so a record split in two
            # writes reaches the file in two system calls
            user = body["messages"][1]["content"]
            return 200, chat_response(user + " " + "x" * 65536)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ScriptedServer(respond) as server:
                recorder = ChatClient(endpoint=server.url, model="m", mode="record",
                                      cassette_path=cassette)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    recorded = list(
                        pool.map(lambda u: recorder.complete("sys", u), users)
                    )
        finally:
            sys.setswitchinterval(switch)
        lines = cassette.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(users)
        assert all(json.loads(line)["response"] for line in lines)
        replayer = ChatClient(model="m", mode="replay", cassette_path=cassette)
        assert [replayer.complete("sys", u) for u in users] == recorded
