"""Minimal chat-completion client with a record/replay cassette.

Requests POST {"model", "messages"} and read back
{"choices": [{"message": {"content": ...}}]}. Every request is keyed by a
hash of its canonical JSON; in replay mode responses come from a cassette
file with no network access, which is how the test suite and offline runs
exercise chat-dependent code paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from .data import read_records
from .errors import ChatError
from .remote import post_json

API_KEY_ENV_VAR = "BOOLSEARCH_CHAT_API_KEY"
MODES = ("live", "record", "replay")
TIMEOUT_S = 60.0
BACKOFF_S = 1.0


def request_hash(model: str, messages: list[dict]) -> str:
    canonical = json.dumps(
        {"model": model, "messages": messages}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ChatClient:
    """One chat endpoint plus an optional cassette.

    mode "live" only talks to the network, "record" talks to the network
    and appends (request_hash, response) lines to the cassette, "replay"
    only reads the cassette, loaded when the client is made, and raises on
    unknown requests. One client may be shared across threads: a lock
    serialises the appends, and each record is appended with a single write.
    """

    def __init__(
        self,
        endpoint: str = "",
        model: str = "",
        mode: str = "live",
        cassette_path: str | Path | None = None,
    ):
        if mode not in MODES:
            raise ChatError(f"unknown chat mode {mode!r}; expected one of {MODES}")
        if mode in ("live", "record") and not endpoint:
            raise ChatError(f"chat mode {mode!r} requires an endpoint")
        if mode in ("record", "replay") and cassette_path is None:
            raise ChatError(f"chat mode {mode!r} requires a cassette path")
        self.endpoint = endpoint
        self.model = model
        self.mode = mode
        self.cassette_path = Path(cassette_path) if cassette_path else None
        self._cassette = self._load_cassette() if mode == "replay" else {}
        self._record_lock = threading.Lock()

    def complete(self, system: str, user: str) -> str:
        """Return the completion for one system+user message pair."""
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ]
        key = request_hash(self.model, messages)
        if self.mode == "replay":
            if key not in self._cassette:
                raise ChatError(
                    f"no recorded response for request {key[:12]}... in "
                    f"{self.cassette_path}"
                )
            return self._cassette[key]
        content = self._post(messages)
        if self.mode == "record":
            line = json.dumps({"request_hash": key, "response": content}) + "\n"
            with self._record_lock, open(self.cassette_path, "a", encoding="utf-8") as f:
                f.write(line)
        return content

    def _load_cassette(self) -> dict[str, str]:
        if not self.cassette_path.exists():
            return {}
        return dict(entry for _, entry in read_records(self.cassette_path, ChatError, _entry))

    def _post(self, messages: list[dict]) -> str:
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise ChatError(
                f"chat mode {self.mode!r} requires the {API_KEY_ENV_VAR} "
                "environment variable"
            )
        reply = post_json(
            self.endpoint,
            {"model": self.model, "messages": messages},
            token=api_key,
            timeout=TIMEOUT_S,
            backoff=BACKOFF_S,
            error=ChatError,
        )
        try:
            content = reply["choices"][0]["message"]["content"]
        except (TypeError, KeyError, IndexError) as exc:
            raise ChatError(f"malformed chat response: {exc!r}") from None
        if not isinstance(content, str):
            raise ChatError(
                f"malformed chat response: content is {type(content).__name__}, "
                "not a string"
            )
        return content


def _entry(record: dict) -> tuple[str, str]:
    """One cassette line's (request_hash, response)."""
    key, response = record["request_hash"], record["response"]
    if not isinstance(key, str) or not isinstance(response, str):
        raise ChatError("request_hash and response must be strings")
    return key, response
