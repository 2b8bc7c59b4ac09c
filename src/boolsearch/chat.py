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
import time
from pathlib import Path

import requests

from .errors import ChatError

API_KEY_ENV_VAR = "BOOLSEARCH_CHAT_API_KEY"
MODES = ("live", "record", "replay")


def request_hash(model: str, messages: list[dict]) -> str:
    canonical = json.dumps(
        {"model": model, "messages": messages}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ChatClient:
    """One chat endpoint plus an optional cassette.

    mode "live" only talks to the network, "record" talks to the network
    and appends (request_hash, response) lines to the cassette, "replay"
    only reads the cassette and raises on unknown requests. One client may
    be shared across threads: one lock guards the cassette in memory and on
    disk, and each record is appended with a single write.
    """

    def __init__(
        self,
        endpoint: str = "",
        model: str = "",
        mode: str = "live",
        cassette_path: str | Path | None = None,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff_base: float = 1.0,
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
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._cassette: dict[str, str] | None = None
        self._cassette_lock = threading.Lock()

    def complete(self, system: str, user: str) -> str:
        """Return the completion for one system+user message pair."""
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ]
        key = request_hash(self.model, messages)
        if self.mode == "replay":
            return self._replay(key)
        content = self._post(messages)
        if self.mode == "record":
            self._record(key, content)
        return content

    def _load_cassette(self) -> dict[str, str]:
        with self._cassette_lock:
            if self._cassette is None:
                self._cassette = {}
                if self.cassette_path and self.cassette_path.exists():
                    with open(self.cassette_path, encoding="utf-8") as f:
                        for line in f:
                            if not line.strip():
                                continue
                            record = json.loads(line)
                            self._cassette[record["request_hash"]] = record["response"]
            return self._cassette

    def _replay(self, key: str) -> str:
        cassette = self._load_cassette()
        if key not in cassette:
            raise ChatError(
                f"no recorded response for request {key[:12]}... in "
                f"{self.cassette_path}"
            )
        return cassette[key]

    def _record(self, key: str, content: str) -> None:
        assert self.cassette_path is not None
        line = json.dumps({"request_hash": key, "response": content}) + "\n"
        cassette = self._load_cassette()
        with self._cassette_lock:
            with open(self.cassette_path, "a", encoding="utf-8") as f:
                f.write(line)
            cassette[key] = content

    def _post(self, messages: list[dict]) -> str:
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise ChatError(
                f"chat mode {self.mode!r} requires the {API_KEY_ENV_VAR} "
                "environment variable"
            )
        headers = {"Authorization": f"Bearer {api_key}"}
        body = {"model": self.model, "messages": messages}
        last_error: ChatError | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                response = requests.post(
                    self.endpoint, json=body, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = ChatError(f"chat request failed: {exc}")
                continue
            if response.status_code == 200:
                return self._parse(response)
            last_error = ChatError(
                f"chat endpoint returned HTTP {response.status_code}: "
                f"{response.text[:200]}"
            )
            if 400 <= response.status_code < 500 and response.status_code != 429:
                raise last_error
        assert last_error is not None
        raise last_error

    @staticmethod
    def _parse(response) -> str:
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError) as exc:
            raise ChatError(f"malformed chat response: {exc}") from None
