"""Completion providers: a chat-completions HTTP client, a seeded offline mock,
and a canned per-kind provider for tests and synthetic pipelines.

The HTTP client uses only the standard library (``urllib.request``). Each
request opens its own connection, HTTPS certificates are checked against the
system trust store (the ``ssl`` default context), and the proxy environment
variables are honoured."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from argscore.augment.prompts import NO_ASSUMPTIONS, AugmentationKind
from argscore.jsonobj import from_json

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"


class ProviderError(Exception):
    """``status`` is the reply's HTTP status, or 0 without one: a connection
    error, or a reply that ``augment.generate`` rejects."""

    def __init__(self, status: int, body: str):
        what = f"provider returned HTTP {status}" if status > 0 else "provider request failed"
        super().__init__(f"{what}: {body[:200]}")
        self.status = status
        self.body = body[:200]


class ProviderTimeout(Exception):
    pass


@dataclass
class ProviderConfig:
    base_url: str
    model_name: str = "gpt-3.5-turbo"
    temperature: float = 0.7
    max_tokens: int = 512
    api_key_env: str = "ARGSCORE_API_KEY"
    request_timeout: float = 60.0
    max_parallel: int = 4

    def __post_init__(self):
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if not 0 < self.request_timeout < float("inf"):  # false for NaN too
            raise ValueError("request_timeout must be positive and finite")
        if not 0 <= self.temperature < float("inf"):
            raise ValueError("temperature must be non-negative and finite")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")

    @classmethod
    def from_json(cls, path: str | Path) -> "ProviderConfig":
        return from_json(cls, json.loads(Path(path).read_text(encoding="utf-8-sig")), "provider")


class HttpProvider:
    """POSTs one user message per prompt to ``{base_url}/chat/completions``
    through ``urllib.request``, one connection per request.

    Transient failures (timeouts, connection errors, 429, 5xx) are retried
    twice with exponential backoff starting at one second. A body without
    ``choices[0].message.content`` raises ``ProviderError``; the content is
    returned as sent, and ``augment.generate`` checks it.
    """

    name = "http"
    MAX_ATTEMPTS = 3
    BACKOFF_START = 1.0

    def __init__(self, config: ProviderConfig):
        self.config = config
        self.requests_made = 0
        self._lock = threading.Lock()

    @property
    def model_name(self) -> str:
        return self.config.model_name

    @property
    def temperature(self) -> float:
        return self.config.temperature

    def timestamp(self) -> str:
        return datetime.now(timezone.utc).isoformat()

    def complete(self, kind: AugmentationKind, prompt: str) -> str:
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = json.dumps({
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }).encode("utf-8")
        request = urllib.request.Request(url, data=body, headers=headers, method="POST")
        backoff = self.BACKOFF_START
        last_exc: Exception | None = None
        for attempt in range(self.MAX_ATTEMPTS):
            if attempt:
                time.sleep(backoff)
                backoff *= 2
            with self._lock:
                self.requests_made += 1
            try:
                status, text = self._send(request)
            except (OSError, http.client.HTTPException) as exc:
                reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
                if isinstance(reason, TimeoutError):
                    last_exc = ProviderTimeout(
                        f"request timed out after {self.config.request_timeout}s")
                else:
                    last_exc = ProviderError(0, f"connection error: {exc}")
                continue
            if status == 429 or status >= 500:
                last_exc = ProviderError(status, text)
                continue
            if status != 200:
                raise ProviderError(status, text)
            try:
                return json.loads(text)["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ProviderError(status, f"unparseable body: {exc}")
        assert last_exc is not None
        raise last_exc

    def _send(self, request: urllib.request.Request) -> tuple[int, str]:
        """Status and body text of one request; an HTTP error status is a reply too."""
        try:
            with urllib.request.urlopen(request, timeout=self.config.request_timeout) as response:
                return response.status, response.read().decode("utf-8", "replace")
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read().decode("utf-8", "replace")


_FEEDBACK_PHRASES = [
    "the claim is stated clearly",
    "the argument lacks supporting evidence",
    "the tone is emotional rather than factual",
    "the conclusion does not follow from the premise",
    "examples would strengthen the point",
    "the argument stays on topic",
    "counterpoints are not addressed",
    "the structure is easy to follow",
]

_ASSUMPTION_PHRASES = [
    "the reader shares the author's values",
    "the cited trend will continue",
    "the majority opinion is correct",
    "no alternative explanation exists",
    "the example generalizes to all cases",
    "the costs are negligible",
]

_ARGUMENT_PHRASES = [
    "the evidence points the other way",
    "this view overlooks practical limits",
    "history offers several counterexamples",
    "the benefits outweigh the drawbacks",
    "both sides rely on contested data",
    "a middle ground remains possible",
    "the premise deserves closer scrutiny",
]


class MockProvider:
    """Deterministic offline provider: the response is a pure function of
    (kind, prompt, seed). The assumptions path can return the bare
    "No assumptions" sentinel."""

    name = "mock"
    model_name = "mock"
    temperature = 0.0

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.requests_made = 0
        self._lock = threading.Lock()

    def timestamp(self) -> str:
        return EPOCH_TIMESTAMP

    def complete(self, kind: AugmentationKind, prompt: str) -> str:
        with self._lock:
            self.requests_made += 1
        digest = hashlib.sha256(
            f"{kind.value}\x00{self.seed}\x00{prompt}".encode("utf-8")
        ).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        if kind is AugmentationKind.ASSUMPTIONS and rng.random() < 0.15:
            return NO_ASSUMPTIONS
        if kind is AugmentationKind.FEEDBACK:
            pool, bullets = _FEEDBACK_PHRASES, rng.randint(2, 4)
            return "\n".join("- " + rng.choice(pool) for _ in range(bullets))
        if kind is AugmentationKind.ASSUMPTIONS:
            pool, bullets = _ASSUMPTION_PHRASES, rng.randint(1, 3)
            return "\n".join("- " + rng.choice(pool) for _ in range(bullets))
        sentences = [rng.choice(_ARGUMENT_PHRASES).capitalize() + "." for _ in range(rng.randint(2, 4))]
        return " ".join(sentences)


class CannedProvider:
    """Serves one pre-registered response per kind, whatever the prompt; a
    kind without one raises ``ProviderError`` 404."""

    name = "canned"
    model_name = "canned"
    temperature = 0.0

    def __init__(self, responses: dict[AugmentationKind, str]):
        self.responses = responses
        self.requests_made = 0
        self._lock = threading.Lock()

    def timestamp(self) -> str:
        return EPOCH_TIMESTAMP

    def complete(self, kind: AugmentationKind, prompt: str) -> str:
        with self._lock:
            self.requests_made += 1
        if kind not in self.responses:
            raise ProviderError(404, f"no canned {kind.value} response")
        return self.responses[kind]
