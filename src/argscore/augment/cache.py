"""Content-addressed prompt/response cache: one JSON file per key.

A lookup is one ``open`` and one ``read`` of the entry file, and a missing
file is the miss, so there is no existence probe and no gap between a probe
and the read. Every hit is decoded and checked from the bytes on disk (a JSON
object with string fields, the stored prompt equal to the one asked for, a
non-blank response); nothing is kept in memory between lookups.

Each write goes to a temporary file of its own in the cache directory,
``<key>.<random hex>.tmp``, which is published with an atomic rename and
removed if the write fails. Writers of one key, in one process or many,
never share a temporary file, and a reader sees either no entry or a whole one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import uuid
from pathlib import Path


class CacheCorrupt(ValueError):
    def __init__(self, path: str | Path, reason: str):
        super().__init__(f"cache file {path} is corrupt: {reason}")
        self.path = str(path)


class PromptCache:
    """Keys are sha256 over (kind, model, temperature, prompt); reads verify
    the stored prompt so a hash collision can never return a foreign response."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.directory)

    @staticmethod
    def key(kind: str, prompt: str, model: str, temperature: float) -> str:
        material = f"{kind}\x00{model}\x00{temperature!r}\x00{prompt}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def get(self, key: str, prompt: str) -> tuple[str, str] | None:
        """The stored response and its ``created_at``, or None on a miss."""
        path = os.path.join(self._dir, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        try:
            entry = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CacheCorrupt(path, str(exc))
        fields = ("prompt", "response", "created_at")
        if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in fields)):
            raise CacheCorrupt(path, "not an object with a string prompt, response and created_at")
        if entry["prompt"] != prompt:
            raise CacheCorrupt(path, "stored prompt does not match key")
        if not entry["response"].strip():
            raise CacheCorrupt(path, "stored response is blank")
        return entry["response"], entry["created_at"]

    def put(
        self,
        key: str,
        kind: str,
        prompt: str,
        response: str,
        model: str,
        temperature: float,
        created_at: str,
    ) -> None:
        entry = {
            "kind": kind,
            "prompt": prompt,
            "response": response,
            "model": model,
            "temperature": temperature,
            "created_at": created_at,
        }
        data = json.dumps(entry, ensure_ascii=False).encode("utf-8")
        path = os.path.join(self._dir, key)
        tmp = os.path.join(self._dir, f"{key}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "xb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    def __len__(self) -> int:
        return sum(1 for p in self.directory.iterdir() if not p.name.endswith(".tmp"))
