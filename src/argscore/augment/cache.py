"""Content-addressed prompt/response cache: one JSON file per key.

A lookup is one ``os.open`` of the entry file, one ``fstat`` and one
``os.read`` of exactly its size plus one byte; only a file that grew after the
``fstat`` is read on to its end. A missing file is the miss, so there is no
existence probe and no gap between a probe and the read. Every hit is decoded
by one module-level ``json.JSONDecoder`` and checked from the bytes on disk (a
JSON object with string fields, the stored prompt equal to the one asked for, a
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

_decode = json.JSONDecoder().decode


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
        self._prefix = os.path.join(self.directory, "")

    @staticmethod
    def key(kind: str, prompt: str, model: str, temperature: float) -> str:
        """The temperature is hashed as a float, so ``1`` and ``1.0`` share a key."""
        material = f"{kind}\x00{model}\x00{float(temperature)!r}\x00{prompt}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def get(self, key: str, prompt: str) -> tuple[str, str] | None:
        """The stored response and its ``created_at``, or None on a miss."""
        path = self._prefix + key
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            size = os.fstat(fd).st_size + 1
            data = os.read(fd, size)
            if len(data) == size:  # the file grew after the fstat: read on to its end
                while more := os.read(fd, size):
                    data += more
        except OSError as exc:  # a directory at the path fails here; name it, as open() did
            exc.filename = path
            raise
        finally:
            os.close(fd)
        try:
            entry = _decode(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CacheCorrupt(path, str(exc))
        if not (isinstance(entry, dict) and isinstance(entry.get("prompt"), str)
                and isinstance(entry.get("response"), str)
                and isinstance(entry.get("created_at"), str)):
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
        path = self._prefix + key
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
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
