"""Content-addressed prompt/response cache: one JSON file per key."""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path


class CacheCorrupt(ValueError):
    def __init__(self, path: str | Path, reason: str):
        super().__init__(f"cache file {path} is corrupt: {reason}")
        self.path = str(path)


class PromptCache:
    """Keys are sha256 over (kind, model, temperature, prompt); reads verify
    the stored prompt so a hash collision can never return a foreign response.
    Writes go through a single lock and an atomic rename."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    @staticmethod
    def key(kind: str, prompt: str, model: str, temperature: float) -> str:
        material = f"{kind}\x00{model}\x00{temperature!r}\x00{prompt}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.directory / key

    def get(self, key: str, prompt: str) -> tuple[str, str] | None:
        """The stored response and its ``created_at``, or None on a miss."""
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
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
        path = self.path_for(key)
        tmp = path.with_name(key + ".tmp")
        with self._write_lock:
            tmp.write_text(json.dumps(entry, ensure_ascii=False), encoding="utf-8")
            os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for p in self.directory.iterdir() if not p.name.endswith(".tmp"))
