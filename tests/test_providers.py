"""Providers, cache behavior, and the generation pipeline."""

import hashlib
import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from argscore.augment import (
    AugmentationKind,
    CacheCorrupt,
    CannedProvider,
    HttpProvider,
    KIND_ORDER,
    MissingExemplars,
    MockProvider,
    NO_ASSUMPTIONS,
    PromptCache,
    ProviderConfig,
    ProviderError,
    ProviderTimeout,
    generate,
    load_exemplars,
    read_augmentations,
    render_prompt,
    write_augmentations,
)
from argscore.augment.providers import EPOCH_TIMESTAMP
from argscore.corpus import MalformedRow
from tests.conftest import make_record


class TestMockProvider:
    def test_deterministic(self):
        a = MockProvider(seed=3)
        b = MockProvider(seed=3)
        prompt = render_prompt(AugmentationKind.FEEDBACK, make_record())
        assert a.complete(AugmentationKind.FEEDBACK, prompt) == \
            b.complete(AugmentationKind.FEEDBACK, prompt)

    def test_seeds_differ_somewhere(self):
        a = MockProvider(seed=1)
        b = MockProvider(seed=2)
        differing = 0
        for i in range(10):
            record = make_record(i, topic=f"topic {i}", argument=f"argument text {i}")
            for kind in (AugmentationKind.FEEDBACK, AugmentationKind.COUNTER_ARGUMENT):
                prompt = render_prompt(kind, record)
                if a.complete(kind, prompt) != b.complete(kind, prompt):
                    differing += 1
        assert differing > 0

    def test_no_assumptions_branch_reachable(self):
        provider = MockProvider(seed=0)
        hits = 0
        for i in range(200):
            record = make_record(i, topic=f"t{i}", argument=f"argument {i} body")
            prompt = render_prompt(AugmentationKind.ASSUMPTIONS, record)
            if provider.complete(AugmentationKind.ASSUMPTIONS, prompt) == NO_ASSUMPTIONS:
                hits += 1
        assert hits > 0

    def test_counts_requests(self):
        provider = MockProvider(seed=0)
        prompt = render_prompt(AugmentationKind.FEEDBACK, make_record())
        provider.complete(AugmentationKind.FEEDBACK, prompt)
        provider.complete(AugmentationKind.FEEDBACK, prompt)
        assert provider.requests_made == 2


class TestCache:
    def test_put_get(self, tmp_path):
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "prompt text", "mock", 0.0)
        assert cache.get(key, "prompt text") is None
        cache.put(key, "feedback", "prompt text", "response", "mock", 0.0, EPOCH_TIMESTAMP)
        assert cache.get(key, "prompt text") == ("response", EPOCH_TIMESTAMP)
        entry = json.loads((tmp_path / key).read_text())
        assert set(entry) == {"kind", "prompt", "response", "model", "temperature", "created_at"}

    def test_prompt_mismatch_is_corrupt(self, tmp_path):
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "prompt text", "mock", 0.0)
        cache.put(key, "feedback", "prompt text", "response", "mock", 0.0, EPOCH_TIMESTAMP)
        with pytest.raises(CacheCorrupt):
            cache.get(key, "a different prompt")

    def test_unparseable_file_is_corrupt(self, tmp_path):
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "p", "mock", 0.0)
        (tmp_path / key).write_text("{not json")
        with pytest.raises(CacheCorrupt):
            cache.get(key, "p")

    @pytest.mark.parametrize("entry", ['"a prompt and a response"', '["prompt", "response"]', "5",
                                       '{"prompt": "p", "response": 5}',
                                       '{"prompt": 5, "response": "r"}',
                                       '{"prompt": "p", "response": "r"}',
                                       '{"prompt": "p", "response": " ", "created_at": "t"}',
                                       '{"prompt": "p", "response": "r", "created_at": 5}',
                                       '{"prompt": "p", "response": "r", "created_at": "t"} {}',
                                       ''])
    def test_wrongly_shaped_entry_is_corrupt(self, tmp_path, entry):
        record = make_record()
        prompt = render_prompt(AugmentationKind.FEEDBACK, record)
        provider = MockProvider(seed=0)
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", prompt, provider.model_name, provider.temperature)
        (tmp_path / key).write_text(entry.replace('"p"', json.dumps(prompt), 1))
        with pytest.raises(CacheCorrupt):
            generate(record, {AugmentationKind.FEEDBACK}, provider, cache=cache)

    def test_large_entry_round_trips(self, tmp_path):
        # a prompt of over 200 KB, far past any read buffer's default size
        cache = PromptCache(tmp_path)
        prompt = "ä long prompt line\n" * 12_000
        key = PromptCache.key("feedback", prompt, "mock", 0.0)
        cache.put(key, "feedback", prompt, "response", "mock", 0.0, EPOCH_TIMESTAMP)
        assert (tmp_path / key).stat().st_size > 200_000
        assert cache.get(key, prompt) == ("response", EPOCH_TIMESTAMP)

    def test_entry_longer_than_its_fstat_is_read_to_its_end(self, tmp_path, monkeypatch):
        # as if the file grew between the fstat and the read
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "p", "mock", 0.0)
        cache.put(key, "feedback", "p", "response", "mock", 0.0, EPOCH_TIMESTAMP)
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=10))
        assert cache.get(key, "p") == ("response", EPOCH_TIMESTAMP)

    def test_temperature_is_keyed_as_a_float(self, tmp_path):
        assert PromptCache.key("feedback", "p", "m", 1) == PromptCache.key("feedback", "p", "m", 1.0)
        # float keys are those of "{kind}\0{model}\0{temperature!r}\0{prompt}", as before
        material = "feedback\x00mock\x000.0\x00p".encode("utf-8")
        assert PromptCache.key("feedback", "p", "mock", 0.0) == hashlib.sha256(material).hexdigest()
        # an entry written under 1.0 is a hit for a provider whose config file says 1
        path = tmp_path / "provider.json"
        path.write_text('{"base_url": "http://127.0.0.1:9/v1", "model_name": "m", "temperature": 1}')
        provider = HttpProvider(ProviderConfig.from_json(path))
        assert provider.temperature == 1 and isinstance(provider.temperature, int)
        record = make_record()
        prompt = render_prompt(AugmentationKind.FEEDBACK, record)
        cache = PromptCache(tmp_path / "cache")
        key = PromptCache.key("feedback", prompt, "m", 1.0)
        cache.put(key, "feedback", prompt, "cached reply", "m", 1.0, EPOCH_TIMESTAMP)
        result = generate(record, {AugmentationKind.FEEDBACK}, provider, cache=cache)
        assert result.feedback == "cached reply" and provider.requests_made == 0

    def test_every_hit_is_read_and_checked_again(self, tmp_path):
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "p", "mock", 0.0)
        cache.put(key, "feedback", "p", "response", "mock", 0.0, EPOCH_TIMESTAMP)
        assert cache.get(key, "p") == ("response", EPOCH_TIMESTAMP)
        entry = {"prompt": "another prompt", "response": "r", "created_at": EPOCH_TIMESTAMP}
        (tmp_path / key).write_text(json.dumps(entry), encoding="utf-8")
        with pytest.raises(CacheCorrupt, match="stored prompt does not match key"):
            cache.get(key, "p")

    def test_deleted_entry_is_a_miss_and_asked_again(self, tmp_path):
        record = make_record()
        cache = PromptCache(tmp_path)
        first = generate(record, {AugmentationKind.FEEDBACK}, MockProvider(), cache=cache)
        key = first.metadata["feedback"].prompt_hash
        prompt = render_prompt(AugmentationKind.FEEDBACK, record)
        assert cache.get(key, prompt) is not None
        (tmp_path / key).unlink()
        assert cache.get(key, prompt) is None
        provider = MockProvider()
        generate(record, {AugmentationKind.FEEDBACK}, provider, cache=cache)
        assert provider.requests_made == 1

    def test_invalid_utf8_is_corrupt(self, tmp_path):
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "p", "mock", 0.0)
        (tmp_path / key).write_bytes(b'{"prompt": "p\xff", "response": "r", "created_at": "t"}')
        with pytest.raises(CacheCorrupt, match="utf-8"):
            cache.get(key, "p")

    def test_directory_at_key_path_is_os_error(self, tmp_path):
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "p", "mock", 0.0)
        (tmp_path / key).mkdir()
        with pytest.raises(OSError):
            cache.get(key, "p")

    def test_a_read_error_names_the_entry(self, tmp_path):
        (tmp_path / "k").mkdir()
        with pytest.raises(OSError) as err:
            PromptCache(tmp_path).get("k", "p")
        assert err.value.filename == str(tmp_path / "k")

    def test_writers_of_one_key_use_their_own_temp_files(self, tmp_path, monkeypatch):
        # a second cache on the same directory writes the key while the
        # first is inside its rename
        first, second = PromptCache(tmp_path), PromptCache(tmp_path)
        key = PromptCache.key("feedback", "p", "mock", 0.0)
        real_replace = os.replace

        def interleaved(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            second.put(key, "feedback", "p", "second", "mock", 0.0, "t2")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        first.put(key, "feedback", "p", "first", "mock", 0.0, "t1")
        assert second.get(key, "p") == ("first", "t1")  # the last rename wins
        assert os.listdir(tmp_path) == [key] and len(second) == 1

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", "p", "mock", 0.0)

        def no_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            cache.put(key, "feedback", "p", "response", "mock", 0.0, EPOCH_TIMESTAMP)
        assert os.listdir(tmp_path) == []
        assert cache.get(key, "p") is None


class TestGenerate:
    def test_cache_hit_issues_no_request(self, tmp_path):
        record = make_record()
        cache, pool = PromptCache(tmp_path), load_exemplars()
        first = generate(record, KIND_ORDER, MockProvider(seed=5), cache=cache, exemplars=pool)
        provider = MockProvider(seed=5)
        second = generate(record, KIND_ORDER, provider, cache=cache, exemplars=pool)
        assert provider.requests_made == 0
        for kind in KIND_ORDER:
            assert first.get(kind) == second.get(kind)

    def test_warm_generate_equals_cold_without_requests(self, tmp_path):
        record = make_record()
        cache, pool = PromptCache(tmp_path), load_exemplars()
        cold = generate(record, KIND_ORDER, MockProvider(seed=5), cache=cache, exemplars=pool)
        provider = MockProvider(seed=5)
        warm = generate(record, KIND_ORDER, provider, cache=cache, exemplars=pool)
        assert provider.requests_made == 0
        assert warm == cold and list(warm.metadata) == [kind.value for kind in KIND_ORDER]

    def test_canned_map(self):
        record = make_record()
        provider = CannedProvider({AugmentationKind.FEEDBACK: "- point"})
        result = generate(record, {AugmentationKind.FEEDBACK}, provider)
        assert result.feedback == "- point"
        assert result.assumptions is None

    def test_canned_miss_is_provider_error(self):
        with pytest.raises(ProviderError):
            generate(make_record(), {AugmentationKind.FEEDBACK}, CannedProvider({}))

    def test_canned_provider_without_a_kind_is_a_404(self):
        provider = CannedProvider({AugmentationKind.FEEDBACK: "- point"})
        with pytest.raises(ProviderError, match="no canned assumptions response") as err:
            generate(make_record(), KIND_ORDER, provider, exemplars=load_exemplars())
        assert err.value.status == 404

    def test_similar_quality_without_a_pool_sends_and_caches_nothing(self, tmp_path):
        cache, provider = PromptCache(tmp_path), MockProvider()
        for kinds in ({AugmentationKind.SIMILAR_QUALITY}, KIND_ORDER):
            with pytest.raises(MissingExemplars):
                generate(make_record(), kinds, provider, cache=cache)
        assert provider.requests_made == 0 and len(cache) == 0

    def test_metadata_recorded(self, tmp_path):
        record = make_record()
        result = generate(record, {AugmentationKind.FEEDBACK}, MockProvider(seed=1),
                          cache=PromptCache(tmp_path))
        meta = result.metadata["feedback"]
        assert meta.provider == "mock" and meta.model == "mock"
        assert meta.timestamp == EPOCH_TIMESTAMP
        assert len(meta.prompt_hash) == 64

    def test_cache_entry_and_metadata_share_one_timestamp(self, tmp_path):
        class CountingClock(MockProvider):
            ticks = 0

            def timestamp(self):
                self.ticks += 1
                return str(self.ticks)

        cache, provider = PromptCache(tmp_path), CountingClock()
        result = generate(make_record(), {AugmentationKind.FEEDBACK}, provider, cache=cache)
        meta = result.metadata["feedback"]
        entry = json.loads((cache.directory / meta.prompt_hash).read_text(encoding="utf-8"))
        assert entry["created_at"] == meta.timestamp
        # a hit reports when its entry was written, not when it was looked up
        again = generate(make_record(), {AugmentationKind.FEEDBACK}, provider, cache=cache)
        assert provider.requests_made == 1
        assert again.metadata["feedback"].timestamp == entry["created_at"]

    def test_blank_reply_is_provider_error_and_not_cached(self, tmp_path):
        record = make_record()
        provider = CannedProvider({AugmentationKind.FEEDBACK: " \n"})
        cache = PromptCache(tmp_path)
        for attempt in (1, 2):  # nothing cached, so the provider is asked again
            with pytest.raises(ProviderError, match="blank or non-string feedback reply") as err:
                generate(record, {AugmentationKind.FEEDBACK}, provider, cache=cache)
            assert "HTTP 0" not in str(err.value)
            assert len(cache) == 0 and provider.requests_made == attempt

    def test_provider_failure_leaves_cache_untouched(self, tmp_path):
        cache = PromptCache(tmp_path)
        with pytest.raises(ProviderError):
            generate(make_record(), {AugmentationKind.FEEDBACK}, CannedProvider({}), cache=cache)
        assert len(cache) == 0


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Records each POST, then answers with the server's next scripted
    ``(status, body, delay)``; a body that is not a string is sent as JSON."""

    def do_POST(self):
        data = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.received.append({
            "path": self.path,
            "headers": {k.lower(): v for k, v in self.headers.items()},
            "json": json.loads(data),
        })
        status, body, delay = self.server.replies.pop(0)
        # not time.sleep: tests patch it out of the shared time module
        threading.Event().wait(delay)
        payload = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except ConnectionError:  # the client timed out and hung up
            pass

    def log_message(self, *args):
        pass


def _ok(content, delay=0.0):
    return 200, {"choices": [{"message": {"content": content}}]}, delay


class TestHttpProvider:
    """``HttpProvider`` against a real HTTP server on 127.0.0.1."""

    @pytest.fixture(autouse=True)
    def loopback_only(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")  # never route loopback through a proxy
        monkeypatch.delenv("ARGSCORE_API_KEY", raising=False)

    @pytest.fixture
    def server(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        server.replies, server.received = [], []
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    @pytest.fixture
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr("argscore.augment.providers.time.sleep", lambda s: None)

    @staticmethod
    def _provider(port, timeout=5.0):
        return HttpProvider(ProviderConfig(
            base_url=f"http://127.0.0.1:{port}/v1", model_name="test-model",
            temperature=0.7, max_tokens=64, request_timeout=timeout))

    def test_wire_shape_and_response_parse(self, server):
        server.replies = [_ok("- fine")]
        out = self._provider(server.server_port).complete(AugmentationKind.FEEDBACK, "the prompt")
        assert out == "- fine"
        (call,) = server.received
        assert call["path"] == "/v1/chat/completions"
        assert call["headers"]["content-type"] == "application/json"
        assert "authorization" not in call["headers"]
        assert call["json"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.7,
            "max_tokens": 64,
        }

    def test_http_500_retries_then_raises(self, server, no_backoff):
        server.replies = [(500, "boom", 0.0)] * 3
        provider = self._provider(server.server_port)
        with pytest.raises(ProviderError) as err:
            provider.complete(AugmentationKind.FEEDBACK, "p")
        assert err.value.status == 500 and err.value.body == "boom"
        assert len(server.received) == provider.requests_made == 3

    def test_client_error_no_retry(self, server, no_backoff):
        server.replies = [(400, "bad request", 0.0)]
        with pytest.raises(ProviderError) as err:
            self._provider(server.server_port).complete(AugmentationKind.FEEDBACK, "p")
        assert err.value.status == 400 and err.value.body == "bad request"
        assert len(server.received) == 1

    def test_recovers_after_transient_failure(self, server, no_backoff):
        server.replies = [(503, "busy", 0.0), _ok("ok")]
        assert self._provider(server.server_port).complete(AugmentationKind.FEEDBACK, "p") == "ok"
        assert len(server.received) == 2

    def test_timeout_retries_then_raises(self, server, no_backoff):
        server.replies = [_ok("late", delay=0.3)] * 3
        provider = self._provider(server.server_port, timeout=0.1)
        with pytest.raises(ProviderTimeout):
            provider.complete(AugmentationKind.FEEDBACK, "p")
        assert provider.requests_made == 3

    def test_refused_connection_is_status_zero(self, no_backoff):
        with socket.socket() as sock:  # a loopback port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        provider = self._provider(port)
        with pytest.raises(ProviderError) as err:
            provider.complete(AugmentationKind.FEEDBACK, "p")
        assert err.value.status == 0 and "connection error" in str(err.value)
        assert "HTTP 0" not in str(err.value)
        assert provider.requests_made == 3

    def test_api_key_header(self, server, monkeypatch):
        monkeypatch.setenv("ARGSCORE_API_KEY", "secret-key")
        server.replies = [_ok("x")]
        self._provider(server.server_port).complete(AugmentationKind.FEEDBACK, "p")
        assert server.received[0]["headers"]["authorization"] == "Bearer secret-key"

    # the provider rejects a body it cannot parse (status 200); generate
    # rejects parsed content that is not a non-blank string (status 0)
    @pytest.mark.parametrize("body, status", [
        pytest.param({"choices": [{"message": {"content": None}}]}, 0, id="null-content"),
        pytest.param({"choices": [{"message": {"content": ""}}]}, 0, id="empty-content"),
        pytest.param({"choices": [{"message": {"content": "  "}}]}, 0, id="blank-content"),
        pytest.param({"choices": None}, 200, id="null-choices"),
        pytest.param({"choices": [{"message": "text"}]}, 200, id="string-message"),
        pytest.param("not json", 200, id="non-json-body"),
    ])
    def test_unusable_reply_raises_and_leaves_cache_empty(self, server, tmp_path, body, status):
        server.replies = [(200, body, 0.0)]
        cache = PromptCache(tmp_path)
        with pytest.raises(ProviderError) as err:
            generate(make_record(), {AugmentationKind.FEEDBACK},
                     self._provider(server.server_port), cache=cache)
        assert err.value.status == status
        assert len(server.received) == 1 and len(cache) == 0

    def test_generate_failure_leaves_cache_untouched(self, server, tmp_path, no_backoff):
        server.replies = [(500, "boom", 0.0)] * 3
        cache = PromptCache(tmp_path)
        with pytest.raises(ProviderError):
            generate(make_record(), {AugmentationKind.FEEDBACK},
                     self._provider(server.server_port), cache=cache)
        assert len(cache) == 0


def test_provider_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ProviderConfig(base_url="x", max_parallel=0)
    with pytest.raises(ValueError):
        ProviderConfig(base_url="x", request_timeout=0)
    for setting in ("temperature", "request_timeout"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{setting} must be .* finite"):
                ProviderConfig(base_url="x", **{setting: value})
        for literal in ("NaN", "Infinity"):  # Python's json reads both
            path = tmp_path / "p.json"
            path.write_text('{"base_url": "http://h/v1", "%s": %s}' % (setting, literal))
            with pytest.raises(ValueError, match=setting):
                ProviderConfig.from_json(path)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"base_url": "http://h/v1", "model_name": "m"}))
    cfg = ProviderConfig.from_json(path)
    assert cfg.model_name == "m" and cfg.temperature == 0.7 and cfg.max_tokens == 512


def test_augmentation_jsonl_roundtrip(tmp_path):
    record = make_record()
    sets = {record.id: generate(record, KIND_ORDER, MockProvider(seed=2),
                                exemplars=load_exemplars())}
    path = tmp_path / "a.jsonl"
    write_augmentations(path, sets)
    back = read_augmentations(path)
    assert back == sets


GOOD_META = {"provider": "mock", "model": "m", "timestamp": EPOCH_TIMESTAMP, "prompt_hash": "h"}


@pytest.mark.parametrize("line", [
    pytest.param('{"feedback": "text"}', id="no-id"),
    pytest.param('{"id": "r1", "feedback": 5}', id="text-not-string"),
    pytest.param('["r1", "text"]', id="not-an-object"),
    pytest.param('{"id": "r1", "metadata": {"feedback": {"provider": "mock"}}}',
                 id="metadata-fields-missing"),
    pytest.param('{"id": "r1", "metadata": {"feedback": "mock"}}', id="metadata-entry-not-object"),
    pytest.param('{"id": "r1", "metadata": {"feedback": %s}}'
                 % json.dumps({**GOOD_META, "timestamp": 5}), id="metadata-field-not-string"),
    pytest.param('{"id": "r1", "metadata": ["feedback"]}', id="metadata-not-object"),
    pytest.param('{"id": "r1", "metadata": {"feedbak": %s}}' % json.dumps(GOOD_META),
                 id="metadata-unknown-kind"),
    pytest.param('{"id": "r0", "feedback": "again"}', id="repeated-id"),
    pytest.param('{"id": "r1", "feedbak": "text"}', id="misspelt-kind"),
    pytest.param('{"id": "r1", "feedback": "  "}', id="empty-text"),
    pytest.param('{"id": "r1", "feedback": "text"', id="invalid-json"),
])
def test_malformed_augmentation_line_names_its_line(tmp_path, line):
    path = tmp_path / "a.jsonl"
    first = {"id": "r0", "feedback": "fine", "metadata": {"feedback": GOOD_META}}
    path.write_text(json.dumps(first) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        read_augmentations(path)
    assert err.value.line == 2
