"""Providers, cache behavior, and the generation pipeline."""

import json

import pytest

from argscore.augment import (
    AugmentationKind,
    CacheCorrupt,
    CannedProvider,
    HttpProvider,
    KIND_ORDER,
    MockProvider,
    NO_ASSUMPTIONS,
    PromptCache,
    ProviderConfig,
    ProviderError,
    generate,
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
        assert cache.get(key, "prompt text") == "response"
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
                                       '{"prompt": 5, "response": "r"}'])
    def test_wrongly_shaped_entry_is_corrupt(self, tmp_path, entry):
        record = make_record()
        prompt = render_prompt(AugmentationKind.FEEDBACK, record)
        provider = MockProvider(seed=0)
        cache = PromptCache(tmp_path)
        key = PromptCache.key("feedback", prompt, provider.model_name, provider.temperature)
        (tmp_path / key).write_text(entry.replace('"p"', json.dumps(prompt), 1))
        with pytest.raises(CacheCorrupt):
            generate(record, {AugmentationKind.FEEDBACK}, provider, cache=cache)


class TestGenerate:
    def test_cache_hit_issues_no_request(self, tmp_path):
        record = make_record()
        cache = PromptCache(tmp_path)
        first = generate(record, KIND_ORDER, MockProvider(seed=5), cache=cache)
        provider = MockProvider(seed=5)
        second = generate(record, KIND_ORDER, provider, cache=cache)
        assert provider.requests_made == 0
        for kind in KIND_ORDER:
            assert first.get(kind) == second.get(kind)

    def test_canned_map(self):
        record = make_record()
        prompt = render_prompt(AugmentationKind.FEEDBACK, record)
        provider = CannedProvider({CannedProvider.prompt_key(prompt): "- point"})
        result = generate(record, {AugmentationKind.FEEDBACK}, provider)
        assert result.feedback == "- point"
        assert result.assumptions is None

    def test_canned_miss_is_provider_error(self):
        with pytest.raises(ProviderError):
            generate(make_record(), {AugmentationKind.FEEDBACK}, CannedProvider({}))

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

        cache = PromptCache(tmp_path)
        result = generate(make_record(), {AugmentationKind.FEEDBACK}, CountingClock(), cache=cache)
        meta = result.metadata["feedback"]
        entry = json.loads(cache.path_for(meta.prompt_hash).read_text(encoding="utf-8"))
        assert entry["created_at"] == meta.timestamp

    def test_provider_failure_leaves_cache_untouched(self, tmp_path):
        cache = PromptCache(tmp_path)
        with pytest.raises(ProviderError):
            generate(make_record(), {AugmentationKind.FEEDBACK}, CannedProvider({}), cache=cache)
        assert len(cache) == 0


class _FakeResponse:
    def __init__(self, status, body=None, text=""):
        self.status_code = status
        self._body = body
        self.text = text

    def json(self):
        return self._body


class _FakeSession:
    """Scripted responses, recorded calls; no real network."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


class TestHttpProvider:
    CONFIG = ProviderConfig(base_url="http://fake.local/v1", model_name="test-model",
                            temperature=0.7, max_tokens=64, request_timeout=5.0)

    def _ok(self, content):
        return _FakeResponse(200, {"choices": [{"message": {"content": content}}]})

    def test_wire_shape_and_response_parse(self):
        session = _FakeSession([self._ok("- fine")])
        provider = HttpProvider(self.CONFIG, session=session)
        out = provider.complete(AugmentationKind.FEEDBACK, "the prompt")
        assert out == "- fine"
        call = session.calls[0]
        assert call["url"] == "http://fake.local/v1/chat/completions"
        assert call["json"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.7,
            "max_tokens": 64,
        }

    def test_http_500_retries_then_raises(self, monkeypatch):
        monkeypatch.setattr("argscore.augment.providers.time.sleep", lambda s: None)
        session = _FakeSession([_FakeResponse(500, text="boom")] * 3)
        provider = HttpProvider(self.CONFIG, session=session)
        with pytest.raises(ProviderError) as err:
            provider.complete(AugmentationKind.FEEDBACK, "p")
        assert err.value.status == 500
        assert len(session.calls) == 3

    def test_client_error_no_retry(self):
        session = _FakeSession([_FakeResponse(400, text="bad request")])
        provider = HttpProvider(self.CONFIG, session=session)
        with pytest.raises(ProviderError) as err:
            provider.complete(AugmentationKind.FEEDBACK, "p")
        assert err.value.status == 400
        assert len(session.calls) == 1

    def test_recovers_after_transient_failure(self, monkeypatch):
        monkeypatch.setattr("argscore.augment.providers.time.sleep", lambda s: None)
        session = _FakeSession([_FakeResponse(503, text="busy"), self._ok("ok")])
        provider = HttpProvider(self.CONFIG, session=session)
        assert provider.complete(AugmentationKind.FEEDBACK, "p") == "ok"

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("ARGSCORE_API_KEY", "secret-key")
        session = _FakeSession([self._ok("x")])
        HttpProvider(self.CONFIG, session=session).complete(AugmentationKind.FEEDBACK, "p")
        assert session.calls[0]["headers"]["Authorization"] == "Bearer secret-key"

    def test_generate_failure_leaves_cache_untouched(self, tmp_path):
        cache = PromptCache(tmp_path)
        session = _FakeSession([_FakeResponse(500, text="boom")] * 3)
        import argscore.augment.providers as providers_mod
        orig_sleep = providers_mod.time.sleep
        providers_mod.time.sleep = lambda s: None
        try:
            provider = HttpProvider(self.CONFIG, session=session)
            with pytest.raises(ProviderError):
                generate(make_record(), {AugmentationKind.FEEDBACK}, provider, cache=cache)
        finally:
            providers_mod.time.sleep = orig_sleep
        assert len(cache) == 0


def test_provider_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ProviderConfig(base_url="x", max_parallel=0)
    with pytest.raises(ValueError):
        ProviderConfig(base_url="x", request_timeout=0)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"base_url": "http://h/v1", "model_name": "m"}))
    cfg = ProviderConfig.from_json(path)
    assert cfg.model_name == "m" and cfg.temperature == 0.7 and cfg.max_tokens == 512


def test_augmentation_jsonl_roundtrip(tmp_path):
    record = make_record()
    sets = {record.id: generate(record, KIND_ORDER, MockProvider(seed=2))}
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
