from __future__ import annotations

import json

import pytest

from scenforge.errors import (
    BackendUnavailable,
    ConstraintUnsatisfiable,
    PlaybackMiss,
)
from scenforge.gateway import (
    MAX_RETRY_AFTER_SECONDS,
    CacheEntry,
    ConstraintSpec,
    FileCache,
    Gateway,
    MemoryCache,
    Message,
    PlaybackBackend,
    PromptRequest,
    RemoteBackend,
    cache_key,
)
from scenforge.pipeline import run_report
from scenforge.prompts import section_constraint
from scenforge.reports import load_report
from support import CallableBackend, happy_reply, write_report


def request(text="hello", stage="r1/objects", **kw):
    return PromptRequest.single("m1", "system prompt", text, stage, **kw)


# --- cache keys ---------------------------------------------------------------


def test_cache_key_deterministic():
    assert cache_key(request()) == cache_key(request())


def test_cache_key_sensitive_to_temperature():
    assert cache_key(request()) != cache_key(request(temperature=0.5))


def test_cache_key_ignores_stage_tag():
    assert cache_key(request(stage="a")) == cache_key(request(stage="b"))


def test_cache_key_sensitive_to_system_and_messages():
    a = PromptRequest("m", "sys A", (Message("user", "x"),), stage_tag="s")
    b = PromptRequest("m", "sys B", (Message("user", "x"),), stage_tag="s")
    assert cache_key(a) != cache_key(b)
    c = PromptRequest("m", "sys A", (Message("user", "y"),), stage_tag="s")
    assert cache_key(a) != cache_key(c)


def test_cache_key_sensitive_to_constraint():
    constraint = section_constraint("constants")
    assert cache_key(request()) != cache_key(request(), constraint)


def test_request_invariants():
    with pytest.raises(ValueError):
        PromptRequest("m", "s", (), stage_tag="x")
    with pytest.raises(ValueError):
        request(stage="")
    with pytest.raises(ValueError):
        request(max_tokens=0)


# --- completion and caching ------------------------------------------------------


def test_identical_request_served_from_cache_once():
    backend = CallableBackend(lambda req: "reply text")
    gateway = Gateway(backend, cache=MemoryCache())
    first = gateway.complete(request())
    second = gateway.complete(request())
    assert backend.call_count == 1
    assert not first.from_cache
    assert second.from_cache
    assert second.text == first.text


def test_file_cache_survives_gateway_restart(tmp_path):
    backend = CallableBackend(lambda req: "persisted")
    gateway = Gateway(backend, cache_dir=tmp_path / "cache")
    gateway.complete(request())
    assert backend.call_count == 1
    fresh = Gateway(backend, cache_dir=tmp_path / "cache")
    completion = fresh.complete(request())
    assert backend.call_count == 1
    assert completion.from_cache
    assert completion.text == "persisted"


def test_cache_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SCENFORGE_CACHE_DIR", str(tmp_path / "envcache"))
    gateway = Gateway(CallableBackend(lambda req: "x"))
    assert isinstance(gateway.cache, FileCache)
    gateway.complete(request())
    assert list((tmp_path / "envcache").glob("*.json"))


def test_file_cache_write_is_atomic_and_idempotent(tmp_path):
    cache = FileCache(tmp_path)
    cache.put("k1", "text", 2)
    cache.put("k1", "different", 9)  # second write ignored
    entry = cache.get("k1")
    assert entry.text == "text"
    assert not list(tmp_path.glob("*.tmp*"))


MALFORMED_ENTRIES = [
    "{}", "[]", '"x"', "null", "{not json", '{"text": "t"}',
    '{"text": "t", "token_count": "2"}', '{"text": 3, "token_count": 2}',
]


@pytest.mark.parametrize("content", MALFORMED_ENTRIES)
def test_malformed_file_cache_entry_is_a_miss_that_put_replaces(tmp_path, content):
    cache = FileCache(tmp_path)
    (tmp_path / "k1.json").write_text(content, encoding="utf-8")
    assert cache.get("k1") is None
    cache.put("k1", "text", 2)
    assert cache.get("k1") == CacheEntry("k1", "text", 2)
    # the keys on disk are the ones every earlier version wrote
    stored = json.loads((tmp_path / "k1.json").read_text(encoding="utf-8"))
    assert sorted(stored) == ["created_at", "key", "text", "token_count"]


def test_a_run_over_malformed_cache_entries_succeeds_and_repairs_them(tmp_path, config):
    report = load_report(write_report(tmp_path))
    cache_dir = tmp_path / "cache"
    first = CallableBackend(happy_reply)
    assert run_report(report, config, Gateway(first, cache_dir=cache_dir)).success
    entries = sorted(cache_dir.glob("*.json"))
    for path, content in zip(entries, ["{}", "[]", '"x"', '{"text": "t"}']):
        path.write_text(content, encoding="utf-8")
    again = CallableBackend(happy_reply)
    result = run_report(report, config, Gateway(again, cache_dir=cache_dir))
    assert result.success
    assert again.call_count == 4  # one fresh call per broken entry
    assert all(FileCache(cache_dir).get(path.stem) for path in entries)


def test_events_record_interactions():
    gateway = Gateway(CallableBackend(lambda req: "one"), cache=MemoryCache())

    def ask_twice():
        yield from gateway.ask(request())
        yield from gateway.ask(request())

    [(_, error, events)] = gateway.run(ask_twice())
    assert error is None
    assert len(events) == 2
    assert [e.from_cache for e in events] == [False, True]
    assert [e.cache for e in events] == ["miss", "hit"]
    assert events[0].stage_tag == "r1/objects"
    gateway.complete(request())  # another run: not recorded
    assert len(events) == 2


# --- playback backend -------------------------------------------------------------


def test_playback_by_stage_in_order():
    backend = PlaybackBackend(by_stage={"r1/objects": ["first", "second"]})
    gateway = Gateway(backend, cache=MemoryCache())
    a = gateway.complete(request("q1"))
    b = gateway.complete(request("q2"))
    assert (a.text, b.text) == ("first", "second")


def test_playback_miss_raises():
    backend = PlaybackBackend(by_stage={})
    gateway = Gateway(backend, cache=MemoryCache())
    with pytest.raises(PlaybackMiss):
        gateway.complete(request())


def test_playback_by_digest_takes_priority():
    req = request("exact")
    backend = PlaybackBackend(
        by_stage={"r1/objects": ["fallback"]},
        by_digest={cache_key(req): "exact reply"},
    )
    gateway = Gateway(backend, cache=MemoryCache())
    assert gateway.complete(req).text == "exact reply"


def test_playback_without_digest_table_hashes_only_on_a_miss(monkeypatch):
    import scenforge.gateway as gateway_module

    hashed = []
    monkeypatch.setattr(
        gateway_module, "cache_key", lambda req: hashed.append(req) or cache_key(req)
    )
    backend = PlaybackBackend(by_stage={"r1/objects": ["only"]})
    assert backend.invoke(request()) == ("only", 1)
    assert hashed == []
    with pytest.raises(PlaybackMiss, match=cache_key(request())[:12]):
        backend.invoke(request())
    assert hashed == [request()]
    assert backend.call_count == 2


def test_playback_from_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"by_stage": {"s/x": ["hi"]}, "by_digest": {}}))
    backend = PlaybackBackend.from_file(path)
    gateway = Gateway(backend, cache=MemoryCache())
    completion = gateway.complete(request(stage="s/x"))
    assert completion.text == "hi"


# --- constrained completion ---------------------------------------------------------


def test_conforming_output_accepted_verbatim():
    gateway = Gateway(
        CallableBackend(lambda req: "EGO_SPEED = 10"), cache=MemoryCache()
    )
    [(completion, _, events)] = gateway.run(
        gateway.ask_constrained(request(), section_constraint("constants"))
    )
    assert completion.text == "EGO_SPEED = 10"
    assert completion.conformance == "verbatim"
    assert events[-1].conformance == "verbatim"


def test_prose_line_stripped_code_kept():
    reply = "Sure! Here is the code:\nEGO_SPEED = 10"
    gateway = Gateway(CallableBackend(lambda req: reply), cache=MemoryCache())
    [(completion, _, events)] = gateway.run(
        gateway.ask_constrained(request(), section_constraint("constants"))
    )
    assert completion.text == "EGO_SPEED = 10"
    assert completion.conformance == "filtered"
    assert events[-1].conformance == "filtered"


def test_markdown_fences_removed():
    reply = "```\nEGO_SPEED = 10\n```"
    gateway = Gateway(CallableBackend(lambda req: reply), cache=MemoryCache())
    completion = gateway.complete_constrained(request(), section_constraint("constants"))
    assert completion.text == "EGO_SPEED = 10"


def test_only_prose_exhausts_regeneration():
    backend = CallableBackend(lambda req: "no code here at all")
    gateway = Gateway(backend, cache=MemoryCache(), regeneration_budget=3)
    with pytest.raises(ConstraintUnsatisfiable):
        gateway.complete_constrained(request(), section_constraint("constants"))
    assert backend.call_count == 3


def test_regeneration_uses_corrective_followup():
    seen = []

    def respond(req):
        seen.append(req)
        if len(seen) < 2:
            return "prose only reply"
        return "X = 1"

    gateway = Gateway(CallableBackend(respond), cache=MemoryCache())
    completion = gateway.complete_constrained(request(), section_constraint("constants"))
    assert completion.text == "X = 1"
    assert len(seen) == 2
    assert len(seen[1].messages) > len(seen[0].messages)
    assert "Offending lines" in seen[1].messages[-1].content


def test_max_lines_enforced():
    reply = "\n".join(f"C{i} = {i}" for i in range(40))
    gateway = Gateway(CallableBackend(lambda req: reply), cache=MemoryCache())
    constraint = ConstraintSpec("constants", r"[A-Za-z_]\w*\s*=\s*\S.*", frozenset(), 8)
    completion = gateway.complete_constrained(request(), constraint)
    assert len(completion.text.splitlines()) == 8


def test_behaviors_constraint_accepts_blocks():
    reply = "behavior B():\n    take SetBrakeAction(1.0)"
    gateway = Gateway(CallableBackend(lambda req: reply), cache=MemoryCache())
    completion = gateway.complete_constrained(request(), section_constraint("behaviors"))
    assert completion.text == reply


def test_constraint_postcondition_reassertable():
    import re

    constraint = section_constraint("spatial")
    reply = (
        "Let me explain first.\n"
        "ego = new Car at (0, 0)\n"
        "require True\n"
    )
    gateway = Gateway(CallableBackend(lambda req: reply), cache=MemoryCache())
    completion = gateway.complete_constrained(request(), constraint)
    pattern = re.compile(constraint.line_pattern)
    for line in completion.text.splitlines():
        if line.strip():
            assert pattern.fullmatch(line)


# --- remote backend ------------------------------------------------------------------


class _StubResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text
        self.headers = headers or {}

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class _StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _chat_payload(text: str) -> dict:
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"completion_tokens": len(text.split())},
    }


def test_remote_backend_happy_path(monkeypatch):
    monkeypatch.setenv("SCENFORGE_API_KEY", "sekrit")
    session = _StubSession([_StubResponse(200, _chat_payload("hello there"))])
    backend = RemoteBackend("https://api.example/v1/chat", session=session)
    text, tokens = backend.invoke(request())
    assert text == "hello there"
    assert tokens == 2
    sent = session.requests[0]
    assert sent["headers"]["Authorization"] == "Bearer sekrit"
    assert sent["json"]["model"] == "m1"
    assert sent["json"]["messages"][0]["role"] == "system"


def test_remote_backend_retries_then_fails():
    import requests as requests_lib

    session = _StubSession(
        [
            requests_lib.ConnectionError("down"),
            _StubResponse(503),
            requests_lib.ConnectionError("still down"),
        ]
    )
    backend = RemoteBackend(
        "https://api.example/v1/chat", session=session, retries=3, backoff_seconds=0.0
    )
    with pytest.raises(BackendUnavailable):
        backend.invoke(request())
    assert len(session.requests) == 3


def test_remote_backend_client_error_does_not_retry():
    session = _StubSession([_StubResponse(401, text="no auth")])
    backend = RemoteBackend(
        "https://api.example/v1/chat", session=session, retries=3, backoff_seconds=0.0
    )
    with pytest.raises(BackendUnavailable, match="401"):
        backend.invoke(request())
    assert len(session.requests) == 1


def test_remote_backend_recovers_after_transient_error():
    import requests as requests_lib

    session = _StubSession(
        [requests_lib.ConnectionError("blip"), _StubResponse(200, _chat_payload("ok"))]
    )
    backend = RemoteBackend(
        "https://api.example/v1/chat", session=session, retries=3, backoff_seconds=0.0
    )
    text, _ = backend.invoke(request())
    assert text == "ok"


def test_remote_backend_retries_a_rate_limit():
    session = _StubSession(
        [_StubResponse(429, text="slow down"), _StubResponse(200, _chat_payload("ok"))]
    )
    backend = RemoteBackend(
        "https://api.example/v1/chat", session=session, retries=3, backoff_seconds=0.0
    )
    text, _ = backend.invoke(request())
    assert text == "ok"
    assert len(session.requests) == 2


@pytest.mark.parametrize(
    "header, expected",
    [
        (None, [0.5, 1.0]),            # missing: exponential backoff
        ("soon", [0.5, 1.0]),          # garbage
        ("Wed, 21 Oct 2026 07:28:00 GMT", [0.5, 1.0]),  # a date is not seconds
        ("-3", [0.5, 1.0]),            # negative
        ("nan", [0.5, 1.0]),
        ("2", [2.0, 2.0]),
        ("0", [0.0, 0.0]),
        ("7200", [MAX_RETRY_AFTER_SECONDS] * 2),  # above the cap
        ("inf", [0.5, 1.0]),
        ("1.5", [0.5, 1.0]),           # delay-seconds are whole numbers
        (" 3 ", [3.0, 3.0]),
    ],
)
@pytest.mark.parametrize("status", [429, 503])
def test_remote_backend_honours_retry_after(monkeypatch, status, header, expected):
    import scenforge.gateway as gateway_module

    sleeps = []
    monkeypatch.setattr(gateway_module.time, "sleep", sleeps.append)
    headers = {} if header is None else {"Retry-After": header}
    session = _StubSession(
        [_StubResponse(status, headers=headers), _StubResponse(status, headers=headers),
         _StubResponse(200, _chat_payload("ok"))]
    )
    backend = RemoteBackend("https://api.example/v1/chat", session=session, retries=3)
    text, _ = backend.invoke(request())
    assert text == "ok"
    assert sleeps == expected


def test_retry_after_applies_only_to_the_next_attempt(monkeypatch):
    import requests as requests_lib

    import scenforge.gateway as gateway_module

    sleeps = []
    monkeypatch.setattr(gateway_module.time, "sleep", sleeps.append)
    session = _StubSession(
        [_StubResponse(429, headers={"Retry-After": "4"}),
         requests_lib.ConnectionError("blip"), _StubResponse(200, _chat_payload("ok"))]
    )
    backend = RemoteBackend("https://api.example/v1/chat", session=session, retries=3)
    backend.invoke(request())
    assert sleeps == [4.0, 1.0]


def _malformed_replies():
    import requests as requests_lib

    return {
        "no-choices": {"error": "overloaded"},
        "empty-choices": {"choices": []},
        "null-content": {"choices": [{"message": {"content": None}}]},
        "not-json": requests_lib.exceptions.JSONDecodeError("Expecting value", "<html>", 0),
        "list-body": ["not", "an", "object"],
        "bad-usage": {"choices": [{"message": {"content": "ok"}}], "usage": {"completion_tokens": "x"}},
    }


@pytest.mark.parametrize("case", list(_malformed_replies()))
def test_remote_backend_malformed_reply_is_backend_unavailable(case):
    session = _StubSession([_StubResponse(200, _malformed_replies()[case])])
    backend = RemoteBackend(
        "https://api.example/v1/chat", session=session, retries=3, backoff_seconds=0.0
    )
    with pytest.raises(BackendUnavailable, match="malformed reply"):
        backend.invoke(request())
    assert len(session.requests) == 1


def test_run_report_survives_malformed_remote_replies(tmp_path, config):
    from scenforge.pipeline import run_report
    from scenforge.reports import load_report
    from support import write_report

    replies = [_StubResponse(200, payload) for payload in _malformed_replies().values()]
    session = _StubSession(replies * 10)
    backend = RemoteBackend(
        "https://api.example/v1/chat", session=session, retries=1, backoff_seconds=0.0
    )
    gateway = Gateway(backend, cache=MemoryCache())
    try:
        result = run_report(load_report(write_report(tmp_path)), config, gateway)
    finally:
        gateway.close()
    assert not result.success
    assert result.failure.startswith("objects")
