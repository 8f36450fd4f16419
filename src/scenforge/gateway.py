"""Uniform access to language-model backends.

Two backends ship: a remote HTTP chat-completions client and a
deterministic scripted playback backend for offline runs and tests.
Every completion is cached content-addressed (digest of the
canonicalized request), so an identical request never reaches a backend
twice, within a process or across runs sharing a cache directory. An
identical request issued while the first is still in flight waits for
that call and shares its reply (or its error) instead of making its own.

Each interaction is recorded as a ``GatewayEvent`` into the sink that the
calling context opened with ``recording``; calls made from other threads
or tasks through the same gateway never land in it. ``Gateway.submit``
runs independent work on a pool of ``max_concurrent`` threads owned by
the gateway, for callers that fan requests out.

Constrained generation is enforced at the text level: validate each
output line against the section pattern, regenerate with a corrective
message on violation, and drop offending lines on the final attempt.
Remote chat endpoints expose no logits, so a token-mask hook is left to
local backends; the observable contract is the same either way.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import BackendUnavailable, ConstraintUnsatisfiable, PlaybackMiss

log = logging.getLogger(__name__)

DEFAULT_REGENERATION_BUDGET = 3
# two concurrent compositional runs each put three section generations
# in flight at once; a lower cap queues some of them behind the others
DEFAULT_MAX_CONCURRENT = 8
MAX_RETRY_AFTER_SECONDS = 30.0  # the longest wait a Retry-After header gets
CACHE_DIR_ENV = "SCENFORGE_CACHE_DIR"
API_KEY_ENV = "SCENFORGE_API_KEY"

CONFORMED = "verbatim"
FILTERED = "filtered"

CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_JOINED = "joined"  # shared the reply of an identical in-flight request


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class PromptRequest:
    model_id: str
    system: str = ""
    messages: tuple = ()
    temperature: float = 0.0
    max_tokens: int = 1024
    stop: tuple = ()
    stage_tag: str = "default"

    def __post_init__(self):
        if not self.messages:
            raise ValueError("a request needs at least one message")
        if not self.stage_tag:
            raise ValueError("stage_tag must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")

    @classmethod
    def single(cls, model_id: str, system: str, user_text: str, stage_tag: str, **kw):
        return cls(
            model_id=model_id,
            system=system,
            messages=(Message("user", user_text),),
            stage_tag=stage_tag,
            **kw,
        )

    def followup(self, assistant_text: str, user_text: str) -> "PromptRequest":
        """Extend the conversation with the last reply and a new ask."""
        extended = self.messages + (
            Message("assistant", assistant_text),
            Message("user", user_text),
        )
        return replace(self, messages=extended)


@dataclass(frozen=True)
class Completion:
    text: str
    token_count: int
    latency_seconds: float
    cache: str  # CACHE_HIT | CACHE_MISS | CACHE_JOINED
    conformance: str | None = None  # set by complete_constrained

    @property
    def from_cache(self) -> bool:
        """True when this request made no backend call of its own."""
        return self.cache != CACHE_MISS


@dataclass(frozen=True)
class ConstraintSpec:
    section_kind: str
    line_pattern: str
    allowed_lead_tokens: frozenset = frozenset()
    max_lines: int = 64


@dataclass(frozen=True)
class CacheEntry:
    key: str
    text: str
    token_count: int


@dataclass
class GatewayEvent:
    """One backend or cache interaction. ``digest`` is the request's
    digest without any constraint, the key a playback transcript uses."""

    stage_tag: str
    digest: str
    text: str
    token_count: int
    latency_seconds: float
    cache: str
    conformance: str | None = None  # last attempt of a constrained call

    @property
    def from_cache(self) -> bool:
        return self.cache != CACHE_MISS


_sink: ContextVar[list | None] = ContextVar("scenforge_gateway_sink", default=None)


@contextmanager
def recording(sink: list):
    """Append a GatewayEvent to ``sink`` for every gateway interaction
    made in the current context, in order. Context variables do not
    follow work handed to other threads, so a task that runs on a pool
    opens its own sink."""
    token = _sink.set(sink)
    try:
        yield sink
    finally:
        _sink.reset(token)


def cache_key(request: PromptRequest, constraint: ConstraintSpec | None = None) -> str:
    """Content digest of a request. stage_tag is excluded so identical
    prompts issued from different stages share one cache entry; system
    text and any constraint are included because they change the output.
    """
    payload = {
        "model_id": request.model_id,
        "system": request.system,
        "messages": [[m.role, m.content] for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "stop": list(request.stop),
        "constraint": None,  # kept so request digests match older transcripts
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return _constrained_key(digest, constraint) if constraint else digest


def _constrained_key(digest: str, constraint: ConstraintSpec) -> str:
    """Key of a constrained completion, from the request's digest, so a
    constrained call hashes its prompt once."""
    spec = json.dumps(
        [
            digest,
            constraint.section_kind,
            constraint.line_pattern,
            sorted(constraint.allowed_lead_tokens),
            constraint.max_lines,
        ],
        ensure_ascii=False,
    )
    return hashlib.sha256(spec.encode("utf-8")).hexdigest()


# --- caches -----------------------------------------------------------------


class MemoryCache:
    def __init__(self):
        self._entries: dict[str, CacheEntry] = {}

    def get(self, key: str) -> CacheEntry | None:
        return self._entries.get(key)

    def put(self, key: str, text: str, token_count: int) -> None:
        self._entries.setdefault(key, CacheEntry(key, text, token_count))


class FileCache:
    """One file per entry, named by digest. Writes go through a temp
    file and an atomic rename, so concurrent writers are idempotent. An
    entry that is not a JSON object with a string ``text`` and an integer
    ``token_count`` is a miss, and the next ``put`` replaces it."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> CacheEntry | None:
        path = self._path(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        text, token_count = data.get("text"), data.get("token_count")
        if not isinstance(text, str) or not isinstance(token_count, int):
            return None
        return CacheEntry(key, text, token_count)

    def put(self, key: str, text: str, token_count: int) -> None:
        if self.get(key) is not None:
            return
        path = self._path(key)
        payload = {
            "key": key,
            "text": text,
            "token_count": token_count,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        os.replace(tmp, path)


# --- backends ----------------------------------------------------------------


def _retry_after(value: str | None, default: float) -> float:
    """Retry-After delay-seconds, capped; ``default`` when absent or invalid."""
    if not re.fullmatch(r"\s*\d+\s*", value or ""):
        return default
    return min(float(value), MAX_RETRY_AFTER_SECONDS)


class RemoteBackend:
    """HTTP chat-completions client with retry and exponential backoff."""

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        retries: int = 3,
        backoff_seconds: float = 0.5,
        session=None,
    ):
        import requests

        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.session = session or requests.Session()
        self.call_count = 0

    def invoke(self, request: PromptRequest) -> tuple[str, int]:
        import requests

        self.call_count += 1
        messages = []
        if request.system:
            messages.append({"role": "system", "content": request.system})
        messages.extend({"role": m.role, "content": m.content} for m in request.messages)
        payload = {
            "model": request.model_id,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.stop:
            payload["stop"] = list(request.stop)
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(delay)
            delay = self.backoff_seconds * (2 ** attempt)
            try:
                response = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                log.warning("backend request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if response.status_code >= 500 or response.status_code == 429:  # 429: rate limited
                last_error = BackendUnavailable(
                    f"status {response.status_code} from {self.endpoint}"
                )
                delay = _retry_after(response.headers.get("Retry-After"), delay)
                continue
            if response.status_code >= 400:
                raise BackendUnavailable(
                    f"request rejected with status {response.status_code}: "
                    f"{response.text[:200]}"
                )
            try:
                data = response.json()
                text = data["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}, not str")
                usage = data.get("usage") or {}
                return text, int(usage.get("completion_tokens", len(text.split())))
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise BackendUnavailable(
                    f"malformed reply from {self.endpoint}: {exc!r}"
                ) from exc
        raise BackendUnavailable(
            f"backend unreachable after {self.retries} attempts: {last_error}"
        )


class PlaybackBackend:
    """Deterministic scripted backend.

    Responses are looked up by exact request digest first, then by
    stage_tag in scripted order. With a fixed transcript the whole
    gateway is a pure function.
    """

    def __init__(self, by_stage: dict | None = None, by_digest: dict | None = None):
        self.by_stage = {k: list(v) for k, v in (by_stage or {}).items()}
        self.by_digest = dict(by_digest or {})
        self.call_count = 0
        self._cursors: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path) -> "PlaybackBackend":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(data.get("by_stage"), data.get("by_digest"))

    def invoke(self, request: PromptRequest) -> tuple[str, int]:
        # hash the prompt only when there is a digest table to look it up in
        digest = cache_key(request) if self.by_digest else None
        with self._lock:
            self.call_count += 1
            if digest in self.by_digest:
                text = self.by_digest[digest]
                return text, len(text.split())
            queue = self.by_stage.get(request.stage_tag, ())
            cursor = self._cursors.get(request.stage_tag, 0)
            if cursor < len(queue):
                self._cursors[request.stage_tag] = cursor + 1
                text = queue[cursor]
                return text, len(text.split())
        raise PlaybackMiss(
            f"no scripted response for stage '{request.stage_tag}' "
            f"(request {(digest or cache_key(request))[:12]}, ordinal {cursor})"
        )


# --- the gateway ---------------------------------------------------------------


_FENCE = re.compile(r"^\s*```")


def _clean_lines(text: str) -> list[str]:
    lines = [line.rstrip() for line in text.splitlines() if not _FENCE.match(line)]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return lines


def _line_conforms(line: str, constraint: ConstraintSpec, pattern: re.Pattern) -> bool:
    if not line.strip():
        return True
    if constraint.allowed_lead_tokens:
        lead = line.strip().split()[0]
        lead = re.split(r"[^\w]", lead, maxsplit=1)[0] or lead
        if lead not in constraint.allowed_lead_tokens and not line.startswith(" "):
            return False
    return pattern.fullmatch(line) is not None


class Gateway:
    """Backend access with content-addressed caching, single-flight
    dedup of identical in-flight requests, and a worker pool for fan-out.

    Every interaction is recorded into the sink of the calling context
    (see ``recording``); the gateway keeps no log of its own.
    """

    def __init__(
        self,
        backend,
        cache=None,
        cache_dir=None,
        max_concurrent: int = DEFAULT_MAX_CONCURRENT,
        regeneration_budget: int = DEFAULT_REGENERATION_BUDGET,
    ):
        self.backend = backend
        if cache is not None:
            self.cache = cache
        else:
            directory = cache_dir or os.environ.get(CACHE_DIR_ENV)
            self.cache = FileCache(directory) if directory else MemoryCache()
        self.regeneration_budget = max(1, regeneration_budget)
        self._semaphore = threading.BoundedSemaphore(max_concurrent)
        self._inflight_lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        # threads start on first submit and exit once the gateway is gone
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="scenforge-gateway"
        )

    # -- plumbing ------------------------------------------------------

    def submit(self, fn, *args) -> Future:
        """Run ``fn(*args)`` on the gateway's pool. Tasks may make gateway
        calls but must not submit further tasks and wait on them: the pool
        is bounded, so a task waiting on a queued task can deadlock it.
        A pipeline layer instead runs its queued stages on its own thread."""
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Stop the pool's threads once the tasks already submitted finish.
        A gateway that is dropped without ``close`` stops them when it is
        garbage-collected."""
        self._pool.shutdown()

    def _execute(
        self, request: PromptRequest, key: str, digest: str
    ) -> tuple[Completion, GatewayEvent]:
        start = time.perf_counter()
        entry = self.cache.get(key)
        if entry is not None:
            text, tokens, cache = entry.text, entry.token_count, CACHE_HIT
        else:
            text, tokens, cache = self._single_flight(request, key)
        latency = time.perf_counter() - start
        event = GatewayEvent(request.stage_tag, digest, text, tokens, latency, cache)
        sink = _sink.get()
        if sink is not None:
            sink.append(event)
        return Completion(text, tokens, latency, cache), event

    def _single_flight(self, request: PromptRequest, key: str) -> tuple[str, int, str]:
        """At most one backend call per key at a time. A request whose key
        is already in flight waits for that call and shares its reply, or
        re-raises its error."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = Future()
        if not leader:
            text, tokens = flight.result()
            return text, tokens, CACHE_JOINED
        try:
            # a flight for this key may have landed since the caller's look
            entry = self.cache.get(key)
            if entry is not None:
                reply, cache = (entry.text, entry.token_count), CACHE_HIT
            else:
                with self._semaphore:
                    reply = self.backend.invoke(request)
                self.cache.put(key, *reply)
                cache = CACHE_MISS
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._inflight_lock:
                del self._inflight[key]
        flight.set_result(reply)
        return reply[0], reply[1], cache

    # -- public operations ------------------------------------------------

    def complete(self, request: PromptRequest) -> Completion:
        """Cache-first completion; one backend call per novel request."""
        key = cache_key(request)
        return self._execute(request, key, key)[0]

    def complete_constrained(
        self, request: PromptRequest, constraint: ConstraintSpec
    ) -> Completion:
        """Completion whose every line matches the section pattern.

        Up to the regeneration budget attempts; the final attempt drops
        nonconforming lines instead of failing. The conformance outcome
        lands on the returned completion and on the last attempt's event.
        """
        pattern = re.compile(constraint.line_pattern)
        budget = self.regeneration_budget
        current = request
        for attempt in range(1, budget + 1):
            digest = cache_key(current)
            completion, event = self._execute(
                current, _constrained_key(digest, constraint), digest
            )
            lines = _clean_lines(completion.text)
            bad = [
                line for line in lines if not _line_conforms(line, constraint, pattern)
            ]
            nonempty = [line for line in lines if line.strip()]
            if not bad and len(nonempty) <= constraint.max_lines:
                event.conformance = CONFORMED
                return replace(completion, text="\n".join(lines), conformance=CONFORMED)
            if attempt < budget:
                current = current.followup(
                    completion.text,
                    self._corrective_text(constraint, bad, attempt),
                )
                continue
            kept = [
                line for line in lines if line.strip() and line not in bad
            ][: constraint.max_lines]
            if kept:
                event.conformance = FILTERED
                return replace(completion, text="\n".join(kept), conformance=FILTERED)
        raise ConstraintUnsatisfiable(
            f"no line conformed to the {constraint.section_kind} pattern "
            f"after {budget} attempt(s)"
        )

    @staticmethod
    def _corrective_text(constraint: ConstraintSpec, bad: list[str], attempt: int) -> str:
        offending = "\n".join(bad[:5])
        return (
            f"Attempt {attempt} contained lines that do not fit the "
            f"{constraint.section_kind} section format. Respond again with at "
            f"most {constraint.max_lines} lines, each matching the pattern "
            f"{constraint.line_pattern!r}, and nothing else.\n"
            f"Offending lines were:\n{offending}"
        )
