"""Uniform access to language-model backends.

Two backends ship: a remote HTTP chat-completions client and a
deterministic scripted playback backend for offline runs and tests.
Every completion is cached content-addressed (digest of the
canonicalized request), so an identical request never reaches a backend
twice, within a process or across runs sharing a cache directory. An
identical request issued while the first is still in flight waits for
that call and shares its reply (or its error) instead of making its own.

Model calls are made by steps: generators (``ask``, ``ask_constrained``
and whatever ``yield from`` them) that yield a ``Call`` and are sent its
reply ``Completion``. ``Gateway.run`` drives steps on the calling thread
and hands back each one's value or error and its own calls' records. A
round's backend misses after the first go to a pool of ``max_concurrent``
threads, which run nothing but ``backend.invoke`` and the cache put.

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
from collections.abc import Generator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TypeVar

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
class Call:
    """What a step yields; ``digest`` ignores any constraint, as transcripts do."""

    request: PromptRequest
    key: str
    digest: str


@dataclass
class Completion:
    """One call's reply record, as traced."""

    stage_tag: str
    digest: str
    text: str
    token_count: int
    latency_seconds: float
    cache: str  # CACHE_HIT | CACHE_MISS | CACHE_JOINED
    conformance: str | None = None  # last attempt of a constrained call

    @property
    def from_cache(self) -> bool:
        """True when this request made no backend call of its own."""
        return self.cache != CACHE_MISS


T = TypeVar("T")
Step = Generator[Call, Completion, T]  # yields Calls, is sent their replies, returns a T


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
    dedup of identical in-flight requests, and ``run``, the step driver."""

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
        # threads start on the first pooled call and exit once the gateway is gone
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="scenforge-gateway"
        )

    def close(self) -> None:
        """Stop the pool's threads once the calls already pooled finish; a
        dropped gateway stops them when collected. Later calls stay on the caller."""
        self._pool.shutdown()

    # -- the driver ------------------------------------------------------

    def run(self, *steps) -> list[tuple]:
        """Advance every step on the calling thread until it returns or
        raises: a ``(value, error, records)`` triple per step, ``records``
        being its calls' Completions in call order, one call per round. A
        failed call is thrown into its step and records nothing."""
        outcomes = [[None, None, []] for _ in steps]
        replies = [None] * len(steps)
        live = range(len(steps))
        while live:
            asked = []
            for n in live:
                resume = steps[n].throw if isinstance(replies[n], Exception) else steps[n].send
                try:
                    asked.append((n, resume(replies[n])))
                except StopIteration as stop:
                    outcomes[n][0] = stop.value
                except Exception as exc:
                    outcomes[n][1] = exc
            live = [n for n, _ in asked]
            for n, reply in zip(live, self._round([call for _, call in asked])):
                replies[n] = reply
                if isinstance(reply, Completion):
                    outcomes[n][2].append(reply)
        return [tuple(outcome) for outcome in outcomes]

    def _round(self, calls: list[Call]) -> list:
        """A Completion, or the error, per call. Hits are answered at once;
        all misses go out before any flight is waited on: misses 2..N to the
        pool, then the caller makes miss 1 and each pooled one not started."""
        pending, misses = [], []
        for call in calls:
            start = time.perf_counter()
            entry, cache = self.cache.get(call.key), CACHE_HIT
            if entry is not None:
                reply = (entry.text, entry.token_count, time.perf_counter())
            else:
                with self._inflight_lock:
                    reply, cache = self._inflight.get(call.key), CACHE_JOINED
                    if reply is None:
                        reply = self._inflight[call.key] = Future()
                        cache = CACHE_MISS
                if cache == CACHE_MISS:
                    # a flight for this key may have landed since the look
                    entry = self.cache.get(call.key)
                    if entry is None:
                        misses.append((call, reply))
                    else:
                        self._land(call.key, reply, (entry.text, entry.token_count))
                        cache = CACHE_HIT
            pending.append((call, start, cache, reply))
        pooled = [self._offer(miss) for miss in misses[1:]]
        for n, miss in enumerate(misses):
            if n == 0 or pooled[n - 1].cancel():
                self._fly(*miss)
        replies = []
        for call, start, cache, reply in pending:
            try:
                text, tokens, end = reply if isinstance(reply, tuple) else reply.result()
            except Exception as exc:
                replies.append(exc)
            else:
                replies.append(Completion(
                    call.request.stage_tag, call.digest, text, tokens, end - start, cache
                ))
        return replies

    def _offer(self, miss) -> Future:
        try:
            return self._pool.submit(self._fly, *miss)
        except RuntimeError:  # closed: a future the caller can take back
            return Future()

    def _fly(self, call: Call, flight: Future) -> None:
        """The backend call and cache put for ``call``, landing on ``flight``."""
        try:
            with self._semaphore:
                reply = self.backend.invoke(call.request)
            self.cache.put(call.key, *reply)
        except BaseException as exc:
            reply = exc
        self._land(call.key, flight, reply)

    def _land(self, key: str, flight: Future, reply) -> None:
        with self._inflight_lock:
            del self._inflight[key]
        if isinstance(reply, BaseException):
            flight.set_exception(reply)
        else:
            flight.set_result((*reply, time.perf_counter()))

    # -- steps ---------------------------------------------------------------

    def ask(self, request: PromptRequest) -> Step[Completion]:
        """Step: the cache-first completion of ``request``."""
        key = cache_key(request)
        return (yield Call(request, key, key))

    def ask_constrained(
        self, request: PromptRequest, constraint: ConstraintSpec
    ) -> Step[Completion]:
        """Step: a completion whose every line matches the section pattern.
        Up to the regeneration budget attempts; the final attempt drops
        nonconforming lines instead of failing. The conformance outcome
        lands on the returned completion and on the last attempt's record."""
        pattern = re.compile(constraint.line_pattern)
        budget = self.regeneration_budget
        current = request
        for attempt in range(1, budget + 1):
            digest = cache_key(current)
            reply = yield Call(current, _constrained_key(digest, constraint), digest)
            lines = _clean_lines(reply.text)
            bad = [
                line for line in lines if not _line_conforms(line, constraint, pattern)
            ]
            nonempty = [line for line in lines if line.strip()]
            if not bad and len(nonempty) <= constraint.max_lines:
                reply.conformance = CONFORMED
                return replace(reply, text="\n".join(lines))
            if attempt < budget:
                current = current.followup(
                    reply.text,
                    self._corrective_text(constraint, bad, attempt),
                )
                continue
            kept = [
                line for line in lines if line.strip() and line not in bad
            ][: constraint.max_lines]
            if kept:
                reply.conformance = FILTERED
                return replace(reply, text="\n".join(kept))
        raise ConstraintUnsatisfiable(
            f"no line conformed to the {constraint.section_kind} pattern "
            f"after {budget} attempt(s)"
        )

    # -- one step at a time ----------------------------------------------------

    def complete(self, request: PromptRequest) -> Completion:
        """Cache-first completion; one backend call per novel request."""
        return self._run_one(self.ask(request))

    def complete_constrained(
        self, request: PromptRequest, constraint: ConstraintSpec
    ) -> Completion:
        """``ask_constrained`` run on its own."""
        return self._run_one(self.ask_constrained(request, constraint))

    def _run_one(self, step: Step[T]) -> T:
        [(value, error, _)] = self.run(step)
        if error is not None:
            raise error
        return value

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
