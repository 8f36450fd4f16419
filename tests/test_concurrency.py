"""Concurrency contracts: layered fan-out inside one run, where stage
code stays on the calling thread and only backend calls leave it,
single-flight dedup across steps and runs, and per-run traces under a
shared gateway."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from scenforge import cli, pipeline
from scenforge.errors import BackendUnavailable
from scenforge.gateway import Gateway, MemoryCache, PromptRequest, cache_key
from scenforge.pipeline import PipelineConfig, run_baseline, run_pipeline, run_report
from scenforge.prompts import PromptFactory, section_constraint
from scenforge.reports import AgentMention, ReportRecord, load_report
from scenforge.scenic import SECTION_KINDS
from support import (
    BICYCLE_NARRATIVE,
    CallableBackend,
    SleepingBackend,
    bundled_store,
    happy_reply,
    happy_transcript,
    playback,
    round_trips,
    write_corpus,
    write_report,
)

REMOTE_DELAY = 0.03
TIMEOUT = 60  # seconds any test waits on its workers


# --- one run: four joined layers --------------------------------------------------


@pytest.mark.parametrize("with_store", [True, False], ids=["store", "no-store"])
def test_happy_path_waits_on_four_round_trips(tmp_path, config, with_store):
    report = load_report(write_report(tmp_path))
    backend = SleepingBackend(happy_reply, REMOTE_DELAY)
    threads: dict[str, set[int]] = {}
    invoke = backend.invoke

    def invoke_noting_thread(request):
        threads.setdefault(request.stage_tag.rsplit("/", 1)[-1], set()).add(threading.get_ident())
        return invoke(request)

    backend.invoke = invoke_noting_thread
    retrieval = bundled_store() if with_store else None
    result = run_pipeline(report, config, Gateway(backend, cache=MemoryCache()), retrieval)
    assert result.success
    assert backend.call_count == (7 if with_store else 6)
    assert round_trips(backend.calls) == 4
    # a pool thread starts each pooled call while the caller makes its
    # own, so the caller takes none of them over
    caller = threading.get_ident()
    assert {tag for tag, ran_on in threads.items() if ran_on != {caller}} == (
        {"section:behaviors", "section:spatial"} | ({"hyde_draft"} if with_store else set())
    )


@pytest.mark.parametrize(
    "with_store, submits", [(True, 3), (False, 2)], ids=["store", "no-store"]
)
def test_every_stage_runs_on_the_calling_thread(tmp_path, config, monkeypatch,
                                                with_store, submits):
    # layers: objects | draft, questions, answers, constants | behaviors | spatial
    report = load_report(write_report(tmp_path))
    started: list[str] = []
    resumed_on: set[int] = set()

    def traced(stage, key):
        def run(*args):
            started.append(key(args))
            step, reply = stage(*args), None
            while True:
                resumed_on.add(threading.get_ident())
                try:
                    call = step.send(reply)
                except StopIteration as stop:
                    return stop.value
                reply = yield call
        return run

    for name in ("stage_objects", "_retrieve_examples", "stage_questions", "stage_answers"):
        stage = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, traced(stage, lambda args, name=name: name))
    # a section stage is keyed by its kind
    monkeypatch.setattr(pipeline, "stage_section", traced(pipeline.stage_section, lambda args: args[0]))
    gateway = Gateway(SleepingBackend(happy_reply, 0.0), cache=MemoryCache())
    submitted = []
    submit = gateway._pool.submit
    monkeypatch.setattr(gateway._pool, "submit", lambda *args: submitted.append(args) or submit(*args))
    result = run_pipeline(report, config, gateway, bundled_store() if with_store else None)
    assert result.success
    # misses 2..N of a layer's round are offered to the pool
    assert len(submitted) == submits
    # each stage runs once, and every resumption of it is on the caller
    stages = {"stage_objects", "stage_questions", "stage_answers"} | set(SECTION_KINDS)
    assert sorted(started) == sorted(stages | ({"_retrieve_examples"} if with_store else set()))
    assert resumed_on == {threading.get_ident()}


def test_a_run_on_a_warm_cache_submits_nothing_and_starts_no_thread(tmp_path, config):
    report = load_report(write_report(tmp_path))
    cache_dir = tmp_path / "cache"
    cold = Gateway(SleepingBackend(happy_reply, 0.0), cache_dir=cache_dir)
    assert run_report(report, config, cold, bundled_store()).success
    cold.close()
    gateway = Gateway(SleepingBackend(happy_reply, 0.0), cache_dir=cache_dir)
    submitted = []
    submit = gateway._pool.submit
    gateway._pool.submit = lambda *args: submitted.append(args) or submit(*args)
    before = set(threading.enumerate())
    try:
        result = run_report(report, config, gateway, bundled_store())
        started = set(threading.enumerate()) - before
    finally:
        gateway.close()
    assert result.success
    assert {i.cache for t in result.traces for i in t.interactions} == {"hit"}
    assert submitted == []
    assert started == set()


def _layer_stage(gateway, failing, ran):
    """A step that asks the gateway for its own name, notes each run in
    ``ran`` and raises the reply for a ``failing`` name."""
    def stage(name):
        ran.append(name)
        request = PromptRequest.single("m", "system", name, f"r/{name}")
        text = (yield from gateway.ask(request)).text
        if name in failing:
            raise RuntimeError(text)
        return text
    return stage


def _assert_layer_kept(stages, names, failing, failed_calls_traced=True):
    passing = [name for name in names if name not in failing]
    for name in passing:
        assert stages.take(name) == f"r/{name}"
        stages.close(name)
    first, *rest = failing
    with pytest.raises(pipeline._StageFailed, match=f"^{first}: RuntimeError: r/{first}$"):
        stages.take(first)
    assert [(t.stage, t.outcome) for t in stages.traces] == (
        [(name, "ok") for name in passing] + [(first, "failed")]
        + [(name, "skipped") for name in rest]
    )
    for trace in stages.traces:
        traced = failed_calls_traced or trace.stage not in failing
        assert [i.stage_tag for i in trace.interactions] == [f"r/{trace.stage}"] * traced


def test_a_wide_layer_keeps_every_stage_value_error_and_call():
    # pool threads and the caller land the replies of one round, which the
    # caller hands to every step; a lost reply would hang or drop a step,
    # and a call made twice would show twice
    backend = SleepingBackend(lambda request: request.stage_tag, 0.0)
    gateway = Gateway(backend, cache=MemoryCache())
    names = [f"s{i}" for i in range(12)]
    failing = ("s3", "s7")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, so races show
    try:
        for _ in range(20):
            ran: list[str] = []
            stage = _layer_stage(gateway, failing, ran)
            stages = pipeline._Stages(gateway)
            stages.layer(*[(name, stage(name)) for name in names])
            assert ran == names
            _assert_layer_kept(stages, names, failing)
            gateway.cache = MemoryCache()
        assert backend.call_count == 20 * len(names)
    finally:
        sys.setswitchinterval(interval)
        gateway.close()


def test_a_pooled_call_that_raises_fails_only_its_own_step():
    # the caller's own call waits until the failing calls have started on
    # pool threads, so they are pooled calls, not ones the caller took back
    failing = ("s3", "s7")
    started: dict[str, int] = {}
    both_started = threading.Event()

    def respond(request):
        name = request.stage_tag.rpartition("/")[2]
        if name in failing:
            started[name] = threading.get_ident()
            if len(started) == len(failing):
                both_started.set()
            raise RuntimeError(request.stage_tag)
        if name == "s0":
            both_started.wait(TIMEOUT)
        return request.stage_tag

    gateway = Gateway(SleepingBackend(respond, 0.0), cache=MemoryCache())
    names = [f"s{i}" for i in range(6)] + ["s7"]
    ran: list[str] = []
    stages = pipeline._Stages(gateway)
    try:
        stages.layer(*[(name, _layer_stage(gateway, (), ran)(name)) for name in names])
    finally:
        gateway.close()
    assert ran == names
    assert both_started.is_set() and threading.get_ident() not in started.values()
    _assert_layer_kept(stages, names, failing, failed_calls_traced=False)


def test_a_closed_gateway_makes_a_layer_s_calls_on_its_caller():
    backend = SleepingBackend(lambda request: request.stage_tag, 0.0)
    gateway = Gateway(backend, cache=MemoryCache())
    gateway.close()
    requests = [PromptRequest.single("m", "system", name, f"r/{name}") for name in "ab"]
    outcomes = gateway.run(*(gateway.ask(request) for request in requests))
    assert [value.text for value, _, _ in outcomes] == ["r/a", "r/b"]
    assert backend.call_count == 2
    assert gateway.complete(requests[0]).from_cache


class _ParkingCache(MemoryCache):
    """A MemoryCache whose put for ``key`` parks until ``release``; the put
    for ``wait_key`` waits until that has happened."""

    def __init__(self, key, wait_key):
        super().__init__()
        self.key, self.wait_key = key, wait_key
        self.parked, self.release = threading.Event(), threading.Event()

    def put(self, key, text, token_count):
        if key == self.key:
            self.parked.set()
            self.release.wait(TIMEOUT)
        elif key == self.wait_key:
            self.parked.wait(TIMEOUT)
        super().put(key, text, token_count)


def test_a_layer_finishes_while_every_pool_thread_is_busy():
    # the caller makes each pooled call that no pool thread has started,
    # so a layer never waits behind other work on a full pool. The one
    # pool thread is held by a pooled call parked in its cache put, after
    # its backend call: a parked backend call would hold the one backend
    # slot that max_concurrent=1 leaves every other call
    first = PromptRequest.single("m", "system", "first", "h/first")
    hold = PromptRequest.single("m", "system", "hold", "h/hold")
    cache = _ParkingCache(key=cache_key(hold), wait_key=cache_key(first))
    backend = SleepingBackend(lambda request: request.stage_tag, 0.0)
    gateway = Gateway(backend, cache=cache, max_concurrent=1)
    holder = threading.Thread(target=gateway.run, args=(gateway.ask(first), gateway.ask(hold)))
    holder.start()
    names, failing = ["s0", "s1", "s2"], ("s1",)
    ran: list[str] = []
    stage = _layer_stage(gateway, failing, ran)
    stages = pipeline._Stages(gateway)
    runner = threading.Thread(target=stages.layer, args=[(name, stage(name)) for name in names])
    try:
        assert cache.parked.wait(TIMEOUT)
        runner.start()
        runner.join(5)
        assert not runner.is_alive()
        assert not cache.release.is_set()
    finally:
        cache.release.set()
        runner.join(TIMEOUT)
        holder.join(TIMEOUT)
        gateway.close()
    assert ran == names
    assert sorted(tag for tag, _, _ in backend.calls) == [
        "h/first", "h/hold", "r/s0", "r/s1", "r/s2",
    ]
    _assert_layer_kept(stages, names, failing)


def test_constrained_baseline_waits_on_one_round_trip(tmp_path, config):
    report = load_report(write_report(tmp_path))
    backend = SleepingBackend(happy_reply, REMOTE_DELAY)
    gateway = Gateway(backend, cache=MemoryCache())
    result = run_baseline("constrained", report, config, gateway)
    assert result.success
    assert backend.call_count == 3
    assert round_trips(backend.calls) == 1
    # the traces of the same three requests made one after another
    factory = PromptFactory(config.model_id)
    replay = Gateway(SleepingBackend(happy_reply, 0.0), cache=MemoryCache())
    expected = []
    for kind in SECTION_KINDS:
        [(_, _, events)] = replay.run(replay.ask_constrained(
            factory.baseline_section_request(report, kind), section_constraint(kind)
        ))
        expected.append((f"section:{kind}", "ok", [untimed(e) for e in events]))
    assert [
        (t.stage, t.outcome, [untimed(e) for e in t.interactions]) for t in result.traces
    ] == expected


def untimed(event) -> dict:
    fields = dict(vars(event))
    del fields["latency_seconds"]
    return fields


def test_layered_run_output_matches_sequential_replay(tmp_path, config):
    # the same replies served with and without latency give the same run
    report = load_report(write_report(tmp_path))
    slow = run_pipeline(
        report, config,
        Gateway(SleepingBackend(happy_reply, 0.005), cache=MemoryCache()),
        bundled_store(),
    )
    fast = run_pipeline(
        report, config,
        Gateway(SleepingBackend(happy_reply, 0.0), cache=MemoryCache()),
        bundled_store(),
    )
    assert slow.final_program == fast.final_program
    assert [t.stage for t in slow.traces] == [t.stage for t in fast.traces] == [
        "objects", "questions", "answers", "retrieve",
        "section:constants", "section:behaviors", "section:spatial", "finalize",
    ]


# --- single-flight ------------------------------------------------------------------


def test_concurrent_identical_requests_share_one_backend_call():
    backend = SleepingBackend(lambda request: "reply", 0.05)
    gateway = Gateway(backend, cache=MemoryCache())
    barrier = threading.Barrier(6)
    request = PromptRequest.single("m", "sys", "same prompt", "r1/objects")

    def call(_):
        barrier.wait(timeout=10)
        [(completion, _, events)] = gateway.run(gateway.ask(request))
        return completion, events

    with ThreadPoolExecutor(max_workers=6) as pool:
        outcomes = list(pool.map(call, range(6), timeout=TIMEOUT))
    assert backend.call_count == 1
    assert {completion.text for completion, _ in outcomes} == {"reply"}
    caches = sorted(events[0].cache for _, events in outcomes)
    assert caches.count("miss") == 1
    assert set(caches) <= {"miss", "joined", "hit"}
    assert sum(not completion.from_cache for completion, _ in outcomes) == 1


def test_two_steps_asking_one_request_make_one_call():
    backend = CallableBackend(lambda request: "reply")
    gateway = Gateway(backend, cache=MemoryCache())
    request = PromptRequest.single("m", "sys", "same prompt", "r1/objects")
    outcomes = gateway.run(gateway.ask(request), gateway.ask(request))
    assert backend.call_count == 1
    assert [value.text for value, _, _ in outcomes] == ["reply", "reply"]
    assert [[i.cache for i in events] for _, _, events in outcomes] == [["miss"], ["joined"]]


def test_leader_error_reaches_every_joiner():
    def fail(request):
        raise BackendUnavailable("backend down")

    backend = SleepingBackend(fail, 0.2)
    gateway = Gateway(backend, cache=MemoryCache())
    barrier = threading.Barrier(4)
    request = PromptRequest.single("m", "sys", "same prompt", "r1/objects")

    def call(_):
        barrier.wait(timeout=10)
        try:
            gateway.complete(request)
        except BackendUnavailable as exc:
            return str(exc)
        return None

    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = list(pool.map(call, range(4), timeout=TIMEOUT))
    assert errors == ["backend down"] * 4
    assert backend.call_count == 1
    # errors are not cached: a later request makes a fresh call
    with pytest.raises(BackendUnavailable):
        gateway.complete(request)
    assert backend.call_count == 2


def test_identical_reports_make_one_call_per_distinct_request(tmp_path, monkeypatch):
    # eight copies of one report under different ids, all in flight at once
    ids = [f"c{i}" for i in range(8)]
    corpus = write_corpus(tmp_path / "corpus", ids)

    def run(jobs: int, out) -> int:
        backend = SleepingBackend(happy_reply, 0.02)
        monkeypatch.setattr(cli, "_build_backend", lambda args: backend)
        code = cli.main([
            "run-corpus", "--corpus", str(corpus), "--jobs", str(jobs),
            "--out", str(out), "--cache-dir", str(out / "cache"),
        ])
        assert code == 0
        return backend.call_count

    distinct = run(1, tmp_path / "one")
    assert distinct == 6
    assert run(8, tmp_path / "eight") == distinct


# --- per-run traces under one shared gateway ------------------------------------------


def test_shared_gateway_traces_hold_only_their_own_calls(registry, cross4):
    # 32 reports in 4 groups of identical content, so runs both race and
    # join each other's flights
    config = PipelineConfig(registry=registry, network=cross4, seed=7)
    reports = [
        ReportRecord(
            id=f"s{i:02d}",
            narrative=f"{BICYCLE_NARRATIVE} Variant {i % 4}.",
            road_context="intersection",
            dynamic_agents=(AgentMention("av"), AgentMention("cyclist")),
        )
        for i in range(32)
    ]
    backend = SleepingBackend(happy_reply, 0.002)
    gateway = Gateway(backend, cache=MemoryCache())
    retrieval = bundled_store()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, so races show
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda report: run_pipeline(report, config, gateway, retrieval),
                reports, timeout=TIMEOUT,
            ))
    finally:
        sys.setswitchinterval(interval)
    assert all(result.success for result in results)
    for result in results:
        tags = {
            interaction.stage_tag
            for trace in result.traces
            for interaction in trace.interactions
        }
        assert tags and all(tag.startswith(f"{result.report_id}/") for tag in tags)
    assert sum(result.backend_calls for result in results) == backend.call_count
    assert backend.call_count == 4 * 7


def test_every_call_is_traced_once_when_a_section_fails(tmp_path, config):
    # constants cannot be repaired; behaviors and spatial were already
    # generated alongside it and are traced after it as skipped
    report = load_report(write_report(tmp_path))
    transcript = happy_transcript()
    transcript["r1/section:constants"] = ["BROKEN = ((("]
    transcript["r1/repair:constants"] = ["BROKEN = ((("] * config.section_retry_budget
    backend = playback(transcript)
    result = run_pipeline(report, config, Gateway(backend, cache=MemoryCache()))
    assert result.failure.startswith("section:constants")
    assert [(t.stage, t.outcome) for t in result.traces] == [
        ("objects", "ok"), ("questions", "ok"), ("answers", "ok"),
        ("section:constants", "failed"),
        ("section:behaviors", "skipped"), ("section:spatial", "skipped"),
    ]
    assert sum(len(t.interactions) for t in result.traces) == backend.call_count
    assert result.backend_calls == backend.call_count


def test_failed_objects_traces_the_issued_draft_as_skipped(tmp_path, config):
    report = load_report(write_report(tmp_path))

    def respond(request):
        if request.stage_tag.endswith("/objects"):
            return "no final answer block here"
        return happy_reply(request)

    backend = SleepingBackend(respond, 0.0)
    result = run_pipeline(
        report, config, Gateway(backend, cache=MemoryCache()), bundled_store()
    )
    assert result.failure.startswith("objects")
    assert [(t.stage, t.outcome, len(t.interactions)) for t in result.traces] == [
        ("objects", "failed", 2), ("retrieve", "skipped", 1),
    ]
    assert backend.call_count == 3
