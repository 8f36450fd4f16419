"""The three workloads: set-up, a closed-loop timed run, and the output
checks made on every run.

offline-compose  1 client, instant scripted backend, MemoryCache, HyDE
                 store. Pure CPU: scenic, scene, prompts, gateway
                 hashing and retrieval do all the work.
remote-latency   2 clients in lockstep pairs, 20 ms per backend call.
                 Waiting dominates; a seeded share of pairs are the same
                 report under two ids, in flight together.
corpus-warm      `scenforge run-corpus --jobs 1` over a report-file
                 corpus whose file cache was filled at set-up, then
                 `scenforge eval`. Every model call is a cache read.
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import scenforge.cli as cli
import scenforge.gateway as gateway
import scenforge.pipeline as pipeline
from scenforge.bundled import example_program_paths
from scenforge.gateway import Gateway, MemoryCache
from scenforge.pipeline import PipelineConfig, RetrievalSetup
from scenforge.retrieval import LocalHashEmbedder, VectorStore

from backends import (
    DelayBackend,
    ScriptedRouter,
    calls_per_report,
    round_trips_per_report,
)
from cases import make_case, make_corpus, make_pair

REMOTE_DELAY_SECONDS = 0.020
WARMUP_SEED = 0
CORPUS_REPORTS = 100      # reports in the corpus-warm corpus
# one worker: with two on two vCPUs, handing the interpreter lock between
# them cost a third of the throughput and made runs unsteady
CORPUS_JOBS = 1


@dataclass
class Measurement:
    """What one timed run saw. ``failures`` names each report whose
    output or counters did not match the script."""

    seconds: float = 0.0
    latencies: list = field(default_factory=list)
    repairs: list = field(default_factory=list)   # RunResult.repairs per report
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def reports(self) -> int:
        return len(self.latencies)


def check_result(result, case) -> str | None:
    """Mismatch description, or None when the run produced exactly what
    the generator scripted."""
    if not result.success:
        return f"{case.report_id}: failed ({result.failure})"
    if result.final_program != case.final_program:
        return f"{case.report_id}: final_program differs from the script"
    if result.repairs != case.repairs:
        return f"{case.report_id}: repairs {result.repairs} != {case.repairs}"
    return None


def foreign_interactions(result, case) -> int:
    """Interactions in a report's trace that carry a reply scripted for
    another report. The gateway's event log is shared, so concurrent
    runs can swap events; this counts that, it does not fail the run."""
    own = set(case.replies.values())
    return sum(
        1
        for trace in result.traces
        for interaction in trace.interactions
        if interaction.text not in own
    )


def check_repeats(measure: Measurement, counter: str, groups: dict) -> None:
    """A counter must repeat exactly across reports of one scripted shape."""
    for shape, values in groups.items():
        if len(set(values)) > 1:
            measure.failures.append(
                f"{counter} differs across reports of shape {shape}: {sorted(set(values))}"
            )


def _bundled_store() -> RetrievalSetup:
    embedder = LocalHashEmbedder()
    store = VectorStore(embedder.dimension)
    for path in example_program_paths():
        store.upsert(path.stem, path.read_text(encoding="utf-8"), embedder)
    return RetrievalSetup(store=store, embedder=embedder)


# --- in-process workloads ---------------------------------------------------------


class _InProcess:
    """Shared set-up for the two workloads that call ``run_report``."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.config = PipelineConfig(seed=self.seed)
        self.retrieval = _bundled_store()
        self.backend = self.make_backend()
        # a few reports so lazy set-up (regex and map caches) is done
        # before timing; their outputs are checked like any other. They
        # come from one fixed seed, so set-up does the same work whatever
        # the run's seed.
        self.next_index = 0
        self.warmup = Measurement()
        self.run_batch(self.warmup, self.warmup_size, WARMUP_SEED)
        self.next_index = 0

    def run(self, seconds: float, host) -> Measurement:
        """Closed-loop batches until ``seconds`` of them are timed,
        sampling host speed between batches."""
        measure = Measurement()
        while measure.seconds < seconds:
            self.run_batch(measure, self.batch_size, self.seed)
            host.sample()
        self.check_counters(measure)
        return measure

    def check_counters(self, measure: Measurement) -> None:
        for counter in ("backend_calls", "round_trips"):
            groups = defaultdict(list)
            for shape, value in measure.counters[counter]:
                groups[shape].append(value)
            check_repeats(measure, counter, groups)


class OfflineCompose(_InProcess):
    name = "offline-compose"
    cpu_bound = True
    batch_size = 50     # reports per fresh gateway
    warmup_size = 10

    def make_backend(self):
        return ScriptedRouter()

    def run_batch(self, measure: Measurement, size: int, seed: int) -> None:
        cases = [make_case(seed, i) for i in range(self.next_index, self.next_index + size)]
        self.next_index += size
        self.backend.load(cases)
        gw = Gateway(self.backend, cache=MemoryCache())
        results = []
        batch_start = time.perf_counter()
        for case in cases:
            start = time.perf_counter()
            result = pipeline.run_report(case.report, self.config, gw, self.retrieval)
            measure.latencies.append(time.perf_counter() - start)
            results.append(result)
        measure.seconds += time.perf_counter() - batch_start
        calls = calls_per_report(self.backend.calls)
        trips = round_trips_per_report(self.backend.calls)
        for case, result in zip(cases, results):
            problem = check_result(result, case)
            if problem:
                measure.failures.append(problem)
            measure.counters["backend_calls"].append((case.shape, calls[case.report_id]))
            measure.counters["round_trips"].append((case.shape, trips[case.report_id]))
        measure.repairs.extend(result.repairs for result in results)


class RemoteLatency(_InProcess):
    name = "remote-latency"
    cpu_bound = False   # fixed backend waits dominate; times are reported as measured
    batch_size = 10     # pairs per fresh gateway
    warmup_size = 1

    def make_backend(self):
        return DelayBackend(REMOTE_DELAY_SECONDS)

    def run_batch(self, measure: Measurement, size: int, seed: int) -> None:
        pairs = [make_pair(seed, i) for i in range(self.next_index, self.next_index + size)]
        self.next_index += size
        self.backend.load([case for pair in pairs for case in pair])
        gw = Gateway(self.backend, cache=MemoryCache())
        barrier = threading.Barrier(2)
        outcomes: list[list] = [[], []]

        def client(side: int) -> None:
            # closed loop: the next report starts when both previous ones
            # are done, so each pair is in flight together
            try:
                for pair in pairs:
                    barrier.wait(timeout=60)
                    start = time.perf_counter()
                    result = pipeline.run_report(
                        pair[side].report, self.config, gw, self.retrieval
                    )
                    outcomes[side].append((result, time.perf_counter() - start))
            except Exception as exc:  # report it; never leave the other client waiting
                barrier.abort()
                measure.failures.append(f"client {side}: {exc!r}")

        threads = [threading.Thread(target=client, args=(side,)) for side in (0, 1)]
        batch_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measure.seconds += time.perf_counter() - batch_start
        calls = calls_per_report(self.backend.calls)
        trips = round_trips_per_report(self.backend.calls)
        for side in (0, 1):
            if len(outcomes[side]) != len(pairs):
                measure.failures.append(f"client {side} stopped early")
        for (first, second), (r0, l0), (r1, l1) in zip(pairs, *outcomes):
            for case, result, latency in ((first, r0, l0), (second, r1, l1)):
                problem = check_result(result, case)
                if problem:
                    measure.failures.append(problem)
                measure.latencies.append(latency)
                measure.repairs.append(result.repairs)
                measure.counters["foreign_trace_interactions"].append(
                    foreign_interactions(result, case)
                )
            if second.duplicate_of:
                pair_calls = calls[first.report_id] + calls[second.report_id]
                measure.counters["duplicate_pair_calls"].append(pair_calls)
            else:
                for case in (first, second):
                    measure.counters["backend_calls"].append((case.shape, calls[case.report_id]))
                    measure.counters["round_trips"].append((case.shape, trips[case.report_id]))

    def check_counters(self, measure: Measurement) -> None:
        super().check_counters(measure)
        # a duplicate pair makes as many distinct requests as one report;
        # every backend call beyond that is a collision
        happy = measure.counters["backend_calls"]
        if happy:
            measure.counters["duplicate_collision_calls"] = [
                calls - happy[0][1] for calls in measure.counters["duplicate_pair_calls"]
            ]


# --- corpus-warm ---------------------------------------------------------------


class CorpusWarm:
    """`run-corpus` then `eval` through ``scenforge.cli.main``."""

    name = "corpus-warm"
    cpu_bound = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        self.cases = make_corpus(seed, CORPUS_REPORTS)
        self.by_id = {case.report_id: case for case in self.cases}
        self.reference: dict | None = None

    def _cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def run_corpus_args(self, out: Path) -> list[str]:
        root = self.root
        return [
            "run-corpus", "--corpus", str(root / "corpus"), "--jobs", str(CORPUS_JOBS),
            "--backend", "playback", "--transcript", str(root / "transcript.json"),
            "--cache-dir", str(root / "cache"), "--store", str(root / "store.jsonl"),
            "--out", str(out), "--seed", str(self.seed),
        ]

    def setup(self) -> None:
        """Write the corpus, transcript, scores and store, then fill the
        file cache with one cold run."""
        self.setups += 1
        self.root = self.workdir / f"corpus-warm-{self.setups}"
        corpus = self.root / "corpus"
        corpus.mkdir(parents=True)
        transcript: dict = {}
        scores = []
        for n, case in enumerate(self.cases):
            (corpus / f"{case.report_id}.report").write_text(
                json.dumps(case.payload), encoding="utf-8"
            )
            for stage, reply in case.replies.items():
                transcript[f"{case.report_id}/{stage}"] = [reply]
            scores.append(json.dumps({
                "report_id": case.report_id, "rater_id": "rater-0",
                "accuracy": 1 + n % 5, "relevance": 1 + (n * 2) % 5,
                "expressiveness": 1 + (n * 3) % 5,
            }))
        (corpus / "manifest.txt").write_text(
            "\n".join(case.report_id for case in self.cases) + "\n", encoding="utf-8"
        )
        (self.root / "transcript.json").write_text(
            json.dumps({"by_stage": transcript, "by_digest": {}}), encoding="utf-8"
        )
        (self.root / "scores.jsonl").write_text("\n".join(scores) + "\n", encoding="utf-8")
        examples = example_program_paths()[0].parent
        if self._cli("index-store", "--examples", str(examples),
                     "--store", str(self.root / "store.jsonl")):
            raise RuntimeError("index-store failed during set-up")
        if self._cli(*self.run_corpus_args(self.root / "fill")):
            raise RuntimeError("run-corpus failed while filling the cache")

    def run(self, seconds: float, host) -> Measurement:
        measure = Measurement()
        out = self.root / "out"
        timed: list = []
        timed_lock = threading.Lock()
        playback_calls = [0]
        original_run, original_invoke = cli.run_report, gateway.PlaybackBackend.invoke

        def timed_run_report(report, *args):
            start = time.perf_counter()
            result = original_run(report, *args)
            with timed_lock:
                timed.append((result, time.perf_counter() - start))
            return result

        def counted_invoke(backend, request):
            playback_calls[0] += 1
            return original_invoke(backend, request)

        cli.run_report = timed_run_report
        gateway.PlaybackBackend.invoke = counted_invoke
        try:
            while measure.seconds < seconds:
                timed.clear()
                playback_calls[0] = 0
                start = time.perf_counter()
                codes = (
                    self._cli(*self.run_corpus_args(out)),
                    self._cli("eval", "--results", str(out), "--scores",
                              str(self.root / "scores.jsonl"), "--out", str(out / "eval")),
                )
                measure.seconds += time.perf_counter() - start
                self.check_iteration(measure, out, codes, timed, playback_calls[0])
                host.sample()
        finally:
            cli.run_report = original_run
            gateway.PlaybackBackend.invoke = original_invoke
        return measure

    def check_iteration(self, measure, out: Path, codes, timed, backend_calls) -> None:
        failures = measure.failures
        if codes != (0, 0):
            failures.append(f"cli exit codes {codes}")
        if backend_calls:
            failures.append(f"{backend_calls} backend call(s) on a warm cache")
        for result, latency in timed:
            measure.latencies.append(latency)
            measure.repairs.append(result.repairs)
            case = self.by_id[result.report_id]
            problem = check_result(result, case)
            if problem:
                failures.append(problem)
            measure.counters["foreign_trace_interactions"].append(
                foreign_interactions(result, case)
            )
        if len(timed) != len(self.cases):
            failures.append(f"{len(timed)} of {len(self.cases)} reports ran")
        outputs = self.read_outputs(out)
        for case in self.cases:
            if outputs.get(f"{case.report_id}.scenic") != case.final_program:
                failures.append(f"{case.report_id}: persisted program differs")
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            changed = sorted(k for k in self.reference if outputs.get(k) != self.reference[k])
            failures.append(f"outputs differ from the first iteration: {changed[:5]}")

    def read_outputs(self, out: Path) -> dict:
        """Persisted outputs with the wall-clock fields taken out: the
        programs, validity reports, traces without their latencies and
        the eval table without its inference-time column."""
        outputs = {}
        for case in self.cases:
            stem = out / case.report_id
            outputs[f"{case.report_id}.scenic"] = stem.with_suffix(".scenic").read_text(encoding="utf-8")
            outputs[f"{case.report_id}.validity"] = stem.with_suffix(".validity").read_text(encoding="utf-8")
            trace = json.loads(stem.with_suffix(".trace").read_text(encoding="utf-8"))
            outputs[f"{case.report_id}.trace"] = (
                trace["report_id"], trace["strategy"], trace["success"],
                trace["failure"], trace["repairs"],
                [
                    (t["stage"], t["outcome"], t["diagnostics_fed_back"],
                     [(i["digest"], i["text"], i["from_cache"]) for i in t["interactions"]])
                    for t in trace["traces"]
                ],
            )
        table = (out / "eval" / "metrics_all.txt").read_text(encoding="utf-8")
        outputs["metrics_all.txt"] = [line.rsplit(None, 1)[0] for line in table.splitlines()]
        return outputs


WORKLOADS = {cls.name: cls for cls in (OfflineCompose, RemoteLatency, CorpusWarm)}
