"""Acceptance criteria, one test per criterion, each printing a
pass/fail line and enforcing its stated runtime budget."""

from __future__ import annotations

import contextlib
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from scenforge.bundled import example_program_paths
from scenforge.cli import main as cli_main
from scenforge.evalharness import (
    HumanScores,
    correctness_rate,
    format_are,
    score_are,
    summarize,
)
from scenforge.gateway import Gateway, MemoryCache
from scenforge import pipeline
from scenforge.pipeline import (
    PipelineConfig,
    PromptFactory,
    RetrievalSetup,
    run_pipeline,
    run_report,
)
from scenforge.prompts import extract_code
from scenforge.reports import AgentMention, ReportRecord, load_report
from scenforge.retrieval import LocalHashEmbedder, VectorStore
from scenforge.distributions import DistributionSpec, sample_value
from scenforge.scenic import (
    compile_section,
    default_registry,
    format_program,
    parse_program,
)
from support import (
    CallableBackend,
    drive,
    happy_transcript,
    merge_transcripts,
    playback,
    repair_transcript,
    stage_router,
    write_corpus,
    write_report,
    write_transcript,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:02d} PASS  {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )


def test_criterion_01_are_reproduction():
    with criterion(1, "ARE score reproduction and display", 1.0):
        value = score_are(4.1, 4.5, 4.2)
        assert value == (4.1 + 4.5 + 4.2) / 3
        assert round(value, 4) == 4.2667
        assert f"{value:.1f}" == "4.3"
        # per-item scores averaging to (4.1, 4.5, 4.2): the mean displays
        # as 4.3 and the stderr of per-report ARE values as 0.1
        accuracy = [4, 4, 4, 4, 4, 4, 4, 4, 4, 5]
        relevance = [4, 4, 4, 4, 4, 5, 5, 5, 5, 5]
        expressiveness = [4, 4, 4, 4, 4, 4, 4, 4, 5, 5]
        scores = [
            HumanScores(f"r{i}", accuracy[i], relevance[i], expressiveness[i])
            for i in range(10)
        ]

        class _Run:
            def __init__(self, report_id):
                self.report_id = report_id
                self.wall_seconds = 109.860
                self.validity = {
                    "syntactic": True, "semantic": True, "executable": True,
                }

        row = summarize([_Run(f"r{i}") for i in range(10)], scores, "compositional")
        assert f"{row.are_score:.1f}" == "4.3"
        expected_stderr = statistics.stdev(
            [score_are(s.accuracy, s.relevance, s.expressiveness) for s in scores]
        ) / math.sqrt(10)
        assert row.are_stderr == pytest.approx(expected_stderr)
        assert format_are(row) == "4.3 ± 0.1"


UNQUOTED_FRAGMENT = """\
EGO_MODEL = 'vehicle.lincoln.mkz_2017'
EGO_SPEED = 10
EGO_TURN_SIGNAL = 'left'
TRUCK_MODEL = vehicle.carlamotors.carlacola
TRUCK_SPEED = 10
TRUCK_TURN_SIGNAL = 'straight'
"""


def test_criterion_02_unquoted_asset_diagnostic_regression():
    with criterion(2, "unquoted truck-model diagnostic regression", 1.0):
        registry = default_registry()
        _, diagnostics = compile_section(UNQUOTED_FRAGMENT, "constants", registry)
        assert any(
            "name 'vehicle' is not defined" in d.message for d in diagnostics
        )
        quoted = UNQUOTED_FRAGMENT.replace(
            "= vehicle.carlamotors.carlacola", "= 'vehicle.carlamotors.carlacola'"
        )
        _, diagnostics = compile_section(quoted, "constants", registry)
        assert diagnostics == []


def test_criterion_03_repair_loop_reproduction(tmp_path):
    with criterion(3, "injected error fixed by exactly one section repair", 5.0):
        report = load_report(write_report(tmp_path))
        config = PipelineConfig(seed=7)
        gateway = Gateway(playback(repair_transcript()), cache=MemoryCache())
        result = run_pipeline(report, config, gateway)
        assert result.success
        assert result.repairs["constants"] == 1
        assert sum(result.repairs.values()) == 1
        trace = next(t for t in result.traces if t.stage == "section:constants")
        assert trace.outcome == "repaired"


def test_criterion_04_parser_round_trip():
    with criterion(4, "golden corpus parse/format/parse round trip", 10.0):
        corpus = sorted(GOLDEN_DIR.glob("*.scenic")) + example_program_paths()
        assert len(corpus) >= 20
        names = {p.stem for p in corpus}
        assert "bicycle_collision" in names
        assert "four_way_idiom" in names
        for path in corpus:
            source = path.read_text(encoding="utf-8")
            first = parse_program(source)
            assert first.ok, (path.stem, [d.message for d in first.diagnostics])
            second = parse_program(format_program(first.program))
            assert second.ok, path.stem
            assert second.program == first.program, path.stem


def test_criterion_05_sampler_statistics():
    with criterion(5, "truncated bounds and normal-mean statistics", 30.0):
        truncated = DistributionSpec.truncated_normal(0.95, 0.05, 0.9, 1.0)
        rng = random.Random(2025)
        assert all(
            0.9 <= sample_value(truncated, rng) <= 1.0 for _ in range(10_000)
        )
        normal = DistributionSpec.normal(10, 1)
        n = 10_000
        bound = 4.0 / math.sqrt(n)  # 4 sigma / sqrt(N)
        hits = 0
        for seed in range(100):
            seeded = random.Random(seed)
            mean = sum(sample_value(normal, seeded) for _ in range(n)) / n
            hits += abs(mean - 10.0) < bound
        assert hits >= 99, f"only {hits}/100 seeds inside the bound"


def _oracle_topk(entries, query, k):
    scored = []
    for entry in entries:
        total = 0.0
        for i in range(len(query)):
            total += query[i] * entry.vector[i]
        scored.append((entry.id, total))
    remaining = list(scored)
    ranked = []
    while remaining and len(ranked) < k:
        best = 0
        for i in range(1, len(remaining)):
            if remaining[i][1] > remaining[best][1]:
                best = i
        ranked.append(remaining.pop(best))
    return ranked


def test_criterion_06_retrieval_oracle():
    with criterion(6, "top-k equals brute-force oracle on 200 random stores", 60.0):
        rng = random.Random(424242)
        dimension = 256
        for _ in range(200):
            size = rng.randrange(1, 1001)
            store = VectorStore(dimension=dimension)
            vectors = []
            for i in range(size):
                if vectors and rng.random() < 0.05:
                    vector = list(vectors[rng.randrange(len(vectors))])
                else:
                    vector = [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
                vectors.append(vector)
                store.add_vector(f"e{i}", f"t{i}", vector)
            query = [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
            k = rng.randrange(1, 12)
            expected = _oracle_topk(store.entries, query, k)
            actual = [(r.entry.id, r.score) for r in store.query_vector(query, k)]
            assert actual == expected


def test_criterion_07_hyde_contract():
    with criterion(7, "HyDE embeds the draft, never the report", 10.0):
        rng = random.Random(7)
        config = PipelineConfig(retrieval_k=2)
        for trial in range(50):
            embedder = LocalHashEmbedder(64)
            calls: list[str] = []
            inner_embed = embedder.embed

            def logged_embed(text, _calls=calls, _inner=inner_embed):
                _calls.append(text)
                return _inner(text)

            embedder.embed = logged_embed  # instrument
            store = VectorStore(dimension=64)
            for i in range(rng.randrange(1, 6)):
                store.add_vector(
                    f"p{trial}_{i}", f"program {trial} {i}",
                    [rng.uniform(-1, 1) for _ in range(64)],
                )
            report_text = f"report narrative {trial} {rng.random()}"
            draft_text = f"DRAFT_{trial} = {rng.randrange(100)}\nego = new Car at (0, 0)"
            report = ReportRecord(
                id=f"h{trial}", narrative=report_text, road_context="intersection",
                dynamic_agents=(AgentMention("av"),),
            )
            gateway = Gateway(CallableBackend(lambda request: draft_text), cache=MemoryCache())
            step = pipeline._retrieve_examples(
                report, config, gateway, PromptFactory("m"), RetrievalSetup(store, embedder)
            )
            examples = drive(gateway, step)
            draft = extract_code(draft_text)
            assert calls == [draft], "embedded something other than the draft"
            assert report_text not in calls
            assert examples == [
                scored.entry.text for scored in store.query_vector(inner_embed(draft), 2)
            ]


def test_criterion_08_cache_soundness(tmp_path):
    with criterion(8, "second corpus run issues zero backend calls", 10.0):
        ids = ["c1", "c2", "c3"]
        corpus_dir = write_corpus(tmp_path / "corpus", ids)
        transcript = merge_transcripts(*[happy_transcript(i) for i in ids])
        backend = playback(transcript)
        cache_dir = tmp_path / "cache"
        config = PipelineConfig(seed=5)

        def run_corpus_once():
            gateway = Gateway(backend, cache_dir=cache_dir)
            for report_id in ids:
                report = load_report(corpus_dir / f"{report_id}.report")
                result = run_report(report, config, gateway)
                assert result.success
        run_corpus_once()
        calls_after_first = backend.call_count
        assert calls_after_first > 0
        run_corpus_once()
        assert backend.call_count == calls_after_first, (
            "second run reached the backend"
        )


def test_criterion_09_budget_termination(tmp_path):
    with criterion(9, "always-failing backend stops after the section budget", 5.0):
        report = load_report(write_report(tmp_path))
        config = PipelineConfig(section_retry_budget=5)
        backend = CallableBackend(stage_router("BROKEN = ((("))
        gateway = Gateway(backend, cache=MemoryCache())
        result = run_pipeline(report, config, gateway)
        assert not result.success
        assert result.failure.startswith("section:constants")
        assert result.repairs["constants"] == 5
        trace = next(t for t in result.traces if t.stage == "section:constants")
        assert len(trace.interactions) == 1 + 5  # generation plus budget repairs


def test_criterion_10_correctness_rate_machinery():
    with criterion(10, "measured rate approximates 1 - p on 500 synthetic runs", 120.0):
        p = 0.10
        n = 500
        rng = random.Random(20240)
        config = PipelineConfig(section_retry_budget=1, program_retry_budget=0, seed=3)
        results = []
        for i in range(n):
            report = ReportRecord(
                id=f"s{i}",
                narrative=f"collision variant {i}: a car struck the paused AV",
                road_context="public_road",
                dynamic_agents=(AgentMention("av"), AgentMention("car")),
            )
            faulty = rng.random() < p
            transcript = happy_transcript(report.id)
            if faulty:
                transcript[f"{report.id}/section:constants"] = ["BROKEN = ((("]
                transcript[f"{report.id}/repair:constants"] = ["BROKEN = ((("]
            gateway = Gateway(playback(transcript), cache=MemoryCache())
            results.append(run_pipeline(report, config, gateway))
        summary = correctness_rate(results)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(summary.rate - (1 - p)) <= 3 * sigma, summary
        assert summary.count == sum(1 for r in results if r.success)


def test_criterion_11_end_to_end_determinism(tmp_path):
    with criterion(11, "identical gen-scenic invocations are byte-identical", 10.0):
        report_path = write_report(tmp_path)
        transcript_path = write_transcript(tmp_path / "t.json", happy_transcript())
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main([
                "gen-scenic",
                "--report", str(report_path),
                "--backend", "playback",
                "--transcript", str(transcript_path),
                "--out", str(out),
                "--seed", "7",
            ])
            assert code == 0
            outputs.append((out / "r1.scenic").read_bytes())
        assert outputs[0] == outputs[1]
