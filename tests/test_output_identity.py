"""Byte identity of run outputs: the `.scenic`, `.trace` and `.validity`
files of seeded benchmark cases and of every baseline strategy, hashed
per group and compared against constants. A failure names the group
whose outputs changed. A change that alters outputs on purpose updates
the constant of each group it alters."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from scenforge.gateway import Gateway, MemoryCache
from scenforge.pipeline import (
    BASELINE_STRATEGIES,
    PipelineConfig,
    run_report,
    write_run_result,
)
from support import bench_module, bundled_store

bench_cases = bench_module("cases")
bench_backends = bench_module("backends")

# group -> sha256 of the group's output files, in run order
EXPECTED = {
    "seed-1": "b8397649375ae4cb2373e8d496de67d4aa3d17d2145b6e006e819e966ad0dd50",
    "seed-2": "bf7727ffb48deab7893ecc9b651a5e21b3af9e06ffe5b7ad1a38c6c901b57847",
    "zero_shot": "5fdf989f6b7a0cf6daaa3f0acf6a915c0215978b38da2a19e0562c2914a4331a",
    "few_shot": "4c9ba2326efcddf22d53f34f488d1970d1861c47a699338fb84d91265090d856",
    "rag": "c0ba710f7a1dbaf4784a07a1cc69a927542c260dc963eaffc579d102bd9ccc44",
    "rag_hyde": "44ac676aa55360b0060f10de404326e36a41529ce7a607ef4d6698df062fac53",
    "constrained": "38b6db4c0b6d6a9e3f6b2b66e4803ceb1be2c3d232baf65c34951d047aeed5d4",
}

BENCH_CASES = 40
BASELINE_CASES = 5
BASELINE_SEED = 3


@pytest.fixture(scope="module")
def retrieval():
    return bundled_store()


def _outputs_digest(cases, config, retrieval, out_dir) -> str:
    """Run each case on a fresh scripted gateway and hash what
    `write_run_result` writes, with wall and call times zeroed."""
    backend = bench_backends.ScriptedRouter()
    backend.load(cases)
    gateway = Gateway(backend, cache=MemoryCache())
    digest = hashlib.sha256()
    try:
        for case in cases:
            result = run_report(case.report, config, gateway, retrieval)
            result.wall_seconds = 0.0
            for trace in result.traces:
                trace.interactions = [
                    replace(i, latency_seconds=0.0) for i in trace.interactions
                ]
            for path in write_run_result(result, out_dir).values():
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
    finally:
        gateway.close()
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [1, 2])
def test_bench_case_outputs_are_unchanged(tmp_path, retrieval, seed):
    cases = [bench_cases.make_case(seed, i) for i in range(BENCH_CASES)]
    config = PipelineConfig(seed=seed)
    assert _outputs_digest(cases, config, retrieval, tmp_path) == EXPECTED[f"seed-{seed}"]


@pytest.mark.parametrize("strategy", BASELINE_STRATEGIES)
def test_baseline_outputs_are_unchanged(tmp_path, retrieval, strategy):
    cases = [bench_cases.make_case(BASELINE_SEED, i) for i in range(BASELINE_CASES)]
    config = PipelineConfig(strategy=strategy, seed=BASELINE_SEED)
    assert _outputs_digest(cases, config, retrieval, tmp_path) == EXPECTED[strategy]
