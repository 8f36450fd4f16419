"""Scenes sampled by whole pipeline runs, pinned against a recorded fixture.

`bench/workloads.check_result` compares only each run's final program
and repairs, so a change in the order in which `finalize` samples a
scene would pass the benchmark unseen. `pipeline_scene_fixture.json`
holds, for 40 benchmark cases (seeds 1 and 2, 20 each, cycling through
every repair shape: none, a constants-section repair, a program repair,
both), the `repr` of `validity.scene.placements` and of the sampled
constants that `run_report` returned. The cases come from
`bench/cases.make_case` and are played through `bench/backends.ScriptedRouter`.
Regenerate the fixture only for an intended change of the sampled scene:

    PYTHONPATH=src python tests/test_pipeline_scene_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from scenforge.bundled import bundled_map, bundled_registry
from scenforge.gateway import Gateway, MemoryCache
from scenforge.pipeline import PipelineConfig, run_report
from support import bench_module

FIXTURE = Path(__file__).parent / "pipeline_scene_fixture.json"
SEEDS = (1, 2)
CASES_PER_SEED = 20
SHAPES = ((0, 0), (1, 0), (0, 1), (1, 1))  # (section repair, program repair)


cases = bench_module("cases")
backends = bench_module("backends")


def sampled_scenes(seed: int, registry, network) -> dict:
    batch = [
        cases.make_case(seed, index, shape=SHAPES[index % len(SHAPES)])
        for index in range(CASES_PER_SEED)
    ]
    router = backends.ScriptedRouter()
    router.load(batch)
    gateway = Gateway(router, cache=MemoryCache())
    config = PipelineConfig(registry=registry, network=network, seed=seed)
    scenes = {}
    try:
        for case in batch:
            result = run_report(case.report, config, gateway)
            assert result.success, (case.report_id, result.failure)
            assert result.final_program == case.final_program, case.report_id
            assert result.repairs == case.repairs, case.report_id
            scenes[f"{seed}:{case.report_id}"] = {
                "placements": repr(result.validity.scene.placements),
                "sampled_constants": repr(result.validity.scene.sampled_constants),
            }
    finally:
        gateway.close()
    return scenes


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case_and_repair_shape(recorded):
    assert len(recorded) == len(SEEDS) * CASES_PER_SEED
    shapes = {cases.make_case(1, i, shape=SHAPES[i % 4]).shape for i in range(4)}
    assert shapes == set(SHAPES)


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_scenes_match_fixture(seed, recorded, registry, cross4):
    scenes = sampled_scenes(seed, registry, cross4)
    assert scenes == {k: v for k, v in recorded.items() if k.startswith(f"{seed}:")}


if __name__ == "__main__":
    registry, network = bundled_registry(), bundled_map("cross4")
    scenes = {}
    for seed in SEEDS:
        scenes.update(sampled_scenes(seed, registry, network))
    FIXTURE.write_text(json.dumps(scenes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
