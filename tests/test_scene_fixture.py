"""Sampled scenes pinned against a recorded fixture.

The benchmark and the `.validity` files compare programs and repairs but
not the scene a program samples, so a change in sampling order (for
instance, an assignment moving between sections) would otherwise go
unseen. `scene_fixture.json` holds, for every golden file and bundled
example at seeds 0-2, the `repr` of the placements and the sampled
constants. Regenerate it only for an intended change of the sampled
scene:

    PYTHONPATH=src python tests/test_scene_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from scenforge.bundled import bundled_map, bundled_registry, example_program_paths
from scenforge.scene import check_validity, instantiate_scene
from scenforge.scenic import parse_program, validate

FIXTURE = Path(__file__).parent / "scene_fixture.json"
SEEDS = (0, 1, 2)


def _programs() -> list[Path]:
    golden = sorted((Path(__file__).parent / "golden").glob("*.scenic"))
    return golden + example_program_paths()


def _key(path: Path, seed: int) -> str:
    return f"{path.parent.name}/{path.name}@{seed}"


def sampled_scene(path: Path, seed: int, registry, network) -> dict:
    validity = check_validity(path.read_text(encoding="utf-8"), registry, network, seed)
    assert validity.valid, (path.name, validity.diagnostics)
    return {
        "placements": repr(validity.scene.placements),
        "sampled_constants": repr(validity.scene.sampled_constants),
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_program(recorded):
    assert len(_programs()) == 21
    assert sorted(recorded) == sorted(
        _key(path, seed) for path in _programs() for seed in SEEDS
    )


@pytest.mark.parametrize("path", _programs(), ids=lambda p: p.stem)
def test_sampled_scene_matches_fixture(path, recorded, registry, cross4):
    for seed in SEEDS:
        assert sampled_scene(path, seed, registry, cross4) == recorded[_key(path, seed)]


@pytest.mark.parametrize("path", _programs(), ids=lambda p: p.stem)
def test_checking_and_sampling_leave_the_parsed_program_as_it_was(path, registry, cross4):
    # nodes are slotted, not frozen: nothing may assign to one after parsing
    program = parse_program(path.read_text(encoding="utf-8")).program
    before = repr(program)
    assert validate(program, registry) == []
    for seed in SEEDS:
        instantiate_scene(program, cross4, seed)
    assert repr(program) == before


if __name__ == "__main__":
    registry, network = bundled_registry(), bundled_map("cross4")
    scenes = {
        _key(path, seed): sampled_scene(path, seed, registry, network)
        for path in _programs()
        for seed in SEEDS
    }
    FIXTURE.write_text(json.dumps(scenes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
