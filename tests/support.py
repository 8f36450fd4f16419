"""Shared test helpers: canned reports, playback transcripts for whole
pipeline runs, tiny scripted backends, and the benchmark's own case
generator and scripted backend."""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
import time
from pathlib import Path

from scenforge.bundled import example_program_paths
from scenforge.gateway import PlaybackBackend
from scenforge.pipeline import RetrievalSetup
from scenforge.retrieval import LocalHashEmbedder, VectorStore
from scenforge.scenic import TokenKind, tokenize

# --- canned report ---------------------------------------------------------

BICYCLE_NARRATIVE = (
    "A bicyclist travelling through the four-way intersection struck the "
    "right side of the autonomous vehicle while the vehicle was paused. "
    "The bicyclist then left the scene."
)


def report_payload(report_id: str = "r1", **overrides) -> dict:
    payload = {
        "id": report_id,
        "narrative": BICYCLE_NARRATIVE,
        "weather": "clear",
        "lighting": "day",
        "road_context": "intersection",
        "agents": [
            {"kind": "av", "role_text": "autonomous vehicle"},
            {"kind": "cyclist", "role_text": "bicyclist"},
        ],
        "damage": "dented right rear fender",
    }
    payload.update(overrides)
    return payload


def write_report(directory, report_id: str = "r1", **overrides) -> Path:
    path = Path(directory) / f"{report_id}.report"
    path.write_text(json.dumps(report_payload(report_id, **overrides)), encoding="utf-8")
    return path


def write_corpus(directory, report_ids) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for report_id in report_ids:
        write_report(directory, report_id)
    (directory / "manifest.txt").write_text(
        "\n".join(report_ids) + "\n", encoding="utf-8"
    )
    return directory


# --- scripted stage replies ---------------------------------------------------

OBJECTS_REPLY = """\
EXPERT 1:
1. Cruise AV
2. Bicyclist
3. Right rear fender of the Cruise AV
EXPERT 2:
1. Cruise AV
2. Bicyclist
3. Intersection of Clay and Kearny Streets
EXPERT 3:
1. Cruise AV
2. Bicyclist
Panel Discussion:
All three experts identified the main objects in the scene as the
Cruise AV and the Bicyclist.
FINAL ANSWER:
1. Cruise AV
2. Bicyclist
"""

QUESTIONS_REPLY = """\
1. What speed was the Bicyclist moving at?
2. Where was the Bicyclist positioned when the events began?
3. What type or model is the Cruise AV?
4. What type or model is the Bicyclist?
5. Where was the Cruise AV positioned when the events began?
6. What speed was the Cruise AV moving at?
7. What was the weather at the time of the events?
8. What kind of road setting does the scenario take place in?
"""

ANSWERS_REPLY = """\
BIKE_SPEED = Normal(10, 1)
BIKE_BRAKING_THRESHOLD = TruncatedNormal(5, 1, 4, 6)
BRAKE_ACTION = TruncatedNormal(0.95, 0.05, 0.9, 1.0)
weather: clear
road: 4-way intersection
av model: vehicle.lincoln.mkz_2017
av speed: stationary
"""

CONSTANTS_SECTION = """\
BIKE_SPEED = Normal(10, 1)
BIKE_BRAKING_THRESHOLD = TruncatedNormal(5, 1, 4, 6)
BRAKE_ACTION = TruncatedNormal(0.95, 0.05, 0.9, 1.0)
EGO_MODEL = 'vehicle.lincoln.mkz_2017'
"""

CONSTANTS_SECTION_UNQUOTED_TRUCK = """\
BIKE_SPEED = Normal(10, 1)
BIKE_BRAKING_THRESHOLD = TruncatedNormal(5, 1, 4, 6)
BRAKE_ACTION = TruncatedNormal(0.95, 0.05, 0.9, 1.0)
EGO_MODEL = 'vehicle.lincoln.mkz_2017'
TRUCK_MODEL = vehicle.carlamotors.carlacola
TRUCK_SPEED = 10
"""

CONSTANTS_SECTION_QUOTED_TRUCK = """\
BIKE_SPEED = Normal(10, 1)
BIKE_BRAKING_THRESHOLD = TruncatedNormal(5, 1, 4, 6)
BRAKE_ACTION = TruncatedNormal(0.95, 0.05, 0.9, 1.0)
EGO_MODEL = 'vehicle.lincoln.mkz_2017'
TRUCK_MODEL = 'vehicle.carlamotors.carlacola'
TRUCK_SPEED = 10
"""

BEHAVIORS_SECTION = """\
behavior BikeBehavior(speed):
    do FollowLaneBehavior(speed)
    interrupt when simulation_time > BIKE_BRAKING_THRESHOLD:
        take SetBrakeAction(BRAKE_ACTION)
"""

SPATIAL_SECTION = """\
intersec = Uniform(*filter(lambda i: i.is4Way, network.intersections))
startLane = Uniform(*intersec.incomingLanes)
ego_spwPt = startLane.centerline[-1]
ego = new Car at ego_spwPt, with model EGO_MODEL, with behavior StayStillBehavior
bike = new Bicycle following roadDirection from ego_spwPt for -8, with behavior BikeBehavior(BIKE_SPEED)
require BIKE_SPEED > 5
"""


def happy_transcript(report_id: str = "r1", constants: str = CONSTANTS_SECTION) -> dict:
    """by_stage transcript for one clean compositional run."""
    return {
        f"{report_id}/objects": [OBJECTS_REPLY],
        f"{report_id}/questions": [QUESTIONS_REPLY],
        f"{report_id}/answers": [ANSWERS_REPLY],
        f"{report_id}/section:constants": [constants],
        f"{report_id}/section:behaviors": [BEHAVIORS_SECTION],
        f"{report_id}/section:spatial": [SPATIAL_SECTION],
    }


def repair_transcript(report_id: str = "r1") -> dict:
    """Transcript whose constants section carries the unquoted truck
    model; one scripted repair supplies the quoted fix."""
    stages = happy_transcript(report_id, constants=CONSTANTS_SECTION_UNQUOTED_TRUCK)
    stages[f"{report_id}/repair:constants"] = [CONSTANTS_SECTION_QUOTED_TRUCK]
    return stages


def merge_transcripts(*transcripts) -> dict:
    merged: dict = {}
    for transcript in transcripts:
        for stage, replies in transcript.items():
            merged.setdefault(stage, []).extend(replies)
    return merged


def playback(transcript: dict) -> PlaybackBackend:
    return PlaybackBackend(by_stage=transcript)


def write_transcript(path, transcript: dict) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps({"by_stage": transcript, "by_digest": {}}), encoding="utf-8"
    )
    return path


def bundled_store() -> RetrievalSetup:
    """A retrieval store over the bundled example programs."""
    embedder = LocalHashEmbedder()
    store = VectorStore(embedder.dimension)
    for path in example_program_paths():
        store.upsert(path.stem, path.read_text(encoding="utf-8"), embedder)
    return RetrievalSetup(store=store, embedder=embedder)


# --- scripted backends -----------------------------------------------------------


class CallableBackend:
    """Backend driven by a function of the request; counts invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.call_count = 0

    def invoke(self, request):
        self.call_count += 1
        text = self.fn(request)
        return text, len(text.split())


def stage_router(section_reply: str):
    """A backend function that answers the prompting stages sensibly and
    every section/repair request with ``section_reply``."""

    def respond(request) -> str:
        stage = request.stage_tag.rsplit("/", 1)[-1]
        if stage == "objects":
            return OBJECTS_REPLY
        if stage == "questions":
            return QUESTIONS_REPLY
        if stage == "answers":
            return ANSWERS_REPLY
        return section_reply

    return respond


HYDE_DRAFT_REPLY = "SPEED = 5\nego = new Car at (0, 0), with speed SPEED\n"


def happy_reply(request) -> str:
    """The happy-path reply for any report id, chosen by stage."""
    stage = request.stage_tag.rsplit("/", 1)[-1]
    if stage == "hyde_draft":
        return HYDE_DRAFT_REPLY
    return happy_transcript("r")[f"r/{stage}"][0]


class SleepingBackend:
    """Backend that answers ``fn(request)`` after a fixed sleep, the
    stand-in for a remote model. Logs each call as (stage tag, start,
    end) so tests can count sequential round trips."""

    def __init__(self, fn, delay_seconds: float):
        self.fn = fn
        self.delay_seconds = delay_seconds
        self.calls: list[tuple[str, float, float]] = []
        self._lock = threading.Lock()

    @property
    def call_count(self) -> int:
        return len(self.calls)

    def invoke(self, request):
        start = time.perf_counter()
        time.sleep(self.delay_seconds)
        with self._lock:
            self.calls.append((request.stage_tag, start, time.perf_counter()))
        text = self.fn(request)
        return text, len(text.split())


def drive(gateway, step):
    """Run one step alone on ``gateway``: its value, or its error raised."""
    [(value, error, _)] = gateway.run(step)
    if error is not None:
        raise error
    return value


def round_trips(calls) -> int:
    """Sequential round trips: call intervals with overlapping ones merged."""
    count, reach = 0, float("-inf")
    for _, start, end in sorted(calls, key=lambda call: call[1]):
        if start > reach:
            count += 1
        reach = max(reach, end)
    return count


def bench_module(name: str):
    """A module of `bench/` (which is no package), such as `cases` or
    `backends`, imported as `bench_<name>`."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    if spec.name not in sys.modules:
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[spec.name]


# --- parser inputs ----------------------------------------------------------------


def has_non_finite_literal(source: str) -> bool:
    """True when a float literal in source overflows to infinity, which the
    parser rejects and its reference oracle read as `inf`."""
    return any(
        t.kind is TokenKind.NUMBER and any(c in t.text for c in ".eE")
        and float(t.text) == float("inf")
        for t in tokenize(source)[0]
    )
