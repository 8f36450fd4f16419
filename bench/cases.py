"""Seeded workload generator: crash reports, the scripted model replies
for each of them, and the outputs the pipeline must produce.

Everything here is a pure function of (seed, index), so the same seed
gives the same inputs. The reply templates are modelled on the canned
happy-path replies of the test suite but are owned by the benchmark, so
editing a test cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from scenforge.reports import AgentMention, ReportRecord

# report kind -> (role text, object label, scene class, constant prefix)
_AGENTS = {
    "cyclist": ("bicyclist", "Bicyclist", "Bicycle", "BIKE"),
    "car": ("sedan driver", "Sedan", "Car", "CAR"),
    "truck": ("box truck driver", "Box truck", "Truck", "TRUCK"),
    "motorcycle": ("motorcyclist", "Motorcyclist", "Motorcycle", "MOTO"),
}
_EGO_MODELS = (
    "vehicle.lincoln.mkz_2017", "vehicle.tesla.model3", "vehicle.audi.tt",
    "vehicle.toyota.prius", "vehicle.mini.cooper_s",
)
_OTHER_MODELS = (
    "vehicle.carlamotors.carlacola", "vehicle.mercedes.sprinter",
    "vehicle.diamondback.century", "vehicle.kawasaki.ninja",
)
_STREETS = ("Clay", "Kearny", "Market", "Folsom", "Valencia", "Geary", "Mission", "Howard")
_DIRECTIONS = ("northbound", "southbound", "eastbound", "westbound")
_SIDES = ("right", "left", "rear right", "front left")
_STATES = ("paused at the stop line", "waiting to turn", "stationary in traffic")
_AFTERMATH = ("left the scene", "remained at the scene", "was treated for minor injuries")
_WEATHER = ("clear", "rain", "fog")
_LIGHTING = ("day", "dusk", "night")

# about two thirds of reports need no repair, so the median latency
# sits inside the no-repair mode rather than on its edge
SECTION_REPAIR_SHARE = 0.2
PROGRAM_REPAIR_SHARE = 0.15
DUPLICATE_SHARE = 0.25


@dataclass(frozen=True)
class Case:
    """One generated report with its scripted replies and expected run."""

    report: ReportRecord
    payload: dict
    replies: dict                       # stage name -> reply text
    final_program: str
    repairs: dict
    duplicate_of: str | None = None
    shape: tuple = field(default=())    # (section repairs, program repairs)

    @property
    def report_id(self) -> str:
        return self.report.id


def _stitched(*sections: str) -> str:
    return "\n\n".join(s.strip("\n") for s in sections) + "\n"


def make_case(seed: int, index: int, shape: tuple | None = None) -> Case:
    """The index-th report of a seeded stream. A seeded share needs one
    constants-section repair and a seeded share fails the first
    execution check and needs one program repair; ``shape`` (section
    repair, program repair) fixes both instead."""
    rng = random.Random(f"{seed}:{index}")
    kind = rng.choice(sorted(_AGENTS))
    role, label, cls, p = _AGENTS[kind]
    street_a, street_b = rng.sample(_STREETS, 2)
    narrative = (
        f"A {role} travelling {rng.choice(_DIRECTIONS)} on {street_a} Street "
        f"entered the four-way intersection with {street_b} Street and struck "
        f"the {rng.choice(_SIDES)} side of the autonomous vehicle while the "
        f"vehicle was {rng.choice(_STATES)}. The {role} "
        f"{rng.choice(_AFTERMATH)}. Incident reference {seed}-{index}."
    )
    weather = rng.choice(_WEATHER)
    report_id = f"r{index:06d}"
    payload = {
        "id": report_id,
        "narrative": narrative,
        "weather": weather,
        "lighting": rng.choice(_LIGHTING),
        "road_context": "intersection",
        "agents": [
            {"kind": "av", "role_text": "autonomous vehicle"},
            {"kind": kind, "role_text": role},
        ],
        "damage": f"dented {rng.choice(_SIDES)} panel",
    }
    report = ReportRecord(
        id=report_id,
        narrative=narrative,
        weather=weather,
        lighting=payload["lighting"],
        road_context="intersection",
        dynamic_agents=(
            AgentMention("av", "autonomous vehicle"), AgentMention(kind, role)
        ),
        damage=payload["damage"],
    )

    mu = round(rng.uniform(6.0, 14.0), 2)
    sd = round(rng.uniform(0.5, 2.0), 2)
    thr = round(rng.uniform(3.0, 7.0), 2)
    brake = round(rng.uniform(0.86, 0.95), 3)
    ego_model = rng.choice(_EGO_MODELS)
    # the require threshold sits z standard deviations below the mean, so
    # acceptance runs from ~31% to ~98% and rejection rounds vary per report
    threshold = round(mu - rng.uniform(-0.5, 2.0) * sd, 2)
    gap = f"{6 + index / 10000:.4f}"  # unique per index: no prompt repeats
    distributions = (
        f"{p}_SPEED = Normal({mu}, {sd})\n"
        f"{p}_BRAKING_THRESHOLD = TruncatedNormal({thr}, 1, {thr - 1:.2f}, {thr + 1:.2f})\n"
        f"BRAKE_ACTION = TruncatedNormal({brake}, 0.05, {brake - 0.05:.3f}, {brake + 0.05:.3f})\n"
    )
    answers = (
        distributions
        + f"weather: {weather}\n"
        + "road: 4-way intersection\n"
        + f"av model: {ego_model}\n"
        + "av speed: stationary\n"
    )
    constants = distributions + f"EGO_MODEL = '{ego_model}'\nFOLLOW_GAP = {gap}\n"
    behaviors = (
        f"behavior {cls}Behavior(speed):\n"
        f"    do FollowLaneBehavior(speed)\n"
        f"    interrupt when simulation_time > {p}_BRAKING_THRESHOLD:\n"
        f"        take SetBrakeAction(BRAKE_ACTION)\n"
    )

    def spatial(spawn_index: int) -> str:
        return (
            "intersec = Uniform(*filter(lambda i: i.is4Way, network.intersections))\n"
            "startLane = Uniform(*intersec.incomingLanes)\n"
            f"ego_spwPt = startLane.centerline[{spawn_index}]\n"
            "ego = new Car at ego_spwPt, with model EGO_MODEL, with behavior StayStillBehavior\n"
            f"other = new {cls} following roadDirection from ego_spwPt for -FOLLOW_GAP, "
            f"with behavior {cls}Behavior({p}_SPEED)\n"
            f"require {p}_SPEED > {threshold}\n"
        )

    section_repair = rng.random() < SECTION_REPAIR_SHARE
    program_repair = rng.random() < PROGRAM_REPAIR_SHARE
    if shape is not None:
        section_repair, program_repair = map(bool, shape)
    replies = {
        "objects": (
            "EXPERT 1:\n1. Cruise AV\n"
            f"2. {label}\n3. Intersection of {street_a} and {street_b}\n"
            "EXPERT 2:\n1. Cruise AV\n"
            f"2. {label}\n"
            "EXPERT 3:\n1. Cruise AV\n"
            f"2. {label}\n"
            "Panel Discussion:\n"
            f"All three experts identified the Cruise AV and the {label}.\n"
            f"FINAL ANSWER:\n1. Cruise AV\n2. {label}\n"
        ),
        "questions": (
            f"1. What speed was the {label} moving at?\n"
            f"2. Where was the {label} positioned when the events began?\n"
            "3. What type or model is the Cruise AV?\n"
            f"4. What type or model is the {label}?\n"
            "5. Where was the Cruise AV positioned when the events began?\n"
            "6. What speed was the Cruise AV moving at?\n"
            "7. What was the weather at the time of the events?\n"
            "8. What kind of road setting does the scenario take place in?\n"
        ),
        "answers": answers,
        "hyde_draft": _stitched(constants, behaviors, spatial(-1)),
        "section:constants": constants,
        "section:behaviors": behaviors,
        "section:spatial": spatial(-1),
    }
    if section_repair:
        # an unquoted asset id fails validation with "name 'vehicle' is
        # not defined"; the one scripted repair quotes it
        other_model = rng.choice(_OTHER_MODELS)
        replies["section:constants"] = constants + f"OTHER_MODEL = {other_model}\n"
        replies["repair:constants"] = constants + f"OTHER_MODEL = '{other_model}'\n"
    final_constants = replies.get("repair:constants", constants)
    final_program = _stitched(final_constants, behaviors, spatial(-1))
    if program_repair:
        # the cross4 lanes have three centerline points, so this index
        # fails the execution check; the repair restores the last point
        replies["section:spatial"] = spatial(rng.randint(3, 9))
        replies["repair:program"] = final_program
    return Case(
        report=report,
        payload=payload,
        replies=replies,
        final_program=final_program,
        repairs={
            "constants": int(section_repair),
            "behaviors": 0,
            "spatial": 0,
            "program": int(program_repair),
        },
        shape=(int(section_repair), int(program_repair)),
    )


def make_corpus(seed: int, size: int) -> list[Case]:
    """``size`` reports in which exactly the repair shares of the stream
    need one repair each, at seeded positions, so every seed's corpus
    does the same amount of repair work."""
    positions = random.Random(f"{seed}:corpus").sample(range(size), size)
    n_section = round(SECTION_REPAIR_SHARE * size)
    n_program = round(PROGRAM_REPAIR_SHARE * size)
    section = set(positions[:n_section])
    program = set(positions[n_section:n_section + n_program])
    return [
        make_case(seed, i, shape=(i in section, i in program)) for i in range(size)
    ]


def duplicate(case: Case, report_id: str) -> Case:
    """The same report content under a new id."""
    payload = dict(case.payload, id=report_id)
    return replace(
        case,
        report=replace(case.report, id=report_id),
        payload=payload,
        duplicate_of=case.report_id,
    )


def make_pair(seed: int, index: int) -> tuple[Case, Case]:
    """Two happy-path reports to issue together; a seeded share of pairs
    repeat the first report's content under a new id."""
    first = make_case(seed, 2 * index, shape=(0, 0))
    if random.Random(f"{seed}:pair:{index}").random() < DUPLICATE_SHARE:
        return first, duplicate(first, f"r{2 * index + 1:06d}")
    return first, make_case(seed, 2 * index + 1, shape=(0, 0))
