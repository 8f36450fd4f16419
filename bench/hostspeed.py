"""Host speed, measured with a fixed piece of standard-library work.

The shared 2-vCPU hosts this benchmark runs on change speed by up to
half over minutes. Timings of the CPU-bound workloads are therefore
scaled to a nominal host: slices of the reference work below are timed
between batches of the workload, and

    speed = NOMINAL_UNIT_SECONDS / measured seconds per reference unit

is below 1 on a host slower than nominal. A time is reported as
measured * speed and a rate as measured / speed. The reference uses no
scenforge code, so a change to the program cannot move it; it mixes the
same kinds of interpreter work the pipeline does (regex scanning, dict
counting, JSON, hashing, sorting).
"""

from __future__ import annotations

import hashlib
import json
import re
import time

NOMINAL_UNIT_SECONDS = 400e-6
SLICE_UNITS = 50

_TEXT = " ".join(f"word{i % 97} = Normal({i % 13}, {i % 7 + 1}) # {i}" for i in range(60))
_TOKEN = re.compile(r"\w+|[^\w\s]")


def _unit() -> list:
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    doc = json.loads(json.dumps(counts, sort_keys=True))
    hashlib.sha256(_TEXT.encode("utf-8")).hexdigest()
    return sorted(doc.items(), key=lambda kv: (-kv[1], kv[0]))[:10]


class HostSpeed:
    """Accumulates timed reference slices."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def sample(self, units: int = SLICE_UNITS) -> None:
        start = time.perf_counter()
        for _ in range(units):
            _unit()
        self.seconds += time.perf_counter() - start
        self.units += units

    @property
    def speed(self) -> float:
        return NOMINAL_UNIT_SECONDS * self.units / self.seconds
