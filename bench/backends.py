"""Benchmark-owned model backends.

``ScriptedRouter`` answers instantly from each report's scripted replies;
``DelayBackend`` does the same after a fixed sleep, the stand-in for a
remote model. Both log every call's start and end per report id, which
is how the benchmark counts backend calls, sequential round trips and
calls in flight from outside the program.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from scenforge.errors import PlaybackMiss


class ScriptedRouter:
    """Answers a request from the script of the report its stage tag
    ("<report-id>/<stage>") names."""

    def __init__(self):
        self._scripts: dict[str, dict] = {}
        self.calls: list[tuple[str, float, float]] = []  # (report id, start, end)
        self._lock = threading.Lock()

    def load(self, cases) -> None:
        with self._lock:
            self._scripts = {case.report_id: case.replies for case in cases}
            self.calls = []

    def _reply(self, request) -> str:
        report_id, _, stage = request.stage_tag.rpartition("/")
        try:
            return self._scripts[report_id][stage]
        except KeyError:
            raise PlaybackMiss(f"no scripted reply for {request.stage_tag!r}") from None

    def _wait(self) -> None:
        pass

    def invoke(self, request) -> tuple[str, int]:
        start = time.perf_counter()
        self._wait()
        text = self._reply(request)
        end = time.perf_counter()
        with self._lock:
            self.calls.append((request.stage_tag.rpartition("/")[0], start, end))
        return text, len(text.split())


class DelayBackend(ScriptedRouter):
    """ScriptedRouter that sleeps a fixed time per call."""

    def __init__(self, delay_seconds: float):
        super().__init__()
        self.delay_seconds = delay_seconds

    def _wait(self) -> None:
        time.sleep(self.delay_seconds)


def calls_per_report(calls) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for report_id, _, _ in calls:
        counts[report_id] += 1
    return counts


def round_trips_per_report(calls) -> dict[str, int]:
    """Sequential round trips: each report's call intervals, with
    overlapping ones merged, counted."""
    by_report: dict[str, list] = defaultdict(list)
    for report_id, start, end in calls:
        by_report[report_id].append((start, end))
    trips = {}
    for report_id, intervals in by_report.items():
        intervals.sort()
        count, reach = 0, float("-inf")
        for start, end in intervals:
            if start > reach:
                count += 1
            reach = max(reach, end)
        trips[report_id] = count
    return trips


def max_in_flight(intervals) -> int:
    """Most intervals open at one instant (an end before a start at a tie)."""
    events = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
    )
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak
