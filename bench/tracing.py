"""Outside-in layer timing.

The tracer rebinds the public names that ``pipeline``, ``scene``,
``scenic.sections`` and ``cli`` import, and wraps public methods of the
gateway, cache, backend, retrieval and prompt classes. Each wrapped call
records a span (name, start, end, parent, report id) in memory; nothing
inside ``src/`` changes. ``restore`` puts every original back.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import scenforge.cli as cli
import scenforge.evalharness as evalharness
import scenforge.gateway as gateway
import scenforge.pipeline as pipeline
import scenforge.prompts as prompts
import scenforge.retrieval as retrieval
import scenforge.scene as scene
import scenforge.scenic.sections as sections

from backends import ScriptedRouter, max_in_flight, round_trips_per_report


class Span:
    __slots__ = ("name", "start", "end", "parent", "report_id", "size", "note")

    def __init__(self, name, parent, report_id, size):
        self.name = name
        self.parent = parent
        self.report_id = report_id
        self.size = size
        self.note = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _source_bytes(args, kwargs) -> int:
    return len(args[0].encode("utf-8"))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple, int] = defaultdict(int)  # (name, report id) -> calls
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_report(self):
        stack = self._stack()
        return stack[-1].report_id if stack else None

    # -- wrappers -------------------------------------------------------

    def spanned(self, name, fn, report_id=None, size=None, note=None):
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if report_id is not None:
                rid = report_id(args)
            else:
                rid = parent.report_id if parent else None
            span = Span(name, parent, rid, size(args, kwargs) if size else 0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if note is not None:
                span.note = note(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(name, self._current_report())] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        report_of = lambda args: args[0].id  # noqa: E731
        result_of = lambda args: args[0].report_id  # noqa: E731
        shape_of = lambda result: (result.repairs["constants"], result.repairs["program"])  # noqa: E731
        for module in (pipeline, cli):
            self._patch(module, "run_report", self.spanned(
                "pipeline.run_report", module.run_report, report_id=report_of,
                note=shape_of))
        self._patch(pipeline, "compile_section", self.spanned(
            "scenic.compile_section", pipeline.compile_section))
        for module in (pipeline, sections):
            self._patch(module, "parse_section", self.spanned(
                "scenic.parse", module.parse_section, size=_source_bytes))
        self._patch(scene, "parse_program", self.spanned(
            "scenic.parse", scene.parse_program, size=_source_bytes))
        self._patch(pipeline, "check_validity", self.spanned(
            "scene.check_validity", pipeline.check_validity))
        self._patch(scene, "instantiate_scene", self.spanned(
            "scene.instantiate_scene", scene.instantiate_scene))
        self._patch(scene, "sample_value", self.counted(
            "distributions.sample_value", scene.sample_value))
        self._patch(pipeline, "hyde_query", self.spanned(
            "retrieval.hyde_query", pipeline.hyde_query))
        self._patch(retrieval.LocalHashEmbedder, "embed", self.spanned(
            "retrieval.embed", retrieval.LocalHashEmbedder.embed))
        self._patch(retrieval.VectorStore, "query_topk", self.spanned(
            "retrieval.query_topk", retrieval.VectorStore.query_topk))
        for method in ("complete", "complete_constrained"):
            self._patch(gateway.Gateway, method, self.spanned(
                "gateway.request", getattr(gateway.Gateway, method),
                note=lambda completion: completion.from_cache))
        for cache in (gateway.MemoryCache, gateway.FileCache):
            for method in ("get", "put"):
                self._patch(cache, method, self.spanned(
                    f"gateway.cache.{method}", getattr(cache, method)))
        for backend in (ScriptedRouter, gateway.PlaybackBackend):
            self._patch(backend, "invoke", self.spanned(
                "gateway.backend", backend.invoke))
        for attr, value in list(vars(prompts.PromptFactory).items()):
            if callable(value) and not attr.startswith("_"):
                self._patch(prompts.PromptFactory, attr, self.spanned(
                    "prompts.build", value))
        self._patch(cli, "load_report", self.spanned(
            "reports.load_report", cli.load_report))
        self._patch(cli, "write_run_result", self.spanned(
            "cli.write_run_result", cli.write_run_result, report_id=result_of))
        for attr in ("load_results", "summarize"):
            self._patch(evalharness, attr, self.spanned(
                f"evalharness.{attr}", getattr(evalharness, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus the union of its
        children's intervals."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        result = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(id(span), ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result[id(span)] = span.duration - covered
        return result


def repeat_failures(tracer: Tracer) -> list[str]:
    """Counts that must repeat exactly: per run of one report, its
    compile calls, parse bytes and backend calls are the same every time
    that report runs, and compile calls are the same for every report
    with the same repairs."""
    roots = {id(s): s for s in tracer.spans if s.name == "pipeline.run_report"}
    counts = {key: [0, 0, 0] for key in roots}
    for span in tracer.spans:
        root = span.parent
        while root is not None and id(root) not in roots:
            root = root.parent
        if root is None:
            continue
        row = counts[id(root)]
        if span.name == "scenic.compile_section":
            row[0] += 1
        elif span.name == "scenic.parse":
            row[1] += span.size
        elif span.name == "gateway.backend":
            row[2] += 1
    by_report, by_shape = defaultdict(set), defaultdict(set)
    for key, (compiles, parsed, backend) in counts.items():
        root = roots[key]
        by_report[root.report_id].add((compiles, parsed, backend))
        by_shape[root.note].add(compiles)
    problems = [
        f"{rid}: (compile calls, parse bytes, backend calls) vary across runs: {sorted(v)}"
        for rid, v in by_report.items() if len(v) > 1
    ]
    problems += [
        f"compile calls vary across reports with repairs {shape}: {sorted(v)}"
        for shape, v in by_shape.items() if len(v) > 1
    ]
    return problems


_CPU = "reports_per_s, report_ms_p50/p95 on offline-compose and corpus-warm; not remote-latency"
_SCENE = "reports_per_s, report_ms_p50/p95 on offline-compose"

# per-layer metric -> the end-to-end metric it should move, and where
LAYER_TARGETS = {
    "scenic.compile_section.calls_per_report": _CPU,
    "scenic.compile_section.ms_per_report": _CPU,
    "scenic.parse.bytes_per_report": _CPU,
    "scenic.parse.us_per_byte": _CPU,
    "scene.check_validity.ms_per_report": _SCENE,
    "scene.instantiate_scene.ms_per_call": _SCENE,
    "distributions.sample_value.calls_per_report": _SCENE,
    "gateway.requests_per_report": "backend_calls_per_report on remote-latency",
    "gateway.cache_hit_ratio": "backend_calls_per_report on remote-latency",
    "gateway.self_ms_per_report": "reports_per_s on offline-compose",
    "gateway.backend_wait_ms_per_report": "report_ms_p50, round_trips_per_report on remote-latency",
    "gateway.backend_inflight_max": "report_ms_p50, round_trips_per_report on remote-latency",
    "gateway.cache.get_ms_per_call": "reports_per_s on corpus-warm",
    "retrieval.hyde_query.self_ms_per_call": "reports_per_s on offline-compose",
    "retrieval.embed.ms_per_call": "reports_per_s on offline-compose",
    "retrieval.query_topk.ms_per_call": "reports_per_s on offline-compose",
    "prompts.build_ms_per_report": "reports_per_s on offline-compose",
    "pipeline.self_ms_per_report": "reports_per_s on offline-compose",
    "pipeline.section_repairs_per_report": "reports_per_s on offline-compose",
    "pipeline.program_repairs_per_report": "reports_per_s on offline-compose",
    "reports.load_report.ms_per_call": "reports_per_s on corpus-warm",
    "cli.write_run_result.ms_per_report": "reports_per_s on corpus-warm",
    "evalharness.load_results.ms": "reports_per_s on corpus-warm",
    "evalharness.summarize.ms": "reports_per_s on corpus-warm",
    "backend_calls_per_report": "model cost; report_ms_p50 on remote-latency",
    "round_trips_per_report": "report_ms_p50 on remote-latency",
    "trace.overhead_ratio": "none: untraced over traced reports_per_s",
}


def layer_metrics(tracer: Tracer, repairs) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans and the repairs each
    of its reports recorded."""
    reports = max(1, len(repairs))
    self_time = tracer.self_times()
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    size = defaultdict(int)
    for span in tracer.spans:
        total[span.name] += span.duration
        own[span.name] += self_time[id(span)]
        calls[span.name] += 1
        size[span.name] += span.size
    hits = sum(1 for s in tracer.spans if s.name == "gateway.request" and s.note)
    backend = [s for s in tracer.spans if s.name == "gateway.backend"]
    trips = round_trips_per_report([(s.report_id, s.start, s.end) for s in backend])
    samples = sum(n for (name, _), n in tracer.counts.items()
                  if name == "distributions.sample_value")

    def per_call(name: str, seconds: dict = total, scale: float = 1e3) -> float:
        return seconds[name] * scale / calls[name] if calls[name] else 0.0

    parse_bytes = size["scenic.parse"]
    return {
        "scenic.compile_section.calls_per_report": calls["scenic.compile_section"] / reports,
        "scenic.compile_section.ms_per_report": total["scenic.compile_section"] * 1e3 / reports,
        "scenic.parse.bytes_per_report": parse_bytes / reports,
        "scenic.parse.us_per_byte": total["scenic.parse"] * 1e6 / parse_bytes if parse_bytes else 0.0,
        "scene.check_validity.ms_per_report": total["scene.check_validity"] * 1e3 / reports,
        "scene.instantiate_scene.ms_per_call": per_call("scene.instantiate_scene"),
        "distributions.sample_value.calls_per_report": samples / reports,
        "gateway.requests_per_report": calls["gateway.request"] / reports,
        "gateway.cache_hit_ratio": hits / calls["gateway.request"] if calls["gateway.request"] else 0.0,
        "gateway.self_ms_per_report": own["gateway.request"] * 1e3 / reports,
        "gateway.backend_wait_ms_per_report": total["gateway.backend"] * 1e3 / reports,
        "gateway.backend_inflight_max": max_in_flight([(s.start, s.end) for s in backend]),
        "gateway.cache.get_ms_per_call": per_call("gateway.cache.get"),
        "retrieval.hyde_query.self_ms_per_call": per_call("retrieval.hyde_query", own),
        "retrieval.embed.ms_per_call": per_call("retrieval.embed"),
        "retrieval.query_topk.ms_per_call": per_call("retrieval.query_topk"),
        "prompts.build_ms_per_report": total["prompts.build"] * 1e3 / reports,
        "pipeline.self_ms_per_report": own["pipeline.run_report"] * 1e3 / reports,
        "pipeline.section_repairs_per_report": sum(
            sum(v for k, v in r.items() if k != "program") for r in repairs
        ) / reports,
        "pipeline.program_repairs_per_report": sum(r["program"] for r in repairs) / reports,
        "reports.load_report.ms_per_call": per_call("reports.load_report"),
        "cli.write_run_result.ms_per_report": total["cli.write_run_result"] * 1e3 / reports,
        "evalharness.load_results.ms": per_call("evalharness.load_results"),
        "evalharness.summarize.ms": per_call("evalharness.summarize"),
        "backend_calls_per_report": len(backend) / reports,
        "round_trips_per_report": sum(trips.values()) / reports,
    }


def time_shares(tracer: Tracer) -> dict[str, float]:
    """Share of run_report time spent in each direct child layer."""
    roots = [s for s in tracer.spans if s.name == "pipeline.run_report"]
    whole = sum(s.duration for s in roots) or 1.0
    root_ids = {id(s) for s in roots}
    shares = defaultdict(float)
    for span in tracer.spans:
        if span.parent is not None and id(span.parent) in root_ids:
            shares[span.name] += span.duration / whole
    own = tracer.self_times()
    shares["pipeline (self)"] = sum(own[id(s)] for s in roots) / whole
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
