"""scenforge benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload offline-compose --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``;
the benchmark needs nothing beyond the standard library. Workloads are
described in ``workloads.py`` and, with the reason for each, in
``BENCHMARK.json``.

Every run checks each report's output against the generator's script
and the counters that must repeat exactly. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half
traced, and prints the per-layer metrics, including the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Working files go under
``.bench_out/`` and the traced run's spans are written there at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5
BENCH_DIR = Path(__file__).resolve().parent


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def src_line_count(root: Path) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (root / "src").rglob("*.py")
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "scenforge").is_dir():
        print("error: run from the repository root; src/scenforge not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    from hostspeed import HostSpeed
    from tracing import LAYER_TARGETS, Tracer, layer_metrics, repeat_failures, time_shares
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_root = root / ".bench_out"
    workdir = out_root / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # host speed sampled through the whole run, set-up included
        host = HostSpeed()
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_seconds.append(time.perf_counter() - start)
            host.sample()
        warmup = getattr(workload, "warmup", None)
        failures = list(warmup.failures) if warmup else []
        attempted = warmup.reports if warmup else 0

        if args.trace:
            plain = workload.run(args.seconds / 2, host)
            tracer = Tracer()
            tracer.install()
            try:
                measure = workload.run(args.seconds / 2, host)
            finally:
                tracer.restore()
            failures += plain.failures + repeat_failures(tracer)
            attempted += plain.reports
            values = layer_metrics(tracer, measure.repairs)
            values["trace.overhead_ratio"] = (
                (plain.reports / plain.seconds) / (measure.reports / measure.seconds)
            )
            declared = spec["per_layer"]
        else:
            measure = workload.run(args.seconds, host)
            # CPU-bound workloads report times scaled to a nominal host speed
            speed = host.speed if workload.cpu_bound else 1.0
            p50, _ = percentile(measure.latencies, 50)
            p95, _ = percentile(measure.latencies, 95)
            values = {
                "reports_per_s": measure.reports / measure.seconds / speed,
                "report_ms_p50": p50 * 1e3 * speed,
                "report_ms_p95": p95 * 1e3 * speed,
                "setup_s": statistics.median(setup_seconds) * speed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            declared = spec["end_to_end"]
        failures += measure.failures
        attempted += measure.reports

        _, beyond = percentile(measure.latencies, 95)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
        print(f"  {measure.reports} reports in {measure.seconds:.3f} s timed; "
              f"{len(measure.latencies)} latency samples, {beyond} beyond p95")
        print("  setup_s per repeat, as measured: "
              + " ".join(f"{s:.4f}" for s in setup_seconds))
        print(f"  host speed (1.0 = nominal): {host.speed:.3f}; timings "
              + ("scaled to nominal" if workload.cpu_bound else "as measured"))
        if not args.trace:
            print(f"  as measured: reports_per_s {measure.reports / measure.seconds:.3f}, "
                  f"report_ms_p50 {p50 * 1e3:.3f}, report_ms_p95 {p95 * 1e3:.3f}")
        for counter, series in sorted(measure.counters.items()):
            numbers = [v[-1] if isinstance(v, tuple) else v for v in series]
            if numbers:
                print(f"  {counter}: n={len(numbers)} min={min(numbers)} "
                      f"median={statistics.median(numbers)} max={max(numbers)}")
        print(f"  src_loc (informational): {src_line_count(root)}")
        if args.trace:
            print("  share of run_report time by direct child:")
            for name, share in time_shares(tracer).items():
                print(f"    {name:<28} {share:7.1%}")
            print("  per-layer metrics (value, unit; end-to-end metric it should move):")
            for item in declared:
                name = item["name"]
                print(f"    {name:<44} {values[name]:12.4f} {item['unit']:<8} "
                      f"{LAYER_TARGETS.get(name, '')}")
            spans_path = out_root / f"spans-{args.workload}-{args.seed}.jsonl"
            with spans_path.open("w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps([
                        span.name, span.start, span.end,
                        id(span.parent) if span.parent else None, id(span),
                        span.report_id,
                    ]) + "\n")
        for problem in failures[:10]:
            print(f"  MISMATCH {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(len(failures), attempted)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
            for item in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
