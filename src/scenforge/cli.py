"""Command-line entry points.

    scenforge gen-scenic   --report r1.report [--strategy ...] ...
    scenforge run-corpus   --corpus DIR [--jobs N] ...
    scenforge eval         --results DIR --scores FILE [...]
    scenforge index-store  --examples DIR --store FILE

Exit codes: 0 success, 1 run or infrastructure failure, 2 usage error.
Outputs land under --out (plus the cache directory); nothing else is
written.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import evalharness
from .bundled import bundled_map_path, bundled_registry
from .errors import RetrievalError, ScenForgeError
from .gateway import Gateway, PlaybackBackend, RemoteBackend
from .pipeline import (
    STRATEGIES,
    PipelineConfig,
    RetrievalSetup,
    run_report,
    write_run_result,
)
from .reports import classify_report, corpus_report_path, load_manifest, load_report
from .retrieval import DEFAULT_DIMENSION, LocalHashEmbedder, VectorStore
from .scene import load_map
from .scenic.validator import load_registry

USAGE_ERROR = 2
RUN_ERROR = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenforge",
        description="Generate probabilistic scenario programs from crash reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scenic", help="run one report through the system")
    gen.add_argument("--report", required=True, help="path to a .report file")
    _add_run_flags(gen)

    corpus = sub.add_parser("run-corpus", help="run every report in a corpus")
    corpus.add_argument("--corpus", required=True, help="corpus directory with manifest.txt")
    corpus.add_argument("--jobs", type=int, default=4, help="worker pool size")
    _add_run_flags(corpus)

    ev = sub.add_parser("eval", help="aggregate results and human scores into tables")
    ev.add_argument("--results", required=True, help="directory of persisted runs")
    ev.add_argument("--scores", action="append", default=[], help="score file (repeatable)")
    ev.add_argument("--out", default="out", help="output directory")
    ev.add_argument("--seed", type=int, default=0, help="accepted for flag uniformity")

    index = sub.add_parser("index-store", help="embed example programs into a store file")
    index.add_argument("--examples", required=True, help="directory of .scenic files")
    index.add_argument("--store", required=True, help="store file to write")
    index.add_argument("--dimension", type=int, default=DEFAULT_DIMENSION)
    index.add_argument("--seed", type=int, default=0, help="accepted for flag uniformity")

    return parser


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--strategy", choices=STRATEGIES, default="compositional")
    sub.add_argument("--model", default="default-model", help="backend model id")
    sub.add_argument("--backend", choices=("remote", "playback"), default="playback")
    sub.add_argument("--transcript", help="playback transcript file")
    sub.add_argument("--endpoint", help="remote chat-completions endpoint URL")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--map", dest="map_path", help="road-network file (default: bundled cross4)")
    sub.add_argument("--registry", dest="registry_path", help="asset registry JSON")
    sub.add_argument("--store", dest="store_path", help="retrieval store file")
    sub.add_argument("--cache-dir", help="completion cache directory (default: <out>/cache)")
    sub.add_argument("--max-section-retries", type=int, default=5)
    sub.add_argument("--max-program-retries", type=int, default=3)
    sub.add_argument("--retrieval-k", type=int, default=3)
    sub.add_argument("--seed", type=int, default=0)


def _build_backend(args) -> object:
    if args.backend == "remote":
        if not args.endpoint:
            raise ValueError("--backend remote requires --endpoint")
        return RemoteBackend(args.endpoint)
    if args.transcript:
        return PlaybackBackend.from_file(args.transcript)
    return PlaybackBackend()


def _build_config(args) -> PipelineConfig:
    registry = (
        load_registry(args.registry_path) if args.registry_path else bundled_registry()
    )
    network = load_map(args.map_path or bundled_map_path("cross4"))
    return PipelineConfig(
        strategy=args.strategy,
        model_id=args.model,
        section_retry_budget=args.max_section_retries,
        program_retry_budget=args.max_program_retries,
        retrieval_k=args.retrieval_k,
        seed=args.seed,
        registry=registry,
        network=network,
    )


def _build_retrieval(args) -> RetrievalSetup:
    if args.store_path and Path(args.store_path).is_file():
        store = VectorStore.load(args.store_path)
        return RetrievalSetup(store=store, embedder=LocalHashEmbedder(store.dimension))
    return RetrievalSetup()


def _build_gateway(args) -> Gateway:
    cache_dir = args.cache_dir or str(Path(args.out) / "cache")
    return Gateway(_build_backend(args), cache_dir=cache_dir)


def cmd_gen_scenic(args) -> int:
    try:
        report = load_report(args.report)
        config = _build_config(args)
        gateway = _build_gateway(args)
        retrieval = _build_retrieval(args)
    except (OSError, ScenForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_ERROR
    difficulty = classify_report(report)
    try:
        result = run_report(report, config, gateway, retrieval)
    finally:
        gateway.close()
    write_run_result(result, args.out)
    print(
        f"{report.id} success={result.success} wall={result.wall_seconds:.3f}s "
        f"difficulty={difficulty.level}"
    )
    if result.failure:
        print(f"  failure: {result.failure}", file=sys.stderr)
    return 0 if result.success else RUN_ERROR


def cmd_run_corpus(args) -> int:
    try:
        corpus = load_manifest(args.corpus)
        reports = [load_report(corpus_report_path(corpus, rid)) for rid in corpus.report_ids]
        config = _build_config(args)
        gateway = _build_gateway(args)
        retrieval = _build_retrieval(args)
    except (OSError, ScenForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_ERROR

    def run_one(report):
        return run_report(report, config, gateway, retrieval)

    jobs = max(1, args.jobs)
    try:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, reports))
    finally:
        gateway.close()
    for result in results:
        write_run_result(result, args.out)
    results.sort(key=lambda r: r.report_id)
    succeeded = sum(1 for r in results if r.success)
    summary = {
        "total": len(results),
        "succeeded": succeeded,
        "rate": succeeded / len(results),
        "runs": [
            {
                "report_id": r.report_id,
                "success": r.success,
                "wall_seconds": round(r.wall_seconds, 6),
                "failure": r.failure,
            }
            for r in results
        ],
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "corpus_summary.json").write_text(
        json.dumps(summary, indent=2), encoding="utf-8"
    )
    print(f"{succeeded}/{len(results)} succeeded (rate {summary['rate']:.2f})")
    return 0


def cmd_eval(args) -> int:
    try:
        results = evalharness.load_results(args.results)
    except ScenForgeError as exc:
        print(f"error: bad result file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if not results:
        print("error: no results found", file=sys.stderr)
        return USAGE_ERROR
    scores = []
    try:
        for path in args.scores:
            scores.extend(evalharness.load_scores(path))
    except (OSError, ScenForgeError, KeyError, ValueError) as exc:
        print(f"error: bad score file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    by_strategy: dict[str, list] = {}
    for record in results:
        by_strategy.setdefault(record.strategy, []).append(record)
    rows = []
    try:
        for strategy in sorted(by_strategy):
            strategy_results = by_strategy[strategy]
            ids = {r.report_id for r in strategy_results}
            strategy_scores = [s for s in scores if s.report_id in ids]
            rows.append(
                evalharness.summarize(strategy_results, strategy_scores, strategy)
            )
        all_ids = {r.report_id for r in results}
        for score in scores:
            if score.report_id not in all_ids:
                raise evalharness.UnmatchedScore(
                    f"score references unknown report id '{score.report_id}'"
                )
    except ScenForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    written = evalharness.write_tables(rows, args.out)
    print(evalharness.render_table(rows), end="")
    print(f"wrote {len(written)} table file(s) under {args.out}")
    return 0


def cmd_index_store(args) -> int:
    directory = Path(args.examples)
    files = sorted(directory.glob("*.scenic"))
    if not files:
        print("error: nothing to index", file=sys.stderr)
        return RUN_ERROR
    embedder = LocalHashEmbedder(args.dimension)
    store = VectorStore(args.dimension)
    try:
        for path in files:
            store.upsert(path.stem, path.read_text(encoding="utf-8"), embedder)
    except RetrievalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_ERROR
    store_path = Path(args.store)
    store_path.parent.mkdir(parents=True, exist_ok=True)
    store.save(store_path)
    print(f"indexed {len(store)} example(s) into {store_path}")
    return 0


_COMMANDS = {
    "gen-scenic": cmd_gen_scenic,
    "run-corpus": cmd_run_corpus,
    "eval": cmd_eval,
    "index-store": cmd_index_store,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return _COMMANDS[args.command](args)


def entrypoint() -> None:
    sys.exit(main())
