from __future__ import annotations

import json

import pytest

from scenforge.cli import main
from support import (
    happy_transcript,
    merge_transcripts,
    write_corpus,
    write_report,
    write_transcript,
)


@pytest.fixture
def report_path(tmp_path):
    return write_report(tmp_path)


@pytest.fixture
def transcript_path(tmp_path):
    return write_transcript(tmp_path / "t1.json", happy_transcript())


def gen_scenic_args(report_path, transcript_path, out, **extra):
    args = [
        "gen-scenic",
        "--report", str(report_path),
        "--backend", "playback",
        "--transcript", str(transcript_path),
        "--out", str(out),
        "--seed", "7",
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


def test_gen_scenic_happy_path(report_path, transcript_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(gen_scenic_args(report_path, transcript_path, out))
    assert code == 0
    assert (out / "r1.scenic").is_file()
    assert (out / "r1.trace").is_file()
    assert (out / "r1.validity").is_file()
    printed = capsys.readouterr().out
    assert "r1" in printed and "success=True" in printed
    assert "difficulty=" in printed


def test_gen_scenic_missing_report_flag_is_usage_error(capsys):
    assert main(["gen-scenic"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_gen_scenic_unknown_strategy_is_usage_error(report_path, transcript_path, tmp_path, capsys):
    code = main(
        gen_scenic_args(report_path, transcript_path, tmp_path / "o", strategy="dspy")
    )
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_gen_scenic_missing_report_file_is_run_error(transcript_path, tmp_path):
    code = main(
        gen_scenic_args(tmp_path / "ghost.report", transcript_path, tmp_path / "o")
    )
    assert code == 1


def test_gen_scenic_failed_run_exits_one(report_path, tmp_path):
    empty = write_transcript(tmp_path / "empty.json", {})
    code = main(gen_scenic_args(report_path, empty, tmp_path / "o"))
    assert code == 1


def test_gen_scenic_deterministic_output_bytes(report_path, transcript_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(gen_scenic_args(report_path, transcript_path, out_a)) == 0
    assert main(gen_scenic_args(report_path, transcript_path, out_b)) == 0
    assert (out_a / "r1.scenic").read_bytes() == (out_b / "r1.scenic").read_bytes()


def test_run_corpus_summary(tmp_path, capsys):
    ids = ["c1", "c2", "c3"]
    corpus_dir = write_corpus(tmp_path / "corpus", ids)
    transcript = merge_transcripts(*[happy_transcript(i) for i in ids])
    transcript_path = write_transcript(tmp_path / "corpus.json", transcript)
    out = tmp_path / "out"
    code = main([
        "run-corpus", "--corpus", str(corpus_dir),
        "--backend", "playback", "--transcript", str(transcript_path),
        "--out", str(out), "--seed", "3",
    ])
    assert code == 0
    assert "3/3 succeeded" in capsys.readouterr().out
    summary = json.loads((out / "corpus_summary.json").read_text())
    assert summary["total"] == 3
    assert summary["succeeded"] == 3
    assert [r["report_id"] for r in summary["runs"]] == ids


def test_run_corpus_jobs_do_not_change_summary(tmp_path):
    ids = ["c1", "c2"]
    corpus_dir = write_corpus(tmp_path / "corpus", ids)
    transcript = merge_transcripts(*[happy_transcript(i) for i in ids])
    transcript_path = write_transcript(tmp_path / "t.json", transcript)

    def run(jobs, out):
        code = main([
            "run-corpus", "--corpus", str(corpus_dir),
            "--backend", "playback", "--transcript", str(transcript_path),
            "--out", str(out), "--jobs", str(jobs),
        ])
        assert code == 0
        summary = json.loads((out / "corpus_summary.json").read_text())
        return [(r["report_id"], r["success"]) for r in summary["runs"]]

    assert run(1, tmp_path / "o1") == run(4, tmp_path / "o4")


def test_run_corpus_missing_manifest_is_infrastructure_error(tmp_path, capsys):
    code = main([
        "run-corpus", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
    ])
    assert code == 1


def test_run_corpus_manifest_referencing_missing_file(tmp_path):
    corpus_dir = write_corpus(tmp_path / "corpus", ["c1"])
    (corpus_dir / "manifest.txt").write_text("c1\nmissing_report\n")
    code = main([
        "run-corpus", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o"),
    ])
    assert code == 1


def test_eval_happy_path(report_path, transcript_path, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(gen_scenic_args(report_path, transcript_path, out)) == 0
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        '{"report_id": "r1", "accuracy": 4, "relevance": 5, "expressiveness": 4}\n'
    )
    tables = tmp_path / "tables"
    code = main([
        "eval", "--results", str(out), "--scores", str(scores), "--out", str(tables),
    ])
    assert code == 0
    assert (tables / "metrics_all.txt").is_file()
    rendered = (tables / "metrics_all.txt").read_text()
    assert "compositional" in rendered
    assert "are_score" in rendered


def test_eval_unknown_score_id_exits_two(report_path, transcript_path, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(gen_scenic_args(report_path, transcript_path, out)) == 0
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        '{"report_id": "ghost", "accuracy": 4, "relevance": 5, "expressiveness": 4}\n'
    )
    code = main(["eval", "--results", str(out), "--scores", str(scores), "--out", str(tmp_path / "t")])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("suffix, content", [
    (".trace", '{"report_id": "r1", "strat'),
    (".trace", "[]"),
    (".trace", '{"strategy": "x"}'),
    (".validity", '{"syntactic": tr'),
    (".validity", "[]"),
], ids=["truncated-trace", "list-trace", "no-report-id", "truncated-validity", "list-validity"])
def test_eval_malformed_result_file_exits_two(report_path, transcript_path, tmp_path,
                                              capsys, suffix, content):
    out = tmp_path / "results"
    assert main(gen_scenic_args(report_path, transcript_path, out)) == 0
    broken = out / f"r1{suffix}"
    broken.write_text(content, encoding="utf-8")
    code = main(["eval", "--results", str(out), "--out", str(tmp_path / "t")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad result file: ") and str(broken) in err
    assert "Traceback" not in err


def test_eval_empty_results_exits_two(tmp_path, capsys):
    code = main(["eval", "--results", str(tmp_path), "--out", str(tmp_path / "t")])
    assert code == 2
    assert "no results" in capsys.readouterr().err


def test_index_store_builds_and_is_idempotent(tmp_path, capsys):
    examples = tmp_path / "examples"
    examples.mkdir()
    for i in range(10):
        (examples / f"ex{i}.scenic").write_text(f"X{i} = {i}\nego = new Car at ({i}, 0)\n")
    store_path = tmp_path / "store.jsonl"
    code = main(["index-store", "--examples", str(examples), "--store", str(store_path)])
    assert code == 0
    assert "indexed 10" in capsys.readouterr().out
    first_bytes = store_path.read_bytes()
    assert main(["index-store", "--examples", str(examples), "--store", str(store_path)]) == 0
    assert store_path.read_bytes() == first_bytes

    from scenforge.retrieval import VectorStore

    assert len(VectorStore.load(store_path)) == 10


def test_index_store_empty_directory_exits_one(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(["index-store", "--examples", str(empty), "--store", str(tmp_path / "s")])
    assert code == 1
    assert "nothing to index" in capsys.readouterr().err


def test_outputs_stay_inside_out_and_cache(report_path, transcript_path, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only_out"
    assert main(gen_scenic_args(report_path, transcript_path, out)) == 0
    assert list(workdir.iterdir()) == []  # nothing leaked into the cwd
    produced = {p.name for p in out.iterdir()}
    assert produced == {"r1.scenic", "r1.trace", "r1.validity", "cache"}


def test_gen_scenic_with_store_flag(report_path, tmp_path):
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "a.scenic").write_text("SPEED = 1\nego = new Car at (0, 0)\n")
    store_path = tmp_path / "store.jsonl"
    assert main(["index-store", "--examples", str(examples), "--store", str(store_path)]) == 0
    transcript = happy_transcript()
    transcript["r1/hyde_draft"] = ["SPEED = 1\nego = new Car at (0, 0)"]
    transcript_path = write_transcript(tmp_path / "t.json", transcript)
    out = tmp_path / "out"
    code = main(
        gen_scenic_args(report_path, transcript_path, out, store=str(store_path))
    )
    assert code == 0
