"""Metric machinery: correctness counts, human ARE scores, and the
per-strategy summary tables.

Accuracy, relevance and expressiveness come from human raters (score
files); this module only aggregates, it never grades. The ARE score is
the arithmetic mean of the three, its spread reported as the standard
error of per-report ARE values. Display rounding follows the reporting
convention: one decimal for qualitative metrics, three for times.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyInput, MalformedResult, OutOfRange, UnmatchedScore

SCORE_MIN, SCORE_MAX = 1, 5


@dataclass(frozen=True)
class HumanScores:
    report_id: str
    accuracy: int
    relevance: int
    expressiveness: int
    rater_id: str = "rater-0"

    def __post_init__(self):
        for name in ("accuracy", "relevance", "expressiveness"):
            value = getattr(self, name)
            if not isinstance(value, int) or not SCORE_MIN <= value <= SCORE_MAX:
                raise OutOfRange(
                    f"{name} must be an integer in [{SCORE_MIN}, {SCORE_MAX}], got {value!r}"
                )


@dataclass(frozen=True)
class CorrectnessSummary:
    count: int
    rate: float


@dataclass(frozen=True)
class MetricsRow:
    strategy: str
    correctness_count: int
    correctness_rate: float
    accuracy_mean: float | None
    relevance_mean: float | None
    expressiveness_mean: float | None
    are_score: float | None
    are_stderr: float | None
    inference_time_mean: float
    rated_reports: int


def score_are(accuracy: float, relevance: float, expressiveness: float) -> float:
    """Arithmetic mean of the three qualitative scores."""
    for value in (accuracy, relevance, expressiveness):
        if not SCORE_MIN <= value <= SCORE_MAX:
            raise OutOfRange(f"score {value!r} outside [{SCORE_MIN}, {SCORE_MAX}]")
    return (accuracy + relevance + expressiveness) / 3


def _is_valid(result) -> bool:
    validity = result.validity
    if isinstance(validity, dict):
        return bool(
            validity.get("syntactic")
            and validity.get("semantic")
            and validity.get("executable")
        )
    return validity.valid


def correctness_rate(results) -> CorrectnessSummary:
    results = list(results)
    if not results:
        raise EmptyInput("correctness rate over zero results")
    count = sum(1 for r in results if _is_valid(r))
    return CorrectnessSummary(count, count / len(results))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _stderr(values) -> float:
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    mean = _mean(values)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(variance) / math.sqrt(n)


def summarize(results, scores, strategy: str) -> MetricsRow:
    """Aggregate one strategy's results and human scores into a table row.

    Raises UnmatchedScore when a score references an unknown report id.
    Multiple raters per report are averaged within the report first; the
    ARE stderr is computed over per-report ARE values.
    """
    results = list(results)
    if not results:
        raise EmptyInput("summarize over zero results")
    by_id = {r.report_id: r for r in results}
    per_report: dict[str, list[HumanScores]] = {}
    for score in scores:
        if score.report_id not in by_id:
            raise UnmatchedScore(
                f"score references unknown report id '{score.report_id}'"
            )
        per_report.setdefault(score.report_id, []).append(score)

    correctness = correctness_rate(results)
    time_mean = _mean(r.wall_seconds for r in results)

    if not per_report:
        return MetricsRow(
            strategy=strategy,
            correctness_count=correctness.count,
            correctness_rate=correctness.rate,
            accuracy_mean=None,
            relevance_mean=None,
            expressiveness_mean=None,
            are_score=None,
            are_stderr=None,
            inference_time_mean=time_mean,
            rated_reports=0,
        )

    report_accuracy = []
    report_relevance = []
    report_expressiveness = []
    report_are = []
    for report_id in sorted(per_report):
        ratings = per_report[report_id]
        a = _mean(s.accuracy for s in ratings)
        r = _mean(s.relevance for s in ratings)
        e = _mean(s.expressiveness for s in ratings)
        report_accuracy.append(a)
        report_relevance.append(r)
        report_expressiveness.append(e)
        report_are.append(score_are(a, r, e))

    accuracy_mean = _mean(report_accuracy)
    relevance_mean = _mean(report_relevance)
    expressiveness_mean = _mean(report_expressiveness)
    return MetricsRow(
        strategy=strategy,
        correctness_count=correctness.count,
        correctness_rate=correctness.rate,
        accuracy_mean=accuracy_mean,
        relevance_mean=relevance_mean,
        expressiveness_mean=expressiveness_mean,
        are_score=score_are(accuracy_mean, relevance_mean, expressiveness_mean),
        are_stderr=_stderr(report_are),
        inference_time_mean=time_mean,
        rated_reports=len(per_report),
    )


# --- display -----------------------------------------------------------------


def format_are(row: MetricsRow) -> str:
    if row.are_score is None:
        return "-"
    if row.are_stderr is None or row.rated_reports < 2:
        return f"{row.are_score:.1f}"
    return f"{row.are_score:.1f} ± {row.are_stderr:.1f}"


def _cell(value, decimals: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:.{decimals}f}"


_HEADER = (
    "strategy", "correctness", "accuracy", "relevance",
    "expressiveness", "are_score", "inference_time_s",
)


def render_table(rows) -> str:
    """Fixed-width comparison table, one row per strategy."""
    table = [_HEADER]
    for row in rows:
        table.append(
            (
                row.strategy,
                f"{row.correctness_count} ({row.correctness_rate:.2f})",
                _cell(row.accuracy_mean),
                _cell(row.relevance_mean),
                _cell(row.expressiveness_mean),
                format_are(row),
                _cell(row.inference_time_mean, 3),
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(_HEADER))]
    rendered = []
    for line in table:
        rendered.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(rendered) + "\n"


# --- file formats ----------------------------------------------------------------


def load_scores(path) -> list[HumanScores]:
    """Score file: one JSON record per line with report_id, rater_id,
    accuracy, relevance, expressiveness."""
    scores = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        scores.append(
            HumanScores(
                report_id=str(record["report_id"]),
                accuracy=int(record["accuracy"]),
                relevance=int(record["relevance"]),
                expressiveness=int(record["expressiveness"]),
                rater_id=str(record.get("rater_id", "rater-0")),
            )
        )
    return scores


@dataclass(frozen=True)
class RunRecord:
    """A persisted run as the evaluator sees it: enough for every metric."""

    report_id: str
    strategy: str
    success: bool
    wall_seconds: float
    validity: dict


def _json_object(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MalformedResult(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedResult(f"{path}: not a JSON object")
    return data


def load_results(results_dir) -> list[RunRecord]:
    """Load persisted runs (<id>.trace + <id>.validity) from a directory.
    A file that is not what a run writes raises MalformedResult naming it."""
    directory = Path(results_dir)
    records = []
    for trace_path in sorted(directory.glob("*.trace")):
        trace = _json_object(trace_path)
        validity_path = trace_path.with_suffix(".validity")
        if validity_path.is_file():
            validity = _json_object(validity_path)
        else:
            validity = {"syntactic": False, "semantic": False, "executable": False}
        report_id, strategy = trace.get("report_id"), trace.get("strategy", "unknown")
        wall_seconds = trace.get("wall_seconds", 0.0)
        if not (isinstance(report_id, str) and isinstance(strategy, str)
                and isinstance(wall_seconds, (int, float))):
            raise MalformedResult(f"{trace_path}: bad report_id, strategy or wall_seconds")
        records.append(
            RunRecord(
                report_id=report_id,
                strategy=strategy,
                success=bool(trace.get("success")),
                wall_seconds=float(wall_seconds),
                validity=validity,
            )
        )
    return records


def write_tables(rows, out_dir) -> list[Path]:
    """One table file per strategy plus a combined comparison table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for row in rows:
        path = out / f"metrics_{row.strategy}.txt"
        path.write_text(render_table([row]), encoding="utf-8")
        written.append(path)
    combined = out / "metrics_all.txt"
    combined.write_text(render_table(rows), encoding="utf-8")
    written.append(combined)
    return written
