"""Cross-language similarity probe and report serialization."""

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .bank import DataError
from .fusion import sentence_embeddings
from .training import SweepReport, SweepRow


class SimilarityError(ValueError):
    """Undefined similarity (zero-norm vector) or an empty report."""


@dataclass
class SimilarityReport:
    """Average cosine similarity between parallel sentence embeddings."""

    model: str
    average: float
    per_language: dict
    pairs: int


def cosine_similarity(u, v):
    """u.v / (|u||v|), clipped into [-1, 1].

    Bit-identical vectors short-circuit to exactly 1.0, so comparing an
    embedding against itself never picks up rounding noise.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise DataError(f"cosine_similarity: lengths differ, {u.size} vs {v.size}")
    norm_u = np.linalg.norm(u)
    norm_v = np.linalg.norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        raise SimilarityError("cosine similarity is undefined for zero-norm vectors")
    if np.array_equal(u, v):
        return 1.0
    return float(np.clip(np.dot(u, v) / (norm_u * norm_v), -1.0, 1.0))


def avg_cross_lingual_similarity(system, source, targets, pairs=20, split="test"):
    """Average cosine similarity of parallel sentences against each target bank.

    Uses the first ``pairs`` sentences of the split (all of them when
    ``pairs`` is None); the overall average is the arithmetic mean over every
    (sentence, target-language) pair.
    """
    rows = source.split_indices(split)
    if rows.size == 0:
        raise DataError(f"source bank has no sentences in the {split!r} split")
    if pairs is not None:
        if pairs < 1:
            raise DataError("pairs must be at least 1")
        rows = rows[:pairs]
    targets = list(targets)
    if not targets:
        raise DataError("at least one target bank is required")
    for index, target in enumerate(targets):
        if target.shape[0] != source.shape[0] or list(target.splits) != list(source.splits):
            raise DataError(
                f"target bank {index} is not sentence-aligned with the source bank"
            )
    source_vectors = sentence_embeddings(system, source, rows)
    per_language = {}
    combined = []
    for index, target in enumerate(targets):
        target_vectors = sentence_embeddings(system, target, rows)
        sims = [
            cosine_similarity(source_vectors[i], target_vectors[i])
            for i in range(rows.size)
        ]
        tag = target.languages[0]
        if tag in per_language:
            tag = f"{tag}.{index}"
        per_language[tag] = float(np.mean(sims))
        combined.extend(sims)
    return SimilarityReport(
        model=system.config_id(),
        average=float(np.mean(combined)),
        per_language=per_language,
        pairs=len(combined),
    )


# Column -> (heading, alignment and width, number format) of the fixed-width
# table; a column missing here appears only in CSV and JSON.
_TABLE_COLUMNS = {
    "config": ("config", "<10", ""),
    "source_accuracy": ("src acc", ">8", ".4f"),
    "source_f1": ("src F1", ">8", ".4f"),
    "target_accuracy": ("tgt acc", ">8", ".4f"),
    "target_f1": ("tgt F1", ">8", ".4f"),
    "model": ("model", "<10", ""),
    "language": ("language", "<10", ""),
    "avg_cosine_similarity": ("Avg C.S.", ">10", ".4f"),
}

REPORT_FORMATS = ("csv", "json", "table")


def _tabulate(report):
    """(columns, rows, JSON document) of a sweep or similarity report.

    Sweep rows come baseline-first, then by ascending layer index; languages
    alphabetically, followed by the overall average.
    """
    if isinstance(report, SweepReport):
        if not report.rows:
            raise SimilarityError("sweep report must be non-empty")
        ordered = sorted(report.rows, key=lambda row: (row.lower is not None, row.lower or 0))
        doc = {
            "upper": report.upper,
            "variant": report.variant,
            "gate_mode": report.mode,
            "seed": report.seed,
            "rows": [asdict(row) for row in ordered],
        }
        return [f.name for f in fields(SweepRow)], [astuple(row) for row in ordered], doc
    if not report.per_language:
        raise SimilarityError("similarity report must be non-empty")
    entries = [*sorted(report.per_language.items()), ("all", report.average)]
    doc = {
        "model": report.model,
        "avg_cosine_similarity": report.average,
        "per_language": report.per_language,
        "pairs": report.pairs,
    }
    columns = ["model", "language", "pairs", "avg_cosine_similarity"]
    return columns, [(report.model, language, report.pairs, value) for language, value in entries], doc


def render_csv(columns, rows):
    """CSV text: a header line, then one line per row.

    None is an empty cell and a float keeps its full ``repr`` precision; a
    cell holding a comma, quote or line break is quoted (``csv.writer``).
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([columns, *rows])
    return out.getvalue()


def _render_table(columns, rows):
    shown = [(i, *_TABLE_COLUMNS[name]) for i, name in enumerate(columns) if name in _TABLE_COLUMNS]
    header = " ".join(format(heading, width) for _, heading, width, _ in shown)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(" ".join(format(row[i], width + number) for i, _, width, number in shown))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt="csv"):
    """Serialize a sweep or similarity report; deterministic per report.

    Every format renders the same table (see ``_tabulate``), so two emissions
    of the same report are byte-identical.
    """
    if not isinstance(report, (SweepReport, SimilarityReport)):
        raise TypeError(f"cannot emit report of type {type(report).__name__}")
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}, expected one of {REPORT_FORMATS}")
    columns, rows, doc = _tabulate(report)
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    return (render_csv if fmt == "csv" else _render_table)(columns, rows)
