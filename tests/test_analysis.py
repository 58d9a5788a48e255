"""Cosine-similarity probe and report emission."""

import csv
import io
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfuse import (
    BaselineSystem,
    DataError,
    LayerBank,
    LayerPair,
    SimilarityError,
    SimilarityReport,
    SyntheticTaskSpec,
    build_fusion_system,
    cosine_similarity,
    emit_report,
    generate_task,
)
from layerfuse import analysis
from layerfuse.analysis import avg_cross_lingual_similarity
from layerfuse.training import SweepReport, SweepRow

RNG = np.random.default_rng(300)


class TestCosine:
    def test_self_similarity_exactly_one(self):
        for _ in range(20):
            x = RNG.normal(size=16)
            assert cosine_similarity(x, x.copy()) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_computed(self):
        assert cosine_similarity([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == pytest.approx(8 / 9, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(SimilarityError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(SimilarityError):
            cosine_similarity([1.0, 0.0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_scale_invariance(self):
        u, v = RNG.normal(size=8), RNG.normal(size=8)
        base = cosine_similarity(u, v)
        assert cosine_similarity(3.7 * u, 0.002 * v) == pytest.approx(base, abs=1e-12)

    def test_symmetry_bit_exact(self):
        u, v = RNG.normal(size=8), RNG.normal(size=8)
        assert cosine_similarity(u, v) == cosine_similarity(v, u)

    def test_range_clipped(self):
        for _ in range(100):
            u, v = RNG.normal(size=4), RNG.normal(size=4)
            assert -1.0 <= cosine_similarity(u, v) <= 1.0

    def test_independent_gaussians_near_zero(self):
        rng = np.random.default_rng(42)
        sims = [
            cosine_similarity(rng.standard_normal(256), rng.standard_normal(256))
            for _ in range(100)
        ]
        assert abs(float(np.mean(sims))) < 0.1


SMALL = SyntheticTaskSpec(
    train_sentences=30, test_sentences=25, channels=8, latent_dim=4,
    tokens=3, n_layers=3, invariance=(0.9, 0.3, 0.1), seed=11,
)


@pytest.fixture(scope="module")
def banks():
    return generate_task(SMALL)


class TestProbe:
    def test_identical_banks_average_exactly_one(self, banks):
        source, _ = banks
        clone = LayerBank(
            layers=[layer.copy() for layer in source.layers],
            labels=source.labels.copy(),
            languages=list(source.languages),
            splits=list(source.splits),
        )
        system = build_fusion_system(LayerPair(1, 3), 8, seed=0)
        report = avg_cross_lingual_similarity(system, source, [clone])
        assert report.average == 1.0
        assert all(v == 1.0 for v in report.per_language.values())

    def test_default_pair_budget(self, banks):
        source, target = banks
        report = avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [target])
        assert report.pairs == 20
        assert -1.0 <= report.average <= 1.0

    def test_invariance_ordering(self, banks):
        source, target = banks
        high = build_fusion_system(LayerPair(1, 3), 8, seed=0)
        low = build_fusion_system(LayerPair(2, 3), 8, seed=0)
        sim_high = avg_cross_lingual_similarity(high, source, [target]).average
        sim_low = avg_cross_lingual_similarity(low, source, [target]).average
        assert sim_high > sim_low

    def test_multiple_targets_breakdown(self, banks):
        source, target = banks
        clone = LayerBank(
            layers=[layer.copy() for layer in source.layers],
            labels=source.labels.copy(),
            languages=["other"] * source.shape[0],
            splits=list(source.splits),
        )
        report = avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [target, clone])
        assert set(report.per_language) == {"tgt", "other"}
        assert report.pairs == 40
        assert report.per_language["other"] == 1.0

    def test_misaligned_banks_rejected(self, banks, monkeypatch):
        source, target = banks
        short = LayerBank(
            layers=[layer[:10] for layer in source.layers],
            labels=source.labels[:10],
            languages=["tgt"] * 10,
            splits=list(source.splits[:10]),
        )
        # Every target is checked before the first forward.
        forwards = []
        monkeypatch.setattr(analysis, "sentence_embeddings", lambda *args: forwards.append(args))
        system = BaselineSystem(upper=3)
        with pytest.raises(DataError, match="^target bank 1 is not sentence-aligned with the source bank$"):
            avg_cross_lingual_similarity(system, source, [target, short])
        assert forwards == []

    def test_no_targets_rejected(self, banks):
        source, target = banks
        with pytest.raises(DataError):
            avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [])
        with pytest.raises(DataError, match="^source bank has no sentences in the 'dev' split$"):
            avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [target], split="dev")
        for pairs in (0, -1):
            with pytest.raises(DataError, match="^pairs must be at least 1$"):
                avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [target], pairs=pairs)

    def test_csv_quotes_a_language_holding_a_comma_quote_or_line_break(self, banks):
        source, target = banks
        tag = 'en,"US"\n'
        odd = LayerBank(layers=target.layers, labels=target.labels,
                        languages=[tag] * target.shape[0], splits=list(target.splits))
        report = avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [odd])
        parsed = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        assert [len(row) for row in parsed] == [4, 4, 4]
        assert [row[1] for row in parsed] == ["language", tag, "all"]

    def test_two_targets_of_one_language_are_numbered(self, banks):
        source, target = banks
        report = avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [target, target])
        assert list(report.per_language) == ["tgt", "tgt.1"]
        assert report.per_language["tgt"] == report.per_language["tgt.1"]


def _sweep_report():
    rows = [
        SweepRow("D_2", 2, 0.5, 0.5, 0.25, 0.25),
        SweepRow("baseline", None, 0.5, 0.5, 0.125, 0.125),
        SweepRow("D_1", 1, 1.0, 1.0, 0.75, 0.75),
    ]
    return SweepReport(upper=2, variant="full", mode="sigmoid", seed=0, rows=rows)


class TestEmit:
    def test_deterministic_emission(self):
        report = _sweep_report()
        for fmt in ("csv", "json", "table"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    def test_sweep_row_ordering(self):
        lines = emit_report(_sweep_report(), "csv").strip().splitlines()
        assert lines[0].startswith("config,lower")
        assert [line.split(",")[0] for line in lines[1:]] == ["baseline", "D_1", "D_2"]

    def test_table_has_one_line_per_row(self):
        table = emit_report(_sweep_report(), "table").strip().splitlines()
        assert len(table) == 2 + 3  # header, rule, data rows

    def test_full_precision_in_csv(self):
        report = SweepReport(
            upper=1, variant="full", mode="sigmoid", seed=0,
            rows=[SweepRow("baseline", None, 1 / 3, 1 / 3, 2 / 3, 2 / 3)],
        )
        assert repr(1 / 3) in emit_report(report, "csv")

    def test_similarity_formats(self):
        report = SimilarityReport(model="D_3", average=0.5, per_language={"b": 0.25, "a": 0.75}, pairs=4)
        csv_text = emit_report(report, "csv")
        assert csv_text.splitlines()[0] == "model,language,pairs,avg_cosine_similarity"
        assert csv_text.splitlines()[1].startswith("D_3,a,")
        assert "all" in csv_text.splitlines()[-1]
        assert "Avg C.S." in emit_report(report, "table")
        assert '"avg_cosine_similarity": 0.5' in emit_report(report, "json")

    def test_empty_reports_rejected(self):
        empty_sim = SimilarityReport(model="x", average=0.0, per_language={}, pairs=0)
        with pytest.raises(SimilarityError):
            emit_report(empty_sim, "csv")
        empty_sweep = SweepReport(upper=1, variant="full", mode="sigmoid", seed=0, rows=[])
        with pytest.raises(SimilarityError):
            emit_report(empty_sweep, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(_sweep_report(), "yaml")
        with pytest.raises(TypeError):
            emit_report({"not": "a report"}, "csv")


# Exact report bytes: a three-row sweep given out of order (baseline in the
# middle) and a two-language similarity report.
GOLDEN_SWEEP = SweepReport(
    upper=2, variant="local", mode="literal", seed=7,
    rows=[
        SweepRow("D_2", 2, 2 / 3, 0.5, 0.1, 0.25),
        SweepRow("baseline", None, 1 / 3, 0.5, 0.125, 1 / 7),
        SweepRow("D_1", 1, 1.0, 0.9375, 0.75, 0.0),
    ],
)
GOLDEN_SIMILARITY = SimilarityReport(
    model="D_3", average=0.5, per_language={"tgt": 0.25, "de": 0.75}, pairs=4
)
GOLDEN = {
    ("sweep", "csv"): """\
config,lower,source_accuracy,source_f1,target_accuracy,target_f1
baseline,,0.3333333333333333,0.5,0.125,0.14285714285714285
D_1,1,1.0,0.9375,0.75,0.0
D_2,2,0.6666666666666666,0.5,0.1,0.25
""",
    ("sweep", "json"): """\
{
 "gate_mode": "literal",
 "rows": [
  {
   "config": "baseline",
   "lower": null,
   "source_accuracy": 0.3333333333333333,
   "source_f1": 0.5,
   "target_accuracy": 0.125,
   "target_f1": 0.14285714285714285
  },
  {
   "config": "D_1",
   "lower": 1,
   "source_accuracy": 1.0,
   "source_f1": 0.9375,
   "target_accuracy": 0.75,
   "target_f1": 0.0
  },
  {
   "config": "D_2",
   "lower": 2,
   "source_accuracy": 0.6666666666666666,
   "source_f1": 0.5,
   "target_accuracy": 0.1,
   "target_f1": 0.25
  }
 ],
 "seed": 7,
 "upper": 2,
 "variant": "local"
}
""",
    ("sweep", "table"): """\
config      src acc   src F1  tgt acc   tgt F1
----------------------------------------------
baseline     0.3333   0.5000   0.1250   0.1429
D_1          1.0000   0.9375   0.7500   0.0000
D_2          0.6667   0.5000   0.1000   0.2500
""",
    ("similarity", "csv"): """\
model,language,pairs,avg_cosine_similarity
D_3,de,4,0.75
D_3,tgt,4,0.25
D_3,all,4,0.5
""",
    ("similarity", "json"): """\
{
 "avg_cosine_similarity": 0.5,
 "model": "D_3",
 "pairs": 4,
 "per_language": {
  "de": 0.75,
  "tgt": 0.25
 }
}
""",
    ("similarity", "table"): """\
model      language     Avg C.S.
--------------------------------
D_3        de             0.7500
D_3        tgt            0.2500
D_3        all            0.5000
""",
}


@pytest.mark.parametrize("kind, fmt", sorted(GOLDEN))
def test_report_bytes(kind, fmt):
    report = GOLDEN_SWEEP if kind == "sweep" else GOLDEN_SIMILARITY
    assert emit_report(report, fmt) == GOLDEN[kind, fmt]


_metric = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _sweep_rows(draw):
    lowers = draw(st.lists(st.one_of(st.none(), st.integers(1, 24)), min_size=1, max_size=6))
    return [
        SweepRow("baseline" if lower is None else f"D_{lower}", lower,
                 *(draw(_metric) for _ in range(4)))
        for lower in lowers
    ]


@settings(max_examples=50, deadline=None)
@given(_sweep_rows())
def test_sweep_csv_and_json_roundtrip(rows):
    report = SweepReport(upper=24, variant="full", mode="sigmoid", seed=0, rows=rows)
    ordered = sorted(rows, key=lambda row: (row.lower is not None, row.lower or 0))
    parsed = list(csv.DictReader(io.StringIO(emit_report(report, "csv"))))
    assert [row["config"] for row in parsed] == [row.config for row in ordered]
    assert [row["lower"] for row in parsed] == ["" if row.lower is None else str(row.lower)
                                                for row in ordered]
    for back, row in zip(parsed, ordered):
        for name in ("source_accuracy", "source_f1", "target_accuracy", "target_f1"):
            assert float(back[name]) == getattr(row, name)
    assert json.loads(emit_report(report, "json"))["rows"] == [asdict(row) for row in ordered]
