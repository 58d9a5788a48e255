"""Self-tests of the benchmark.  Run with: python3 -m pytest benchmark"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = ("setup_s", "commands_s", "peak_rss_mb")


def span(name, start, end, parent):
    return Span(name, start, end, parent, "test")


def test_self_time_subtracts_the_part_of_the_interval_children_cover():
    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),       # 3 s child of root
        span("a.1", 1.5, 2.0, 1),     # 0.5 s grandchild: counts against a, not root
        span("b", 3.0, 6.0, 0),       # overlaps a by 1 s: covered time is the union
        span("c", 9.0, 12.0, 0),      # runs past the root's end: only 1 s is inside it
        span("d", 5.0, 5.5, 0),       # inside b: adds nothing to the union
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 0.5, 3.0, 3.0, 0.5])


def test_per_layer_metrics_divide_totals_by_runs():
    spans = [
        span("cli", 0.0, 4.0, None),
        span("tensor.sigmoid", 1.0, 2.0, 0),
        span("gate.global_branch", 2.0, 3.5, 0),
        span("tensor.sigmoid", 2.5, 3.0, 2),
        span("gradcheck.probe", 3.5, 3.502, 0),
    ]
    metrics = tracing.per_layer_metrics(spans, {"bank.read_bytes": 100}, runs=2)
    assert metrics["tensor.sigmoid_s"] == pytest.approx(0.75)
    assert metrics["tensor.sigmoid_calls"] == 1
    assert metrics["gate.global_branch_s"] == pytest.approx(0.75)  # inclusive
    assert metrics["cli.self_s"] == pytest.approx((4.0 - 1.0 - 1.5 - 0.002) / 2)
    assert metrics["bank.read_bytes"] == 50
    assert metrics["gradcheck.probe_ms_p50"] == pytest.approx(2.0)
    assert metrics["tensor.backward_s"] == 0


def test_every_metric_name_is_well_formed():
    names = [*END_TO_END, *tracing.PER_LAYER, tracing.OVERHEAD, *WORKLOADS]
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64, name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == [*tracing.PER_LAYER, tracing.OVERHEAD]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["unit"] == tracing.metric_unit(metric["name"]), metric


def test_tracing_wraps_the_names_callers_resolve():
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import layerfuse, layerfuse.cli
import tracing
tracer = tracing.Tracer("t")
tracing.install(tracer, layerfuse)
from layerfuse.fusion import build_fusion_system, LayerPair
from layerfuse.tensor import Tensor
system = build_fusion_system(LayerPair(1, 2), 8, seed=0)
layer = Tensor(np.ones((2, 3, 8)))
system.forward(layer, layer, training=True)
import json; print(json.dumps(sorted({s.name for s in tracer.spans})))
"""
    done = subprocess.run(
        [sys.executable, "-c", script, str(BENCH_DIR), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    names = set(json.loads(done.stdout))
    assert {"fusion.fuse_layers", "gate.global_branch", "gate.local_branch",
            "tensor.sigmoid", "tensor.conv1x1", "tensor.batch_norm"} <= names


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
