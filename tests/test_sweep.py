"""Layer sweep protocol: structure, controls, and determinism."""

import concurrent.futures
import itertools
import pickle
from dataclasses import replace

import pytest

from layerfuse import VARIANTS, DataError, SyntheticTaskSpec, TrainConfig, generate_task, layer_sweep
from layerfuse.analysis import emit_report
from layerfuse.training import sweep_row, sweep_rows

SMALL = SyntheticTaskSpec(
    train_sentences=48, test_sentences=24, channels=8, latent_dim=4,
    tokens=4, n_layers=4, invariance=(0.9, 0.6, 0.3, 0.1), seed=7,
)
CFG = TrainConfig(seed=7, epochs=2)
# An ablation's grid of cells: every variant at seeds 7 and 8, at one layer.
ABLATION = [(2, variant, replace(CFG, seed=seed)) for variant in VARIANTS for seed in (7, 8)]


@pytest.fixture(scope="module")
def banks():
    return generate_task(SMALL)


@pytest.fixture(scope="module")
def report(banks):
    source, target = banks
    return layer_sweep(source, target, range(1, 5), CFG)


@pytest.fixture(scope="module")
def ablation(banks):
    """The ablation's rows, each from a single ``sweep_row`` of its cell."""
    source, target = banks
    return [sweep_row(source, target, 4, "sigmoid", *cell) for cell in ABLATION]


def test_row_count_and_order(report):
    assert [row.config for row in report.rows] == ["baseline", "D_1", "D_2", "D_3", "D_4"]


def test_twelve_layer_sweep_has_thirteen_rows():
    spec = SyntheticTaskSpec(
        train_sentences=24, test_sentences=12, channels=4, latent_dim=3, tokens=2,
        n_layers=12, invariance=(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1),
        seed=3,
    )
    source, target = generate_task(spec)
    sweep = layer_sweep(source, target, range(1, 13), TrainConfig(seed=3, epochs=1, batch_size=8))
    assert len(sweep.rows) == 13


def test_top_layer_row_matches_baseline_bitwise(report):
    baseline = next(r for r in report.rows if r.lower is None)
    top = next(r for r in report.rows if r.lower == 4)
    assert (
        baseline.source_accuracy, baseline.source_f1,
        baseline.target_accuracy, baseline.target_f1,
    ) == (top.source_accuracy, top.source_f1, top.target_accuracy, top.target_f1)


def test_sweep_deterministic(banks, report):
    source, target = banks
    again = layer_sweep(source, target, range(1, 5), CFG)
    assert emit_report(again, "csv") == emit_report(report, "csv")


def test_parallel_rows_identical(banks, report, ablation):
    source, target = banks
    parallel = layer_sweep(source, target, range(1, 5), CFG, jobs=2)
    assert emit_report(parallel, "csv") == emit_report(report, "csv")
    # repr tells every float apart bit for bit.
    for jobs in (1, 2):
        assert repr(sweep_rows(source, target, ABLATION, 4, "sigmoid", jobs)) == repr(ablation)


def test_pool_capped_at_row_count(banks, report, monkeypatch):
    # The pool starts all its workers at once; a stub that maps in-process
    # records how many a sweep asks for without starting any.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    source, target = banks
    pooled = layer_sweep(source, target, range(1, 5), CFG, jobs=64)
    assert sizes == [len(report.rows)]
    assert emit_report(pooled, "csv") == emit_report(report, "csv")


def test_pool_tasks_carry_no_bank(banks, report, ablation, monkeypatch):
    # Each task crosses a pickle round trip, as it would to a worker; the
    # banks reach the workers once, through the initializer.
    task_bytes = []

    class PicklingPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            tasks = [pickle.dumps((fn, item)) for item in items]
            task_bytes.extend(len(task) for task in tasks)
            return [fn(item) for fn, item in map(pickle.loads, tasks)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
    source, target = banks
    pooled = layer_sweep(source, target, range(1, 5), CFG, jobs=2)
    assert emit_report(pooled, "csv") == emit_report(report, "csv")
    assert repr(sweep_rows(source, target, ABLATION, 4, "sigmoid", jobs=2)) == repr(ablation)
    assert len(task_bytes) == len(report.rows) + len(ABLATION) and max(task_bytes) < 1024


def test_layer_out_of_range(banks):
    source, target = banks
    with pytest.raises(DataError):
        layer_sweep(source, target, [5], CFG)
    with pytest.raises(DataError):
        layer_sweep(source, target, [0], CFG)


def test_layers_are_checked_as_they_are_read():
    # A lazy 1, 2, 3, ... that fails once more than 1,000 layers are read: the
    # first layer past the top is refused without collecting the rest.
    source, target = generate_task(replace(SMALL, n_layers=3, invariance=(0.9, 0.5, 0.1)))

    def layers():
        for layer in itertools.count(1):
            assert layer <= 1000, "layer_sweep read past the first bad layer"
            yield layer

    with pytest.raises(DataError, match=r"^sweep layer 4 outside 1\.\.3$"):
        layer_sweep(source, target, layers(), CFG)


def test_mismatched_banks_rejected(banks):
    source, _ = banks
    other, _ = generate_task(
        SyntheticTaskSpec(
            train_sentences=48, test_sentences=24, channels=8, latent_dim=4,
            tokens=4, n_layers=2, invariance=(0.9, 0.1), seed=7,
        )
    )
    with pytest.raises(DataError):
        layer_sweep(source, other, [1], CFG)


def test_target_with_other_sentence_count_accepted(banks):
    source, target = banks
    # The first two train sentences dropped: the target still holds every layer, channel and test sentence.
    fewer = replace(target, layers=[layer[2:] for layer in target.layers], labels=target.labels[2:],
                    languages=target.languages[2:], splits=target.splits[2:])
    sweep = layer_sweep(source, fewer, [4], CFG)
    assert [row.config for row in sweep.rows] == ["baseline", "D_4"]


def test_duplicate_layers_deduplicated(banks):
    source, target = banks
    sweep = layer_sweep(source, target, [2, 2, 1], CFG)
    assert [row.config for row in sweep.rows] == ["baseline", "D_1", "D_2"]
