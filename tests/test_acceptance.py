"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Thresholds that the criteria leave to pilot calibration were frozen from
pilot runs over seeds 0..9 before these tests were written:
  - transfer gain: observed mean margin 0.389 (min 0.18); frozen at 0.10
  - ablation: full variant compared at lower layer 2 with 10 epochs, where
    the pilot showed it leading both single-branch variants
"""

import json
import struct
import time

import numpy as np
import pytest

from layerfuse import (
    BankFormatError,
    BankTruncationError,
    BatchNormState,
    LayerBank,
    LayerPair,
    SyntheticTaskSpec,
    Tensor,
    TrainConfig,
    batch_norm,
    build_fusion_system,
    cosine_similarity,
    evaluate,
    fuse_layers,
    generate_task,
    init_gate_params,
    init_head,
    layer_sweep,
    load_params,
    read_bank,
    save_params,
    train,
    write_bank,
)
from layerfuse.analysis import avg_cross_lingual_similarity
from layerfuse.bank import MAGIC
from layerfuse.cli import main as cli_main
from layerfuse.gradcheck import classification_pipeline, finite_difference_check

GRADCHECK_SEEDS = 20
GRADCHECK_BUDGET_SECONDS = 60.0
SWEEP_BUDGET_SECONDS = 300.0
TRANSFER_SEEDS = 10
TRANSFER_WINS_REQUIRED = 8
TRANSFER_MEAN_MARGIN = 0.10  # frozen from pilot (observed mean 0.389)
ABLATION_LOWER_LAYER = 2
ABLATION_EPOCHS = 10
ABLATION_TOLERANCE = 0.005  # half a point of accuracy


def _criterion(number, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def transfer_sweeps():
    reports = []
    longest = 0.0
    for seed in range(TRANSFER_SEEDS):
        source, target = generate_task(SyntheticTaskSpec(seed=seed))
        started = time.monotonic()
        report = layer_sweep(source, target, range(1, 7), TrainConfig(seed=seed))
        longest = max(longest, time.monotonic() - started)
        reports.append(report)
    return reports, longest


def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    worst = 0.0
    all_passed = True
    for seed in range(GRADCHECK_SEEDS):
        loss_fn, params = classification_pipeline(seed, shape=(4, 8, 32), classes=3)
        report = finite_difference_check(loss_fn, params, step=1e-5, rtol=1e-4)
        worst = max(worst, report.max_error)
        all_passed = all_passed and report.passed
    elapsed = time.monotonic() - started
    _criterion(
        1,
        f"gradient fidelity over {GRADCHECK_SEEDS} seeds "
        f"(worst {worst:.2e} <= 1e-4, {elapsed:.1f}s < {GRADCHECK_BUDGET_SECONDS:.0f}s)",
        all_passed and elapsed < GRADCHECK_BUDGET_SECONDS,
    )


def test_criterion_2_fusion_algebra():
    rng = np.random.default_rng(202)
    # identity, bit-exact in both modes
    identity_ok = True
    for mode in ("sigmoid", "literal"):
        for seed in range(10):
            params = init_gate_params(8, 4, "kaiming", seed=seed)
            x = rng.normal(size=(2, 4, 8)) * (10.0 ** rng.integers(-3, 4))
            fused, _ = fuse_layers(Tensor(x.copy()), Tensor(x.copy()), params, mode=mode)
            identity_ok = identity_ok and np.array_equal(fused.data, x)
    # convexity in sigmoid mode over 10,000 random draws
    violations = 0
    for draw in range(10_000):
        params = init_gate_params(4, 4, "kaiming", seed=draw)
        l1 = rng.normal(size=(1, 3, 4))
        l2 = rng.normal(size=(1, 3, 4))
        fused, _ = fuse_layers(Tensor(l1), Tensor(l2), params, mode="sigmoid")
        if np.any(fused.data < np.minimum(l1, l2)) or np.any(fused.data > np.maximum(l1, l2)):
            violations += 1
    # zero-init gate -> exact arithmetic mean
    zero_params = init_gate_params(8, 4, "zero_gate", seed=0)
    mean_ok = True
    for _ in range(10):
        l1 = rng.normal(size=(3, 4, 8))
        l2 = rng.normal(size=(3, 4, 8))
        fused, _ = fuse_layers(Tensor(l1), Tensor(l2), zero_params, mode="sigmoid")
        mean_ok = mean_ok and np.array_equal(fused.data, (l1 + l2) / 2)
    # literal mode with mean 2 everywhere: weight exactly 1, fused == l1
    l1 = Tensor(np.full((2, 3, 8), 3.0))
    l2 = Tensor(np.full((2, 3, 8), 1.0))
    fused, weight = fuse_layers(l1, l2, zero_params, mode="literal")
    literal_ok = np.array_equal(weight.data, np.ones((2, 3, 8))) and np.array_equal(
        fused.data, l1.data
    )
    _criterion(
        2,
        f"fusion algebra (identity={identity_ok}, convexity violations={violations}/10000, "
        f"exact mean={mean_ok}, literal unit gate={literal_ok})",
        identity_ok and violations == 0 and mean_ok and literal_ok,
    )


def test_criterion_3_top_layer_row_matches_baseline(transfer_sweeps):
    reports, _ = transfer_sweeps
    matched = True
    for report in reports:
        baseline = next(r for r in report.rows if r.lower is None)
        top = next(r for r in report.rows if r.lower == report.upper)
        matched = matched and (
            baseline.source_accuracy, baseline.source_f1,
            baseline.target_accuracy, baseline.target_f1,
        ) == (top.source_accuracy, top.source_f1, top.target_accuracy, top.target_f1)
    _criterion(
        3,
        f"top-layer fusion row bit-identical to baseline across {len(reports)} seeds",
        matched,
    )


def test_criterion_4_synthetic_transfer_gain(transfer_sweeps):
    reports, longest = transfer_sweeps
    wins = 0
    margins = []
    for report in reports:
        baseline = next(r for r in report.rows if r.lower is None)
        best = max(
            (r for r in report.rows if r.lower is not None),
            key=lambda r: r.target_accuracy,
        )
        wins += best.target_accuracy > baseline.target_accuracy
        margins.append(best.target_accuracy - baseline.target_accuracy)
    mean_margin = float(np.mean(margins))
    _criterion(
        4,
        f"transfer gain: wins {wins}/{TRANSFER_SEEDS} (need >= {TRANSFER_WINS_REQUIRED}), "
        f"mean margin {mean_margin:.3f} >= {TRANSFER_MEAN_MARGIN}, "
        f"slowest sweep {longest:.1f}s < {SWEEP_BUDGET_SECONDS:.0f}s",
        wins >= TRANSFER_WINS_REQUIRED
        and mean_margin >= TRANSFER_MEAN_MARGIN
        and longest < SWEEP_BUDGET_SECONDS,
    )


def test_criterion_5_ablation_ordering():
    accuracies = {"full": [], "global": [], "local": []}
    for seed in range(TRANSFER_SEEDS):
        source, target = generate_task(SyntheticTaskSpec(seed=seed))
        for variant in accuracies:
            system = build_fusion_system(
                LayerPair(ABLATION_LOWER_LAYER, source.n_layers), source.shape[2],
                variant=variant, seed=seed,
            )
            head = init_head(source.shape[2], source.num_classes, seed=seed)
            cfg = TrainConfig(seed=seed, epochs=ABLATION_EPOCHS)
            train(system, head, source, cfg)
            accuracies[variant].append(evaluate(system, head, target, "test").accuracy)
    means = {variant: float(np.mean(values)) for variant, values in accuracies.items()}
    bound = max(means["global"], means["local"]) - ABLATION_TOLERANCE
    _criterion(
        5,
        f"ablation ordering: full {means['full']:.4f} >= "
        f"max(global {means['global']:.4f}, local {means['local']:.4f}) - {ABLATION_TOLERANCE}",
        means["full"] >= bound,
    )


def test_criterion_6_similarity_probe():
    source, target = generate_task(SyntheticTaskSpec(seed=0))
    # identical banks give exactly 1.0
    clone = LayerBank(
        layers=[layer.copy() for layer in source.layers],
        labels=source.labels.copy(),
        languages=list(source.languages),
        splits=list(source.splits),
    )
    system = build_fusion_system(LayerPair(3, 6), 32, seed=0)
    identical = avg_cross_lingual_similarity(system, source, [clone]).average
    # fusing the high-invariance layer scores strictly above the low one
    high = avg_cross_lingual_similarity(
        build_fusion_system(LayerPair(3, 6), 32, seed=0), source, [target]
    ).average
    low = avg_cross_lingual_similarity(
        build_fusion_system(LayerPair(5, 6), 32, seed=0), source, [target]
    ).average
    # independent gaussian embeddings stay near zero
    rng = np.random.default_rng(42)
    gaussian = float(np.mean([
        cosine_similarity(rng.standard_normal(256), rng.standard_normal(256))
        for _ in range(100)
    ]))
    _criterion(
        6,
        f"similarity probe (identical={identical}, high {high:.3f} > low {low:.3f}, "
        f"|gaussian avg| {abs(gaussian):.3f} < 0.1)",
        identical == 1.0 and high > low and abs(gaussian) < 0.1,
    )


def test_criterion_7_normalization_statistics():
    rng = np.random.default_rng(7)
    state = BatchNormState(6)
    x = rng.normal(0.0, 10.0, size=(8, 5, 6))
    out = batch_norm(Tensor(x), state, training=True).data
    worst_mean = float(np.abs(out.mean(axis=(0, 1))).max())
    worst_var = float(np.abs(out.var(axis=(0, 1)) - 1.0).max())
    _criterion(
        7,
        f"normalization statistics (|mean| {worst_mean:.1e} < 1e-9, "
        f"|var - gamma^2| {worst_var:.1e} < 1e-6)",
        worst_mean < 1e-9 and worst_var < 1e-6,
    )


def test_criterion_8_persistence(tmp_path):
    source, _ = generate_task(SyntheticTaskSpec(
        train_sentences=24, test_sentences=12, channels=8, latent_dim=4,
        tokens=3, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=8,
    ))
    bank_path = tmp_path / "bank.bank"
    write_bank(source, bank_path)
    loaded = read_bank(bank_path)
    roundtrip_ok = all(
        np.array_equal(a, b) for a, b in zip(source.layers, loaded.layers)
    ) and np.array_equal(loaded.labels, source.labels)
    write_bank(source, tmp_path / "again.bank")
    deterministic_ok = bank_path.read_bytes() == (tmp_path / "again.bank").read_bytes()

    system = build_fusion_system(LayerPair(1, 3), 8, seed=8)
    head = init_head(8, 4, seed=8)
    params_path = tmp_path / "params.json"
    save_params(system, head, params_path)
    loaded_system, _ = load_params(params_path)
    probe1 = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8)))
    probe2 = Tensor(np.random.default_rng(2).normal(size=(2, 3, 8)))
    before, _ = system.forward(probe1, probe2)
    after, _ = loaded_system.forward(Tensor(probe1.data.copy()), Tensor(probe2.data.copy()))
    params_ok = np.array_equal(before.data, after.data)

    corrupted = tmp_path / "corrupt.bank"
    corrupted.write_bytes(b"XXXX" + bank_path.read_bytes()[4:])
    try:
        read_bank(corrupted)
        magic_rejected = False
    except BankFormatError:
        magic_rejected = True
    truncated = tmp_path / "truncated.bank"
    truncated.write_bytes(
        struct.pack("<4sIIIII", MAGIC, 1, 2, 4, 3, 8)
        + np.zeros(191, dtype="<f4").tobytes()
        + struct.pack("<Q", 0)
    )
    try:
        read_bank(truncated)
        truncation_rejected = False
    except BankTruncationError:
        truncation_rejected = True
    _criterion(
        8,
        f"persistence (roundtrip={roundtrip_ok and params_ok}, "
        f"deterministic={deterministic_ok}, magic rejected={magic_rejected}, "
        f"truncation rejected={truncation_rejected})",
        roundtrip_ok and params_ok and deterministic_ok
        and magic_rejected and truncation_rejected,
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    spec = SyntheticTaskSpec(
        train_sentences=48, test_sentences=24, channels=8, latent_dim=4,
        tokens=4, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=4,
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    src, tgt = tmp_path / "src.bank", tmp_path / "tgt.bank"
    assert cli_main([
        "gen-task", "--spec", str(spec_path), "--out-src", str(src), "--out-tgt", str(tgt),
    ]) == 0
    report = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--src", str(src), "--tgt", str(tgt), "--layers", "1..3",
        "--seed", "4", "--epochs", "2", "--report", str(report), "--jobs", "1",
    ]
    assert cli_main(argv) == 0
    first = report.read_bytes()

    # replay the run straight from its manifest
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert cli_main(manifest["argv"]) == 0
    replay_ok = report.read_bytes() == first

    # bank regeneration from its manifest is also byte-stable
    gen_manifest = json.loads((tmp_path / "src.bank.manifest.json").read_text())
    src_bytes = src.read_bytes()
    assert cli_main(gen_manifest["argv"]) == 0
    regen_ok = src.read_bytes() == src_bytes

    jobs_report = tmp_path / "sweep-jobs3.csv"
    jobs_argv = list(argv)
    jobs_argv[jobs_argv.index("--report") + 1] = str(jobs_report)
    jobs_argv[jobs_argv.index("--jobs") + 1] = "3"
    assert cli_main(jobs_argv) == 0
    jobs_ok = jobs_report.read_bytes() == first
    _criterion(
        9,
        f"CLI reproducibility (manifest replay={replay_ok}, regen={regen_ok}, "
        f"jobs invariance={jobs_ok})",
        replay_ok and regen_ok and jobs_ok,
    )
