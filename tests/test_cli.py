"""Command-line interface: subcommands, manifests, and reproducibility."""

import argparse
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfuse import BaselineSystem, LayerBank, SweepRow, init_head, read_bank, save_params, write_bank
from layerfuse import cli
from layerfuse.cli import main
from layerfuse.synthetic import SyntheticTaskSpec

SMALL_SPEC = SyntheticTaskSpec(
    train_sentences=48, test_sentences=24, channels=8, latent_dim=4,
    tokens=4, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=3,
).to_dict()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    rc = main([
        "gen-task", "--spec", str(spec_path),
        "--out-src", str(root / "src.bank"), "--out-tgt", str(root / "tgt.bank"),
    ])
    assert rc == 0
    return root


def test_gen_task_outputs(workspace):
    assert (workspace / "src.bank").exists()
    assert (workspace / "tgt.bank").exists()
    manifest = json.loads((workspace / "src.bank.manifest.json").read_text())
    assert manifest["subcommand"] == "gen-task"
    assert len(manifest["outputs"]) == 2
    assert all("sha256" in entry for entry in manifest["outputs"])
    bank = read_bank(workspace / "src.bank")
    assert bank.n_layers == 3 and bank.shape == (72, 4, 8)


def test_gen_task_seed_override(workspace, tmp_path):
    spec_path = workspace / "spec.json"
    rc = main([
        "gen-task", "--spec", str(spec_path), "--seed", "9",
        "--out-src", str(tmp_path / "s.bank"), "--out-tgt", str(tmp_path / "t.bank"),
    ])
    assert rc == 0
    base = read_bank(workspace / "src.bank")
    other = read_bank(tmp_path / "s.bank")
    assert not np.array_equal(base.layers[0], other.layers[0])


def test_inspect_bank(workspace, capsys, tmp_path):
    rc = main([
        "inspect-bank", "--bank", str(workspace / "src.bank"),
        "--manifest", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "layers: 3" in out and "train=48" in out
    assert (tmp_path / "m.json").exists()


def test_sweep_reports_and_manifest(workspace):
    report = workspace / "sweep.csv"
    rc = main([
        "sweep", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
        "--layers", "1..3", "--seed", "3", "--epochs", "2",
        "--report", str(report), "--json-report", str(workspace / "sweep.json"),
    ])
    assert rc == 0
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 5  # header + baseline + D_1..D_3
    assert lines[1].startswith("baseline,")
    doc = json.loads((workspace / "sweep.json").read_text())
    assert len(doc["rows"]) == 4
    manifest = json.loads((report.parent / "sweep.csv.manifest.json").read_text())
    assert manifest["config"]["seed"] == 3


def test_sweep_rerun_from_manifest_byte_identical(workspace):
    manifest = json.loads((workspace / "sweep.csv.manifest.json").read_text())
    before = (workspace / "sweep.csv").read_bytes()
    rc = main(manifest["argv"])
    assert rc == 0
    assert (workspace / "sweep.csv").read_bytes() == before


def test_sweep_jobs_deterministic(workspace, tmp_path):
    args = [
        "sweep", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
        "--layers", "1..3", "--seed", "5", "--epochs", "1",
    ]
    rc = main(args + ["--report", str(tmp_path / "j1.csv"), "--jobs", "1"])
    assert rc == 0
    rc = main(args + ["--report", str(tmp_path / "j2.csv"), "--jobs", "2"])
    assert rc == 0
    assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j2.csv").read_bytes()


def test_train_fuse_cossim_chain(workspace, tmp_path, capsys):
    params = tmp_path / "d1.json"
    rc = main([
        "train", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
        "--lower", "1", "--seed", "3", "--epochs", "2", "--out", str(params),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "source test" in out and "target test" in out
    assert params.exists()

    fused = tmp_path / "fused.bank"
    rc = main(["fuse", "--bank", str(workspace / "src.bank"),
               "--params", str(params), "--out", str(fused)])
    assert rc == 0
    fused_bank = read_bank(fused)
    assert fused_bank.n_layers == 1
    assert fused_bank.shape == (72, 4, 8)

    sim_csv = tmp_path / "cs.csv"
    rc = main([
        "cossim", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
        "--params", str(params), "--pairs", "10", "--format", "csv", "--out", str(sim_csv),
    ])
    assert rc == 0
    lines = sim_csv.read_text().strip().splitlines()
    assert lines[0] == "model,language,pairs,avg_cosine_similarity"
    assert lines[-1].startswith("D_1,all,")


def test_train_config_file(workspace, tmp_path):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"epochs": 1, "learning_rate": 0.005, "seed": 11}))
    params = tmp_path / "out.json"
    rc = main([
        "train", "--src", str(workspace / "src.bank"), "--lower", "1",
        "--train-config", str(cfg_path), "--epochs", "2",  # flag overrides file
        "--out", str(params),
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["config"]["train"]["epochs"] == 2
    assert manifest["config"]["train"]["learning_rate"] == 0.005
    assert manifest["config"]["train"]["seed"] == 11


def test_train_config_unknown_field_rejected(workspace, tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    rc = main([
        "train", "--src", str(workspace / "src.bank"), "--lower", "1",
        "--train-config", str(cfg_path), "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--learning-rate", "-1", "learning_rate"),
    ("--learning-rate", "nan", "learning_rate"),
    ("--epochs", "-3", "epochs"),
    ("--batch-size", "0", "batch_size"),
    ("--weight-decay", "-50", "weight_decay"),
    ("--weight-decay", "nan", "weight_decay"),
])
def test_train_flags_validated(workspace, tmp_path, capsys, flag, value, field):
    params = tmp_path / "p.json"
    rc = main(["train", "--src", str(workspace / "src.bank"), "--lower", "1",
               flag, value, "--out", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not params.exists()


@pytest.mark.parametrize("command, document, named", [
    ("train", {"epochs": "2"}, "train config field epochs must be an integer"),
    ("train", {"batch_size": True}, "train config field batch_size must be an integer"),
    ("train", {"learning_rate": "0.1"}, "train config field learning_rate must be a number"),
    ("train", [{"epochs": 2}], "train config must be a JSON object"),
    ("gen-task", {"tokens": "8"}, "task spec field tokens must be an integer"),
    ("gen-task", {"invariance": [0.5, "x"]}, "task spec field invariance must be a list of numbers"),
    ("gen-task", [1, 2], "task spec must be a JSON object"),
    ("train", {"eps": 0}, "eps must be positive"),
])
def test_malformed_config_file_named(workspace, tmp_path, capsys, command, document, named):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(document))
    if command == "train":
        outputs = [tmp_path / "p.json"]
        argv = ["train", "--src", str(workspace / "src.bank"), "--lower", "1",
                "--train-config", str(doc_path), "--out", str(outputs[0])]
    else:
        outputs = [tmp_path / "s.bank", tmp_path / "t.bank"]
        argv = ["gen-task", "--spec", str(doc_path),
                "--out-src", str(outputs[0]), "--out-tgt", str(outputs[1])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {doc_path}: {named}")
    assert not any(path.exists() for path in outputs)


def test_train_baseline(workspace, tmp_path):
    params = tmp_path / "base.json"
    rc = main([
        "train", "--src", str(workspace / "src.bank"), "--baseline",
        "--seed", "3", "--epochs", "1", "--out", str(params),
    ])
    assert rc == 0
    doc = json.loads(params.read_text())
    assert doc["system"]["kind"] == "baseline"
    assert doc["gate"] is None


def test_cossim_stdout_table(workspace, capsys, tmp_path):
    rc = main([
        "cossim", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
        "--baseline", "--pairs", "8", "--manifest", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Avg C.S." in out and "baseline" in out


def test_ablate(workspace, tmp_path):
    report = tmp_path / "ablate.csv"
    rc = main([
        "ablate", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
        "--lower", "1", "--seeds", "0..1", "--epochs", "1", "--report", str(report),
    ])
    assert rc == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0].startswith("variant,seed")
    assert sum(1 for line in lines if line.startswith("full,")) == 3  # 2 seeds + mean


def test_gradcheck_passes(tmp_path, capsys):
    rc = main([
        "gradcheck", "--seed", "17", "--eps", "1e-5", "--rtol", "1e-4",
        "--channels", "8", "--tokens", "4", "--manifest", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all 4 checks passed" in out
    assert (tmp_path / "m.json").exists()


def test_gradcheck_failure_exits_nonzero(tmp_path, capsys):
    # An rtol below the finite-difference noise floor cannot be met, so the
    # command must report the failing parameters and exit nonzero.
    rc = main([
        "gradcheck", "--seed", "17", "--rtol", "1e-14",
        "--channels", "4", "--tokens", "2", "--batch", "2",
        "--manifest", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "parameter" in out


def test_usage_errors_exit_two(workspace):
    for argv in (
        ["no-such-command"],
        ["sweep", "--src", "x"],  # missing required
        ["train", "--src", "x", "--lower", "1", "--baseline", "--out", "y"],  # conflict
        ["sweep", "--src", "a", "--tgt", "b", "--layers", "bogus", "--report", "r"],
        [],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_runtime_errors_exit_one(tmp_path, capsys):
    rc = main([
        "sweep", "--src", str(tmp_path / "missing.bank"), "--tgt", str(tmp_path / "m2.bank"),
        "--report", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_bank_exit_one(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.bank"
    bad.write_bytes(b"XXXX" + (workspace / "src.bank").read_bytes()[4:])
    rc = main(["inspect-bank", "--bank", str(bad), "--manifest", str(tmp_path / "m.json")])
    assert rc == 1
    assert "magic" in capsys.readouterr().err


def test_out_of_range_label_exit_one(tmp_path, capsys):
    bank = tmp_path / "big.bank"
    write_bank(LayerBank(layers=[np.zeros((1, 1, 1))], labels=[0], languages=["a"],
                         splits=["t"]), bank)
    raw = bank.read_bytes()
    kept = 24 + 4  # header plus the one float32 value
    manifest = json.loads(raw[kept + 8:])
    manifest["labels"] = [2**63]
    encoded = json.dumps(manifest).encode()
    bank.write_bytes(raw[:kept] + struct.pack("<Q", len(encoded)) + encoded)
    rc = main(["inspect-bank", "--bank", str(bank), "--manifest", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "label 0" in err


def test_fuse_malformed_params_exit_one(workspace, tmp_path, capsys):
    params = tmp_path / "p.json"
    save_params(BaselineSystem(upper=3), init_head(8, 4, seed=0), params)
    doc = json.loads(params.read_text())
    del doc["system"]["upper"]
    params.write_text(json.dumps(doc))
    rc = main(["fuse", "--bank", str(workspace / "src.bank"), "--params", str(params),
               "--out", str(tmp_path / "f.bank")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(params) in err
    assert not (tmp_path / "f.bank").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
def test_train_divergence_exits_one_without_params(workspace, tmp_path, capsys):
    params = tmp_path / "p.json"
    rc = main(["train", "--src", str(workspace / "src.bank"), "--lower", "1",
               "--learning-rate", "1e6", "--epochs", "20", "--out", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "epoch" in err and "batch" in err
    assert not params.exists()


def test_ablate_full_row_equals_sweep_row(workspace, tmp_path):
    banks = ["--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank")]
    rc = main(["ablate", *banks, "--lower", "2", "--seeds", "4", "--epochs", "2",
               "--report", str(tmp_path / "ablate.csv")])
    assert rc == 0
    rc = main(["sweep", *banks, "--layers", "2", "--seed", "4", "--epochs", "2",
               "--report", str(tmp_path / "sweep.csv")])
    assert rc == 0
    ablate = [line.split(",") for line in (tmp_path / "ablate.csv").read_text().splitlines()]
    sweep = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()]
    assert ablate[0][2:] == sweep[0][2:]
    full = next(row for row in ablate if row[:2] == ["full", "4"])
    fused = next(row for row in sweep if row[0] == "D_2")
    assert [float(x) for x in full[2:]] == [float(x) for x in fused[2:]]


def test_ablate_csv_bytes(monkeypatch, tmp_path, capsys):
    # Fixed rows per (variant, seed) instead of training, so the exact bytes
    # of the report, mean rows included, are pinned.
    target = {0: 0.5, 1: 1 / 3}

    def fixed_row(source, target_bank, lower, upper, variant, mode, cfg):
        share = {"full": 1.0, "global": 0.5, "local": 0.25}[variant]
        return SweepRow(f"D_{lower}", lower, share, share / 3, target[cfg.seed] * share,
                        0.1 * cfg.seed)

    monkeypatch.setattr(cli, "read_bank", lambda path: None)
    monkeypatch.setattr(cli, "sweep_row", fixed_row)
    report = tmp_path / "ablate.csv"
    rc = main(["ablate", "--src", "s.bank", "--tgt", "t.bank", "--lower", "1", "--upper", "2",
               "--seeds", "0,1", "--report", str(report)])
    assert rc == 0
    assert report.read_text() == (
        "variant,seed,source_accuracy,source_f1,target_accuracy,target_f1\n"
        "full,0,1.0,0.3333333333333333,0.5,0.0\n"
        "full,1,1.0,0.3333333333333333,0.3333333333333333,0.1\n"
        "global,0,0.5,0.16666666666666666,0.25,0.0\n"
        "global,1,0.5,0.16666666666666666,0.16666666666666666,0.1\n"
        "local,0,0.25,0.08333333333333333,0.125,0.0\n"
        "local,1,0.25,0.08333333333333333,0.08333333333333333,0.1\n"
        "full,mean,,,0.41666666666666663,\n"
        "global,mean,,,0.20833333333333331,\n"
        "local,mean,,,0.10416666666666666,\n"
    )
    assert capsys.readouterr().out == (
        "full: mean target accuracy 0.4167\n"
        "global: mean target accuracy 0.2083\n"
        "local: mean target accuracy 0.1042\n"
    )


# Every ``--help`` text at 80 columns, the top-level one listing every
# subcommand; however flags are declared, these bytes stay as they are.
HELP_TRANSCRIPT = (Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")
HELP_TEXTS = dict(re.findall(r"^\$ layerfuse (.*)\n((?:(?!\$ layerfuse ).*\n)*)",
                             HELP_TRANSCRIPT, re.MULTILINE))


@pytest.mark.parametrize("argv", sorted(HELP_TEXTS))
def test_help_bytes_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == HELP_TEXTS[argv]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-99, 99), min_size=1, max_size=5))
def test_parse_int_list_round_trips_integers_and_lists(values):
    assert cli._parse_int_list(str(values[0])) == values[:1]
    assert cli._parse_int_list(",".join(map(str, values))) == values


@settings(max_examples=30, deadline=None)
@given(first=st.integers(-20, 20), length=st.integers(-3, 6))
def test_parse_int_list_ranges(first, length):
    text = f"{first}..{first + length - 1}"
    if length < 1:
        with pytest.raises(argparse.ArgumentTypeError, match="range"):
            cli._parse_int_list(text)
    else:
        assert cli._parse_int_list(text) == list(range(first, first + length))
