"""Command-line interface: subcommands, manifests, and reproducibility."""

import argparse
import hashlib
import itertools
import json
import re
import resource
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfuse import BaselineSystem, LayerBank, SweepRow, init_head, read_bank, save_params, write_bank
from layerfuse.fusion import LayerPair, build_fusion_system
from layerfuse import cli, training
from layerfuse.cli import main
from layerfuse.synthetic import SyntheticTaskSpec, generate_task

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
    # The peak so far of this process, which ran gen-task in-process.
    assert 0 < manifest["peak_rss_mb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
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


def test_manifest_digests_an_input_before_the_output_overwrites_it(workspace, tmp_path):
    params = tmp_path / "d1.json"
    assert main(["train", "--src", str(workspace / "src.bank"), "--lower", "1", "--seed", "3",
                 "--epochs", "1", "--out", str(params)]) == 0
    bank = tmp_path / "in.bank"
    bank.write_bytes((workspace / "src.bank").read_bytes())
    before = hashlib.sha256(bank.read_bytes()).hexdigest()
    assert main(["fuse", "--bank", str(bank), "--params", str(params), "--out", str(bank)]) == 0
    after = hashlib.sha256(bank.read_bytes()).hexdigest()
    assert after != before
    manifest = json.loads((tmp_path / "in.bank.manifest.json").read_text())
    assert manifest["inputs"][0] == {"path": str(bank), "sha256": before}
    assert manifest["outputs"] == [{"path": str(bank), "sha256": after}]


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
    # The config file is an input, so a changed file shows on replay.
    digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert {"path": str(cfg_path), "sha256": digest} in manifest["inputs"]


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
    ("--learning-rate", "inf", "learning_rate"),
    ("--weight-decay", "inf", "weight_decay"),
])
def test_train_flags_validated(workspace, tmp_path, capsys, flag, value, field):
    params = tmp_path / "p.json"
    rc = main(["train", "--src", str(workspace / "src.bank"), "--lower", "1",
               flag, value, "--out", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not params.exists()


@pytest.mark.parametrize("command, outputs", [
    ("train", ["--lower", "1", "--out", "p.json"]),
    ("sweep", ["--report", "s.csv", "--json-report", "s.json"]),
    ("ablate", ["--lower", "1", "--report", "a.csv"]),
])
def test_source_with_one_class_refused_by_path(workspace, tmp_path, monkeypatch, capsys, command, outputs):
    bank = read_bank(workspace / "src.bank")
    write_bank(LayerBank(bank.layers, [0] * len(bank.labels), bank.languages, bank.splits), tmp_path / "zero.bank")
    monkeypatch.chdir(tmp_path)
    argv = [command, "--src", "zero.bank", *(["--tgt", str(workspace / "tgt.bank")] * (command != "train")), *outputs]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: zero.bank: every label is 0, and a classifier needs at least two classes\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["zero.bank"]


@pytest.mark.parametrize("command, document, named", [
    ("train", {"epochs": "2"}, "train config field epochs must be an integer"),
    ("train", {"batch_size": True}, "train config field batch_size must be an integer"),
    ("train", {"learning_rate": "0.1"}, "train config field learning_rate must be a number"),
    ("train", [{"epochs": 2}], "train config must be a JSON object"),
    ("gen-task", {"tokens": "8"}, "task spec field tokens must be an integer"),
    ("gen-task", {"invariance": [0.5, "x"]}, "task spec field invariance must be a list of numbers"),
    ("gen-task", [1, 2], "task spec must be a JSON object"),
    ("train", {"eps": 0}, "eps must be positive"),
    ("train", {"eps": float("inf")}, "train config field eps must be a number, got inf"),
    ("gen-task", {"noise_std": float("nan")}, "task spec field noise_std must be a number, got nan"),
    # Written as given: JSON's 1e999 decodes as an infinite float.
    ("train", '{"learning_rate": 1e999}', "train config field learning_rate must be a number, got inf"),
    ("gen-task", '{"noise_std": 1e999}', "task spec field noise_std must be a number, got inf"),
])
def test_malformed_config_file_named(workspace, tmp_path, capsys, command, document, named):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(document if isinstance(document, str) else json.dumps(document))
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


def test_gen_task_refuses_a_layer_float32_cannot_hold(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps({"noise_std": 1e308}))
    assert main(["gen-task", "--spec", "spec.json", "--out-src", "s.bank", "--out-tgt", "t.bank"]) == 1
    assert capsys.readouterr() == ("", "error: layer 1 of the 'src' bank overflows float32 (noise_std 1e+308)\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["spec.json"]


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
    config = json.loads((tmp_path / "base.json.manifest.json").read_text())["config"]
    assert (config["variant"], config["gate_mode"]) == (None, None)


def test_train_manifest_records_the_gate_flags(workspace, tmp_path):
    params = tmp_path / "d1.json"
    assert main(["train", "--src", str(workspace / "src.bank"), "--lower", "1", "--variant", "local",
                 "--gate-mode", "literal", "--epochs", "0", "--out", str(params)]) == 0
    config = json.loads((tmp_path / "d1.json.manifest.json").read_text())["config"]
    assert (config["variant"], config["gate_mode"]) == ("local", "literal")


@pytest.mark.parametrize("command, flags", [
    ("inspect-bank", ["--bank", "{src}"]),
    ("gradcheck", ["--channels", "8"]),
    ("cossim", ["--src", "{src}", "--tgt", "{tgt}", "--baseline", "--pairs", "8"]),
])
def test_command_without_an_output_file_writes_its_manifest_in_the_working_directory(
        workspace, tmp_path, monkeypatch, capsys, command, flags):
    monkeypatch.chdir(tmp_path)
    argv = [command, *(flag.format(src=workspace / "src.bank", tgt=workspace / "tgt.bank") for flag in flags)]
    assert main(argv) == 0
    assert [path.name for path in tmp_path.iterdir()] == [f"{command}.manifest.json"]
    manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text())
    assert (manifest["subcommand"], manifest["argv"], manifest["outputs"]) == (command, argv, [])


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
    # Every row trains at one of --seeds, so the recorded train config holds no seed of its own.
    config = json.loads((tmp_path / "ablate.csv.manifest.json").read_text())["config"]
    assert config["seeds"] == [0, 1] and config["train"]["epochs"] == 1 and "seed" not in config["train"]


def test_ablate_takes_a_repeated_seed_once(workspace, tmp_path, capsys):
    written = {}
    for seeds in ("0,0,1", "0,1"):
        report = tmp_path / f"{seeds}.csv"
        assert main(["ablate", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
                     "--lower", "1", "--seeds", seeds, "--epochs", "1", "--report", str(report)]) == 0
        config = json.loads(Path(f"{report}.manifest.json").read_text())["config"]
        written[seeds] = report.read_bytes(), capsys.readouterr(), config["seeds"]
    assert written["0,0,1"] == written["0,1"]
    assert written["0,1"][2] == [0, 1]


# Each training command that reads --tgt, its output flags naming files "{out}.<suffix>".
TARGET_READERS = {
    "train": ["--lower", "1", "--out", "{out}.json"],
    "sweep": ["--layers", "1..3", "--jobs", "2", "--report", "{out}.csv", "--json-report", "{out}.json"],
    "ablate": ["--lower", "2", "--seeds", "0..1", "--report", "{out}.csv"],
}


@pytest.mark.parametrize("command", TARGET_READERS)
def test_training_commands_read_only_the_targets_test_split(workspace, tmp_path, monkeypatch, capsys, command):
    target = read_bank(workspace / "tgt.bank")
    write_bank(target.rows(target.split_indices("test")), tmp_path / "test_rows.bank")
    monkeypatch.chdir(tmp_path)
    written = {}
    for out, tgt in (("whole", workspace / "tgt.bank"), ("test_only", tmp_path / "test_rows.bank")):
        argv = [command, "--src", str(workspace / "src.bank"), "--tgt", str(tgt), "--epochs", "1",
                *(arg.format(out=out) for arg in TARGET_READERS[command])]
        assert main(argv) == 0
        files = sorted((path.suffix, path.read_bytes()) for path in tmp_path.glob(f"{out}.*")
                       if not path.name.endswith(".manifest.json"))
        written[out] = capsys.readouterr(), files
    assert written["whole"][1]
    assert written["whole"] == written["test_only"]


@pytest.mark.parametrize("command", TARGET_READERS)
def test_target_with_a_nan_in_its_train_split_is_refused_before_training(
        workspace, tmp_path, monkeypatch, capsys, command):
    target = read_bank(workspace / "tgt.bank")
    layers = [layer.copy() for layer in target.layers]
    sentence = target.split_indices("train")[5]
    layers[1][sentence, 2, 3] = np.nan
    write_bank(replace(target, layers=layers), tmp_path / "nan.bank")

    def trains(*args, **kwargs):
        raise AssertionError("trained on a target the reader refuses")

    monkeypatch.setattr(cli, "train", trains)
    monkeypatch.setattr(training, "train", trains)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--src", str(workspace / "src.bank"), "--tgt", "nan.bank",
            *(arg.format(out="out") for arg in TARGET_READERS[command])]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: nan.bank: non-finite value at layer 2, sentence {sentence}, token 2, channel 3\n")
    assert [path.name for path in tmp_path.iterdir()] == ["nan.bank"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_refuses_jobs_below_one(workspace, tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
                 "--report", "s.csv", "--json-report", "s.json", "--jobs", jobs]) == 1
    assert capsys.readouterr() == ("", f"error: --jobs must be at least 1, got {jobs}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("layer", ["0", "7"])
def test_sweep_refuses_a_layer_outside_the_bank(tmp_path, monkeypatch, capsys, layer):
    spec = SyntheticTaskSpec(train_sentences=8, test_sentences=4, channels=4, latent_dim=2, tokens=2,
                             n_layers=6, invariance=(0.9, 0.8, 0.7, 0.5, 0.3, 0.1), seed=3)
    for bank, name in zip(generate_task(spec), ("src", "tgt")):
        write_bank(bank, tmp_path / f"{name}.bank")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--src", "src.bank", "--tgt", "tgt.bank", "--layers", layer,
                 "--report", "s.csv"]) == 1
    assert capsys.readouterr() == ("", f"error: sweep layer {layer} outside 1..6\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["src.bank", "tgt.bank"]


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


@pytest.mark.parametrize("flag, value, message", [
    ("--rtol", "inf", "rtol must be a finite positive number, got inf"),
    ("--rtol", "nan", "rtol must be a finite positive number, got nan"),
    ("--rtol", "0", "rtol must be a finite positive number, got 0"),
    ("--rtol", "-1", "rtol must be a finite positive number, got -1"),
    ("--eps", "nan", "step must be a finite positive number, got nan"),
    ("--eps", "inf", "step must be a finite positive number, got inf"),
    ("--batch", "0", "batch must be at least 1, got 0"),
    ("--tokens", "0", "tokens must be at least 1, got 0"),
    ("--channels", "0", "channels must be at least 1, got 0"),
    ("--classes", "0", "classes must be at least 2, got 0"),
    ("--classes", "1", "classes must be at least 2, got 1"),
])
def test_gradcheck_refuses_an_argument_that_cannot_judge(tmp_path, monkeypatch, capsys, flag, value, message):
    # An infinite rtol passes every check and a NaN one fails every check;
    # a non-finite step or an empty shape leaves no finite objective, and
    # fewer than two classes leave no classifier to check.
    monkeypatch.chdir(tmp_path)
    assert main(["gradcheck", flag, value]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


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


# (system, its head's channels, why the params do not fit the 3-layer, 8-channel workspace banks)
UNFIT_PARAMS = {
    "channels": (build_fusion_system(LayerPair(1, 3), 16), 16, "bank has 8 channels, requested 16"),
    "fusion-upper": (build_fusion_system(LayerPair(1, 9), 8), 8, "bank has layers 1..3, requested 9"),
    "baseline-upper": (BaselineSystem(upper=5), 8, "bank has layers 1..3, requested 5"),
    "baseline-channels": (BaselineSystem(upper=3), 16, "bank has 8 channels, requested 16"),
}


@pytest.mark.parametrize("command", ["fuse", "cossim"])
@pytest.mark.parametrize("case", UNFIT_PARAMS)
def test_params_that_do_not_fit_the_bank_exit_one(workspace, tmp_path, capsys, command, case):
    system, channels, refusal = UNFIT_PARAMS[case]
    params, out = tmp_path / "p.json", tmp_path / "out"
    save_params(system, init_head(channels, 4, seed=0), params)
    bank = workspace / "src.bank"
    if command == "fuse":
        argv = ["fuse", "--bank", str(bank), "--params", str(params), "--out", str(out)]
    else:
        argv = ["cossim", "--src", str(bank), "--tgt", str(workspace / "tgt.bank"),
                "--params", str(params), "--out", str(out)]
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bank}: {refusal} by {params}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
def test_train_divergence_exits_one_without_params(workspace, tmp_path, capsys):
    params = tmp_path / "p.json"
    rc = main(["train", "--src", str(workspace / "src.bank"), "--lower", "1",
               "--learning-rate", "1e6", "--epochs", "20", "--out", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "epoch" in err and "batch" in err
    assert not params.exists()


@pytest.mark.parametrize("which, code", [(["--lower", "3"], 1), (["--lower", "3", "--variant", "local"], 0),
                                         (["--baseline"], 0)])
def test_train_at_batch_size_one_refuses_per_batch(workspace, tmp_path, capsys, which, code):
    params = tmp_path / "p.json"
    rc = main(["train", "--src", str(workspace / "src.bank"), *which, "--batch-size", "1",
               "--epochs", "1", "--out", str(params)])
    assert rc == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: training-mode batch_norm needs more than one (batch, token) position, "
                       "got input shape (1, 1, 2), at epoch 1, batch 1 with batch_size 1\n")
    assert params.exists() == (code == 0)


@pytest.mark.parametrize("epochs", ["1", "0"])
def test_train_past_the_top_layer_exits_one_without_params(tmp_path, capsys, epochs):
    spec = SyntheticTaskSpec(train_sentences=8, test_sentences=4, channels=4, latent_dim=2, tokens=2, seed=3)
    write_bank(generate_task(spec)[0], tmp_path / "src.bank")
    params = tmp_path / "p.json"
    rc = main(["train", "--src", str(tmp_path / "src.bank"), "--lower", "2", "--upper", "9",
               "--epochs", epochs, "--out", str(params)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'src.bank'}: bank has layers 1..6, requested 9\n")
    assert not params.exists()


def _misfit_banks(tmp_path):
    """A 6-layer, 4-channel source and sentence-aligned targets: one that fits, one with 4 layers,
    one with 2 channels and one with no sentence in the test split."""
    spec = SyntheticTaskSpec(train_sentences=8, test_sentences=4, channels=4, latent_dim=2, tokens=2, seed=3)
    source, target = generate_task(spec)
    banks = {
        "src": source,
        "fit": target,
        "layers": replace(target, layers=target.layers[:4]),
        "channels": replace(target, layers=[layer[:, :, :2] for layer in target.layers]),
        "split": replace(target, splits=["train"] * len(target.splits)),
    }
    paths = {name: tmp_path / f"{name}.bank" for name in banks}
    for name, bank in banks.items():
        write_bank(bank, paths[name])
    return paths


def _flag_tokens(action):
    """The ways to pass one flag: a switch alone, --params with a baseline or a fusion file, else lower layer 2."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return [[flag]]
    if flag == "--params":
        return [[flag, "baseline"], [flag, "fusion"]]
    return [[flag, "2"]]


def _commands_reading_a_target():
    """(argv after --src and --tgt, whether it takes --upper) for each subcommand of the parser that takes --tgt.

    One argv per choice of each required flag group and per way to pass a
    required flag; each ends with the subcommand's output flag.
    """
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subcommands.choices.items():
        flags = sub._option_string_actions
        if "--tgt" not in flags:
            continue
        output = "--out" if "--out" in flags else "--report"
        required = [action for action in sub._actions
                    if action.required and action.option_strings[0] not in ("--src", "--tgt", output)]
        groups = [group._group_actions for group in sub._mutually_exclusive_groups if group.required]
        for choice in itertools.product(*groups):
            for tokens in itertools.product(*map(_flag_tokens, [*choice, *required])):
                yield [name, *itertools.chain(*tokens), output], "--upper" in flags


def _misfits():
    """Each command reading a target under each misfit: a target that lacks layer 6, channels or a
    test sentence, or an upper layer 9 the source lacks, from --upper or the params file."""
    for argv, takes_upper in _commands_reading_a_target():
        for misfit in ("layers", "channels", "split", "upper"):
            if misfit != "upper" or takes_upper or "--params" in argv:
                yield pytest.param(argv, misfit, id=f"{' '.join(argv)}-{misfit}")


@pytest.mark.parametrize("command, misfit", _misfits())
def test_target_that_does_not_fit_exits_one_before_any_work(tmp_path, capsys, command, misfit):
    paths = _misfit_banks(tmp_path)
    inputs, extra, by = list(paths.values()), [], ""
    if "--params" in command:
        kind = command[command.index("--params") + 1]
        params = tmp_path / f"{kind}.json"
        upper = 9 if misfit == "upper" else 6
        system = BaselineSystem(upper) if kind == "baseline" else build_fusion_system(LayerPair(2, upper), 4)
        save_params(system, init_head(4, 2, seed=0), params)
        command = [str(params) if token == kind else token for token in command]
        inputs.append(params)
        by = f" by {params}"
    elif misfit == "upper":
        extra = ["--upper", "9"]
    refusal = {
        "layers": f"bank has layers 1..4, requested 6{by}",
        "channels": f"bank has 2 channels, requested 4{by}",
        "split": "bank has no sentences in the 'test' split",
        "upper": f"bank has layers 1..6, requested 9{by}",
    }[misfit]
    refused, target = (paths["src"], paths["fit"]) if misfit == "upper" else (paths[misfit],) * 2
    name, *flags = command
    rc = main([name, "--src", str(paths["src"]), "--tgt", str(target), *flags, str(tmp_path / "out"), *extra])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {refused}: {refusal}\n")
    assert sorted(tmp_path.iterdir()) == sorted(inputs)


def test_layer_both_banks_lack_is_refused_on_the_source(tmp_path, capsys):
    paths = _misfit_banks(tmp_path)
    rc = main(["train", "--src", str(paths["src"]), "--tgt", str(paths["layers"]), "--lower", "2",
               "--upper", "9", "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {paths['src']}: bank has layers 1..6, requested 9\n")
    assert not (tmp_path / "p.json").exists()


def test_cossim_split_the_source_lacks_is_refused_on_the_source(tmp_path, capsys):
    paths = _misfit_banks(tmp_path)
    rc = main(["cossim", "--src", str(paths["src"]), "--tgt", str(paths["fit"]), "--baseline",
               "--split", "dev", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {paths['src']}: bank has no sentences in the 'dev' split\n")
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())


@pytest.mark.parametrize("fitting", ["seventh layer", "fewer sentences"])
def test_sweep_reads_a_target_that_fits(tmp_path, fitting):
    paths = _misfit_banks(tmp_path)
    target = read_bank(paths["fit"])
    if fitting == "seventh layer":
        other = replace(target, layers=[*target.layers, target.layers[0]])
    else:  # the first two train sentences dropped
        other = replace(target, layers=[layer[2:] for layer in target.layers], labels=target.labels[2:],
                        languages=target.languages[2:], splits=target.splits[2:])
    write_bank(other, tmp_path / "other.bank")
    reports = []
    for name in ("fit", "other"):
        reports.append(tmp_path / f"{name}.csv")
        rc = main(["sweep", "--src", str(paths["src"]), "--tgt", str(tmp_path / f"{name}.bank"),
                   "--layers", "5,6", "--epochs", "1", "--report", str(reports[-1])])
        assert rc == 0
    if fitting == "seventh layer":
        assert reports[0].read_bytes() == reports[1].read_bytes()


def test_sweep_upper_without_layers_sweeps_every_layer_up_to_it(tmp_path):
    spec = SyntheticTaskSpec(train_sentences=8, test_sentences=4, channels=4, latent_dim=2, tokens=2,
                             n_layers=4, invariance=(0.9, 0.7, 0.5, 0.1), seed=3)
    for bank, name in zip(generate_task(spec), ("src", "tgt")):
        write_bank(bank, tmp_path / f"{name}.bank")
    report = tmp_path / "sweep.csv"
    rc = main(["sweep", "--src", str(tmp_path / "src.bank"), "--tgt", str(tmp_path / "tgt.bank"),
               "--upper", "3", "--epochs", "1", "--report", str(report)])
    assert rc == 0
    rows = [line.split(",")[0] for line in report.read_text().splitlines()[1:]]
    assert rows == ["baseline", "D_1", "D_2", "D_3"]


@pytest.mark.parametrize("command", [
    "train {banks} --lower 1 --out out --seed -1",
    "sweep {banks} --layers 1 --report out --seed -1",
    "ablate {banks} --lower 1 --report out --seeds -1",  # ablate trains at each of --seeds
    "cossim {banks} --lower 1 --out out --seed -1",
    "gen-task --out-src out --out-tgt out2 --seed -1",
    "gradcheck --seed -1",
], ids=lambda command: command.split()[0])
def test_negative_seed_is_named(workspace, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    banks = f"--src {workspace / 'src.bank'} --tgt {workspace / 'tgt.bank'}"
    assert main(command.format(banks=banks).split()) == 1
    assert capsys.readouterr() == ("", "error: seed must be a non-negative integer, got -1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", "0", "4"])
def test_ablate_refuses_seed(workspace, tmp_path, monkeypatch, capsys, seed):
    # Each row trains at one of --seeds, so a --seed would go unread; nor may
    # argparse take it as an abbreviation of --seeds.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["ablate", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
              "--lower", "1", "--report", "out", "--seed", seed])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --seed {seed}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ablate_refuses_a_train_config_seed(workspace, tmp_path, monkeypatch, capsys):
    # Each row trains at one of --seeds, so a seed in the file would be recorded and never used.
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"seed": 5, "epochs": 1}))
    rc = main(["ablate", "--src", str(workspace / "src.bank"), "--tgt", str(workspace / "tgt.bank"),
               "--lower", "1", "--train-config", "cfg.json", "--report", "out.csv"])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: cfg.json: train config field seed is not read by ablate: each row trains at one of --seeds\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


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

    def fixed_row(source, target_bank, upper, mode, lower, variant, cfg):
        share = {"full": 1.0, "global": 0.5, "local": 0.25}[variant]
        return SweepRow(f"D_{lower}", lower, share, share / 3, target[cfg.seed] * share,
                        0.1 * cfg.seed)

    # ablate checks that each bank fits before any row, so each path reads as a two-layer bank
    # with a test sentence, labelled 1 so the source has two classes.
    stub = LayerBank(layers=[np.zeros((1, 1, 1))] * 2, labels=[1], languages=["a"], splits=["test"])
    monkeypatch.setattr(cli, "read_bank", lambda path: stub)
    monkeypatch.setattr(training, "sweep_row", fixed_row)
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
        assert list(cli._parse_int_list(text)) == list(range(first, first + length))


def test_parse_int_list_keeps_a_range_lazy():
    assert cli._parse_int_list("1..4000000000") == range(1, 4000000001)
