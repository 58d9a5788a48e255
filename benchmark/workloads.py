"""The benchmark's workloads: inputs, set-up, the timed commands and their checks.

Every command is an argv for ``layerfuse.cli.main``, run in the workload's
directory.  The benchmark seed makes the inputs: it is the task seed of the
generated banks and the gradcheck seed.  Training keeps the CLI's default
seed, as a user's run would.  One pass runs a workload's commands in order;
``commands_s`` is the wall time of a pass.
"""

import csv
import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Peak resident memory of the measuring process, in MB: today's peak plus
    # about a quarter.  The run refuses to start with less memory available.
    expected_peak_mb: int
    # Fields of the SyntheticTaskSpec the set-up writes to spec.json.
    spec: dict = field(default_factory=dict)
    # Argv templates; "{seed}" becomes the benchmark seed.
    setup: tuple = ()
    # (name of the command's own time, argv template) in pass order.
    commands: tuple = ()
    # check({command name: stdout}) -> ([(description, passed)], {recorded name: number})
    check: object = None


GEN_TASK = ("gen-task", "--spec", "spec.json", "--seed", "{seed}",
            "--out-src", "src.bank", "--out-tgt", "tgt.bank")
SWEEP = ("sweep", "--src", "src.bank", "--tgt", "tgt.bank")
# The encoder-like shape: (sentences, 128 tokens, 768 channels), two layers.
ENCODER_SPEC = {"tokens": 128, "channels": 768, "n_layers": 2, "invariance": [0.9, 0.1]}


def _sweep_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return {row["config"]: row for row in csv.DictReader(handle)}


def check_desk(stdouts):
    """Sweep invariants; the transfer gain is recorded, not checked (README.md)."""
    rows = _sweep_rows("sweep.csv")
    baseline = rows.pop("baseline")
    top = max(rows.values(), key=lambda row: int(row["lower"]))
    columns = ("source_accuracy", "source_f1", "target_accuracy", "target_f1")
    best = max(float(row["target_accuracy"]) for row in rows.values() if row is not top)
    checks = [
        (f"{top['config']} row equals the baseline row",
         all(top[c] == baseline[c] for c in columns)),
        ("sweep --jobs 2 CSV is byte-identical to --jobs 1",
         Path("sweep_jobs2.csv").read_bytes() == Path("sweep.csv").read_bytes()),
    ]
    return checks, {"transfer_gain": best - float(baseline["target_accuracy"])}


_LOSS = re.compile(r"train loss: first=(\S+) last=(\S+)")


def check_train(stdouts):
    match = _LOSS.search(stdouts["train_s"])
    finite = bool(match) and all(math.isfinite(float(v)) for v in match.groups())
    return [("train loss is finite", finite)], {}


def read_layers(path):
    """The payload of a bank file as a read-only (layers, B, T, E) float32 array."""
    header = struct.Struct("<4sIIIII")
    with open(path, "rb") as handle:
        magic, _, *shape = header.unpack(handle.read(header.size))
    if magic != b"DLFB":
        raise ValueError(f"{path}: not a bank file")
    return np.memmap(path, dtype="<f4", mode="r", offset=header.size, shape=tuple(shape))


def check_fuse(stdouts):
    lower, upper = read_layers("src.bank")
    fused = read_layers("fused.bank")[0]
    inside = bool(np.all(np.minimum(lower, upper) <= fused)
                  and np.all(fused <= np.maximum(lower, upper)))
    return [("fused values lie inside the envelope of their two layers", inside)], {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why="default 6-layer task; sweep --jobs 1, sweep --jobs 2, gradcheck: interpreter-bound "
                "graph building, backward, AdamW and the worker pool at (32, 8, 32)",
            expected_peak_mb=270,
            setup=(GEN_TASK,),
            commands=(
                ("sweep_s", (*SWEEP, "--report", "sweep.csv", "--jobs", "1")),
                ("sweep_jobs2_s", (*SWEEP, "--report", "sweep_jobs2.csv", "--jobs", "2")),
                ("gradcheck_s", ("gradcheck", "--seed", "{seed}")),
            ),
            check=check_desk,
        ),
        Workload(
            name="encoder_train",
            why="train 2 steps at (32, 128, 768): bound by numpy kernels (sigmoid, conv1x1, "
                "train-mode batch_norm, gradient copies), not by the interpreter",
            expected_peak_mb=1650,
            spec={**ENCODER_SPEC, "train_sentences": 64, "test_sentences": 16},
            setup=(GEN_TASK,),
            commands=(("train_s", ("train", "--src", "src.bank", "--tgt", "tgt.bank",
                                   "--lower", "1", "--epochs", "1", "--out", "trained.json")),),
            check=check_train,
        ),
        Workload(
            name="encoder_fuse",
            why="fuse 64 sentences at (128, 768) with trained params: eval forward only, plus "
                "bank read and write, manifest hashing and memory",
            expected_peak_mb=1200,
            spec={**ENCODER_SPEC, "train_sentences": 48, "test_sentences": 16},
            setup=(GEN_TASK, ("train", "--src", "src.bank", "--lower", "1",
                              "--epochs", "1", "--out", "params.json")),
            commands=(("fuse_s", ("fuse", "--bank", "src.bank", "--params", "params.json",
                                  "--out", "fused.bank")),),
            check=check_fuse,
        ),
    )
}


def write_spec(workload):
    Path("spec.json").write_text(json.dumps(workload.spec), encoding="utf-8")


def command_argv(template, seed):
    return [arg.format(seed=seed) for arg in template]
