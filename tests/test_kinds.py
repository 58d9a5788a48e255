"""A system kind added with no edit to the package: one class and one entry of ``fusion.KINDS``."""

from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from layerfuse import (
    FusionSystem,
    LayerPair,
    SyntheticTaskSpec,
    Tensor,
    TrainConfig,
    broadcast_add,
    generate_task,
    init_gate_params,
    init_head,
    load_params,
    read_bank,
    save_params,
    scale,
    stored_values,
    train,
    trainable,
    write_bank,
)
from layerfuse import fusion
from layerfuse.cli import main

SPEC = SyntheticTaskSpec(
    train_sentences=24, test_sentences=8, channels=8, latent_dim=4,
    tokens=4, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=28,
)


@dataclass
class MeanSystem:
    """The plain average of two layers: a gate of exactly one half, with no stored values."""

    kind = "mean"
    pair: LayerPair

    @classmethod
    def template(cls, get, integer):
        return cls(LayerPair(integer("lower"), integer("upper")))

    def config_id(self):
        return f"M_{self.pair.lower}"

    def describe(self):
        return {"kind": self.kind, "lower": self.pair.lower, "upper": self.pair.upper}

    def state(self):
        return ()

    def fused_batch(self, bank, rows, training=False):
        l1, l2 = (Tensor(bank.layer(i)[rows]) for i in (self.pair.lower, self.pair.upper))
        return scale(broadcast_add(l1, l2), 0.5)


@pytest.fixture
def mean_kind(monkeypatch):
    monkeypatch.setitem(fusion.KINDS, "mean", MeanSystem)


def test_params_resave_byte_identical(mean_kind, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_params(MeanSystem(LayerPair(1, 3)), init_head(8, 3, seed=1), a)
    system, head = load_params(a)
    assert system == MeanSystem(LayerPair(1, 3)) and head.weight.data.shape == (8, 3)
    save_params(system, head, b)
    assert a.read_bytes() == b.read_bytes()


def test_training_moves_only_the_head(mean_kind):
    source, _ = generate_task(SPEC)
    system, head = MeanSystem(LayerPair(1, 3)), init_head(8, source.num_classes, seed=0)
    assert list(trainable(stored_values(system, head))) == ["head.weight", "head.bias"]
    before = head.weight.data.copy()
    curve = train(system, head, source, TrainConfig(epochs=2, seed=0))
    assert len(curve) == 2 and curve[-1] < curve[0]
    assert (head.weight.data != before).any()


def test_fuse_writes_the_zero_gate_fusion_bank(mean_kind, tmp_path):
    source, _ = generate_task(SPEC)
    write_bank(source, tmp_path / "src.bank")
    systems = {"mean": MeanSystem(LayerPair(1, 3)),
               "fusion": FusionSystem(LayerPair(1, 3), init_gate_params(8, scheme="zero_gate"), mode="sigmoid")}
    for name, system in systems.items():
        save_params(system, init_head(8, source.num_classes, seed=0), tmp_path / f"{name}.json")
        assert main(["fuse", "--bank", str(tmp_path / "src.bank"), "--params", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}.bank")]) == 0
    assert (tmp_path / "mean.bank").read_bytes() == (tmp_path / "fusion.bank").read_bytes()
    expected = (source.layer(1).astype(np.float64) + source.layer(3)) / 2
    npt.assert_array_equal(read_bank(tmp_path / "mean.bank").layer(1), expected.astype(np.float32))
