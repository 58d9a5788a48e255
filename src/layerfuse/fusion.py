"""Convex per-element fusion of two encoder layers, its systems, and the classifier head."""

from dataclasses import dataclass

import numpy as np

from .gate import (
    GateParams,
    check_gate_mode,
    check_variant,
    gate_forward,
    init_gate_params,
)
from .seeding import STREAM_HEAD, rng_stream
from .tensor import DimensionError, Tensor, broadcast_add, conv1x1, elementwise_mul, parameter, scale, shift, sub


@dataclass(frozen=True)
class LayerPair:
    """1-based indices of the lower layer and the (usually top) upper layer."""

    lower: int
    upper: int

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(
                f"layer pair needs 1 <= lower <= upper, got ({self.lower}, {self.upper})"
            )


def fuse_layers(l1, l2, params, mode="sigmoid", variant="full", training=False):
    """Mix two same-shape layers as l1*g + l2*(1-g).

    The gate g is computed on the arithmetic mean of the layers, with
    normalization in training or eval form as ``training`` says.  Returns
    (fused, weight) where ``weight`` is the mixing coefficient actually used:
    the sigmoid map in "sigmoid" mode, or the mean scaled by the sigmoid map
    in "literal" mode.
    """
    if l1.data.shape != l2.data.shape:
        raise DimensionError(
            f"fuse_layers: layer shapes differ, {l1.data.shape} vs {l2.data.shape}"
        )
    mean = scale(broadcast_add(l1, l2), 0.5)
    weight = gate_forward(mean, params, mode, variant, training)
    # Evaluated as mean + (l1 - l2) * (g - 1/2): equal inputs and a gate of
    # exactly one half then reproduce l1 and the arithmetic mean bit-exactly.
    fused = broadcast_add(mean, elementwise_mul(sub(l1, l2), shift(weight, -0.5)))
    return fused, weight


@dataclass
class FusionSystem:
    """A fusion-ready pairing of layer indices, gate parameters, and mode."""

    pair: LayerPair
    params: GateParams
    variant: str = "full"
    mode: str = "sigmoid"

    def __post_init__(self):
        check_variant(self.variant)
        check_gate_mode(self.mode)

    def config_id(self):
        return f"D_{self.pair.lower}"

    def describe(self):
        """The ``system`` block of a parameter file."""
        return {
            "kind": "fusion",
            "lower": self.pair.lower,
            "upper": self.pair.upper,
            "variant": self.variant,
            "gate_mode": self.mode,
            "channels": self.params.channels,
            "reduction": self.params.reduction,
        }

    def state(self):
        return self.params.state()

    def forward(self, l1, l2, training=False):
        return fuse_layers(l1, l2, self.params, self.mode, self.variant, training)

    def fused_batch(self, bank, rows, training=False):
        l1 = Tensor(bank.layer(self.pair.lower)[rows])
        l2 = Tensor(bank.layer(self.pair.upper)[rows])
        return self.forward(l1, l2, training)[0]

    def parameters(self):
        return self.params.parameters()


@dataclass
class BaselineSystem:
    """Reference system: the top layer passes through untouched."""

    upper: int

    def config_id(self):
        return "baseline"

    def describe(self):
        return {"kind": "baseline", "upper": self.upper}

    def state(self):
        return ()

    def fused_batch(self, bank, rows, training=False):
        return Tensor(bank.layer(self.upper)[rows])

    def parameters(self):
        return {}


def build_fusion_system(
    pair, channels, variant="full", mode="sigmoid", seed=0, reduction=4, scheme="kaiming"
):
    """Deterministically assemble a FusionSystem for the given seed."""
    params = init_gate_params(channels, reduction=reduction, scheme=scheme, seed=seed)
    return FusionSystem(pair=pair, params=params, variant=variant, mode=mode)


@dataclass
class ClassifierHead:
    """Linear sentence classifier over pooled fused embeddings."""

    weight: Tensor
    bias: Tensor

    def logits(self, features):
        return conv1x1(features, self.weight, self.bias)

    def parameters(self):
        return {"head.weight": self.weight, "head.bias": self.bias}


def init_head(channels, classes, seed=0):
    """Deterministic head init: N(0, 1/channels) weights, zero bias."""
    if channels < 1 or classes < 2:
        raise ValueError("head needs at least one channel and two classes")
    rng = rng_stream(seed, STREAM_HEAD)
    weight = rng.normal(0.0, np.sqrt(1.0 / channels), (channels, classes))
    return ClassifierHead(weight=parameter(weight), bias=parameter([0.0] * classes))
