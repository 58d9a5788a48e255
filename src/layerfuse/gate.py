"""Two-branch attention gate over token embeddings.

The global branch pools tokens into a sentence summary before a bottleneck
(conv -> norm -> relu -> conv -> norm); the local branch runs the same
bottleneck per token.  Their broadcast sum feeds a sigmoid that yields a
per-element mixing weight in (0, 1); this is the MS-CAM block of Dai et al.,
"Attentional Feature Fusion" (WACV 2021).  Two ablation variants rebuild the
gate from two pooled branches or two per-token branches.
"""

import math
from dataclasses import dataclass, fields

from .seeding import STREAM_GATE, rng_stream
from .tensor import (
    BatchNormState,
    Tensor,
    batch_norm,
    broadcast_add,
    conv1x1,
    elementwise_mul,
    mean_pool_tokens,
    parameter,
    relu,
    sigmoid,
)

GATE_MODES = ("sigmoid", "literal")
# Variant -> whether the (global, local) branch pools tokens.
_POOLING = {"full": (True, False), "global": (True, True), "local": (False, False)}
VARIANTS = tuple(_POOLING)
INIT_SCHEMES = ("kaiming", "zero_gate")


def check_gate_mode(mode):
    if mode not in GATE_MODES:
        raise ValueError(f"gate mode must be one of {GATE_MODES}, got {mode!r}")


def check_variant(variant):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def inner_width(channels, reduction):
    """Bottleneck width ceil(channels / reduction); never below 1."""
    return -(-channels // reduction)


@dataclass
class BranchParams:
    """One bottleneck path: conv1 -> bn1 -> relu -> conv2 -> bn2."""

    conv1_kernel: Tensor
    conv1_bias: Tensor
    bn1: BatchNormState
    conv2_kernel: Tensor
    conv2_bias: Tensor
    bn2: BatchNormState

    def state(self):
        """Every stored value by dotted name, running statistics included.

        Field ``conv1_kernel`` is named ``conv1.kernel``; a norm field ``bn1``
        contributes ``bn1.gamma`` through ``bn1.momentum``.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, BatchNormState):
                for name in BatchNormState.STATE:
                    yield f"{f.name}.{name}", getattr(value, name)
            else:
                yield f.name.replace("_", "."), value

    @classmethod
    def from_state(cls, get):
        """Rebuild a branch from ``get(dotted name)``; the inverse of ``state``."""
        values = {}
        for f in fields(cls):
            if f.type is BatchNormState:
                values[f.name] = BatchNormState.from_arrays(
                    **{name: get(f"{f.name}.{name}") for name in BatchNormState.STATE}
                )
            else:
                values[f.name] = parameter(get(f.name.replace("_", ".")))
        return cls(**values)


@dataclass
class GateParams:
    """Parameters of both gate branches for one channel width."""

    channels: int
    reduction: int
    global_branch: BranchParams
    local_branch: BranchParams

    def state(self):
        """Every stored value of both branches by dotted name."""
        for prefix, branch in (("global", self.global_branch), ("local", self.local_branch)):
            for name, value in branch.state():
                yield f"{prefix}.{name}", value

    def parameters(self):
        """The trainable tensors of ``state``."""
        return {name: value for name, value in self.state() if isinstance(value, Tensor)}

    def validate(self):
        inner = inner_width(self.channels, self.reduction)
        for name, branch in (("global", self.global_branch), ("local", self.local_branch)):
            k1, k2 = branch.conv1_kernel.data, branch.conv2_kernel.data
            if k1.shape != (self.channels, inner) or k2.shape != (inner, self.channels):
                raise ValueError(
                    f"{name} branch kernels {k1.shape}/{k2.shape} do not match "
                    f"channels={self.channels}, reduction={self.reduction}"
                )
            if branch.bn1.channels != inner or branch.bn2.channels != self.channels:
                raise ValueError(f"{name} branch norm widths do not match its kernels")
        return self


def _init_branch(rng, channels, inner, zero_second):
    kernel1 = parameter(rng.normal(0.0, math.sqrt(2.0 / channels), (channels, inner)))
    kernel2_data = rng.normal(0.0, math.sqrt(2.0 / inner), (inner, channels))
    if zero_second:
        kernel2_data = kernel2_data * 0.0
    return BranchParams(
        conv1_kernel=kernel1,
        conv1_bias=parameter([0.0] * inner),
        bn1=BatchNormState(inner),
        conv2_kernel=parameter(kernel2_data),
        conv2_bias=parameter([0.0] * channels),
        bn2=BatchNormState(channels),
    )


def init_gate_params(channels, reduction=4, scheme="kaiming", seed=0):
    """Draw gate parameters for one channel width.

    "kaiming" draws conv kernels from N(0, 2/fan_in) with zero biases;
    "zero_gate" additionally zeroes the second conv of each branch so the
    pre-sigmoid activations are exactly zero and the gate is exactly 0.5.
    """
    if channels < 1 or reduction < 1:
        raise ValueError("channels and reduction must be positive")
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"init scheme must be one of {INIT_SCHEMES}, got {scheme!r}")
    rng = rng_stream(seed, STREAM_GATE)
    inner = inner_width(channels, reduction)
    zero_second = scheme == "zero_gate"
    return GateParams(
        channels=channels,
        reduction=reduction,
        global_branch=_init_branch(rng, channels, inner, zero_second),
        local_branch=_init_branch(rng, channels, inner, zero_second),
    )


def _bottleneck(w, branch, pool, training):
    h = mean_pool_tokens(w) if pool else w
    h = conv1x1(h, branch.conv1_kernel, branch.conv1_bias)
    h = relu(batch_norm(h, branch.bn1, training))
    h = conv1x1(h, branch.conv2_kernel, branch.conv2_bias)
    return batch_norm(h, branch.bn2, training)


def global_branch_forward(w, params, pool=True, training=False):
    """Global-branch weight map: (batch, 1, channels) when it pools tokens."""
    return _bottleneck(w, params.global_branch, pool, training)


def local_branch_forward(w, params, pool=False, training=False):
    """Local-branch weight map: input-shaped unless it pools tokens."""
    return _bottleneck(w, params.local_branch, pool, training)


def gate_forward(w, params, mode="sigmoid", variant="full", training=False):
    """Mixing weight from the sum of the two branches passed through a sigmoid.

    ``variant`` "full" pools tokens in the global branch only; the "global"
    ablation pools in both branches, so the gate is token-constant, and the
    "local" ablation pools in neither.  Returns the sigmoid map in "sigmoid"
    mode, or the input scaled by it in "literal" mode.  ``training`` makes
    every normalization use, and fold in, the statistics of this batch.
    """
    check_gate_mode(mode)
    check_variant(variant)
    pool_global, pool_local = _POOLING[variant]
    gate = sigmoid(broadcast_add(
        global_branch_forward(w, params, pool_global, training),
        local_branch_forward(w, params, pool_local, training),
    ))
    return elementwise_mul(w, gate) if mode == "literal" else gate
