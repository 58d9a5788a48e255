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

import numpy as np

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
        """Where each stored value lives, running statistics included: (dotted name, owner, attribute).

        Field ``conv1_kernel`` is named ``conv1.kernel`` and lives on the
        branch; a norm field ``bn1`` contributes ``bn1.gamma`` through
        ``bn1.momentum``, which live on the norm.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, BatchNormState):
                for name in BatchNormState.STATE:
                    yield f"{f.name}.{name}", value, name
            else:
                yield f.name.replace("_", "."), self, f.name


@dataclass
class GateParams:
    """Parameters of both gate branches for one channel width."""

    channels: int
    reduction: int
    global_branch: BranchParams
    local_branch: BranchParams

    def state(self):
        """Where each stored value of both branches lives, as ``BranchParams.state`` gives it."""
        for prefix, branch in (("global", self.global_branch), ("local", self.local_branch)):
            for name, owner, attribute in branch.state():
                yield f"{prefix}.{name}", owner, attribute


def gate_template(channels, reduction):
    """Gate parameters of zero kernels and biases and fresh norms, for a draw or a load to fill.

    Kernels are read-only zero views: a freed kernel-sized array would raise glibc's mmap threshold.
    """
    if channels < 1 or reduction < 1:
        raise ValueError("channels and reduction must be positive")
    inner = inner_width(channels, reduction)

    def branch():
        return BranchParams(
            conv1_kernel=Tensor(np.broadcast_to(0.0, (channels, inner))),
            conv1_bias=parameter(np.zeros(inner)),
            bn1=BatchNormState(inner),
            conv2_kernel=Tensor(np.broadcast_to(0.0, (inner, channels))),
            conv2_bias=parameter(np.zeros(channels)),
            bn2=BatchNormState(channels),
        )

    return GateParams(channels=channels, reduction=reduction, global_branch=branch(), local_branch=branch())


def init_gate_params(channels, reduction=4, scheme="kaiming", seed=0):
    """Draw gate parameters for one channel width.

    "kaiming" draws conv kernels from N(0, 2/fan_in) with zero biases;
    "zero_gate" additionally zeroes the second conv of each branch so the
    pre-sigmoid activations are exactly zero and the gate is exactly 0.5.
    """
    params = gate_template(channels, reduction)
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"init scheme must be one of {INIT_SCHEMES}, got {scheme!r}")
    rng = rng_stream(seed, STREAM_GATE)
    inner = inner_width(channels, reduction)
    for branch in (params.global_branch, params.local_branch):
        branch.conv1_kernel.data = rng.normal(0.0, math.sqrt(2.0 / channels), (channels, inner))
        kernel2 = rng.normal(0.0, math.sqrt(2.0 / inner), (inner, channels))
        # Multiplied, not zeroed: a negative draw leaves -0.0, which a params file records.
        branch.conv2_kernel.data = kernel2 * 0.0 if scheme == "zero_gate" else kernel2
    return params


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
