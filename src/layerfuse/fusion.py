"""Convex per-element fusion of two encoder layers, its systems, and the classifier head."""

from dataclasses import dataclass

import numpy as np

from .gate import (
    GateParams,
    check_gate_mode,
    check_variant,
    gate_forward,
    gate_template,
    init_gate_params,
)
from .seeding import STREAM_HEAD, rng_stream
from .tensor import (DimensionError, Tensor, _row_slices, broadcast_add, conv1x1, mean_pool_tokens,
                     mix, parameter, scale, sub)


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
    in "literal" mode.  Only the trailing (batch, tokens, channels) dims must
    match: leading axes broadcast, as in every op.
    """
    mean, difference = _mean_and_difference(l1, l2)
    weight = gate_forward(mean, params, mode, variant, training)
    # Evaluated as mean + (l1 - l2) * (g - 1/2): equal inputs and a gate of
    # exactly one half then reproduce l1 and the arithmetic mean bit-exactly.
    return mix(mean, difference, weight), weight


def _mean_and_difference(l1, l2):
    """(l1 + l2) / 2 and l1 - l2, all the mix reads of the layers.

    A call of its own, so layers a caller makes only to pass here are freed
    when it returns, before the gate runs: Python 3.10 keeps a call's
    arguments on the caller's stack until the call returns.
    """
    if l1.data.shape[-3:] != l2.data.shape[-3:]:
        raise DimensionError(
            f"fuse_layers: layer shapes differ, {l1.data.shape} vs {l2.data.shape}"
        )
    return scale(broadcast_add(l1, l2), 0.5), sub(l1, l2)


@dataclass
class FusionSystem:
    """A fusion-ready pairing of layer indices, gate parameters, and mode."""

    kind = "fusion"
    pair: LayerPair
    params: GateParams
    variant: str = "full"
    mode: str = "sigmoid"

    def __post_init__(self):
        check_variant(self.variant)
        check_gate_mode(self.mode)

    @classmethod
    def template(cls, get, integer):
        """A params file's system, zeros in every stored value; ``get`` reads a dotted name, ``integer`` a system key."""
        return cls(pair=LayerPair(integer("lower"), integer("upper")),
                   params=gate_template(integer("channels"), integer("reduction")),
                   variant=get("system.variant"), mode=get("system.gate_mode"))

    def config_id(self):
        return f"D_{self.pair.lower}"

    def describe(self):
        """The ``system`` block of a parameter file."""
        return {
            "kind": self.kind,
            "lower": self.pair.lower,
            "upper": self.pair.upper,
            "variant": self.variant,
            "gate_mode": self.mode,
            "channels": self.params.channels,
            "reduction": self.params.reduction,
        }

    def state(self):
        for name, owner, attribute in self.params.state():
            yield f"gate.{name}", owner, attribute

    def forward(self, l1, l2, training=False):
        return fuse_layers(l1, l2, self.params, self.mode, self.variant, training)

    def fused_batch(self, bank, rows, training=False):
        # Not ``self.forward``, which would keep the float64 layer copies alive through the gate.
        mean, difference = _mean_and_difference(Tensor(bank.layer(self.pair.lower)[rows]),
                                                Tensor(bank.layer(self.pair.upper)[rows]))
        return mix(mean, difference, gate_forward(mean, self.params, self.mode, self.variant, training))


@dataclass
class BaselineSystem:
    """Reference system: the top layer passes through untouched."""

    kind = "baseline"
    upper: int

    def __post_init__(self):
        if self.upper < 1:
            raise ValueError(f"baseline needs upper >= 1, got {self.upper}")

    @classmethod
    def template(cls, get, integer):
        return cls(upper=integer("upper"))

    def config_id(self):
        return "baseline"

    def describe(self):
        return {"kind": self.kind, "upper": self.upper}

    def state(self):
        return ()

    def fused_batch(self, bank, rows, training=False):
        return Tensor(bank.layer(self.upper)[rows])


# A params file's ``system.kind`` -> the class it names.
KINDS = {cls.kind: cls for cls in (FusionSystem, BaselineSystem)}


def eval_chunks(system, bank, rows):
    """Yield (part, chunk): the eval-mode output of ``system`` on ``rows[part]``, one slice of ``rows`` at a time.

    ``tensor._row_slices`` cuts ``rows`` as it cuts an op's rows, at
    ``tensor.CHUNK_VALUES`` values of one layer, so a forward's intermediates
    stay bounded whatever the row count: a chunk's graph sets the eval peak.
    Eval mode has no term across sentences (normalization applies its
    running statistics; pooling and the convolutions act per sentence), so
    the chunks concatenated equal one forward over all of ``rows``, bit for
    bit.  Each chunk's graph is freed before the next one is built.
    """
    rows = np.asarray(rows)
    for part in _row_slices((rows.size, *bank.shape[1:])):
        yield part, system.fused_batch(bank, rows[part], training=False).data


def sentence_embeddings(system, bank, rows):
    """Mean-pooled system output per sentence, (rows, channels), in eval mode one chunk of rows at a time."""
    return np.concatenate([mean_pool_tokens(Tensor(fused)).data[:, 0, :]
                           for _, fused in eval_chunks(system, bank, rows)])


def stored_values(system, head):
    """Where each value of a params file lives, the system's then ``head.*``: (dotted name, owner, attribute).

    ``save_params`` writes the values in this order and ``load_params`` reads them back through it.
    """
    yield from system.state()
    yield "head.weight", head, "weight"
    yield "head.bias", head, "bias"


def stored_arrays(system, head):
    """The ``stored_values`` walk as (dotted name, array), a tensor's ``.data`` in place of the tensor."""
    for name, owner, attribute in stored_values(system, head):
        value = getattr(owner, attribute)
        yield name, value.data if isinstance(value, Tensor) else value


def trainable(walk):
    """The tensors of a stored-value walk, by dotted name: the values ``train`` moves and ``gradcheck`` checks."""
    return {name: getattr(o, a) for name, o, a in walk if isinstance(getattr(o, a), Tensor)}


def build_fusion_system(pair, channels, variant="full", mode="sigmoid", seed=0):
    """Deterministically assemble a FusionSystem for the given seed."""
    params = init_gate_params(channels, seed=seed)
    return FusionSystem(pair=pair, params=params, variant=variant, mode=mode)


def build_system(lower, upper, channels, variant, mode, seed):
    """The baseline on ``upper`` when ``lower`` is None, else ``lower`` fused with ``upper``."""
    if lower is None:
        return BaselineSystem(upper=upper)
    return build_fusion_system(LayerPair(lower, upper), channels, variant, mode, seed)


@dataclass
class ClassifierHead:
    """Linear sentence classifier over pooled fused embeddings."""

    weight: Tensor
    bias: Tensor

    def logits(self, features):
        return conv1x1(features, self.weight, self.bias)


def init_head(channels, classes, seed=0):
    """Deterministic head init: N(0, 1/channels) weights, zero bias."""
    if channels < 1 or classes < 2:
        raise ValueError("head needs at least one channel and two classes")
    rng = rng_stream(seed, STREAM_HEAD)
    weight = rng.normal(0.0, np.sqrt(1.0 / channels), (channels, classes))
    return ClassifierHead(weight=parameter(weight), bias=parameter([0.0] * classes))
