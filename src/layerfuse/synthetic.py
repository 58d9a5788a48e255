"""Synthetic bilingual classification tasks with a controllable invariance profile.

Each sentence is a bag of latent token vectors around a class prototype.  A
layer with invariance lambda mixes a map shared across both languages with a
language-specific rotated map: high-lambda layers look the same in both
languages, low-lambda layers do not.  Parallel sentences share their latents
exactly, so the cross-language structure is known by construction.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .bank import LayerBank, check_document
from .seeding import STREAM_TASK, rng_stream

SOURCE_LANGUAGE = "src"
TARGET_LANGUAGE = "tgt"

_PROTOTYPES, _LABELS, _LATENTS, _SHARED, _ROTATION, _MIX, _NOISE = range(7)


class TaskSpecError(ValueError):
    """A task specification violates its invariants."""


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Generator settings; the defaults give a mid layer that carries most of
    the cross-language signal (lambda 0.9) under a top layer that carries
    little (lambda 0.1)."""

    num_classes: int = 4
    latent_dim: int = 16
    tokens: int = 8
    channels: int = 32
    n_layers: int = 6
    train_sentences: int = 500
    test_sentences: int = 200
    invariance: tuple = (0.5, 0.7, 0.9, 0.6, 0.3, 0.1)
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise TaskSpecError("num_classes must be at least 2")
        if min(self.latent_dim, self.tokens, self.channels, self.n_layers) < 1:
            raise TaskSpecError("latent_dim, tokens, channels, n_layers must be positive")
        if self.train_sentences < 1 or self.test_sentences < 1:
            raise TaskSpecError("both splits need at least one sentence")
        if len(self.invariance) != self.n_layers:
            raise TaskSpecError(
                f"invariance has {len(self.invariance)} entries for {self.n_layers} layers"
            )
        if any(not 0.0 <= lam <= 1.0 for lam in self.invariance):
            raise TaskSpecError("every invariance value must lie in [0, 1]")
        if not self.noise_std >= 0:
            raise TaskSpecError("noise_std must be non-negative")
        object.__setattr__(self, "invariance", tuple(float(x) for x in self.invariance))

    def to_dict(self):
        doc = asdict(self)
        doc["invariance"] = list(self.invariance)
        return doc

    @classmethod
    def from_dict(cls, doc):
        check_document(cls, doc, TaskSpecError, "task spec")
        return cls(**doc)


def _balanced_labels(rng, count, classes):
    labels = np.arange(count) % classes
    return labels[rng.permutation(count)]


def _random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@np.errstate(over="ignore")  # only a huge noise_std overflows, and that layer is refused by name
def generate_task(spec):
    """Build parallel (source, target) banks for the spec, deterministically.

    Both banks share labels, latents, and the per-layer shared map; only the
    language-specific map, its rotation, and the additive noise differ.
    Layers are float32, as a bank file stores them, so bank files round-trip
    bit-exactly; a layer that float32 cannot hold raises TaskSpecError.
    """
    k, d = spec.num_classes, spec.latent_dim
    total = spec.train_sentences + spec.test_sentences
    prototypes = rng_stream(spec.seed, STREAM_TASK, _PROTOTYPES).normal(size=(k, d))
    label_rng = rng_stream(spec.seed, STREAM_TASK, _LABELS)
    labels = np.concatenate(
        [
            _balanced_labels(label_rng, spec.train_sentences, k),
            _balanced_labels(label_rng, spec.test_sentences, k),
        ]
    )
    latents = prototypes[labels][:, None, :] + rng_stream(
        spec.seed, STREAM_TASK, _LATENTS
    ).normal(size=(total, spec.tokens, d))
    shared = rng_stream(spec.seed, STREAM_TASK, _SHARED).normal(
        size=(spec.n_layers, d, spec.channels)
    ) / np.sqrt(d)
    splits = ["train"] * spec.train_sentences + ["test"] * spec.test_sentences
    banks = []
    for lang_index, language in enumerate((SOURCE_LANGUAGE, TARGET_LANGUAGE)):
        rotation = _random_orthogonal(
            rng_stream(spec.seed, STREAM_TASK, _ROTATION, lang_index), d
        )
        mix = rng_stream(spec.seed, STREAM_TASK, _MIX, lang_index).normal(
            size=(spec.n_layers, d, spec.channels)
        ) / np.sqrt(d)
        rotated = latents @ rotation.T
        layers = []
        for layer_index, lam in enumerate(spec.invariance):
            features = lam * (latents @ shared[layer_index])
            if lam < 1.0:
                features = features + (1.0 - lam) * (rotated @ mix[layer_index])
            if spec.noise_std > 0.0:
                noise = rng_stream(
                    spec.seed, STREAM_TASK, _NOISE, lang_index, layer_index
                ).normal(size=(total, spec.tokens, spec.channels))
                features = features + spec.noise_std * noise
            layer = features.astype(np.float32)
            if not np.isfinite(layer).all():
                raise TaskSpecError(f"layer {layer_index + 1} of the {language!r} bank overflows float32 "
                                    f"(noise_std {spec.noise_std:g})")
            layers.append(layer)
        banks.append(
            LayerBank(
                layers=layers,
                labels=labels.copy(),
                languages=[language] * total,
                splits=list(splits),
            )
        )
    return banks[0], banks[1]
