"""Synthetic bilingual task generation."""

import numpy as np
import numpy.testing as npt
import pytest

from layerfuse import BaselineSystem, SyntheticTaskSpec, TaskSpecError, generate_task
from layerfuse.analysis import avg_cross_lingual_similarity

SMALL = dict(train_sentences=30, test_sentences=12, channels=8, latent_dim=4, tokens=3)


def test_fully_invariant_noiseless_banks_identical():
    spec = SyntheticTaskSpec(
        invariance=(1.0, 1.0, 1.0), n_layers=3, noise_std=0.0, seed=5, **SMALL
    )
    source, target = generate_task(spec)
    for a, b in zip(source.layers, target.layers):
        npt.assert_array_equal(a, b)
    npt.assert_array_equal(source.labels, target.labels)


def test_single_invariant_layer_unit_similarity():
    spec = SyntheticTaskSpec(
        invariance=(0.2, 1.0, 0.1), n_layers=3, noise_std=0.0, seed=6, **SMALL
    )
    source, target = generate_task(spec)
    report = avg_cross_lingual_similarity(BaselineSystem(upper=2), source, [target], pairs=None)
    assert report.average == 1.0
    low = avg_cross_lingual_similarity(BaselineSystem(upper=3), source, [target], pairs=None)
    assert low.average < 1.0


def test_balanced_labels_two_classes():
    spec = SyntheticTaskSpec(num_classes=2, seed=0)
    source, _ = generate_task(spec)
    for split in ("train", "test"):
        rows = source.split_indices(split)
        counts = np.bincount(source.labels[rows], minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_balanced_labels_odd_split():
    spec = SyntheticTaskSpec(
        num_classes=3, train_sentences=31, test_sentences=10,
        channels=8, latent_dim=4, tokens=3, n_layers=2, invariance=(0.5, 0.5), seed=1,
    )
    source, _ = generate_task(spec)
    counts = np.bincount(source.labels[source.split_indices("train")], minlength=3)
    assert counts.max() - counts.min() <= 1


def test_deterministic_per_seed():
    spec = SyntheticTaskSpec(seed=9, **SMALL, n_layers=2, invariance=(0.8, 0.2))
    first_src, first_tgt = generate_task(spec)
    second_src, second_tgt = generate_task(spec)
    for a, b in zip(first_src.layers + first_tgt.layers, second_src.layers + second_tgt.layers):
        npt.assert_array_equal(a, b)


def test_different_seeds_differ():
    base = dict(**SMALL, n_layers=2, invariance=(0.8, 0.2))
    a, _ = generate_task(SyntheticTaskSpec(seed=1, **base))
    b, _ = generate_task(SyntheticTaskSpec(seed=2, **base))
    assert not np.array_equal(a.layers[0], b.layers[0])


def test_values_are_float32_representable():
    source, _ = generate_task(SyntheticTaskSpec(seed=3))
    for layer in source.layers:
        npt.assert_array_equal(layer, layer.astype(np.float32).astype(np.float64))


def test_split_and_language_tags():
    spec = SyntheticTaskSpec(seed=0)
    source, target = generate_task(spec)
    assert source.split_indices("train").size == 500
    assert source.split_indices("test").size == 200
    assert set(source.languages) == {"src"}
    assert set(target.languages) == {"tgt"}
    assert source.shape == (700, 8, 32)
    assert source.n_layers == 6


def test_spec_validation_errors():
    with pytest.raises(TaskSpecError):
        SyntheticTaskSpec(num_classes=1)
    with pytest.raises(TaskSpecError):
        SyntheticTaskSpec(channels=0)
    with pytest.raises(TaskSpecError):
        SyntheticTaskSpec(latent_dim=0)
    with pytest.raises(TaskSpecError):
        SyntheticTaskSpec(invariance=(0.5,))
    with pytest.raises(TaskSpecError):
        SyntheticTaskSpec(invariance=(0.5, 0.5, 0.5, 0.5, 0.5, 1.5))
    with pytest.raises(TaskSpecError):
        SyntheticTaskSpec(noise_std=-0.1)
    with pytest.raises(TaskSpecError):
        SyntheticTaskSpec.from_dict({"num_classes": 4, "bogus": 1})


@pytest.mark.parametrize("doc, named", [
    ({"tokens": "8"}, "field tokens must be an integer"),
    ({"seed": True}, "field seed must be an integer"),
    ({"noise_std": "0.1"}, "field noise_std must be a number"),
    ({"invariance": "0.5"}, "field invariance must be a list of numbers"),
    ({"invariance": [0.5, None, 0.9, 0.6, 0.3, 0.1]}, "field invariance must be a list"),
    ([["tokens", 8]], "task spec must be a JSON object"),
])
def test_spec_from_dict_json_types(doc, named):
    with pytest.raises(TaskSpecError, match=named):
        SyntheticTaskSpec.from_dict(doc)


def test_spec_round_trips_through_dict():
    spec = SyntheticTaskSpec(seed=12, noise_std=0.25)
    assert SyntheticTaskSpec.from_dict(spec.to_dict()) == spec
