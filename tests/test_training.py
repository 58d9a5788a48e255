"""Head, loss, optimizer, and the training loop."""

import numpy as np
import numpy.testing as npt
import pytest

from layerfuse import (
    AdamW,
    BaselineSystem,
    DataError,
    LayerPair,
    SyntheticTaskSpec,
    Tensor,
    TrainConfig,
    build_fusion_system,
    classification_metrics,
    evaluate,
    full_scale_config,
    generate_task,
    init_head,
    parameter,
    softmax_cross_entropy,
    train,
)
from layerfuse.tensor import backward

RNG = np.random.default_rng(55)

SMALL_TASK = SyntheticTaskSpec(
    train_sentences=64, test_sentences=32, channels=8, latent_dim=4,
    tokens=4, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=2,
)


@pytest.fixture(scope="module")
def small_banks():
    return generate_task(SMALL_TASK)


class TestCrossEntropy:
    def test_uniform_logits_loss(self):
        logits = Tensor(np.zeros((5, 1, 4)))
        loss = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        logits = parameter(RNG.normal(size=(4, 1, 3)))
        loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 1]))
        backward(loss)
        npt.assert_allclose(logits.grad.sum(axis=2), np.zeros((4, 1)), atol=1e-15)

    def test_label_validation(self):
        logits = Tensor(np.zeros((3, 1, 2)))
        with pytest.raises(DataError):
            softmax_cross_entropy(logits, np.array([0, 1]))
        with pytest.raises(DataError):
            softmax_cross_entropy(logits, np.array([0, 1, 2]))

    def test_large_logits_stable(self):
        logits = Tensor(np.array([[[1000.0, -1000.0]], [[-1000.0, 1000.0]]]))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(float(loss.data))


class TestAdamW:
    def test_single_step_matches_formula(self):
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1)
        p = parameter(np.array([2.0]))
        p.grad = np.array([0.5])
        AdamW({"p": p}, cfg).step()
        m_hat = 0.5  # (0.1 * 0.5) / (1 - 0.9)
        v_hat = 0.25  # (0.001 * 0.25) / (1 - 0.999)
        expected = 2.0 - 0.01 * (m_hat / (np.sqrt(v_hat) + cfg.eps)) - 0.01 * 0.1 * 2.0
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_leaves_only_decay(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        p = parameter(np.array([4.0]))
        p.grad = np.array([0.0])
        AdamW({"p": p}, cfg).step()
        assert p.data[0] == 4.0 - 0.1 * 0.01 * 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)

    def test_config_from_dict(self):
        # An int is a valid float; omitted fields come from the base.
        cfg = TrainConfig.from_dict({"learning_rate": 1, "epochs": 2}, full_scale_config(seed=3))
        assert (cfg.learning_rate, cfg.epochs, cfg.seed) == (1, 2, 3)
        for doc, named in [({"seed": 1.0}, "seed"), ({"eps": None}, "eps"), ([], "JSON object"),
                           ({"epochs": -1}, "epochs")]:
            with pytest.raises(ValueError, match=named):
                TrainConfig.from_dict(doc)

    def test_full_scale_preset(self):
        cfg = full_scale_config(seed=3)
        assert cfg.learning_rate == 2e-5
        assert cfg.batch_size == 32 and cfg.epochs == 5 and cfg.seed == 3


class TestTrainLoop:
    def test_zero_epochs_leaves_parameters_untouched(self, small_banks):
        source, _ = small_banks
        system = build_fusion_system(LayerPair(1, 3), 8, seed=1)
        head = init_head(8, source.num_classes, seed=1)
        before = {n: t.data.copy() for n, t in {**system.parameters(), **head.parameters()}.items()}
        curve = train(system, head, source, TrainConfig(epochs=0, seed=1))
        assert curve == []
        for name, tensor in {**system.parameters(), **head.parameters()}.items():
            npt.assert_array_equal(tensor.data, before[name])

    def test_null_update_keeps_loss(self, small_banks):
        # Full-batch steps so every epoch normalizes over the same sample
        # set; the loss may then move only by summation-order noise.
        source, _ = small_banks
        system = build_fusion_system(LayerPair(1, 3), 8, seed=1)
        head = init_head(8, source.num_classes, seed=1)
        cfg = TrainConfig(learning_rate=0.0, weight_decay=0.0, epochs=3, seed=1,
                          batch_size=source.split_indices("train").size)
        curve = train(system, head, source, cfg)
        assert abs(curve[-1] - curve[0]) < 1e-12

    def test_training_is_deterministic(self, small_banks):
        source, _ = small_banks
        curves = []
        for _ in range(2):
            system = build_fusion_system(LayerPair(1, 3), 8, seed=5)
            head = init_head(8, source.num_classes, seed=5)
            curves.append(train(system, head, source, TrainConfig(seed=5, epochs=2)))
        assert curves[0] == curves[1]

    def test_separable_task_converges(self):
        spec = SyntheticTaskSpec(
            num_classes=2, noise_std=0.0, train_sentences=100, test_sentences=20,
            channels=8, latent_dim=4, tokens=4, n_layers=2, invariance=(0.5, 0.5), seed=4,
        )
        source, _ = generate_task(spec)
        system = BaselineSystem(upper=2)
        head = init_head(8, 2, seed=4)
        train(system, head, source, TrainConfig(epochs=50, seed=4))
        metrics = evaluate(system, head, source, split="train")
        assert metrics.accuracy >= 0.99

    def test_loss_decreases_on_learnable_task(self, small_banks):
        source, _ = small_banks
        system = BaselineSystem(upper=1)
        head = init_head(8, source.num_classes, seed=0)
        curve = train(system, head, source, TrainConfig(epochs=5, seed=0))
        assert curve[-1] < curve[0]

    def test_missing_train_split_rejected(self, small_banks):
        source, _ = small_banks
        from layerfuse import LayerBank

        test_only = LayerBank(
            layers=[layer[source.split_indices("test")] for layer in source.layers],
            labels=source.labels[source.split_indices("test")],
            languages=["src"] * 32,
            splits=["test"] * 32,
        )
        with pytest.raises(DataError, match="train"):
            train(BaselineSystem(upper=1), init_head(8, 4, 0), test_only, TrainConfig())

    def test_one_row_tail_batch_joins_previous(self):
        source, _ = generate_task(SyntheticTaskSpec(
            train_sentences=33, test_sentences=8, channels=8, latent_dim=4,
            tokens=4, n_layers=2, invariance=(0.9, 0.1), seed=4,
        ))
        system = build_fusion_system(LayerPair(1, 2), 8, seed=0)
        curve = train(system, init_head(8, source.num_classes, 0), source,
                      TrainConfig(epochs=2, batch_size=32))
        assert len(curve) == 2 and np.all(np.isfinite(curve))

    def test_single_train_sentence_rejected(self, small_banks):
        source, _ = small_banks
        from layerfuse import LayerBank

        rows = np.concatenate([source.split_indices("train")[:1], source.split_indices("test")])
        one_train = LayerBank(
            layers=[layer[rows] for layer in source.layers],
            labels=source.labels[rows],
            languages=["src"] * rows.size,
            splits=[source.splits[i] for i in rows],
        )
        system = build_fusion_system(LayerPair(1, 3), 8, seed=0)
        with pytest.raises(DataError, match="1 sentences in the train split"):
            train(system, init_head(8, 4, 0), one_train, TrainConfig())

    def test_pair_outside_bank_rejected(self, small_banks):
        source, _ = small_banks
        system = build_fusion_system(LayerPair(2, 9), 8, seed=0)
        with pytest.raises(DataError, match="layers 1..3"):
            train(system, init_head(8, 4, 0), source, TrainConfig(epochs=1))


class TestMetrics:
    def test_perfect_predictions(self):
        m = classification_metrics(np.array([0, 1, 2]), np.array([0, 1, 2]))
        assert m.accuracy == 1.0 and m.micro_f1 == 1.0 and m.count == 3

    def test_all_wrong(self):
        m = classification_metrics(np.array([1, 2, 0]), np.array([0, 1, 2]))
        assert m.accuracy == 0.0 and m.micro_f1 == 0.0

    def test_pooled_counts_example(self):
        # Per-class counts pool to TP=2, FP=1, FN=1 -> micro-F1 = 4/6.
        m = classification_metrics(np.array([0, 1, 1]), np.array([0, 1, 0]))
        assert m.micro_f1 == pytest.approx(2 * 2 / (2 * 2 + 1 + 1), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            classification_metrics(np.array([0, 1]), np.array([0, 1, 2]))
        with pytest.raises(DataError):
            classification_metrics(np.array([]), np.array([]))

    def test_evaluate_missing_split(self, small_banks):
        source, _ = small_banks
        with pytest.raises(DataError, match="dev"):
            evaluate(BaselineSystem(upper=1), init_head(8, 4, 0), source, split="dev")
