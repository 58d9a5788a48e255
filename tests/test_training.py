"""Head, loss, optimizer, and the training loop."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfuse import (
    AdamW,
    BaselineSystem,
    DataError,
    LayerBank,
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
    save_params,
    softmax_cross_entropy,
    train,
)
from layerfuse import training
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

    def test_matches_per_tensor_update(self):
        # Three steps of the flat optimizer against the per-tensor update it
        # replaced; "skipped" has no gradient on the second step.
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.1)
        rng = np.random.default_rng(8)
        shapes = {"kernel": (3, 4), "bias": (4,), "skipped": (2,)}
        params = {name: parameter(rng.normal(size=shape)) for name, shape in shapes.items()}
        reference = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        optimizer = AdamW(params, cfg)
        for step in range(1, 4):
            correct1, correct2 = 1.0 - cfg.beta1 ** step, 1.0 - cfg.beta2 ** step
            for name, p in params.items():
                p.grad = None if (name, step) == ("skipped", 2) else rng.normal(size=shapes[name])
                grad = p.grad if p.grad is not None else np.zeros_like(p.data)
                m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * grad
                v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * grad * grad
                update = (m[name] / correct1) / (np.sqrt(v[name] / correct2) + cfg.eps)
                reference[name] = (
                    reference[name]
                    - cfg.learning_rate * update
                    - cfg.learning_rate * cfg.weight_decay * reference[name]
                )
            optimizer.step()
            for name, p in params.items():
                assert p.data.tobytes() == reference[name].tobytes(), (name, step)

    def test_parameters_are_views_of_one_buffer(self):
        system = build_fusion_system(LayerPair(1, 2), 8, seed=0)
        params = {**system.parameters(), **init_head(8, 3, seed=0).parameters()}
        before = {name: p.data.copy() for name, p in params.items()}
        optimizer = AdamW(params, TrainConfig())
        assert optimizer.flat.size == sum(p.data.size for p in params.values())
        for name, p in params.items():
            assert p.data.base is optimizer.flat and p.data.flags.writeable
            assert p.data.tobytes() == before[name].tobytes()

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
                           ({"epochs": -1}, "epochs"), ({"eps": 0}, "eps"),
                           ({"weight_decay": -0.5}, "weight_decay")]:
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

    def test_keeps_one_graph_alive(self, small_banks, monkeypatch):
        # A Tensor takes no weak reference, but the loss node holds its data
        # array: once the array is gone, so is the node and the graph under it.
        source, _ = small_banks
        losses, alive = [], []
        batch_loss = training._batch_loss

        def tracked(*args, **kwargs):
            alive.append(bool(losses) and losses[-1]() is not None)
            loss = batch_loss(*args, **kwargs)
            losses.append(weakref.ref(loss.data))
            return loss

        monkeypatch.setattr(training, "_batch_loss", tracked)
        system = build_fusion_system(LayerPair(1, 3), 8, seed=0)
        train(system, init_head(8, source.num_classes, 0), source, TrainConfig(epochs=2))
        assert alive == [False] * 4  # 2 epochs of 2 batches

    def test_pruned_backward_trains_like_the_full_pass(self, small_banks, monkeypatch, tmp_path):
        source, _ = small_banks

        def run(name):
            system = build_fusion_system(LayerPair(1, 3), 8, mode="literal", seed=2)
            head = init_head(8, source.num_classes, seed=2)
            curve = train(system, head, source, TrainConfig(epochs=2, seed=2))
            save_params(system, head, tmp_path / name)
            return curve, (tmp_path / name).read_bytes()

        pruned = run("pruned.json")
        monkeypatch.setattr(training, "backward", lambda loss, wrt: backward(loss))
        assert run("full.json") == pruned

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

    @pytest.mark.parametrize("case, named", [
        ("overflowing bank", "gate.global.bn1.running_var"),
        ("overflowing decay", "head.weight"),
    ])
    def test_non_finite_state_named(self, case, named):
        # Either case used to train with finite losses and fail only when
        # save_params refused the non-finite value.
        rng = np.random.default_rng(3)
        scale = 1e200 if case == "overflowing bank" else 1.0
        bank = LayerBank(
            layers=[rng.normal(size=(8, 4, 8)) * scale for _ in range(2)],
            labels=np.arange(8) % 2, languages=["src"] * 8, splits=["train"] * 8,
        )
        if case == "overflowing bank":
            system, cfg = build_fusion_system(LayerPair(1, 2), 8, seed=0), TrainConfig()
        else:
            system, cfg = BaselineSystem(upper=2), TrainConfig(learning_rate=1e10, weight_decay=1e300)
        head = init_head(8, 2, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=f"^training diverged: non-finite {named} at epoch 1, batch 1$"
        ):
            train(system, head, bank, cfg)

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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda k: st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=60
    )))
    def test_micro_f1_equals_pooled_counts_and_accuracy(self, pairs):
        # One label per sentence makes every error one false positive and one
        # false negative, so pooled micro-F1 = 2TP / (2TP + 2(N - TP)) = TP / N,
        # correctly rounded either way: the same bits as accuracy.
        predictions, labels = (np.array(column) for column in zip(*pairs))
        true_pos = false_pos = false_neg = 0
        for cls in np.unique(np.concatenate([predictions, labels])):
            true_pos += int(np.sum((predictions == cls) & (labels == cls)))
            false_pos += int(np.sum((predictions == cls) & (labels != cls)))
            false_neg += int(np.sum((predictions != cls) & (labels == cls)))
        pooled = 2.0 * true_pos / (2.0 * true_pos + false_pos + false_neg)
        metrics = classification_metrics(predictions, labels)
        assert metrics.micro_f1.hex() == pooled.hex() == metrics.accuracy.hex()

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            classification_metrics(np.array([0, 1]), np.array([0, 1, 2]))
        with pytest.raises(DataError):
            classification_metrics(np.array([]), np.array([]))

    def test_evaluate_missing_split(self, small_banks):
        source, _ = small_banks
        with pytest.raises(DataError, match="dev"):
            evaluate(BaselineSystem(upper=1), init_head(8, 4, 0), source, split="dev")
