"""Two-layer fusion algebra and the fusion-system plumbing."""

import weakref
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from layerfuse import (
    GATE_MODES,
    VARIANTS,
    BaselineSystem,
    DimensionError,
    LayerBank,
    LayerPair,
    SyntheticTaskSpec,
    Tensor,
    backward,
    build_fusion_system,
    build_system,
    elementwise_mul,
    fuse_layers,
    generate_task,
    init_gate_params,
    init_head,
    save_params,
    sentence_embeddings,
    trainable,
    write_bank,
)
from layerfuse import fusion
from layerfuse import tensor as tensor_module
from layerfuse.cli import main
from layerfuse.fusion import FusionSystem, eval_chunks, stored_arrays, stored_values
from layerfuse.gate import gate_forward
from layerfuse.training import evaluate, sentence_loss
from tensor_helpers import tensor_sum

RNG = np.random.default_rng(31)


class TestLayerPair:
    def test_valid(self):
        pair = LayerPair(3, 12)
        assert (pair.lower, pair.upper) == (3, 12)

    def test_equal_indices_allowed(self):
        LayerPair(12, 12)

    @pytest.mark.parametrize("lower,upper", [(0, 5), (6, 5), (-1, 2)])
    def test_invalid(self, lower, upper):
        with pytest.raises(ValueError):
            LayerPair(lower, upper)


@pytest.mark.parametrize("upper", [0, -1])
def test_baseline_refuses_a_layer_below_one(upper):
    with pytest.raises(ValueError, match=f"^baseline needs upper >= 1, got {upper}$"):
        BaselineSystem(upper=upper)


@pytest.mark.parametrize("channels, classes", [(0, 3), (8, 1)])
def test_head_refuses_no_channel_or_one_class(channels, classes):
    with pytest.raises(ValueError, match="^head needs at least one channel and two classes$"):
        init_head(channels, classes)


class TestFusionAlgebra:
    @pytest.mark.parametrize("mode", ["sigmoid", "literal"])
    def test_identity_bit_exact(self, mode):
        for seed in range(10):
            params = init_gate_params(8, 4, "kaiming", seed=seed)
            x = RNG.normal(size=(2, 4, 8)) * (10.0 ** RNG.integers(-3, 4))
            fused, _ = fuse_layers(Tensor(x.copy()), Tensor(x.copy()), params, mode=mode)
            npt.assert_array_equal(fused.data, x)

    def test_zero_gate_exact_mean(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        for _ in range(10):
            l1 = RNG.normal(size=(3, 4, 8)) * (10.0 ** RNG.integers(-4, 5))
            l2 = RNG.normal(size=(3, 4, 8)) * (10.0 ** RNG.integers(-4, 5))
            fused, _ = fuse_layers(Tensor(l1), Tensor(l2), params, mode="sigmoid")
            npt.assert_array_equal(fused.data, (l1 + l2) / 2)

    def test_sigmoid_mode_on_zero_one_inputs(self):
        params = init_gate_params(8, 4, "kaiming", seed=1)
        l1 = Tensor(np.zeros((2, 3, 8)))
        l2 = Tensor(np.ones((2, 3, 8)))
        fused, _ = fuse_layers(l1, l2, params, mode="sigmoid")
        assert np.all(fused.data > 0.0) and np.all(fused.data < 1.0)

    def test_literal_mode_unit_gate(self):
        # Mean 2 everywhere with zeroed second convs: weight = 2 * 0.5 = 1,
        # so the fusion returns the lower layer exactly.
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        l1 = Tensor(np.full((2, 3, 8), 3.0))
        l2 = Tensor(np.full((2, 3, 8), 1.0))
        fused, weight = fuse_layers(l1, l2, params, mode="literal")
        npt.assert_array_equal(weight.data, np.ones((2, 3, 8)))
        npt.assert_array_equal(fused.data, l1.data)

    def test_convexity_sample(self):
        for seed in range(500):
            params = init_gate_params(4, 4, "kaiming", seed=seed)
            l1 = RNG.normal(size=(1, 3, 4))
            l2 = RNG.normal(size=(1, 3, 4))
            fused, _ = fuse_layers(Tensor(l1), Tensor(l2), params, mode="sigmoid")
            assert np.all(fused.data >= np.minimum(l1, l2))
            assert np.all(fused.data <= np.maximum(l1, l2))

    def test_swap_symmetry_algebraic(self):
        mean = RNG.normal(size=(2, 3, 4))
        delta = RNG.normal(size=(2, 3, 4))
        gate = RNG.uniform(0.01, 0.99, size=(2, 3, 4))
        forward = mean + delta * (gate - 0.5)
        swapped = mean + (-delta) * ((1.0 - gate) - 0.5)
        npt.assert_allclose(forward, swapped, rtol=1e-12, atol=1e-12)

    def test_zero_gradient_at_identity(self):
        x = RNG.normal(size=(2, 4, 8))
        weights = Tensor(RNG.normal(size=(2, 4, 8)))
        for mode in ("sigmoid", "literal"):
            params = init_gate_params(8, 4, "kaiming", seed=7)
            fused, _ = fuse_layers(Tensor(x.copy()), Tensor(x.copy()), params, mode=mode)
            backward(tensor_sum(elementwise_mul(fused, weights)))
            for name, tensor in trainable(params.state()).items():
                assert np.all(tensor.grad == 0.0), f"{mode} {name} gradient not exactly zero"

    def test_shape_preserved(self):
        params = init_gate_params(8, 4, "kaiming", seed=0)
        fused, _ = fuse_layers(Tensor(RNG.normal(size=(3, 5, 8))),
                               Tensor(RNG.normal(size=(3, 5, 8))), params)
        assert fused.data.shape == (3, 5, 8)

    def test_shape_mismatch(self):
        params = init_gate_params(8, 4, "kaiming", seed=0)
        with pytest.raises(DimensionError):
            fuse_layers(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 8))), params)

    @pytest.mark.parametrize("variant", ["global", "local"])
    def test_variants_fuse(self, variant):
        params = init_gate_params(8, 4, "kaiming", seed=0)
        l1 = RNG.normal(size=(2, 4, 8))
        l2 = RNG.normal(size=(2, 4, 8))
        fused, _ = fuse_layers(Tensor(l1), Tensor(l2), params, variant=variant)
        assert fused.data.shape == (2, 4, 8)
        assert np.all(fused.data >= np.minimum(l1, l2) - 1e-12)
        assert np.all(fused.data <= np.maximum(l1, l2) + 1e-12)


class TestFusionSystem:
    def test_identity_pair_returns_upper_layer(self):
        system = build_fusion_system(LayerPair(6, 6), 8, seed=0)
        x = RNG.normal(size=(2, 3, 8))
        fused, _ = system.forward(Tensor(x.copy()), Tensor(x.copy()))
        npt.assert_array_equal(fused.data, x)

    def test_same_seed_bit_identical_systems(self):
        a = build_fusion_system(LayerPair(2, 6), 8, seed=4)
        b = build_fusion_system(LayerPair(2, 6), 8, seed=4)
        for (name_a, ta), (_, tb) in zip(trainable(a.state()).items(), trainable(b.state()).items()):
            npt.assert_array_equal(ta.data, tb.data, err_msg=name_a)

    def test_global_variant_token_constant_gate(self):
        system = build_fusion_system(LayerPair(1, 2), 8, variant="global", seed=1)
        _, weight = system.forward(Tensor(RNG.normal(size=(2, 5, 8))),
                                   Tensor(RNG.normal(size=(2, 5, 8))))
        assert weight.data.shape == (2, 1, 8)

    def test_training_call_leaves_no_mode_behind(self):
        # A training forward must not make a later plain call use batch
        # statistics or move the running estimates.
        system = build_fusion_system(LayerPair(1, 2), 8, seed=3)
        l1 = Tensor(RNG.normal(size=(4, 3, 8)))
        l2 = Tensor(RNG.normal(size=(4, 3, 8)))
        system.forward(l1, l2, training=True)
        before = [getattr(owner, attr).copy() for name, owner, attr in system.state() if "running_" in name]
        fused, _ = fuse_layers(l1, l2, system.params)
        after = [getattr(owner, attr) for name, owner, attr in system.state() if "running_" in name]
        assert len(after) == 8
        for kept, now in zip(before, after):
            npt.assert_array_equal(now, kept)
        npt.assert_array_equal(fused.data, system.forward(l1, l2)[0].data)

    def test_invalid_variant_and_mode(self):
        with pytest.raises(ValueError):
            build_fusion_system(LayerPair(1, 2), 8, variant="none")
        with pytest.raises(ValueError):
            build_fusion_system(LayerPair(1, 2), 8, mode="none")

    def test_config_id(self):
        assert build_fusion_system(LayerPair(3, 6), 8).config_id() == "D_3"


def _stored_bytes(system):
    head = init_head(8, 3, seed=0)
    values = {name: getattr(owner, attr) for name, owner, attr in stored_values(system, head)}
    return {name: np.asarray(v.data if isinstance(v, Tensor) else v).tobytes() for name, v in values.items()}


class TestBuildSystem:
    def test_no_lower_layer_is_the_baseline(self):
        assert build_system(None, 4, 8, "full", "sigmoid", 3) == BaselineSystem(upper=4)

    @pytest.mark.parametrize("lower,variant,mode,seed", [
        (1, "full", "sigmoid", 0), (4, "local", "literal", 5), (2, "global", "sigmoid", 9),
    ])
    def test_a_lower_layer_is_the_fusion_system(self, lower, variant, mode, seed):
        built = build_system(lower, 4, 8, variant, mode, seed)
        expected = build_fusion_system(LayerPair(lower, 4), 8, variant=variant, mode=mode, seed=seed)
        assert built.describe() == expected.describe()
        assert _stored_bytes(built) == _stored_bytes(expected)


class TestGatherWidening:
    # Bank layers stay float32, as a bank file stores them; Tensor widens the
    # gathered rows to float64, which is exact, so every op computes as it
    # would on a float64 copy of the bank.
    SPEC = SyntheticTaskSpec(
        train_sentences=10, test_sentences=4, channels=8, latent_dim=3,
        tokens=3, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=5,
    )

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("lower,variant,mode", [
        *((1, variant, mode) for variant in VARIANTS for mode in GATE_MODES),
        (None, "full", "sigmoid"),
    ])
    def test_float32_bank_fuses_as_its_float64_copy(self, lower, variant, mode, training):
        bank = generate_task(self.SPEC)[0]
        wide = LayerBank(
            layers=[layer.astype(np.float64) for layer in bank.layers],
            labels=bank.labels, languages=bank.languages, splits=bank.splits,
        )
        assert [layer.dtype for layer in bank.layers + wide.layers] == [np.float32] * 3 + [np.float64] * 3
        rows = np.array([6, 0, 3, 11, 2])
        fused = [
            build_system(lower, 3, 8, variant, mode, seed=4).fused_batch(b, rows, training).data
            for b in (bank, wide)
        ]
        assert fused[0].dtype == np.float64
        assert fused[0].tobytes() == fused[1].tobytes()

    @pytest.mark.parametrize("variant,mode", [("full", "sigmoid"), ("local", "literal")])
    def test_layer_copies_are_freed_before_the_gate_runs(self, monkeypatch, variant, mode):
        # The graph reads only the layers' mean and difference, so the two
        # float64 copies of the gathered rows must be gone by the gate.
        copies, alive = [], []

        def recording_tensor(data):
            made = Tensor(data)
            copies.append(weakref.ref(made.data))
            return made

        def recording_gate(*args, **kwargs):
            alive.append([ref() is not None for ref in copies])
            return gate_forward(*args, **kwargs)

        monkeypatch.setattr(fusion, "Tensor", recording_tensor)
        monkeypatch.setattr(fusion, "gate_forward", recording_gate)
        system = build_system(1, 3, 8, variant, mode, seed=4)
        system.fused_batch(generate_task(self.SPEC)[0], np.array([6, 0, 3, 11, 2]), training=True)
        assert len(copies) == 2
        assert alive == [[False, False]]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", GATE_MODES)
def test_gradcheck_forward_is_the_path_train_runs(variant, mode):
    # gradcheck differentiates ``FusionSystem.forward``; train runs ``fused_batch``.
    spec = SyntheticTaskSpec(train_sentences=10, test_sentences=4, channels=8, latent_dim=3,
                             tokens=3, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=5)
    bank = generate_task(spec)[0]
    rows = np.array([6, 0, 3, 11, 2])
    systems = [build_system(1, 3, 8, variant, mode, 4) for _ in range(2)]
    heads = [init_head(8, spec.num_classes, 4) for _ in range(2)]
    fused = [systems[0].fused_batch(bank, rows, training=True),
             systems[1].forward(Tensor(bank.layer(1)[rows]), Tensor(bank.layer(3)[rows]), training=True)[0]]
    assert fused[0].data.tobytes() == fused[1].data.tobytes()
    grads, stored = [], []
    for system, head, out in zip(systems, heads, fused):
        params = trainable(stored_values(system, head))
        backward(sentence_loss(out, head, bank.labels[rows]), wrt=params.values())
        grads.append({name: p.grad.tobytes() for name, p in params.items()})
        stored.append({name: np.asarray(value).tobytes() for name, value in stored_arrays(system, head)})
    assert grads[0] == grads[1]
    assert stored[0] == stored[1]


class TestEvalChunks:
    # 23 sentences of (3, 8): T*C = 24 values a row, so chunks of 5 rows end
    # in a partial one.
    SPEC = SyntheticTaskSpec(
        train_sentences=12, test_sentences=11, channels=8, latent_dim=3,
        tokens=3, n_layers=3, invariance=(0.9, 0.5, 0.1), seed=8,
    )
    ROW_VALUES = 3 * 8
    # Chunk sizes in values: one row (as the floor and exactly), and five rows.
    CHUNK_VALUES = [1, ROW_VALUES, 5 * ROW_VALUES]
    SYSTEMS = [*((1, variant, mode) for variant in VARIANTS for mode in GATE_MODES),
               (None, "full", "sigmoid")]

    @staticmethod
    def _system(lower, variant, mode):
        """A system whose eval-mode normalization applies running statistics off their init."""
        system = build_system(lower, 3, 8, variant, mode, seed=4)
        rng = np.random.default_rng(12)
        for name, owner, attr in system.state():
            value = getattr(owner, attr)
            if name.endswith("running_mean"):
                value[...] = rng.normal(size=value.shape)
            elif name.endswith("running_var"):
                value[...] = rng.uniform(0.5, 2.0, size=value.shape)
        return system

    @pytest.mark.parametrize("values", CHUNK_VALUES)
    @pytest.mark.parametrize("lower,variant,mode", SYSTEMS)
    def test_chunks_equal_one_forward(self, monkeypatch, values, lower, variant, mode):
        bank = generate_task(self.SPEC)[0]
        system = self._system(lower, variant, mode)
        rows = np.arange(bank.shape[0])[::-1]
        whole = system.fused_batch(bank, rows, training=False).data
        monkeypatch.setattr(tensor_module, "CHUNK_VALUES", values)
        parts, chunks = zip(*eval_chunks(system, bank, rows))
        size = max(1, values // self.ROW_VALUES)
        assert [len(chunk) for chunk in chunks] == [len(rows[i:i + size]) for i in range(0, len(rows), size)]
        # The parts tile the positions of ``rows`` in order.
        assert [i for part in parts for i in range(len(rows))[part]] == list(range(len(rows)))
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    @staticmethod
    def _default_chunk_rows(shape, rows):
        """The row count of each chunk ``eval_chunks`` makes of ``rows`` of a ``shape`` bank, by default."""
        class Rows:  # a system whose eval output is the rows it is given
            def fused_batch(self, bank, rows, training=False):
                return Tensor(rows)

        return [len(chunk) for _, chunk in eval_chunks(Rows(), SimpleNamespace(shape=shape), rows)]

    # A row of more than 2**16 values, as at the encoder shape (128, 768), is
    # evaluated alone; a row of exactly 2**16 values shares its chunk.
    @pytest.mark.parametrize("tokens, channels, chunks", [
        (128, 768, [1] * 5), (257, 256, [1] * 5), (256, 256, [2, 2, 1]),
    ])
    def test_a_row_over_2_16_values_is_one_chunk(self, tokens, channels, chunks):
        assert self._default_chunk_rows((5, tokens, channels), np.arange(5)) == chunks

    def test_the_desk_test_split_is_one_chunk(self):
        spec = SyntheticTaskSpec()
        assert (spec.test_sentences, spec.tokens, spec.channels) == (200, 8, 32)
        shape = (spec.train_sentences + spec.test_sentences, spec.tokens, spec.channels)
        test = np.arange(spec.train_sentences, shape[0])
        assert self._default_chunk_rows(shape, test) == [200]

    @staticmethod
    def _eval_outputs(system, bank, bank_path, params, out):
        """Every eval caller's result: test metrics, embeddings and the fused bank's bytes."""
        assert main(["fuse", "--bank", str(bank_path), "--params", str(params), "--out", str(out),
                     "--manifest", str(out) + ".json"]) == 0
        head = init_head(8, bank.num_classes, seed=2)
        return (evaluate(system, head, bank, "test"),
                sentence_embeddings(system, bank, range(bank.shape[0])).tobytes(),
                out.read_bytes())

    @pytest.mark.parametrize("lower,variant,mode", SYSTEMS)
    def test_eval_callers_match_one_chunk(self, monkeypatch, tmp_path, lower, variant, mode):
        bank = generate_task(self.SPEC)[0]
        system = self._system(lower, variant, mode)
        bank_path, params = tmp_path / "in.bank", tmp_path / "params.json"
        write_bank(bank, bank_path)
        save_params(system, init_head(8, bank.num_classes, seed=2), params)
        # The default chunk holds every row of this bank.
        assert tensor_module.CHUNK_VALUES >= 23 * self.ROW_VALUES
        one = self._eval_outputs(system, bank, bank_path, params, tmp_path / "one.bank")
        for values in self.CHUNK_VALUES:
            monkeypatch.setattr(tensor_module, "CHUNK_VALUES", values)
            assert self._eval_outputs(system, bank, bank_path, params, tmp_path / f"{values}.bank") == one

    def test_eval_callers_never_exceed_one_chunk(self, monkeypatch, tmp_path):
        bank_path, tgt_path = tmp_path / "src.bank", tmp_path / "tgt.bank"
        for bank, path in zip(generate_task(self.SPEC), (bank_path, tgt_path)):
            write_bank(bank, path)
        calls = []

        def recording(original):
            def fused_batch(self, bank, rows, training=False):
                calls.append((len(rows), training))
                return original(self, bank, rows, training)
            return fused_batch

        for cls in (FusionSystem, BaselineSystem):
            monkeypatch.setattr(cls, "fused_batch", recording(cls.fused_batch))
        monkeypatch.setattr(tensor_module, "CHUNK_VALUES", 2 * self.ROW_VALUES)
        files = ["--src", str(bank_path), "--tgt", str(tgt_path)]
        for which in (["--lower", "1"], ["--baseline"]):
            params = tmp_path / "params.json"
            commands = [
                # Trains no step, then evaluates both test splits.
                ["train", *files, *which, "--epochs", "0", "--out", str(params)],
                ["fuse", "--bank", str(bank_path), "--params", str(params), "--out", str(tmp_path / "f.bank")],
                ["cossim", *files, *which, "--pairs", "9"],
                ["cossim", *files, "--params", str(params), "--pairs", "9"],
            ]
            for argv in commands:
                calls.clear()
                assert main([*argv, "--manifest", str(tmp_path / "m.json")]) == 0
                assert len(calls) > 2 and all(not training for _, training in calls), argv
                assert max(rows for rows, _ in calls) == 2, argv
