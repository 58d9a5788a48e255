"""Two-layer fusion algebra and the fusion-system plumbing."""

import numpy as np
import numpy.testing as npt
import pytest

from layerfuse import (
    DimensionError,
    LayerPair,
    Tensor,
    backward,
    build_fusion_system,
    elementwise_mul,
    fuse_layers,
    init_gate_params,
    tensor_sum,
)

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
            for name, tensor in params.parameters().items():
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
        for (name_a, ta), (_, tb) in zip(a.parameters().items(), b.parameters().items()):
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
        before = [value.copy() for name, value in system.state() if "running_" in name]
        fused, _ = fuse_layers(l1, l2, system.params)
        after = [value for name, value in system.state() if "running_" in name]
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
