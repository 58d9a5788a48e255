"""Attention gate: init schemes, branch behavior, variants, and properties."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from layerfuse import (
    Tensor,
    elementwise_mul,
    gate_forward,
    global_branch_forward,
    init_gate_params,
    inner_width,
    local_branch_forward,
    trainable,
)
from layerfuse.gradcheck import finite_difference_check
from tensor_helpers import tensor_sum

RNG = np.random.default_rng(2024)


def rand(shape):
    return Tensor(RNG.normal(size=shape))


class TestInit:
    def test_zero_gate_scheme_gives_half(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        gate = gate_forward(rand((2, 3, 8)), params)
        npt.assert_array_equal(gate.data, np.full((2, 3, 8), 0.5))

    def test_same_seed_bit_identical(self):
        a = init_gate_params(16, 4, "kaiming", seed=9)
        b = init_gate_params(16, 4, "kaiming", seed=9)
        for (name_a, ta), (name_b, tb) in zip(trainable(a.state()).items(), trainable(b.state()).items()):
            assert name_a == name_b
            npt.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = init_gate_params(16, 4, "kaiming", seed=1)
        b = init_gate_params(16, 4, "kaiming", seed=2)
        assert not np.array_equal(
            a.global_branch.conv1_kernel.data, b.global_branch.conv1_kernel.data
        )

    def test_kaiming_std_sample_statistics(self):
        params = init_gate_params(768, 4, "kaiming", seed=0)
        kernel = params.global_branch.conv1_kernel.data
        assert kernel.shape == (768, 192)
        target = math.sqrt(2.0 / 768)
        assert abs(kernel.std() - target) < 0.1 * target

    def test_inner_width_ceiling(self):
        assert inner_width(768, 4) == 192
        assert inner_width(7, 4) == 2
        assert inner_width(3, 8) == 1

    def test_reduction_larger_than_channels(self):
        params = init_gate_params(3, 8, "kaiming", seed=0)
        assert params.global_branch.conv1_kernel.data.shape == (3, 1)
        gate = gate_forward(rand((1, 2, 3)), params)
        assert gate.data.shape == (1, 2, 3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            init_gate_params(0, 4)
        with pytest.raises(ValueError):
            init_gate_params(8, 4, scheme="unknown")

    def test_biases_and_norm_init(self):
        params = init_gate_params(8, 4, "kaiming", seed=0)
        for branch in (params.global_branch, params.local_branch):
            npt.assert_array_equal(branch.conv1_bias.data, np.zeros(2))
            npt.assert_array_equal(branch.bn1.gamma.data, np.ones(2))
            npt.assert_array_equal(branch.bn2.beta.data, np.zeros(8))


class TestGlobalBranch:
    def test_duplicated_tokens_identical(self):
        params = init_gate_params(8, 4, "kaiming", seed=3)
        x = RNG.normal(size=(2, 4, 8))
        base = global_branch_forward(Tensor(x), params).data
        for k in (2, 3):
            dup = global_branch_forward(Tensor(np.tile(x, (1, k, 1))), params).data
            npt.assert_allclose(dup, base, rtol=1e-12, atol=1e-12)

    def test_zero_gate_scheme_zeros(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        out = global_branch_forward(rand((3, 5, 8)), params)
        npt.assert_array_equal(out.data, np.zeros((3, 1, 8)))

    def test_output_single_token(self):
        params = init_gate_params(8, 4, "kaiming", seed=1)
        assert global_branch_forward(rand((3, 7, 8)), params).data.shape == (3, 1, 8)


class TestLocalBranch:
    def test_zero_gate_scheme_zeros(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        out = local_branch_forward(rand((3, 5, 8)), params)
        npt.assert_array_equal(out.data, np.zeros((3, 5, 8)))

    def test_permutation_equivariance_eval(self):
        params = init_gate_params(8, 4, "kaiming", seed=4)
        x = RNG.normal(size=(2, 6, 8))
        perm = RNG.permutation(6)
        out = local_branch_forward(Tensor(x), params).data
        permuted = local_branch_forward(Tensor(x[:, perm]), params).data
        npt.assert_array_equal(out[:, perm], permuted)

    def test_shape_preserved(self):
        params = init_gate_params(8, 4, "kaiming", seed=1)
        assert local_branch_forward(rand((3, 7, 8)), params).data.shape == (3, 7, 8)


class TestGateForward:
    def test_zero_gate_literal_halves_input(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        x = RNG.normal(size=(2, 3, 8))
        out = gate_forward(Tensor(x), params, mode="literal")
        npt.assert_array_equal(out.data, 0.5 * x)

    def test_zero_gate_sigmoid_constant_half(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        out = gate_forward(rand((2, 3, 8)), params, mode="sigmoid")
        npt.assert_array_equal(out.data, np.full((2, 3, 8), 0.5))

    def test_literal_magnitude_bound(self):
        for seed in range(5):
            params = init_gate_params(8, 4, "kaiming", seed=seed)
            x = RNG.normal(size=(2, 4, 8)) * 3.0
            out = gate_forward(Tensor(x), params, mode="literal")
            assert np.all(np.abs(out.data) <= np.abs(x))

    def test_unknown_mode(self):
        params = init_gate_params(8, 4, "kaiming", seed=0)
        with pytest.raises(ValueError, match="mode"):
            gate_forward(rand((1, 2, 8)), params, mode="both")

    def test_gate_strictly_inside_unit_interval(self):
        # 10,000 fresh (input, parameter) draws; every entry in (0, 1).
        rng = np.random.default_rng(77)
        for draw in range(10_000):
            params = init_gate_params(4, 4, "kaiming", seed=draw)
            x = Tensor(rng.normal(size=(1, 2, 4)) * 3.0)
            gate = gate_forward(x, params)
            data = gate.data
            assert np.all(data > 0.0) and np.all(data < 1.0)

    def test_all_parameters_receive_gradients(self):
        params = init_gate_params(8, 4, "kaiming", seed=6)
        x = Tensor(RNG.normal(size=(2, 3, 8)))
        weights = Tensor(RNG.normal(size=(2, 3, 8)))

        def loss_fn():
            out = gate_forward(x, params, mode="literal")
            return tensor_sum(elementwise_mul(out, weights))

        report = finite_difference_check(loss_fn, trainable(params.state()), rtol=1e-4)
        assert report.passed, report.format_table()


class TestVariants:
    def test_global_only_token_constant(self):
        params = init_gate_params(8, 4, "kaiming", seed=2)
        gate = gate_forward(rand((3, 5, 8)), params, variant="global")
        assert gate.data.shape == (3, 1, 8)

    def test_global_only_zero_gate(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        gate = gate_forward(rand((3, 5, 8)), params, variant="global")
        npt.assert_array_equal(gate.data, np.full((3, 1, 8), 0.5))

    def test_global_only_literal_shape(self):
        params = init_gate_params(8, 4, "kaiming", seed=2)
        out = gate_forward(rand((3, 5, 8)), params, mode="literal", variant="global")
        assert out.data.shape == (3, 5, 8)

    def test_local_only_zero_gate(self):
        params = init_gate_params(8, 4, "zero_gate", seed=0)
        gate = gate_forward(rand((2, 4, 8)), params, variant="local")
        npt.assert_array_equal(gate.data, np.full((2, 4, 8), 0.5))

    def test_local_only_permutation_equivariance(self):
        params = init_gate_params(8, 4, "kaiming", seed=5)
        x = RNG.normal(size=(2, 6, 8))
        perm = RNG.permutation(6)
        gate = gate_forward(Tensor(x), params, variant="local")
        gate_perm = gate_forward(Tensor(x[:, perm]), params, variant="local")
        npt.assert_array_equal(gate.data[:, perm], gate_perm.data)

    def test_local_only_gate_range(self):
        params = init_gate_params(8, 4, "kaiming", seed=5)
        gate = gate_forward(rand((2, 4, 8)), params, variant="local")
        assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)

    def test_variant_distinctness_same_seed(self):
        params = init_gate_params(8, 4, "kaiming", seed=11)
        x = RNG.normal(size=(2, 4, 8))
        gates = {}
        for name in ("full", "global", "local"):
            gate = gate_forward(Tensor(x.copy()), params, variant=name)
            gates[name] = np.broadcast_to(gate.data, x.shape)
        for a, b in (("full", "global"), ("full", "local"), ("global", "local")):
            assert np.abs(gates[a] - gates[b]).max() > 1e-8
