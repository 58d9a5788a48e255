"""Primitive tensor operations: examples, error cases, and properties."""

import numpy as np
import numpy.testing as npt
import pytest

from layerfuse import (
    BatchNormState,
    DegenerateBatchError,
    DimensionError,
    Tensor,
    batch_norm,
    broadcast_add,
    conv1x1,
    elementwise_mul,
    mean_pool_tokens,
    parameter,
    relu,
    sigmoid,
    sub,
)

RNG = np.random.default_rng(1234)


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64))


class TestBroadcastAdd:
    def test_token_broadcast(self):
        a = t([[[1.0, 2.0]]])
        b = t([[[10.0, 20.0], [30.0, 40.0]]])
        npt.assert_array_equal(broadcast_add(a, b).data, [[[11.0, 22.0], [31.0, 42.0]]])

    def test_additive_identity(self):
        x = RNG.normal(size=(3, 4, 5))
        out = broadcast_add(t(np.zeros_like(x)), t(x))
        npt.assert_array_equal(out.data, x)

    def test_incompatible_tokens(self):
        with pytest.raises(DimensionError):
            broadcast_add(t(np.zeros((1, 2, 2))), t(np.zeros((1, 3, 2))))

    def test_incompatible_batch_and_channels(self):
        with pytest.raises(DimensionError, match=r"\(1, 2, 2\)"):
            broadcast_add(t(np.zeros((1, 2, 2))), t(np.zeros((2, 2, 2))))
        with pytest.raises(DimensionError):
            broadcast_add(t(np.zeros((1, 2, 2))), t(np.zeros((1, 2, 3))))

    def test_commutative_bit_exact(self):
        a, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 3, 4))
        npt.assert_array_equal(
            broadcast_add(t(a), t(b)).data, broadcast_add(t(b), t(a)).data
        )

    def test_rejects_non_rank3(self):
        with pytest.raises(DimensionError):
            broadcast_add(Tensor(np.zeros((2, 2))), t(np.zeros((1, 2, 2))))


class TestElementwiseMul:
    def test_multiplicative_identity(self):
        x = RNG.normal(size=(2, 3, 4))
        npt.assert_array_equal(elementwise_mul(t(x), t(np.ones_like(x))).data, x)

    def test_absorbing_zero(self):
        x = RNG.normal(size=(2, 3, 4))
        npt.assert_array_equal(
            elementwise_mul(t(x), t(np.zeros_like(x))).data, np.zeros_like(x)
        )

    def test_arithmetic(self):
        npt.assert_array_equal(
            elementwise_mul(t([[[2.0, 3.0]]]), t([[[4.0, 5.0]]])).data, [[[8.0, 15.0]]]
        )

    def test_token_broadcast_second_operand(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 1, 4))
        npt.assert_array_equal(elementwise_mul(t(a), t(b)).data, a * b)

    def test_incompatible(self):
        with pytest.raises(DimensionError):
            elementwise_mul(t(np.zeros((1, 2, 2))), t(np.zeros((1, 3, 2))))

    def test_commutative_bit_exact(self):
        a, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 3, 4))
        npt.assert_array_equal(
            elementwise_mul(t(a), t(b)).data, elementwise_mul(t(b), t(a)).data
        )


class TestSub:
    def test_difference(self):
        a, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 3, 4))
        npt.assert_array_equal(sub(t(a), t(b)).data, a - b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sub(t(np.zeros((1, 2, 2))), t(np.zeros((1, 1, 2))))


class TestMeanPool:
    def test_arithmetic_mean(self):
        npt.assert_array_equal(
            mean_pool_tokens(t([[[1.0, 2.0], [3.0, 4.0]]])).data, [[[2.0, 3.0]]]
        )

    def test_constant_tokens(self):
        x = np.full((2, 5, 3), 7.25)
        npt.assert_array_equal(mean_pool_tokens(t(x)).data, np.full((2, 1, 3), 7.25))

    def test_single_token_identity(self):
        x = RNG.normal(size=(3, 1, 4))
        npt.assert_array_equal(mean_pool_tokens(t(x)).data, x)

    def test_permutation_invariance(self):
        x = RNG.normal(size=(2, 8, 4))
        perm = RNG.permutation(8)
        npt.assert_allclose(
            mean_pool_tokens(t(x[:, perm])).data,
            mean_pool_tokens(t(x)).data,
            rtol=1e-13,
            atol=1e-15,
        )

    @pytest.mark.parametrize("k", [2, 3])
    def test_duplication_invariance(self, k):
        # The real-valued mean is invariant exactly; in binary floating point
        # dividing by k*T rounds differently than dividing by T, so the
        # comparison carries an ulp-level tolerance.
        x = RNG.normal(size=(2, 8, 4))
        npt.assert_allclose(
            mean_pool_tokens(t(np.tile(x, (1, k, 1)))).data,
            mean_pool_tokens(t(x)).data,
            rtol=1e-13,
            atol=1e-15,
        )


class TestConv1x1:
    def test_identity_kernel(self):
        x = RNG.normal(size=(2, 3, 4))
        out = conv1x1(t(x), parameter(np.eye(4)), parameter(np.zeros(4)))
        npt.assert_array_equal(out.data, x)

    def test_reduction_arithmetic(self):
        out = conv1x1(t([[[3.0, 4.0]]]), parameter([[1.0], [1.0]]), parameter([0.0]))
        npt.assert_array_equal(out.data, [[[7.0]]])

    def test_zero_kernel_gives_bias(self):
        bias = np.array([1.5, -2.5, 0.25])
        out = conv1x1(t(RNG.normal(size=(2, 4, 5))), parameter(np.zeros((5, 3))), parameter(bias))
        npt.assert_array_equal(out.data, np.broadcast_to(bias, (2, 4, 3)))

    def test_kernel_row_mismatch(self):
        with pytest.raises(DimensionError, match="channels"):
            conv1x1(t(np.zeros((1, 2, 3))), parameter(np.zeros((4, 2))), parameter(np.zeros(2)))

    def test_bias_mismatch(self):
        with pytest.raises(DimensionError):
            conv1x1(t(np.zeros((1, 2, 3))), parameter(np.zeros((3, 2))), parameter(np.zeros(3)))

    def test_linearity_without_bias(self):
        kernel = parameter(RNG.normal(size=(4, 3)))
        bias = parameter(np.zeros(3))
        x, y = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 3, 4))
        alpha, beta = 0.7, -1.3
        lhs = conv1x1(t(alpha * x + beta * y), kernel, bias).data
        rhs = alpha * conv1x1(t(x), kernel, bias).data + beta * conv1x1(t(y), kernel, bias).data
        npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


class TestActivations:
    def test_relu_values(self):
        out = relu(t([[[-1.0, 2.0, 0.0]]]))
        npt.assert_array_equal(out.data, [[[0.0, 2.0, 0.0]]])

    def test_sigmoid_at_zero(self):
        assert sigmoid(t([[[0.0]]])).data[0, 0, 0] == 0.5

    def test_sigmoid_symmetry(self):
        x = RNG.normal(size=(2, 3, 4)) * 4.0
        npt.assert_allclose(
            sigmoid(t(-x)).data, 1.0 - sigmoid(t(x)).data, rtol=0, atol=1e-12
        )

    def test_sigmoid_saturation_no_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            high = sigmoid(t([[[50.0]]])).data[0, 0, 0]
            low = sigmoid(t([[[-800.0]]])).data[0, 0, 0]
        assert np.isfinite(high) and 0.0 < high < 1.0
        assert 1.0 - high <= 1e-15
        assert np.isfinite(low) and 0.0 < low < 1.0

    def test_sigmoid_strictly_inside_unit_interval(self):
        x = RNG.normal(size=(4, 4, 4)) * 100.0
        values = sigmoid(t(x)).data
        assert np.all(values > 0.0) and np.all(values < 1.0)


class TestBatchNorm:
    def test_two_value_channel(self):
        # mu = 2, population sigma^2 = 1 for values {1, 3}
        state = BatchNormState(1)
        out = batch_norm(t([[[1.0]], [[3.0]]]), state, training=True)
        npt.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-4)

    def test_constant_channel_zeros(self):
        state = BatchNormState(3)
        out = batch_norm(t(np.full((2, 4, 3), 5.5)), state, training=True)
        npt.assert_array_equal(out.data, np.zeros((2, 4, 3)))

    def test_eval_identity_statistics(self):
        state = BatchNormState(4)
        x = RNG.normal(size=(2, 3, 4)) + 1.0
        out = batch_norm(t(x), state)
        npt.assert_allclose(out.data, x, rtol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channels"):
            batch_norm(t(np.zeros((1, 2, 3))), BatchNormState(4))

    def test_degenerate_batch(self):
        state = BatchNormState(3)
        with pytest.raises(DegenerateBatchError):
            batch_norm(t(np.zeros((1, 1, 3))), state, training=True)

    def test_eval_mode_allows_single_position(self):
        out = batch_norm(t(np.ones((1, 1, 3))), BatchNormState(3))
        assert out.data.shape == (1, 1, 3)

    def test_running_statistics_update(self):
        state = BatchNormState(2, momentum=0.1)
        x = RNG.normal(size=(4, 3, 2)) * 2.0 + 1.0
        batch_norm(t(x), state, training=True)
        npt.assert_allclose(state.running_mean, 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 1)), rtol=1e-12)
        npt.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 1)), rtol=1e-12)
        assert np.all(state.running_var >= 0.0)

    def test_no_update_in_eval_mode(self):
        state = BatchNormState(2)
        batch_norm(t(RNG.normal(size=(4, 3, 2))), state)
        npt.assert_array_equal(state.running_mean, np.zeros(2))
        npt.assert_array_equal(state.running_var, np.ones(2))

    def test_normalized_batch_statistics(self):
        # Aggregate batch statistics of the training-mode output: zero mean,
        # variance gamma^2 * sigma^2 / (sigma^2 + eps).
        state = BatchNormState(5)
        x = RNG.normal(0.0, 10.0, size=(6, 4, 5))
        out = batch_norm(t(x), state, training=True)
        assert np.abs(out.data.mean(axis=(0, 1))).max() < 1e-9
        assert np.abs(out.data.var(axis=(0, 1)) - 1.0).max() < 1e-6

    def test_state_validation(self):
        with pytest.raises(ValueError):
            BatchNormState(2, eps=0.0)
        with pytest.raises(ValueError):
            BatchNormState(2, momentum=1.0)
        with pytest.raises(ValueError):
            BatchNormState.from_arrays([1.0], [0.0], [0.0], [-1.0], 1e-5, 0.1)
        with pytest.raises(DimensionError):
            BatchNormState.from_arrays([1.0, 1.0], [0.0], [0.0], [1.0], 1e-5, 0.1)


def test_operations_stay_finite():
    x = RNG.normal(size=(3, 4, 5)) * 50.0
    state = BatchNormState(5)
    chained = batch_norm(t(x), state, training=True)
    chained = sigmoid(broadcast_add(chained, mean_pool_tokens(chained)))
    chained = elementwise_mul(relu(chained), chained)
    assert np.isfinite(chained.data).all()
