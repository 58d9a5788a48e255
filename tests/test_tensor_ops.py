"""Primitive tensor operations: examples, error cases, and properties."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    mix,
    parameter,
    relu,
    sigmoid,
    sub,
)
from layerfuse.tensor import backward
from layerfuse.tensor import SIGMOID_CEIL, SIGMOID_FLOOR
from tensor_helpers import tensor_sum

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
        # mix takes its difference at the mean's shape and a weight of one token or all of them.
        x = t(np.zeros((1, 2, 2)))
        for difference, weight in ((t(np.zeros((1, 1, 2))), x), (x, t(np.zeros((1, 2, 3))))):
            with pytest.raises(DimensionError, match=r"^mix: incompatible shapes \(1, 2, 2\), "):
                mix(x, difference, weight)


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


def _pull_back(out, g):
    """Run backward so that ``out`` receives exactly ``g`` as its gradient."""
    backward(tensor_sum(elementwise_mul(out, t(g))))


_moderate = st.floats(-1e3, 1e3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mean_pool_bit_identical_to_mean_and_broadcast(data):
    x = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=6),
                             elements=_moderate))
    g = data.draw(hnp.arrays(np.float64, (x.shape[0], 1, x.shape[2]), elements=_moderate))
    w = t(x)
    out = mean_pool_tokens(w)
    _pull_back(out, g)
    assert out.data.tobytes() == x.mean(axis=1, keepdims=True).tobytes()
    assert w.grad.tobytes() == np.broadcast_to(g / x.shape[1], x.shape).tobytes()


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
        with pytest.raises(DimensionError, match=r"^conv1x1 kernel must be at least 2-D, got \(3,\)$"):
            conv1x1(t(np.zeros((1, 2, 3))), parameter(np.zeros(3)), parameter(np.zeros(3)))

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


def _masked_sigmoid(x):
    """The stable logistic map by boolean masks: the reference for ``sigmoid``."""
    values = np.empty_like(x)
    pos = x >= 0
    values[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    values[~pos] = ex / (1.0 + ex)
    return np.clip(values, SIGMOID_FLOOR, SIGMOID_CEIL)


_SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=3, max_dims=3, max_side=6),
    elements=st.one_of(st.sampled_from(_SIGMOID_EDGES), st.floats(allow_nan=False)),
))
def test_sigmoid_bit_identical_to_masked_formula(x):
    values = sigmoid(t(x)).data
    assert values.tobytes() == _masked_sigmoid(x).tobytes()
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
        with pytest.raises(DimensionError, match="^batch norm needs at least one channel$"):
            BatchNormState(0)
        with pytest.raises(ValueError):
            BatchNormState(2, momentum=1.0)


def _reference_batch_norm(x, g, gamma, beta, running_mean, running_var, eps, momentum, training):
    """The ``ndarray.mean``/``ndarray.var`` form of batch_norm and its gradients.

    Returns (output, input gradient, gamma gradient, beta gradient, running
    mean, running variance).
    """
    if training:
        mean = x.mean(axis=(0, 1))
        var = x.var(axis=(0, 1))
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean) * inv_std
        running_mean = (1.0 - momentum) * running_mean + momentum * mean
        running_var = (1.0 - momentum) * running_var + momentum * var
        gx = gamma * inv_std * (g - g.mean(axis=(0, 1)) - x_hat * (g * x_hat).mean(axis=(0, 1)))
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        x_hat = (x - running_mean) * inv_std
        gx = g * (gamma * inv_std)
    out = gamma * x_hat + beta
    return out, gx, (g * x_hat).sum(axis=(0, 1)), g.sum(axis=(0, 1)), running_mean, running_var


@st.composite
def _batch_norm_case(draw):
    batch, tokens = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    training = draw(st.booleans()) and batch * tokens > 1
    channels = draw(st.integers(1, 4))

    def vector(elements):
        return draw(hnp.arrays(np.float64, channels, elements=elements))

    x = draw(hnp.arrays(np.float64, (batch, tokens, channels), elements=_moderate))
    g = draw(hnp.arrays(np.float64, (batch, tokens, channels), elements=_moderate))
    stats = (vector(_moderate), vector(st.floats(0.0, 1e3)))
    return x, g, vector(_moderate), vector(_moderate), stats, training


def _fixed_case(shape, training):
    rng = np.random.default_rng(sum(shape))
    channels = shape[2]
    stats = (rng.normal(size=channels), rng.uniform(0.5, 2.0, size=channels))
    return (rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=channels),
            rng.normal(size=channels), stats, training)


@settings(max_examples=150, deadline=None)
@given(_batch_norm_case())
@example(case=_fixed_case((3, 1, 2), training=True))  # T = 1, B >= 2
@example(case=_fixed_case((2, 3, 1), training=True))  # C = 1
@example(case=_fixed_case((2, 1, 1), training=False))
def test_batch_norm_bit_identical_to_mean_var_form(case):
    x, g, gamma, beta, (running_mean, running_var), training = case
    state = BatchNormState(x.shape[2])
    state.gamma, state.beta = parameter(gamma), parameter(beta)
    state.running_mean, state.running_var = running_mean.copy(), running_var.copy()
    w = t(x)
    out = batch_norm(w, state, training=training)
    _pull_back(out, g)
    expected = _reference_batch_norm(
        x, g, gamma, beta, running_mean, running_var, 1e-5, 0.1, training
    )
    got = (out.data, w.grad, state.gamma.grad, state.beta.grad,
           state.running_mean, state.running_var)
    for value, reference in zip(got, expected):
        assert value.tobytes() == reference.tobytes()


def test_operations_stay_finite():
    x = RNG.normal(size=(3, 4, 5)) * 50.0
    state = BatchNormState(5)
    chained = batch_norm(t(x), state, training=True)
    chained = sigmoid(broadcast_add(chained, mean_pool_tokens(chained)))
    chained = elementwise_mul(relu(chained), chained)
    assert np.isfinite(chained.data).all()
