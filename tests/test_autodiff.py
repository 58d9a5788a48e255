"""Reverse-mode gradients and the finite-difference oracle."""

import gc
import json
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerfuse import (
    GATE_MODES,
    VARIANTS,
    BatchNormState,
    Tensor,
    backward,
    batch_norm,
    broadcast_add,
    build_system,
    conv1x1,
    elementwise_mul,
    fuse_layers,
    init_gate_params,
    init_head,
    mean_pool_tokens,
    mix,
    parameter,
    relu,
    save_params,
    scale,
    shift,
    sigmoid,
    softmax_cross_entropy,
    sub,
    trainable,
)
from layerfuse.gradcheck import (
    EvaluationError,
    classification_pipeline,
    finite_difference_check,
)
from layerfuse import gate as gate_module
from layerfuse import tensor as tensor_module
from layerfuse.tensor import _topological_order
from tensor_helpers import tensor_sum

RNG = np.random.default_rng(99)


def test_sum_gradient_is_ones():
    x = parameter(RNG.normal(size=(2, 3, 4)))
    backward(tensor_sum(x))
    npt.assert_array_equal(x.grad, np.ones((2, 3, 4)))


def test_sigmoid_gradient_at_zero():
    x = parameter(np.zeros((1, 2, 3)))
    backward(tensor_sum(sigmoid(x)))
    npt.assert_array_equal(x.grad, np.full((1, 2, 3), 0.25))


def test_relu_gradient_mixed_signs():
    x = parameter([[[-2.0, 3.0], [0.5, -0.5]]])
    backward(tensor_sum(relu(x)))
    npt.assert_array_equal(x.grad, [[[0.0, 1.0], [1.0, 0.0]]])


def test_relu_subgradient_at_zero_is_zero():
    x = parameter([[[0.0]]])
    backward(tensor_sum(relu(x)))
    npt.assert_array_equal(x.grad, [[[0.0]]])


def test_non_scalar_root_rejected():
    x = parameter(np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        backward(x)


def test_loss_seed_scales_gradients():
    x = parameter(RNG.normal(size=(1, 2, 2)))
    loss = tensor_sum(x)
    backward(loss, seed=-2.5)
    npt.assert_array_equal(x.grad, np.full((1, 2, 2), -2.5))


def test_gradients_accumulate_across_paths():
    x = parameter(RNG.normal(size=(1, 2, 3)))
    a = Tensor(RNG.normal(size=(1, 2, 3)))
    b = Tensor(RNG.normal(size=(1, 2, 3)))
    loss = tensor_sum(broadcast_add(elementwise_mul(x, a), elementwise_mul(x, b)))
    backward(loss)
    npt.assert_allclose(x.grad, a.data + b.data, rtol=1e-15)


def test_backward_resets_previous_gradients():
    x = parameter(np.ones((1, 1, 2)))
    backward(tensor_sum(x))
    backward(tensor_sum(x))
    npt.assert_array_equal(x.grad, np.ones((1, 1, 2)))


def test_quadratic_against_oracle():
    x = parameter(np.full((1, 1, 1), 3.0))

    def loss_fn():
        return tensor_sum(elementwise_mul(x, x))

    report = finite_difference_check(loss_fn, {"x": x})
    backward(loss_fn())
    assert x.grad[0, 0, 0] == pytest.approx(6.0, abs=1e-12)
    assert report.passed and report.max_error < 1e-9


def test_oracle_rejects_non_finite():
    x = parameter(np.full((1, 1, 1), 1.0))
    origin = float(x.data[0, 0, 0])

    def loss_fn():
        if x.data.reshape(-1)[0] != origin:
            return Tensor(np.full(x.data.shape[:-3], np.inf))
        return tensor_sum(x)

    with pytest.raises(EvaluationError, match="x"):
        finite_difference_check(loss_fn, {"x": x})


def test_oracle_refuses_a_non_finite_objective_before_any_probe():
    x = parameter([[[1.0, np.nan, 3.0]]])
    calls = []

    def loss_fn():
        calls.append(x.data.shape)
        return tensor_sum(x)

    with pytest.raises(EvaluationError, match="^non-finite objective at the unperturbed parameters, "
                                              "before any probe$"):
        finite_difference_check(loss_fn, {"x": x})
    assert calls == [(1, 1, 3)]


def test_oracle_validates_step_and_rtol():
    x = parameter(np.ones((1, 1, 1)))
    with pytest.raises(ValueError):
        finite_difference_check(lambda: tensor_sum(x), {"x": x}, step=0.0)
    with pytest.raises(ValueError):
        finite_difference_check(lambda: tensor_sum(x), {"x": x}, rtol=-1.0)


def _op_check(build, params, rtol=1e-4):
    report = finite_difference_check(build, params, step=1e-5, rtol=rtol)
    assert report.passed, report.format_table()


class TestPerOperationGradients:
    def test_broadcast_add(self):
        a = parameter(RNG.normal(size=(2, 1, 3)))
        b = parameter(RNG.normal(size=(2, 4, 3)))
        w = Tensor(RNG.normal(size=(2, 4, 3)))
        _op_check(
            lambda: tensor_sum(elementwise_mul(broadcast_add(a, b), w)),
            {"a": a, "b": b},
        )

    def test_elementwise_mul_broadcast(self):
        a = parameter(RNG.normal(size=(2, 4, 3)))
        b = parameter(RNG.normal(size=(2, 1, 3)))
        w = Tensor(RNG.normal(size=(2, 4, 3)))
        _op_check(
            lambda: tensor_sum(elementwise_mul(elementwise_mul(a, b), w)),
            {"a": a, "b": b},
        )

    def test_mean_pool(self):
        x = parameter(RNG.normal(size=(3, 5, 2)))
        w = Tensor(RNG.normal(size=(3, 1, 2)))
        _op_check(lambda: tensor_sum(elementwise_mul(mean_pool_tokens(x), w)), {"x": x})

    def test_conv1x1(self):
        x = parameter(RNG.normal(size=(2, 3, 4)))
        kernel = parameter(RNG.normal(size=(4, 5)))
        bias = parameter(RNG.normal(size=5))
        w = Tensor(RNG.normal(size=(2, 3, 5)))
        _op_check(
            lambda: tensor_sum(elementwise_mul(conv1x1(x, kernel, bias), w)),
            {"x": x, "kernel": kernel, "bias": bias},
        )

    def test_relu_away_from_kink(self):
        base = RNG.normal(size=(2, 3, 4))
        base[np.abs(base) < 1e-3] = 0.1
        x = parameter(base)
        w = Tensor(RNG.normal(size=(2, 3, 4)))
        _op_check(lambda: tensor_sum(elementwise_mul(relu(x), w)), {"x": x})

    def test_sigmoid(self):
        x = parameter(RNG.normal(size=(2, 3, 4)))
        w = Tensor(RNG.normal(size=(2, 3, 4)))
        _op_check(lambda: tensor_sum(elementwise_mul(sigmoid(x), w)), {"x": x})

    def test_batch_norm_training_statistics(self):
        # Gradients must flow through the batch mean and variance.
        x = parameter(RNG.normal(size=(4, 2, 3)) * 2.0 + 1.0)
        state = BatchNormState(3)
        w = Tensor(RNG.normal(size=(4, 2, 3)))
        _op_check(
            lambda: tensor_sum(elementwise_mul(batch_norm(x, state, training=True), w)),
            {"x": x, "gamma": state.gamma, "beta": state.beta},
        )

    def test_batch_norm_eval(self):
        x = parameter(RNG.normal(size=(2, 3, 4)))
        state = BatchNormState(4)
        state.running_mean = RNG.normal(size=4)
        state.running_var = RNG.uniform(0.5, 2.0, size=4)
        w = Tensor(RNG.normal(size=(2, 3, 4)))
        _op_check(
            lambda: tensor_sum(elementwise_mul(batch_norm(x, state), w)),
            {"x": x, "gamma": state.gamma, "beta": state.beta},
        )


def _away_from_kinks(rng, shape):
    """Normal draws moved 0.1 further from zero, so no probe crosses a relu kink."""
    x = rng.normal(size=shape)
    return x + np.copysign(0.1, x)


def _same(shape):
    return shape


def _token(shape):
    return (shape[0], 1, shape[2])


def _channels(shape):
    return (shape[2],)


def _batch_norm_op(training):
    def forward(x, gamma, beta):
        state = BatchNormState(x.data.shape[-1])
        state.gamma, state.beta = gamma, beta
        state.running_mean[...] = np.linspace(-0.5, 0.5, state.channels)
        state.running_var[...] = np.linspace(0.5, 2.0, state.channels)
        return batch_norm(x, state, training=training)
    return forward


# Op -> (shape of each checked input, given the (B, T, C) shape; forward).
_OP_CASES = {
    "broadcast_add": ((_same, _same), broadcast_add),
    "broadcast_add_token_second": ((_same, _token), broadcast_add),
    "broadcast_add_token_first": ((_token, _same), broadcast_add),
    "elementwise_mul": ((_same, _same), elementwise_mul),
    "elementwise_mul_token": ((_same, _token), elementwise_mul),
    "sub": ((_same, _same), sub),
    "mix": ((_same, _same, _same), mix),
    "mix_token": ((_same, _same, _token), mix),
    "scale": ((_same,), lambda x: scale(x, -1.7)),
    "shift": ((_same,), lambda x: shift(x, 0.3)),
    "mean_pool_tokens": ((_same,), mean_pool_tokens),
    "conv1x1": ((_same, lambda s: (s[2], 3), lambda s: (3,)), conv1x1),
    "relu": ((_same,), relu),
    "sigmoid": ((_same,), sigmoid),
    "batch_norm_training": ((_same, _channels, _channels), _batch_norm_op(True)),
    "batch_norm_eval": ((_same, _channels, _channels), _batch_norm_op(False)),
}


@pytest.mark.parametrize("op", sorted(_OP_CASES))
@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 3), tokens=st.integers(1, 3), channels=st.integers(1, 4),
       seed=st.integers(0, 2**16))
@example(batch=2, tokens=1, channels=3, seed=0)  # T = 1
@example(batch=2, tokens=3, channels=1, seed=1)  # C = 1
def test_every_op_matches_finite_differences(op, batch, tokens, channels, seed):
    shapes, forward = _OP_CASES[op]
    assume(op != "batch_norm_training" or batch * tokens > 1)
    rng = np.random.default_rng(seed)
    shape = (batch, tokens, channels)
    inputs = [parameter(_away_from_kinks(rng, size(shape))) for size in shapes]
    # A fixed random weighting makes every output entry count with its own sign.
    weight = Tensor(rng.normal(size=forward(*inputs).data.shape))
    _op_check(lambda: tensor_sum(elementwise_mul(forward(*inputs), weight)),
              {f"input{i}": x for i, x in enumerate(inputs)})


@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 4), classes=st.integers(2, 4), spread=st.floats(0.1, 5.0),
       seed=st.integers(0, 2**16))
@example(batch=1, classes=2, spread=1.0, seed=0)  # one sentence
def test_softmax_cross_entropy_matches_finite_differences(batch, classes, spread, seed):
    rng = np.random.default_rng(seed)
    logits = parameter(rng.normal(size=(batch, 1, classes)) * spread)
    labels = rng.integers(0, classes, size=batch)
    _op_check(lambda: softmax_cross_entropy(logits, labels), {"logits": logits})


def _probe_stack(rng, shape, probes):
    """``probes`` draws of ``shape`` behind a leading probe axis, padded to rank 3 as the check pads."""
    return rng.normal(size=(probes,) + shape).reshape((probes,) + (1,) * (3 - len(shape)) + shape)


@pytest.mark.parametrize("op", sorted(_OP_CASES))
@settings(max_examples=15, deadline=None)
@given(batch=st.integers(1, 32), tokens=st.integers(1, 3), channels=st.integers(1, 4),
       probes=st.integers(1, 4), stacked=st.integers(0, 2), seed=st.integers(0, 2**16))
@example(batch=32, tokens=3, channels=4, probes=3, stacked=0, seed=0)
@example(batch=4, tokens=1, channels=4, probes=3, stacked=2, seed=0)  # a pooled norm's beta alone stacked
def test_stacked_forward_equals_separate_forwards(op, batch, tokens, channels, probes, stacked, seed):
    # One operand carries the probe axis, as in finite_difference_check.
    shapes, forward = _OP_CASES[op]
    assume(op != "batch_norm_training" or batch * tokens > 1)
    stacked %= len(shapes)
    rng = np.random.default_rng(seed)
    shape = (batch, tokens, channels)
    inputs = [Tensor(rng.normal(size=size(shape))) for size in shapes]
    stack = _probe_stack(rng, inputs[stacked].data.shape, probes)
    out = forward(*inputs[:stacked], Tensor(stack), *inputs[stacked + 1:]).data
    assert out.shape[0] == probes
    for i in range(probes):
        alone = Tensor(stack[i].reshape(inputs[stacked].data.shape))
        npt.assert_array_equal(out[i], forward(*inputs[:stacked], alone, *inputs[stacked + 1:]).data)


@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 32), classes=st.integers(2, 4), probes=st.integers(1, 4),
       seed=st.integers(0, 2**16))
@example(batch=32, classes=3, probes=3, seed=0)  # a strided mean over 32 rows lands an ulp off
def test_stacked_cross_entropy_equals_separate_losses(batch, classes, probes, seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(probes, batch, 1, classes))
    labels = rng.integers(0, classes, size=batch)
    losses = softmax_cross_entropy(Tensor(stack), labels).data
    assert losses.shape == (probes,)
    for i in range(probes):
        npt.assert_array_equal(losses[i], softmax_cross_entropy(Tensor(stack[i]), labels).data)


def test_training_batch_norm_under_a_probe_axis_keeps_running_statistics():
    state = BatchNormState(4)
    state.running_mean[...] = RNG.normal(size=4)
    state.running_var[...] = RNG.uniform(0.5, 2.0, size=4)
    mean, var = state.running_mean.tobytes(), state.running_var.tobytes()
    batch_norm(Tensor(RNG.normal(size=(3, 2, 5, 4))), state, training=True)
    assert state.running_mean.tobytes() == mean and state.running_var.tobytes() == var


def test_oracle_refuses_a_loss_without_the_probe_axis():
    x = parameter(RNG.normal(size=(2, 3, 4)))

    def loss_fn():
        def _bw(g, wanted):
            return (np.full(x.data.shape, float(g)),)

        return tensor_module._node(np.asarray(x.data.sum()), (x,), _bw)  # all probes summed

    with pytest.raises(ValueError, match=r"'x'.* shape \(\) for 24 probes"):
        finite_difference_check(loss_fn, {"x": x})


# Which probes read a non-finite loss -> the entry the error names: the
# lowest such entry, whichever sign found it.
_NON_FINITE_PROBES = {
    "upper of entry 1": (lambda v: v[..., 1] > 2.0, 1),
    "lower of entry 2, upper of entry 1": (lambda v: (v[..., 2] < 3.0) | (v[..., 1] > 2.0), 1),
    "lower of entry 2": (lambda v: v[..., 2] < 3.0, 2),
    "lower of entry 0, upper of entry 2": (lambda v: (v[..., 0] < 1.0) | (v[..., 2] > 3.0), 0),
}


@pytest.mark.parametrize("case", _NON_FINITE_PROBES)
def test_oracle_names_the_lowest_non_finite_entry_and_restores_the_parameter(case):
    bad, entry = _NON_FINITE_PROBES[case]
    x = parameter([[[1.0, 2.0, 3.0]]])
    kept = x.data

    def loss_fn():
        loss = tensor_sum(x)
        loss.data = np.where(bad(x.data[..., 0, 0, :]), np.nan, loss.data)
        return loss

    with pytest.raises(EvaluationError, match=f"'x' entry {entry}$"):
        finite_difference_check(loss_fn, {"x": x})
    assert x.data is kept
    npt.assert_array_equal(x.data, [[[1.0, 2.0, 3.0]]])


def test_a_nan_gradient_fails_its_parameter():
    p = parameter([[[0.5, -1.5, 2.0]]])

    def loss_fn():
        def _bw(g, wanted):
            return (g * np.array([1.0, np.nan, 1.0]),)

        return tensor_module._node(p.data.reshape(p.data.shape[:-3] + (-1,)).sum(axis=-1), (p,), _bw)

    (check,) = finite_difference_check(loss_fn, {"p": p}).parameters
    assert not check.passed and check.worst_index == 1 and np.isnan(check.max_error)


def _gate_margins(loss_fn):
    """How far the gate's relu inputs lie from the kink, and the least
    variance a training-mode batch_norm normalizes by, in one forward.

    Central differences are exact only to O(step**2) times the curvature, so
    a relu input within a step of zero, or a channel variance near the norm's
    eps, can fail a correct gradient.
    """
    kinks, variances = [np.inf], [np.inf]

    def recording_relu(t):
        kinks.append(np.abs(t.data).min())
        return relu(t)

    def recording_batch_norm(w, state, training=False):
        if training:
            variances.append(w.data.var(axis=(0, 1)).min())
        return batch_norm(w, state, training)

    with mock.patch.multiple(gate_module, relu=recording_relu, batch_norm=recording_batch_norm):
        loss_fn()
    return min(kinks), min(variances)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=25, deadline=None)
@given(batch=st.integers(1, 3), tokens=st.integers(1, 3), channels=st.integers(1, 3),
       excess=st.integers(1, 3), mode=st.sampled_from(GATE_MODES), training=st.booleans(),
       seed=st.integers(0, 2**16))
@example(batch=2, tokens=1, channels=3, excess=1, mode="sigmoid", training=True, seed=0)  # T = 1
@example(batch=2, tokens=2, channels=1, excess=2, mode="literal", training=True, seed=1)  # C = 1
def test_gate_with_reduction_above_channels_matches_finite_differences(
    variant, batch, tokens, channels, excess, mode, training, seed
):
    # A reduction above the channel count leaves a bottleneck of width 1.
    assume(not training or batch > 1)  # a pooled branch normalizes over sentences
    rng = np.random.default_rng(seed)
    shape = (batch, tokens, channels)
    l1, l2 = parameter(rng.normal(size=shape)), parameter(rng.normal(size=shape))
    gate = init_gate_params(channels, reduction=channels + excess, seed=seed)
    head = init_head(channels, 3, seed=seed)
    labels = rng.integers(0, 3, size=batch)

    def loss_fn():
        fused, _ = fuse_layers(l1, l2, gate, mode, variant, training=training)
        return softmax_cross_entropy(head.logits(mean_pool_tokens(fused)), labels)

    kink, spread = _gate_margins(loss_fn)
    assume(kink > 1e-2 and spread > 1e-3)
    _op_check(loss_fn, {**trainable(gate.state()), "head.weight": head.weight, "head.bias": head.bias,
               "input.l1": l1, "input.l2": l2})


def test_full_pipeline_seed_17():
    loss_fn, params = classification_pipeline(
        17, shape=(2, 3, 8), classes=3, check_inputs=True
    )
    report = finite_difference_check(loss_fn, params, step=1e-5, rtol=1e-4)
    assert report.passed, report.format_table()


@pytest.mark.parametrize(
    "variant,mode",
    [("full", "literal"), ("global", "sigmoid"), ("local", "sigmoid"), ("local", "literal")],
)
def test_pipeline_variants(variant, mode):
    loss_fn, params = classification_pipeline(
        5, shape=(2, 4, 8), classes=3, variant=variant, mode=mode, check_inputs=True
    )
    report = finite_difference_check(loss_fn, params, step=1e-5, rtol=1e-4)
    assert report.passed, report.format_table()


def _assert_no_shared_gradients(loss):
    # First gradients are stored without a copy; passed-through ones must still copy.
    grads = [node.grad for node in _topological_order(loss)]
    assert all(grad is not None for grad in grads)
    for i, first in enumerate(grads):
        for second in grads[i + 1:]:
            assert not np.shares_memory(first, second)


def test_pass_through_gradients_are_copies():
    x = parameter(RNG.normal(size=(2, 3, 4)))
    y = parameter(RNG.normal(size=(2, 3, 4)))
    loss = tensor_sum(shift(sub(broadcast_add(x, y), y), 1.0))
    backward(loss)
    _assert_no_shared_gradients(loss)
    # Both kept tensors receive the same passed-through gradient.
    backward(tensor_sum(broadcast_add(x, y)), wrt=[x, y])
    assert not np.shares_memory(x.grad, y.grad)


def test_interior_node_in_wrt_keeps_the_full_pass_gradient():
    x = parameter(RNG.normal(size=(2, 3, 4)))
    r = relu(x)
    loss = tensor_sum(elementwise_mul(r, r))
    backward(loss)
    full = r.grad.copy()
    backward(loss, wrt=[r])
    assert r.grad.tobytes() == full.tobytes()
    assert x.grad is None


# Op name -> a node it builds from a (2, 3, 4) tensor.
_OPS = {
    "broadcast_add": lambda x: broadcast_add(x, x),
    "elementwise_mul": lambda x: elementwise_mul(x, x),
    "sub": lambda x: sub(x, x),
    "scale": lambda x: scale(x, 2.0),
    "shift": lambda x: shift(x, 1.0),
    "mix": lambda x: mix(x, x, x),
    "mean_pool_tokens": mean_pool_tokens,
    "conv1x1": lambda x: conv1x1(x, parameter(np.ones((4, 2))), parameter(np.zeros(2))),
    "batch_norm": lambda x: batch_norm(x, BatchNormState(4)),
    "relu": relu,
    "sigmoid": sigmoid,
    "softmax_cross_entropy": lambda x: softmax_cross_entropy(mean_pool_tokens(x), [0, 1]),
}


def test_each_op_closure_is_named_bw_inside_its_op():
    # A per-op tracer names each backward step by its closure's qualified name.
    ops = {name for name in tensor_module.__all__ if name[0].islower()} - {"parameter", "backward"}
    assert set(_OPS) == ops | {"softmax_cross_entropy"}
    x = parameter(RNG.normal(size=(2, 3, 4)))
    for name, build in _OPS.items():
        assert build(x).node.backward.__qualname__ == f"{name}.<locals>._bw"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", GATE_MODES)
def test_gradients_own_their_memory(variant, mode):
    loss_fn, params = classification_pipeline(
        7, shape=(2, 4, 8), classes=3, variant=variant, mode=mode, check_inputs=True
    )
    loss = loss_fn()
    backward(loss)
    _assert_no_shared_gradients(loss)
    assert all(p.grad.flags.writeable for p in params.values())


def _eps_objective():
    # A 1-channel gate with reduction 2, B=2, T=1: the global branch's
    # training-mode variance lies near eps.
    rng = np.random.default_rng(443)
    l1, l2 = parameter(rng.normal(size=(2, 1, 1))), parameter(rng.normal(size=(2, 1, 1)))
    gate = init_gate_params(1, reduction=2, seed=443)
    head = init_head(1, 3, seed=443)
    labels = rng.integers(0, 3, size=2)

    def loss_fn():
        fused, _ = fuse_layers(l1, l2, gate, "sigmoid", "global", training=True)
        return softmax_cross_entropy(head.logits(mean_pool_tokens(fused)), labels)

    return loss_fn, trainable(gate.state())


def _gradcheck_objective(seed, variant):
    """The objective ``gradcheck --seed <seed>`` checks for ``variant``, at its default shape."""
    return lambda: classification_pipeline(seed, shape=(4, 8, 32), classes=3, variant=variant)


# Correct gradients that fail at step 1e-5, each with the parameter that
# fails: a relu input within a step of zero (seed 632's lies 1.6e-5 from it),
# and a variance near eps.
_STEP_TOO_LARGE = {
    "relu kink": (_gradcheck_objective(632, "local"), "gate.global.conv1.kernel"),
    "relu kink, seed 1904": (_gradcheck_objective(1904, "local"), "gate.global.conv1.kernel"),
    "relu kink, seed 2105": (_gradcheck_objective(2105, "full"), "gate.local.conv1.kernel"),
    "variance near eps": (_eps_objective, "global.conv1.kernel"),
}


@pytest.mark.parametrize("case", _STEP_TOO_LARGE)
def test_failed_parameter_is_reprobed_at_a_tenth_of_the_step(case):
    objective, name = _STEP_TOO_LARGE[case]
    loss_fn, params = objective()
    report = finite_difference_check(loss_fn, {name: params[name]}, step=1e-5, rtol=1e-4)
    (check,) = report.parameters
    assert not report.passed  # the verdict stays that of the step given
    assert check.reprobe_error < check.max_error / 50
    assert f"re-probe {name}[{check.worst_index}]: {check.max_error:.3e} at step 1e-05, " \
           f"{check.reprobe_error:.3e} at step 1e-06" in report.format_table()


def test_gradcheck_seed_2616_fails_at_a_relu_kink_in_the_local_branch():
    # A local-branch relu input lies 1.8e-9 from the kink, so even a step of
    # 1e-8 straddles it and the re-probe cannot resolve it: 3 of the 4 cases
    # fail, each only in gate.local.*, and not on a wrong gradient.
    failed = {}
    for variant, mode in [("full", "sigmoid"), ("full", "literal"), ("global", "sigmoid"), ("local", "sigmoid")]:
        loss_fn, params = classification_pipeline(2616, shape=(4, 8, 32), classes=3, variant=variant, mode=mode)
        report = finite_difference_check(loss_fn, params, step=1e-5, rtol=1e-4)
        failed[variant, mode] = [check.name for check in report.parameters if not check.passed]
    assert [case for case, names in failed.items() if names] == [
        ("full", "sigmoid"), ("full", "literal"), ("local", "sigmoid")]
    assert all(name.startswith("gate.local.") for names in failed.values() for name in names)
    kink, _ = _gate_margins(_gradcheck_objective(2616, "full")()[0])
    assert kink < 1e-8


def test_reprobe_keeps_the_error_of_a_wrong_gradient():
    p = parameter([0.5, -1.5, 2.0])

    def loss_fn():
        def _bw(g, wanted):
            return (3.0 * g * p.data,)  # the gradient of sum(p**2) is 2p

        squares = p.data.reshape(p.data.shape[:-3] + (-1,)) ** 2
        return tensor_module._node(squares.sum(axis=-1), (p,), _bw)

    report = finite_difference_check(loss_fn, {"p": p})
    (check,) = report.parameters
    assert not check.passed
    assert check.max_error == pytest.approx(1 / 3) and check.reprobe_error == pytest.approx(1 / 3)


def test_report_table_format():
    loss_fn, params = classification_pipeline(3, shape=(2, 2, 4), classes=2)
    report = finite_difference_check(loss_fn, params)
    table = report.format_table()
    assert "parameter" in table and "head.weight" in table
    assert all(check.error_kind in ("relative", "absolute") for check in report.parameters)
    assert all(check.reprobe_error is None for check in report.parameters)
    assert "re-probe" not in table


# Pipeline shape -> probes per loss_fn call: PROBE_CHUNK_VALUES (2**16) over
# the first graph's largest node.  At (4, 16, 32) that is a feature map (2048 values);
# at (2, 1, 64) a conv kernel (64 x 16 = 1024) outgrows the maps (128).
_PROBE_CHUNKS = {(4, 16, 32): 32, (2, 1, 64): 64}


@pytest.mark.parametrize("shape", _PROBE_CHUNKS)
def test_probe_chunk_is_the_chunk_values_over_the_largest_node(shape):
    chunk = _PROBE_CHUNKS[shape]
    loss_fn, params = classification_pipeline(11, shape=shape, classes=3)
    calls = []

    def counted():
        loss = loss_fn()
        calls.append(loss.data.shape)
        return loss

    report = finite_difference_check(counted, params)
    assert calls[0] == ()
    # Each parameter is probed up and down in chunks of ``chunk`` entries, and
    # a failed one's worst entry once more each way.
    failed = sum(not check.passed for check in report.parameters)
    assert len(calls) - 1 == sum(2 * -(-p.data.size // chunk) for p in params.values()) + 2 * failed
    assert max(probes for probes, in calls[1:]) == chunk


def _leaves(node, prefix=""):
    """(dotted name, value) of every leaf of a decoded params document."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


@pytest.mark.parametrize("variant, mode", [("full", "sigmoid"), ("full", "literal"),
                                           ("global", "sigmoid"), ("local", "sigmoid")])
def test_gradcheck_checks_the_tensors_a_params_file_stores(tmp_path, variant, mode):
    # gradcheck's four cases: each checked name is a trained value's path in the
    # params file of the same system, and every other array there is a running statistic.
    _, params = classification_pipeline(17, shape=(4, 8, 32), classes=3, variant=variant, mode=mode)
    path = tmp_path / "params.json"
    save_params(build_system(1, 2, 32, variant, mode, 17), init_head(32, 3, seed=17), path)
    arrays = {name: value for name, value in _leaves(json.loads(path.read_text()))
              if isinstance(value, list)}
    assert set(params) == {name for name in arrays if not name.endswith(("running_mean", "running_var"))}
    for name, tensor in params.items():
        assert np.array(arrays[name]).tobytes() == tensor.data.tobytes(), name


def _fused_objective(shape, variant, mode, training, seed):
    """classification_pipeline's objective, with normalization in either form.

    Returns the loss, the parameters and the nodes (l1, l2, fused).
    """
    rng = np.random.default_rng(seed)
    l1 = Tensor(rng.normal(size=shape))
    l2 = Tensor(rng.normal(size=shape))
    gate = init_gate_params(shape[2], seed=seed)
    for branch in (gate.global_branch, gate.local_branch):
        for state in (branch.bn1, branch.bn2):
            state.running_mean[...] = rng.normal(size=state.channels)
            state.running_var[...] = rng.uniform(0.5, 2.0, size=state.channels)
    head = init_head(shape[2], 3, seed=seed)
    fused, _ = fuse_layers(l1, l2, gate, mode, variant, training=training)
    logits = head.logits(mean_pool_tokens(fused))
    loss = softmax_cross_entropy(logits, rng.integers(0, 3, size=shape[0]))
    return loss, {**trainable(gate.state()), "head.weight": head.weight, "head.bias": head.bias}, (l1, l2, fused)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", GATE_MODES)
@settings(max_examples=12, deadline=None)
@given(
    batch=st.integers(2, 4),
    tokens=st.integers(1, 4),
    channels=st.integers(1, 5),
    training=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(batch=2, tokens=1, channels=3, training=True, seed=0)  # T = 1 with B >= 2
@example(batch=3, tokens=2, channels=1, training=True, seed=1)  # C = 1
@example(batch=1, tokens=3, channels=2, training=False, seed=2)  # one sentence, eval form
def test_pruned_backward_matches_full_pass(variant, mode, batch, tokens, channels, training, seed):
    loss, params, (l1, l2, fused) = _fused_objective(
        (batch, tokens, channels), variant, mode, training, seed)
    backward(loss)
    full = {name: p.grad.copy() for name, p in params.items()}
    unreached = parameter(np.ones(3))
    unreached.grad = np.ones(3)
    backward(loss, wrt=[*params.values(), unreached])
    for name, p in params.items():
        assert p.grad.tobytes() == full[name].tobytes(), name
    assert unreached.grad is None
    assert l1.grad is None and l2.grad is None and fused.grad is None
    kept = {id(p.node) for p in params.values()}
    assert all(node.grad is None for node in _topological_order(loss) if id(node) not in kept)


def _arrays_held(loss):
    """The distinct arrays the graph of ``loss`` holds: in its nodes, their closures' cells and any tensor there."""
    held, seen = {}, set()
    stack = list(_topological_order(loss))
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            held[id(obj)] = obj
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (tuple, list)) or type(obj).__module__ == tensor_module.__name__:
            stack.extend(gc.get_referents(obj))
    return list(held.values())


def test_graph_holds_only_the_arrays_its_backward_reads():
    # Of the training forward's (B, T, C) arrays, the backward reads four:
    # the mean (local conv1's input), l1 - l2 and the sigmoid map (the
    # mix's, which recomputes g - 1/2 from the map) and bn2's x_hat in the
    # local branch.
    shape = (3, 5, 8)
    rng = np.random.default_rng(0)
    l1, l2 = Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape))
    fused, weight = fuse_layers(l1, l2, init_gate_params(8, seed=0), "sigmoid", "full", training=True)
    loss = softmax_cross_entropy(init_head(8, 3).logits(mean_pool_tokens(fused)), [0, 1, 2])
    maps = [a for a in _arrays_held(loss) if a.shape == shape]
    assert any(a is weight.data for a in maps)
    held = {a.tobytes() for a in maps}
    for kept in ((l1.data + l2.data) * 0.5, l1.data - l2.data):
        assert kept.tobytes() in held
    assert (weight.data - 0.5).tobytes() not in held
    assert len(maps) <= 4


def test_a_training_step_peaks_below_seven_maps():
    # A full/sigmoid step, forward and backward, at (32, 64, 512): 8 MiB a map.
    shape = (32, 64, 512)
    rng = np.random.default_rng(0)
    l1, l2 = Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape))
    gate, head = init_gate_params(shape[2], seed=0), init_head(shape[2], 3)
    params = [*trainable(gate.state()).values(), head.weight, head.bias]
    tracemalloc.start()
    try:
        fused, _ = fuse_layers(l1, l2, gate, "sigmoid", "full", training=True)
        loss = softmax_cross_entropy(head.logits(mean_pool_tokens(fused)), rng.integers(0, 3, size=shape[0]))
        del fused
        backward(loss, wrt=params)
        del loss
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * l1.data.nbytes


# (weight shape given the (B, T, C) shape, leading axes on the weight)
@pytest.mark.parametrize("weight_shape, leading", [(_same, ()), (_token, ()), (_same, (3,)), (_token, (3,))])
def test_mix_is_the_three_op_chain_bit_for_bit(weight_shape, leading):
    rng = np.random.default_rng(27)
    shape = (4, 5, 6)
    mean, difference = parameter(rng.normal(size=shape)), parameter(rng.normal(size=shape))
    weight = parameter(rng.uniform(size=leading + weight_shape(shape)))
    outs = [broadcast_add(mean, elementwise_mul(difference, shift(weight, -0.5))), mix(mean, difference, weight)]
    assert outs[0].data.tobytes() == outs[1].data.tobytes()
    if not leading:  # backward takes rank-3 graphs only
        g = Tensor(rng.normal(size=shape))
        grads = []
        for out in outs:
            backward(tensor_sum(elementwise_mul(out, g)), wrt=[mean, difference, weight])
            grads.append([t.grad.tobytes() for t in (mean, difference, weight)])
        assert grads[0] == grads[1]


def _captured(node):
    """The values a node's backward closure captured, by name."""
    bw = node.backward
    return dict(zip(bw.__code__.co_freevars, (cell.cell_contents for cell in bw.__closure__)))


# (input shape, slice budget in values): rows of 12 values in slices of 2, 2
# and 1 rows or of one row each, pooled rows of 4 values in slices of 2, 2
# and 1, and an empty batch.
SLICED_BACKWARD_CASES = [((5, 3, 4), 25), ((5, 3, 4), 5), ((5, 1, 4), 9), ((0, 3, 4), 25)]


@pytest.mark.parametrize("shape, budget", SLICED_BACKWARD_CASES)
def test_sliced_sigmoid_backward_equals_one_expression(monkeypatch, shape, budget):
    monkeypatch.setattr(tensor_module, "CHUNK_VALUES", budget)
    out = sigmoid(Tensor(RNG.normal(size=shape) * 4.0))
    g = RNG.normal(size=shape)
    values = out.data
    (grad,) = out.node.backward(g, [True])
    assert grad.shape == shape
    assert grad.tobytes() == (g * values * (1.0 - values)).tobytes()


@pytest.mark.parametrize("shape, budget", SLICED_BACKWARD_CASES)
def test_sliced_batch_norm_backward_equals_one_expression(monkeypatch, shape, budget):
    monkeypatch.setattr(tensor_module, "CHUNK_VALUES", budget)
    state = BatchNormState(4)
    state.gamma.data[:] = RNG.normal(size=4)
    g = RNG.normal(size=shape)
    # An empty batch has no statistics: its 0/0 is computed and not read.
    with np.errstate(invalid="ignore", divide="ignore"):
        out = batch_norm(Tensor(RNG.normal(size=shape) * 3.0 + 1.0), state, training=True)
        grads = out.node.backward(g, [True, True, True])
        kept = _captured(out.node)
        gamma, inv_std, x_hat, count = (kept[name] for name in ("gamma", "inv_std", "x_hat", "count"))
        g_x_hat, g_sum = np.add.reduce(g * x_hat, axis=(0, 1)), np.add.reduce(g, axis=(0, 1))
        whole = gamma * inv_std * (g - g_sum / count - x_hat * (g_x_hat / count))
    assert grads[0].shape == shape
    assert grads[0].tobytes() == whole.tobytes()
    assert grads[1].tobytes() == g_x_hat.tobytes() and grads[2].tobytes() == g_sum.tobytes()


# The cases above and a rank-4 input: two leading entries of 60 values, one per slice.
SLICED_FORWARD_CASES = SLICED_BACKWARD_CASES + [((2, 5, 3, 4), 25)]


@pytest.mark.parametrize("shape, budget", SLICED_FORWARD_CASES)
def test_sliced_sigmoid_forward_equals_one_expression(monkeypatch, shape, budget):
    monkeypatch.setattr(tensor_module, "CHUNK_VALUES", budget)
    x = RNG.normal(size=shape) * 4.0
    edges = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]
    x.reshape(-1)[:len(edges)] = edges[:x.size]
    e = np.exp(-np.abs(x))
    whole = np.where(x >= 0, 1.0, e) / (1.0 + e)
    np.maximum(whole, tensor_module.SIGMOID_FLOOR, out=whole)
    np.minimum(whole, tensor_module.SIGMOID_CEIL, out=whole)
    assert sigmoid(Tensor(x)).data.tobytes() == whole.tobytes()


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape, budget", SLICED_FORWARD_CASES)
def test_in_place_batch_norm_forward_equals_one_expression(monkeypatch, shape, budget, training):
    monkeypatch.setattr(tensor_module, "CHUNK_VALUES", budget)
    # A rank-4 input's gamma and beta carry its leading axes.
    leading = shape[:-3] + (1, 1) if len(shape) > 3 else ()
    state = BatchNormState(4)
    state.gamma, state.beta = Tensor(RNG.normal(size=leading + (4,))), Tensor(RNG.normal(size=leading + (4,)))
    state.running_mean[...] = RNG.normal(size=4)
    state.running_var[...] = RNG.uniform(0.5, 2.0, size=4)
    mean, var = state.running_mean.copy(), state.running_var.copy()
    x = RNG.normal(size=shape) * 3.0 + 1.0
    # An empty batch has no statistics: its 0/0 is computed and not read.
    with np.errstate(invalid="ignore", divide="ignore"):
        out = batch_norm(Tensor(x), state, training=training)
        if training:
            count = shape[-3] * shape[-2]
            mean = np.add.reduce(x, axis=(-3, -2), keepdims=True) / count
            var = np.add.reduce((x - mean) * (x - mean), axis=(-3, -2), keepdims=True) / count
        whole = state.gamma.data * ((x - mean) * (1.0 / np.sqrt(var + state.eps))) + state.beta.data
    assert out.data.tobytes() == whole.tobytes()


def test_a_dropped_op_output_is_freed_while_its_child_lives():
    x = parameter(RNG.normal(size=(2, 3, 4)))
    total = broadcast_add(x, x)  # its backward reads no data
    freed = weakref.ref(total.data)
    loss = tensor_sum(scale(total, 0.5))
    del total
    assert freed() is None
    backward(loss, wrt=[x])
    npt.assert_array_equal(x.grad, np.ones((2, 3, 4)))
