"""Reverse-mode gradients and the finite-difference oracle."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerfuse import (
    GATE_MODES,
    VARIANTS,
    BatchNormState,
    Tensor,
    backward,
    batch_norm,
    broadcast_add,
    conv1x1,
    elementwise_mul,
    fuse_layers,
    init_gate_params,
    init_head,
    mean_pool_tokens,
    parameter,
    relu,
    shift,
    sigmoid,
    softmax_cross_entropy,
    sub,
    tensor_sum,
)
from layerfuse.gradcheck import (
    EvaluationError,
    classification_pipeline,
    finite_difference_check,
)
from layerfuse.tensor import _topological_order

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
        if x.data[0, 0, 0] != origin:
            return Tensor(np.asarray(np.inf))
        return tensor_sum(x)

    with pytest.raises(EvaluationError, match="x"):
        finite_difference_check(loss_fn, {"x": x})


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


def test_report_table_format():
    loss_fn, params = classification_pipeline(3, shape=(2, 2, 4), classes=2)
    report = finite_difference_check(loss_fn, params)
    table = report.format_table()
    assert "parameter" in table and "head.weight" in table
    assert all(check.error_kind in ("relative", "absolute") for check in report.parameters)


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
    return loss, {**gate.parameters(), **head.parameters()}, (l1, l2, fused)


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
    kept = {id(p) for p in params.values()}
    assert all(node.grad is None for node in _topological_order(loss) if id(node) not in kept)
