"""Rank-3 feature tensors with reverse-mode gradients.

A feature map is a (batch, tokens, channels) float64 array.  Every operation
returns a new graph node; ``backward`` replays the graph in reverse and
leaves exact gradients on each node it visited, including the paths through
the batch statistics of training-mode normalization.
"""

import numpy as np

__all__ = [
    "Tensor",
    "BatchNormState",
    "DimensionError",
    "DegenerateBatchError",
    "parameter",
    "backward",
    "broadcast_add",
    "elementwise_mul",
    "sub",
    "scale",
    "shift",
    "mean_pool_tokens",
    "conv1x1",
    "batch_norm",
    "relu",
    "sigmoid",
    "tensor_sum",
]

# Sigmoid outputs are pinned to the open interval so downstream convex mixes
# can never leave the [min, max] envelope of their operands.
SIGMOID_CEIL = float(np.nextafter(1.0, 0.0))
SIGMOID_FLOOR = float(np.nextafter(0.0, 1.0))


class DimensionError(ValueError):
    """Operand shapes violate an operation's contract."""


class DegenerateBatchError(ValueError):
    """Training-mode normalization was asked to use a single sample."""


class Tensor:
    """Float64 array plus the wiring for reverse-mode differentiation."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def parameter(data):
    """Leaf tensor that owns its storage, for a model's trainable values."""
    return Tensor(np.array(data, dtype=np.float64))


def _accumulate(node, grad):
    # Never mutate a gradient array in place: it may be shared with another
    # node's incoming gradient.
    if node.grad is None:
        node.grad = np.array(grad, dtype=np.float64)
    else:
        node.grad = node.grad + grad


def _node(data, parents, backward):
    """Graph node over ``data``; ``backward(g)`` sends its gradient to ``parents``."""
    node = Tensor(data)
    node._parents = parents
    node._backward = backward
    return node


def _topological_order(root):
    order = []
    visited = {id(root)}
    stack = [(root, 0)]
    while stack:
        node, child = stack.pop()
        if child < len(node._parents):
            stack.append((node, child + 1))
            parent = node._parents[child]
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, 0))
        else:
            order.append(node)
    return order


def backward(loss, seed=1.0):
    """Run reverse-mode accumulation from a scalar loss node.

    Gradients of every node reachable from ``loss`` are reset first, so each
    call produces the gradients of exactly this computation.  A tensor used
    several times inside the graph accumulates the sum of all path
    contributions.
    """
    if loss.data.size != 1:
        raise ValueError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    order = _topological_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.full_like(loss.data, float(seed))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _require_rank3(op, *tensors):
    for t in tensors:
        if t.data.ndim != 3:
            raise DimensionError(
                f"{op} expects (batch, tokens, channels) tensors, got shape "
                f"{t.data.shape}"
            )


def broadcast_add(a, b):
    """Elementwise sum; a token axis of length 1 replicates across tokens."""
    _require_rank3("broadcast_add", a, b)
    (ba, ta, ea), (bb, tb, eb) = a.data.shape, b.data.shape
    if ba != bb or ea != eb or (ta != tb and 1 not in (ta, tb)):
        raise DimensionError(
            f"broadcast_add: incompatible shapes {a.data.shape} and {b.data.shape}"
        )

    def _bw(g):
        for side in (a, b):
            if side.data.shape[1] == g.shape[1]:
                _accumulate(side, g)
            else:
                _accumulate(side, g.sum(axis=1, keepdims=True))

    return _node(a.data + b.data, (a, b), _bw)


def elementwise_mul(a, b):
    """Hadamard product; ``b`` may carry a single token broadcast over T."""
    _require_rank3("elementwise_mul", a, b)
    if a.data.shape != b.data.shape:
        (ba, _, ea), (bb, tb, eb) = a.data.shape, b.data.shape
        if not (ba == bb and ea == eb and tb == 1):
            raise DimensionError(
                f"elementwise_mul: incompatible shapes {a.data.shape} and "
                f"{b.data.shape}"
            )

    def _bw(g):
        _accumulate(a, g * b.data)
        gb = g * a.data
        if b.data.shape[1] != g.shape[1]:
            gb = gb.sum(axis=1, keepdims=True)
        _accumulate(b, gb)

    return _node(a.data * b.data, (a, b), _bw)


def sub(a, b):
    """Elementwise difference of two same-shape feature tensors."""
    _require_rank3("sub", a, b)
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"sub: incompatible shapes {a.data.shape} and {b.data.shape}"
        )

    def _bw(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(a.data - b.data, (a, b), _bw)


def scale(t, factor):
    """Multiply every entry by a constant."""
    factor = float(factor)

    def _bw(g):
        _accumulate(t, g * factor)

    return _node(t.data * factor, (t,), _bw)


def shift(t, offset):
    """Add a constant to every entry."""

    def _bw(g):
        _accumulate(t, g)

    return _node(t.data + float(offset), (t,), _bw)


def mean_pool_tokens(w):
    """Average over the token axis, keeping shape (batch, 1, channels)."""
    _require_rank3("mean_pool_tokens", w)
    tokens = w.data.shape[1]

    def _bw(g):
        _accumulate(w, np.broadcast_to(g / tokens, w.data.shape).copy())

    return _node(w.data.mean(axis=1, keepdims=True), (w,), _bw)


def conv1x1(w, kernel, bias):
    """Per-token affine map, i.e. a width-1 convolution over tokens."""
    _require_rank3("conv1x1", w)
    if kernel.data.ndim != 2:
        raise DimensionError(f"conv1x1 kernel must be 2-D, got {kernel.data.shape}")
    if bias.data.ndim != 1 or bias.data.shape[0] != kernel.data.shape[1]:
        raise DimensionError(
            f"conv1x1 bias shape {bias.data.shape} does not match kernel "
            f"{kernel.data.shape}"
        )
    if kernel.data.shape[0] != w.data.shape[2]:
        raise DimensionError(
            f"conv1x1: input has {w.data.shape[2]} channels but kernel expects "
            f"{kernel.data.shape[0]}"
        )

    def _bw(g):
        _accumulate(w, g @ kernel.data.T)
        _accumulate(kernel, np.tensordot(w.data, g, axes=((0, 1), (0, 1))))
        _accumulate(bias, g.sum(axis=(0, 1)))

    return _node(w.data @ kernel.data + bias.data, (w, kernel, bias), _bw)


def relu(t):
    """max(0, x); the subgradient at exactly zero is taken as zero."""
    mask = t.data > 0.0

    def _bw(g):
        _accumulate(t, g * mask)

    return _node(np.maximum(t.data, 0.0), (t,), _bw)


def sigmoid(t):
    """Numerically stable logistic map with outputs strictly inside (0, 1)."""
    x = t.data
    values = np.empty_like(x)
    pos = x >= 0
    values[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    values[~pos] = ex / (1.0 + ex)
    np.clip(values, SIGMOID_FLOOR, SIGMOID_CEIL, out=values)

    def _bw(g):
        _accumulate(t, g * values * (1.0 - values))

    return _node(values, (t,), _bw)


def tensor_sum(t):
    """Sum of all entries as a scalar node."""

    def _bw(g):
        _accumulate(t, np.full(t.data.shape, float(g)))

    return _node(np.asarray(t.data.sum()), (t,), _bw)


class BatchNormState:
    """Learnable per-channel scale/shift plus running statistics.

    ``batch_norm`` with ``training=True`` updates the running estimates with
    the configured momentum, so a state must not be shared across threads
    in training calls.
    """

    def __init__(self, channels, eps=1e-5, momentum=0.1):
        if channels < 1:
            raise DimensionError("batch norm needs at least one channel")
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.eps = eps
        self.momentum = momentum
        self._validate()

    # Attributes that hold stored values; ``from_arrays`` takes them as keywords.
    STATE = ("gamma", "beta", "running_mean", "running_var", "eps", "momentum")

    @classmethod
    def from_arrays(cls, gamma, beta, running_mean, running_var, eps, momentum):
        state = cls(len(np.atleast_1d(gamma)), eps=eps, momentum=momentum)
        state.gamma = parameter(gamma)
        state.beta = parameter(beta)
        state.running_mean = np.array(running_mean, dtype=np.float64)
        state.running_var = np.array(running_var, dtype=np.float64)
        state._validate()
        return state

    def _validate(self):
        lengths = {
            self.gamma.data.shape,
            self.beta.data.shape,
            self.running_mean.shape,
            self.running_var.shape,
        }
        if len(lengths) != 1 or self.gamma.data.ndim != 1:
            raise DimensionError(
                "batch norm parameter vectors must share one 1-D shape, got "
                f"gamma {self.gamma.data.shape}, beta {self.beta.data.shape}, "
                f"running_mean {self.running_mean.shape}, "
                f"running_var {self.running_var.shape}"
            )
        if not self.eps > 0:
            raise ValueError("batch norm eps must be positive")
        if not 0.0 < self.momentum < 1.0:
            raise ValueError("batch norm momentum must lie in (0, 1)")
        if np.any(self.running_var < 0):
            raise ValueError("batch norm running variance must be non-negative")
        self.eps = float(self.eps)
        self.momentum = float(self.momentum)

    @property
    def channels(self):
        return self.gamma.data.shape[0]


def batch_norm(w, state, training=False):
    """Normalize each channel over all (batch, token) positions.

    With ``training`` the call uses the population statistics of the current
    batch and folds them into the running estimates; otherwise it applies
    the stored running statistics unchanged.  Gradients in training calls
    flow through the batch statistics, not around them.
    """
    _require_rank3("batch_norm", w)
    if state.channels != w.data.shape[2]:
        raise DimensionError(
            f"batch_norm: input has {w.data.shape[2]} channels but state has "
            f"{state.channels}"
        )
    x = w.data
    gamma, beta = state.gamma, state.beta
    if training:
        if x.shape[0] * x.shape[1] == 1:
            raise DegenerateBatchError(
                "training-mode batch_norm needs more than one (batch, token) "
                f"position, got input shape {x.shape}"
            )
        mean = x.mean(axis=(0, 1))
        var = x.var(axis=(0, 1))
        inv_std = 1.0 / np.sqrt(var + state.eps)
        x_hat = (x - mean) * inv_std
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mean
        state.running_var = (1.0 - m) * state.running_var + m * var
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        x_hat = (x - state.running_mean) * inv_std

    def _bw(g):
        _accumulate(gamma, (g * x_hat).sum(axis=(0, 1)))
        _accumulate(beta, g.sum(axis=(0, 1)))
        if training:
            gw = gamma.data * inv_std * (
                g - g.mean(axis=(0, 1)) - x_hat * (g * x_hat).mean(axis=(0, 1))
            )
        else:
            gw = g * (gamma.data * inv_std)
        _accumulate(w, gw)

    return _node(gamma.data * x_hat + beta.data, (w, gamma, beta), _bw)
