"""Rank-3 feature tensors with reverse-mode gradients.

A feature map is a (batch, tokens, channels) float64 array.  Every operation
returns a new graph node; ``backward`` replays the graph in reverse and
leaves exact gradients on each node it visited, including the paths through
the batch statistics of training-mode normalization.  Given ``wrt``, it
computes only the gradients that lead to those tensors and keeps only theirs.
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


def _accumulate(node, grad, copy=False):
    # No two nodes' gradients share memory.  A first gradient is stored as
    # given, so callers pass an array they have just allocated, or set
    # ``copy`` when they pass their own incoming gradient through; a later
    # one is added out of place, never into a stored array.
    if node.grad is None:
        node.grad = grad.copy() if copy else grad
    else:
        node.grad = node.grad + grad


def _node(data, parents, backward):
    """Graph node over ``data``; ``backward(g, wanted)`` sends its gradient to ``parents``.

    ``wanted`` holds the ids of the nodes that need a gradient; the closure
    computes and accumulates a parent's gradient only if its id is there.

    Every op passes a float64 ndarray it has just made, so ``Tensor``'s
    conversion is skipped.
    """
    node = Tensor.__new__(Tensor)
    node.data = data
    node.grad = None
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


def backward(loss, seed=1.0, wrt=None):
    """Run reverse-mode accumulation from a scalar loss node.

    Gradients of every node reachable from ``loss`` are reset first, so each
    call produces the gradients of exactly this computation.  A tensor used
    several times inside the graph accumulates the sum of all path
    contributions.

    Given ``wrt``, the tensors whose gradients the caller reads, only the
    nodes on a path from one of them to ``loss`` get a gradient, and only the
    tensors of ``wrt`` keep it (None where ``loss`` does not reach them).
    Theirs equal the full pass's bit for bit: same expressions, same order.
    """
    if loss.data.size != 1:
        raise ValueError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    order = _topological_order(loss)
    for node in order:
        node.grad = None
    if wrt is None:
        keep = None
        wanted = {id(node) for node in order}
    else:
        keep = set()
        for node in wrt:
            node.grad = None
            keep.add(id(node))
        # ``order`` lists parents before children, so one sweep marks every
        # node that a tensor of ``wrt`` reaches.
        wanted = set(keep)
        for node in order:
            if any(id(parent) in wanted for parent in node._parents):
                wanted.add(id(node))
    loss.grad = np.full_like(loss.data, float(seed))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad, wanted)
            if keep is not None and id(node) not in keep:
                node.grad = None


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

    def _bw(g, wanted):
        for side in (a, b):
            if id(side) not in wanted:
                continue
            if side.data.shape[1] == g.shape[1]:
                _accumulate(side, g, copy=True)
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

    def _bw(g, wanted):
        if id(a) in wanted:
            _accumulate(a, g * b.data)
        if id(b) in wanted:
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

    def _bw(g, wanted):
        if id(a) in wanted:
            _accumulate(a, g, copy=True)
        if id(b) in wanted:
            _accumulate(b, -g)

    return _node(a.data - b.data, (a, b), _bw)


def scale(t, factor):
    """Multiply every entry by a constant."""
    factor = float(factor)

    def _bw(g, wanted):
        if id(t) in wanted:
            _accumulate(t, g * factor)

    return _node(t.data * factor, (t,), _bw)


def shift(t, offset):
    """Add a constant to every entry."""

    def _bw(g, wanted):
        if id(t) in wanted:
            _accumulate(t, g, copy=True)

    return _node(t.data + float(offset), (t,), _bw)


def mean_pool_tokens(w):
    """Average over the token axis, keeping shape (batch, 1, channels)."""
    _require_rank3("mean_pool_tokens", w)
    tokens = w.data.shape[1]

    def _bw(g, wanted):
        if id(w) in wanted:
            _accumulate(w, np.repeat(g / tokens, tokens, axis=1))

    # The sum and divide that ``ndarray.mean`` runs, without its Python layer:
    # the same bits.
    return _node(np.add.reduce(w.data, axis=1, keepdims=True) / tokens, (w,), _bw)


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

    def _bw(g, wanted):
        if id(w) in wanted:
            _accumulate(w, g @ kernel.data.T)
        if id(kernel) in wanted:
            _accumulate(kernel, np.tensordot(w.data, g, axes=((0, 1), (0, 1))))
        if id(bias) in wanted:
            _accumulate(bias, g.sum(axis=(0, 1)))

    return _node(w.data @ kernel.data + bias.data, (w, kernel, bias), _bw)


def relu(t):
    """max(0, x); the subgradient at exactly zero is taken as zero."""
    mask = t.data > 0.0

    def _bw(g, wanted):
        if id(t) in wanted:
            _accumulate(t, g * mask)

    return _node(np.maximum(t.data, 0.0), (t,), _bw)


def sigmoid(t):
    """Numerically stable logistic map with outputs strictly inside (0, 1)."""
    x = t.data
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below: exp never overflows.
    e = np.exp(-np.abs(x))
    values = np.where(x >= 0, 1.0, e) / (1.0 + e)
    np.maximum(values, SIGMOID_FLOOR, out=values)
    np.minimum(values, SIGMOID_CEIL, out=values)

    def _bw(g, wanted):
        if id(t) in wanted:
            _accumulate(t, g * values * (1.0 - values))

    return _node(values, (t,), _bw)


def tensor_sum(t):
    """Sum of all entries as a scalar node."""

    def _bw(g, wanted):
        if id(t) in wanted:
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
        # The sum, divide, subtract, square and sum that ``ndarray.mean`` and
        # ``ndarray.var`` run, without their Python layer: the same bits.
        count = x.shape[0] * x.shape[1]
        mean = np.add.reduce(x, axis=(0, 1)) / count
        centered = x - mean
        var = np.add.reduce(centered * centered, axis=(0, 1)) / count
        inv_std = 1.0 / np.sqrt(var + state.eps)
        x_hat = centered * inv_std
        m = state.momentum
        for running, batch in ((state.running_mean, mean), (state.running_var, var)):
            running *= 1.0 - m
            running += m * batch
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        x_hat = (x - state.running_mean) * inv_std

    def _bw(g, wanted):
        # Both reductions also feed the input gradient of a training call.
        g_x_hat = np.add.reduce(g * x_hat, axis=(0, 1))
        g_sum = np.add.reduce(g, axis=(0, 1))
        if id(gamma) in wanted:
            _accumulate(gamma, g_x_hat)
        if id(beta) in wanted:
            _accumulate(beta, g_sum)
        if id(w) in wanted:
            if training:
                gw = gamma.data * inv_std * (g - g_sum / count - x_hat * (g_x_hat / count))
            else:
                gw = g * (gamma.data * inv_std)
            _accumulate(w, gw)

    return _node(gamma.data * x_hat + beta.data, (w, gamma, beta), _bw)
