"""Rank-3 feature tensors with reverse-mode gradients.

A feature map is a (batch, tokens, channels) float64 array.  Every operation
returns a new tensor over a new graph node; ``backward`` replays the graph in
reverse and leaves exact gradients on each node it visited, including the
paths through the batch statistics of training-mode normalization.  Given
``wrt``, it computes only the gradients that lead to those tensors and keeps
only theirs.

The graph keeps nodes, not data.  A node holds its gradient, its parents'
nodes and its backward closure, and the closure holds only the arrays and
token counts it reads, captured at forward time.  So an intermediate no
backward reads is freed once its caller drops the tensor, and rebinding a
parameter's ``.data`` between a forward and its backward does not reach that
backward; an in-place edit of the array does.

An op's forward also accepts leading axes in front of those three, on any
operand (a kernel as (P, 1, C, I), a vector as (P, 1, 1, C)); it checks only
the trailing dims and broadcasts the rest, so one forward evaluates P
variants of a graph, each slice bit for bit as its own rank-3 forward.
``backward`` and the closures take rank-3 graphs only.

An op's backward closure only computes: given one flag per parent that says
whether its gradient is wanted, it returns its parents' gradients, and
``backward`` alone stores them, copies a passed-through one and adds up
the contributions a tensor receives along several paths.
"""

import math

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
    "mix",
    "mean_pool_tokens",
    "conv1x1",
    "batch_norm",
    "relu",
    "sigmoid",
]

# Sigmoid outputs are pinned to the open interval so downstream convex mixes
# can never leave the [min, max] envelope of their operands.
SIGMOID_CEIL = float(np.nextafter(1.0, 0.0))
SIGMOID_FLOOR = float(np.nextafter(0.0, 1.0))

# Values per slice of rows that ``_row_slices`` cuts by default: an op's slice
# and an eval chunk (``fusion.eval_chunks``), 1 MiB of float64, unless one row holds more.
CHUNK_VALUES = 2**17


class DimensionError(ValueError):
    """Operand shapes violate an operation's contract."""


class DegenerateBatchError(ValueError):
    """Training-mode normalization was asked to use a single sample."""


class _Node:
    """A tensor's place in the graph: its gradient, its parents' nodes and its backward.

    It holds no data; ``size`` counts the values of the data it was made over.
    """

    __slots__ = ("grad", "parents", "backward", "size")

    def __init__(self, parents, backward, size):
        self.grad = None
        self.parents = parents
        self.backward = backward
        self.size = size


class Tensor:
    """Float64 array plus its node for reverse-mode differentiation."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = _Node((), None, self.data.size)

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def parameter(data):
    """Leaf tensor that owns its storage, for a model's trainable values."""
    return Tensor(np.array(data, dtype=np.float64))


def _node(data, parents, backward):
    """Tensor over ``data`` linked to the nodes of ``parents``; ``backward(g, wanted)`` returns their gradients.

    The closure returns one gradient per parent, in ``parents`` order: the
    incoming ``g`` itself or an array it has just made.  ``wanted`` holds one
    flag per parent, in the same order; the closure may skip the work for a
    parent whose flag is false and return None in its place, and ``backward``
    stores nothing into such a parent either way.  The closure captures the
    arrays and token counts it reads, never an operand tensor, so no other
    data of the forward lives on in the graph.

    Every op passes a float64 ndarray it has just made, so ``Tensor``'s
    conversion is skipped.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.node = _Node(tuple(p.node for p in parents), backward, data.size)
    return out


def _topological_order(root):
    """The nodes tensor ``root`` reaches, its own included, each parent before its children."""
    root = root.node
    order = []
    visited = {id(root)}
    stack = [(root, 0)]
    while stack:
        node, child = stack.pop()
        if child < len(node.parents):
            stack.append((node, child + 1))
            parent = node.parents[child]
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, 0))
        else:
            order.append(node)
    return order


def _send(node, wanted):
    # The one place gradients are stored, in a frame of its own so no local
    # outlives the step.  No two share memory: a first gradient is stored as
    # returned, copied if it is ``g`` itself; a later one is added out of place.
    g = node.grad
    flags = [id(parent) in wanted for parent in node.parents]
    for parent, flag, grad in zip(node.parents, flags, node.backward(g, flags)):
        if not flag:
            continue
        if parent.grad is None:
            parent.grad = grad.copy() if grad is g else grad
        else:
            parent.grad = parent.grad + grad


def backward(loss, seed=1.0, wrt=None):
    """Run reverse-mode accumulation from a scalar loss tensor.

    Gradients of every node reachable from ``loss`` are reset first, so each
    call produces the gradients of exactly this computation.  A tensor used
    several times inside the graph accumulates the sum of all path
    contributions.

    ``wrt`` holds the tensors whose gradients the caller reads, by default
    every node ``loss`` reaches.  Only the nodes on a path from one of them
    to ``loss`` get a gradient, and only the tensors of ``wrt`` keep it (None
    where ``loss`` does not reach them), bit for bit the default's.
    """
    if loss.data.size != 1:
        raise ValueError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    order = _topological_order(loss)
    kept = order if wrt is None else [t.node for t in wrt]
    for node in {*order, *kept}:  # a tensor of ``wrt`` that ``loss`` does not reach ends at None too
        node.grad = None
    keep = set(map(id, kept))
    # ``order`` lists parents before children, so one sweep marks every
    # node that a tensor of ``wrt`` reaches.
    wanted = set(keep)
    for node in order:
        if any(id(parent) in wanted for parent in node.parents):
            wanted.add(id(node))
    loss.grad = np.full_like(loss.data, float(seed))
    for node in reversed(order):
        if node.backward is not None and node.grad is not None:
            _send(node, wanted)
            if id(node) not in keep:
                node.grad = None


def _require_rank3(op, *tensors):
    for t in tensors:
        if t.data.ndim < 3:
            raise DimensionError(
                f"{op} expects (batch, tokens, channels) tensors, got shape "
                f"{t.data.shape}"
            )


def _row_slices(shape, budget=None):
    """Slices of the first axis of ``shape``: at most ``budget`` (or CHUNK_VALUES) values, at least one row each."""
    rows = max(1, (CHUNK_VALUES if budget is None else budget) // max(1, math.prod(shape[1:])))
    return [slice(start, start + rows) for start in range(0, shape[0], rows)]


def _sum_tokens_to(grad, tokens):
    """``grad`` for an operand of ``tokens`` tokens: summed over the token axis where it held one."""
    return grad if tokens == grad.shape[1] else grad.sum(axis=1, keepdims=True)


def broadcast_add(a, b):
    """Elementwise sum; a token axis of length 1 replicates across tokens."""
    _require_rank3("broadcast_add", a, b)
    (ba, ta, ea), (bb, tb, eb) = a.data.shape[-3:], b.data.shape[-3:]
    if ba != bb or ea != eb or (ta != tb and 1 not in (ta, tb)):
        raise DimensionError(
            f"broadcast_add: incompatible shapes {a.data.shape} and {b.data.shape}"
        )

    def _bw(g, wanted):
        return (_sum_tokens_to(g, ta) if wanted[0] else None,
                _sum_tokens_to(g, tb) if wanted[1] else None)

    return _node(a.data + b.data, (a, b), _bw)


def elementwise_mul(a, b):
    """Hadamard product; ``b`` may carry a single token broadcast over T."""
    _require_rank3("elementwise_mul", a, b)
    (ba, ta, ea), (bb, tb, eb) = a.data.shape[-3:], b.data.shape[-3:]
    if not (ba == bb and ea == eb and tb in (ta, 1)):
        raise DimensionError(
            f"elementwise_mul: incompatible shapes {a.data.shape} and "
            f"{b.data.shape}"
        )

    x, y = a.data, b.data

    def _bw(g, wanted):
        return (g * y if wanted[0] else None,
                _sum_tokens_to(g * x, tb) if wanted[1] else None)

    return _node(x * y, (a, b), _bw)


def sub(a, b):
    """Elementwise difference of two same-shape feature tensors."""
    _require_rank3("sub", a, b)
    if a.data.shape[-3:] != b.data.shape[-3:]:
        raise DimensionError(
            f"sub: incompatible shapes {a.data.shape} and {b.data.shape}"
        )

    def _bw(g, wanted):
        return g, (-g if wanted[1] else None)

    return _node(a.data - b.data, (a, b), _bw)


def scale(t, factor):
    """Multiply every entry by a constant."""
    factor = float(factor)

    def _bw(g, wanted):
        return (g * factor,)

    return _node(t.data * factor, (t,), _bw)


def shift(t, offset):
    """Add a constant to every entry."""

    def _bw(g, wanted):
        return (g,)

    return _node(t.data + float(offset), (t,), _bw)


def mix(mean, difference, weight):
    """mean + difference * (weight - 1/2), the gate's convex mix as one op; ``weight`` may carry one token.

    The bits of ``broadcast_add(mean, elementwise_mul(difference, shift(weight, -0.5)))``
    without its intermediate maps; the backward recomputes weight - 1/2 where it reads it.
    """
    _require_rank3("mix", mean, difference, weight)
    (bm, tm, em), (bw, tw, ew) = mean.data.shape[-3:], weight.data.shape[-3:]
    if difference.data.shape[-3:] != (bm, tm, em) or not (bw == bm and ew == em and tw in (tm, 1)):
        raise DimensionError(
            f"mix: incompatible shapes {mean.data.shape}, {difference.data.shape} and "
            f"{weight.data.shape}"
        )

    d, w = difference.data, weight.data

    def _bw(g, wanted):
        return (g if wanted[0] else None,
                g * (w - 0.5) if wanted[1] else None,
                _sum_tokens_to(g * d, tw) if wanted[2] else None)

    out = np.empty(np.broadcast_shapes(mean.data.shape, d.shape, w.shape))
    np.subtract(w, 0.5, out=out)
    out *= d
    out += mean.data
    return _node(out, (mean, difference, weight), _bw)


def mean_pool_tokens(w):
    """Average over the token axis, keeping shape (batch, 1, channels)."""
    _require_rank3("mean_pool_tokens", w)
    tokens = w.data.shape[-2]

    def _bw(g, wanted):
        return (np.repeat(g / tokens, tokens, axis=1),)

    # The sum and divide that ``ndarray.mean`` runs, without its Python layer:
    # the same bits.
    return _node(np.add.reduce(w.data, axis=-2, keepdims=True) / tokens, (w,), _bw)


def conv1x1(w, kernel, bias):
    """Per-token affine map, i.e. a width-1 convolution over tokens."""
    _require_rank3("conv1x1", w)
    if kernel.data.ndim < 2:
        raise DimensionError(f"conv1x1 kernel must be at least 2-D, got {kernel.data.shape}")
    if bias.data.ndim < 1 or bias.data.shape[-1] != kernel.data.shape[-1]:
        raise DimensionError(
            f"conv1x1 bias shape {bias.data.shape} does not match kernel "
            f"{kernel.data.shape}"
        )
    if kernel.data.shape[-2] != w.data.shape[-1]:
        raise DimensionError(
            f"conv1x1: input has {w.data.shape[-1]} channels but kernel expects "
            f"{kernel.data.shape[-2]}"
        )

    x, k = w.data, kernel.data

    def _bw(g, wanted):
        return (g @ k.T if wanted[0] else None,
                np.tensordot(x, g, axes=((0, 1), (0, 1))) if wanted[1] else None,
                g.sum(axis=(0, 1)) if wanted[2] else None)

    return _node(x @ k + bias.data, (w, kernel, bias), _bw)


def relu(t):
    """max(0, x); the subgradient at exactly zero is taken as zero."""
    mask = t.data > 0.0

    def _bw(g, wanted):
        return (g * mask,)

    return _node(np.maximum(t.data, 0.0), (t,), _bw)


def sigmoid(t):
    """Numerically stable logistic map with outputs strictly inside (0, 1)."""
    x = t.data
    values = np.empty(x.shape)
    # np.where(x >= 0, 1.0, e) / (1.0 + e) with e = exp(-|x|), so exp never
    # overflows, a slice of rows at a time into the output: a slice's temporaries stay in cache.
    for rows in _row_slices(x.shape):
        out = values[rows]
        np.abs(x[rows], out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        e = out + 1.0
        np.copyto(out, 1.0, where=x[rows] >= 0)
        out /= e
        np.maximum(out, SIGMOID_FLOOR, out=out)
        np.minimum(out, SIGMOID_CEIL, out=out)

    def _bw(g, wanted):
        # g * values * (1 - values), the second factor applied a slice of
        # rows at a time: no whole-map temporary is alive beside the product.
        grad = g * values
        for rows in _row_slices(grad.shape):
            grad[rows] *= 1.0 - values[rows]
        return (grad,)

    return _node(values, (t,), _bw)


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

    # Attributes that hold stored values, in the order a params file's walk visits them.
    STATE = ("gamma", "beta", "running_mean", "running_var", "eps", "momentum")

    def _validate(self):
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
        return self.gamma.data.shape[-1]


def batch_norm(w, state, training=False):
    """Normalize each channel over all (batch, token) positions.

    With ``training`` the call uses the population statistics of the current
    batch and, for a rank-3 input, folds them into the running estimates;
    leading axes get statistics each of their own, and no fold.  Otherwise
    it applies the stored running statistics unchanged.  Gradients in
    training calls flow through the batch statistics, not around them.
    """
    _require_rank3("batch_norm", w)
    if state.channels != w.data.shape[-1]:
        raise DimensionError(
            f"batch_norm: input has {w.data.shape[-1]} channels but state has "
            f"{state.channels}"
        )
    x, gamma = w.data, state.gamma.data
    if training:
        count = x.shape[-3] * x.shape[-2]
        if count == 1:
            raise DegenerateBatchError(
                "training-mode batch_norm needs more than one (batch, token) "
                f"position, got input shape {x.shape}"
            )
        # The sum, divide, subtract, square and sum that ``ndarray.mean`` and
        # ``ndarray.var`` run, without their Python layer: the same bits.
        mean = np.add.reduce(x, axis=(-3, -2), keepdims=True) / count
        x_hat = x - mean
        var = np.add.reduce(x_hat * x_hat, axis=(-3, -2), keepdims=True) / count
        inv_std = 1.0 / np.sqrt(var + state.eps)
        if x.ndim == 3:
            m = state.momentum
            for running, batch in ((state.running_mean, mean), (state.running_var, var)):
                running *= 1.0 - m
                running += m * batch[0, 0]
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        x_hat = x - state.running_mean
    x_hat *= inv_std  # the centered input, normalized in place

    def _bw(g, wanted):
        # Both reductions also feed the input gradient of a training call.
        g_x_hat = np.add.reduce(g * x_hat, axis=(0, 1))
        g_sum = np.add.reduce(g, axis=(0, 1))
        if not wanted[0]:
            gw = None
        elif training:
            # gamma * inv_std * (g - g_sum / count - x_hat * (g_x_hat / count)),
            # each step after the first applied a slice of rows at a time.
            gw = g - g_sum / count
            for rows in _row_slices(gw.shape):
                gw[rows] -= x_hat[rows] * (g_x_hat / count)
                gw[rows] *= gamma * inv_std
        else:
            gw = g * (gamma * inv_std)
        return gw, g_x_hat, g_sum

    # gamma * x_hat + beta in one array; gradcheck's probes give gamma and
    # beta leading axes that x_hat lacks.
    out = np.empty(np.broadcast_shapes(gamma.shape, x_hat.shape, state.beta.data.shape))
    np.multiply(gamma, x_hat, out=out)
    out += state.beta.data
    return _node(out, (w, state.gamma, state.beta), _bw)
