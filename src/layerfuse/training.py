"""Loss, optimizer, training loop, and the layer sweep."""

import concurrent.futures
import functools
from dataclasses import dataclass

import numpy as np

from .bank import DataError, check_document, check_fit
from .fusion import build_system, init_head, sentence_embeddings, stored_arrays, stored_values, trainable
from .seeding import STREAM_BATCHES, rng_stream
from .tensor import DegenerateBatchError, DimensionError, Tensor, _node, backward, mean_pool_tokens


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for one training run.

    The defaults are sized for the synthetic desk-scale tasks.
    """

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be a finite non-negative number, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not 0 <= self.weight_decay < float("inf"):
            raise ValueError(f"weight_decay must be a finite non-negative number, got {self.weight_decay!r}")

    @classmethod
    def from_dict(cls, doc):
        """Config from a JSON object; fields it omits keep their defaults."""
        check_document(cls, doc, ValueError, "train config")
        return cls(**doc)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Logits of shape (..., B, 1, K) give one loss per leading index, each bit
    for bit the loss of its own (B, 1, K) slice.
    """
    data = logits.data
    if data.ndim < 3 or data.shape[-2] != 1:
        raise DimensionError(f"logits must be (B, 1, K), got {data.shape}")
    flat = data[..., 0, :]
    labels = np.asarray(labels)
    count, classes = flat.shape[-2:]
    if labels.shape != (count,):
        raise DataError(f"{count} logit rows but {labels.shape} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise DataError(f"labels must lie in [0, {classes}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    shifted = flat - flat.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(count)
    probs = np.exp(log_probs)

    def _bw(g, wanted):
        grad = probs.copy()
        grad[rows, labels] -= 1.0
        grad *= float(g) / count
        return (grad.reshape(data.shape),)

    # Under leading axes the gather comes back strided, and a strided mean
    # sums in sequence rather than pairwise: gather into C order first.
    picked = np.ascontiguousarray(log_probs[..., rows, labels])
    return _node(np.asarray(-picked.mean(axis=-1)), (logits,), _bw)


class AdamW:
    """Adam moments with decoupled weight decay (Loshchilov & Hutter, ICLR 2019).

    Update: theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta.

    The optimizer adopts its parameters' storage: their values move into one
    float64 vector ``flat`` and each ``p.data`` becomes a view into it, so a
    step is a few whole-vector ops, written in place.
    """

    def __init__(self, params, config):
        self._params = list(dict(params).values())
        self._config = config
        self.flat = np.concatenate([p.data.reshape(-1) for p in self._params] or [np.zeros(0)])
        self._grad = np.zeros_like(self.flat)
        self._grads = []
        offset = 0
        for p in self._params:
            stop = offset + p.data.size
            p.data = self.flat[offset:stop].reshape(p.data.shape)
            self._grads.append(self._grad[offset:stop].reshape(p.data.shape))
            offset = stop
        self._m = np.zeros_like(self.flat)
        self._v = np.zeros_like(self.flat)
        self._steps = 0

    def step(self):
        cfg = self._config
        self._steps += 1
        correct1 = 1.0 - cfg.beta1 ** self._steps
        correct2 = 1.0 - cfg.beta2 ** self._steps
        for p, grad in zip(self._params, self._grads):
            if p.grad is None:
                grad.fill(0.0)  # a parameter the loss does not reach
            else:
                grad[...] = p.grad
        # The per-tensor expressions in their order, as in-place vector ops:
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        # step = (m/c1) / (sqrt(v/c2) + eps), p = p - lr*step - lr*wd*p.
        # The gradient buffer and one temporary are the only scratch.
        g, m, v, p = self._grad, self._m, self._v, self.flat
        m *= cfg.beta1
        m += g * (1.0 - cfg.beta1)
        v *= cfg.beta2
        t = g * (1.0 - cfg.beta2)
        t *= g
        v += t
        np.divide(v, correct2, out=t)
        np.sqrt(t, out=t)
        t += cfg.eps
        np.divide(m, correct1, out=g)
        g /= t
        g *= cfg.learning_rate
        np.multiply(p, cfg.learning_rate * cfg.weight_decay, out=t)
        p -= g
        p -= t


def sentence_loss(fused, head, labels):
    """The training objective: cross-entropy of the head on the token-mean of ``fused``."""
    return softmax_cross_entropy(head.logits(mean_pool_tokens(fused)), labels)


def train(system, head, bank, cfg):
    """Minimize softmax cross-entropy on the bank's train split.

    Batches are reshuffled each epoch from a seed-derived stream, the last
    partial batch is kept (a one-row tail joins the batch before it), and
    normalization runs in training mode.  A non-finite batch loss, parameter
    or running statistic stops the run with an error naming the epoch, batch
    and (for a stored value) its dotted name.  Returns the per-epoch mean
    loss curve; parameters are updated in place.
    """
    train_rows = bank.split_indices("train")
    if train_rows.size < 2:
        raise DataError(
            f"bank has {train_rows.size} sentences in the train split; training needs at least 2"
        )
    params = trainable(stored_values(system, head))
    optimizer = AdamW(params, cfg)
    # batch_norm updates the running statistics in place, so these stay
    # current; the empty leading array lets a baseline concatenate none.
    running = [np.zeros(0), *(v for name, v in stored_arrays(system, head)
                              if name not in params and isinstance(v, np.ndarray))]
    starts = list(range(0, train_rows.size, cfg.batch_size))
    if cfg.batch_size > 1 and train_rows.size - starts[-1] == 1:
        starts.pop()  # training-mode normalization rejects a one-row batch
    bounds = list(zip(starts, starts[1:] + [train_rows.size]))
    order = rng_stream(cfg.seed, STREAM_BATCHES)
    curve = []
    for epoch in range(1, cfg.epochs + 1):
        permuted = train_rows[order.permutation(train_rows.size)]
        total = 0.0
        for batch, (start, stop) in enumerate(bounds, 1):
            rows = permuted[start:stop]
            try:
                loss = sentence_loss(system.fused_batch(bank, rows, training=True), head, bank.labels[rows])
            except DegenerateBatchError as err:
                raise DegenerateBatchError(
                    f"{err}, at epoch {epoch}, batch {batch} with batch_size {cfg.batch_size}"
                ) from err
            if not np.isfinite(loss.data):
                raise ValueError(
                    f"training diverged: loss {float(loss.data)} at epoch {epoch}, batch {batch}"
                )
            backward(loss, wrt=params.values())
            total += float(loss.data) * rows.size
            # Release this step's graph before the next forward builds one.
            del loss
            optimizer.step()
            # One check over the adopted parameters, one over the running statistics.
            finite = np.isfinite(optimizer.flat).all() and np.isfinite(np.concatenate(running)).all()
            if not finite:
                name = next(name for name, v in stored_arrays(system, head) if not np.isfinite(v).all())
                raise ValueError(f"training diverged: non-finite {name} at epoch {epoch}, batch {batch}")
        curve.append(total / permuted.size)
    return curve


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    micro_f1: float
    count: int


def classification_metrics(predictions, labels):
    """Accuracy plus micro-F1, which for one label per sentence is the accuracy."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise DataError(
            f"predictions and labels must be equal-length and non-empty, got "
            f"{predictions.shape} vs {labels.shape}"
        )
    accuracy = float(np.mean(predictions == labels))
    # Each error is one false positive and one false negative, so pooled
    # micro-F1 2TP / (2TP + FP + FN) = TP / N: the accuracy, to the bit.
    return Metrics(accuracy=accuracy, micro_f1=accuracy, count=int(labels.size))


def evaluate(system, head, bank, split="test"):
    """Accuracy and micro-F1 on one split, with normalization in eval mode.

    The split is fused and pooled one chunk of rows at a time
    (``sentence_embeddings``); the head then runs once over all the pooled features.
    """
    rows = bank.split_indices(split)
    if rows.size == 0:
        raise DataError(f"bank has no sentences in the {split!r} split")
    features = sentence_embeddings(system, bank, rows)[:, np.newaxis, :]
    logits = head.logits(Tensor(features)).data.reshape(rows.size, -1)
    predictions = logits.argmax(axis=1)
    return classification_metrics(predictions, bank.labels[rows])


@dataclass(frozen=True)
class SweepRow:
    """Metrics for one configuration: the baseline or one fused lower layer."""

    config: str
    lower: object
    source_accuracy: float
    source_f1: float
    target_accuracy: float
    target_f1: float


@dataclass
class SweepReport:
    upper: int
    variant: str
    mode: str
    seed: int
    rows: list


def sweep_row(source, target, upper, mode, lower, variant, cfg):
    """Train on ``source`` and score the test splits of both banks.

    The row is the baseline when ``lower`` is None, else the system fusing
    ``lower`` with ``upper``.  System and head draw from ``cfg.seed``.
    """
    channels = source.shape[2]
    system = build_system(lower, upper, channels, variant, mode, cfg.seed)
    head = init_head(channels, source.num_classes, seed=cfg.seed)
    train(system, head, source, cfg)
    on_source = evaluate(system, head, source, "test")
    on_target = evaluate(system, head, target, "test")
    return SweepRow(
        config=system.config_id(),
        lower=lower,
        source_accuracy=on_source.accuracy,
        source_f1=on_source.micro_f1,
        target_accuracy=on_target.accuracy,
        target_f1=on_target.micro_f1,
    )


# The row runner of a sweep worker process, set once by the pool's initializer.
_runner = None


def _adopt_runner(run):
    global _runner
    _runner = run


def _run_row(cell):
    return _runner(*cell)


def sweep_rows(source, target, cells, upper, mode, jobs=1):
    """One ``sweep_row`` per cell ``(lower, variant, cfg)``, in order, all at ``upper`` and ``mode``;
    ``jobs`` > 1 computes the cells in worker processes with identical results."""
    run = functools.partial(sweep_row, source, target, upper, mode)
    if jobs <= 1:
        return [run(*cell) for cell in cells]
    # The pool starts every worker up front, so never more than there are
    # cells.  Each worker receives ``run`` and its banks once, at start-up
    # (inherited, not pickled, under fork); a task is just a cell.
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)), initializer=_adopt_runner, initargs=(run,)
    ) as pool:
        return list(pool.map(_run_row, cells))


def layer_sweep(source, target, layers, cfg, variant="full", mode="sigmoid", upper=None, jobs=1):
    """Train and evaluate the baseline plus one fused system per lower layer.

    Both banks must hold layer ``upper``, the source's channels and a test
    sentence (``check_fit``).  Each of ``layers`` is checked as it is read,
    so the first one outside ``1..upper`` is refused before anything else
    is built.  Every row shares the same seed protocol, so the row fusing
    the upper layer with itself reproduces the baseline exactly.  Rows are
    independent; ``jobs`` > 1 computes them in worker processes with
    identical results.
    """
    if upper is None:
        upper = source.n_layers
    check_fit([("source", source), ("target", target)], upper, source.shape[2], "test")
    wanted = set()
    for layer in map(int, layers):
        if not 1 <= layer <= upper:
            raise DataError(f"sweep layer {layer} outside 1..{upper}")
        wanted.add(layer)
    cells = [(lower, variant, cfg) for lower in [None, *sorted(wanted)]]
    rows = sweep_rows(source, target, cells, upper, mode, jobs)
    return SweepReport(upper=upper, variant=variant, mode=mode, seed=cfg.seed, rows=rows)
