"""Loss, optimizer, training loop, and the layer sweep."""

import concurrent.futures
import functools
from dataclasses import dataclass, replace

import numpy as np

from .bank import DataError, check_document
# ClassifierHead lives beside the systems; it stays importable from here.
from .fusion import (
    BaselineSystem,
    ClassifierHead,
    FusionSystem,
    LayerPair,
    build_fusion_system,
    init_head,
    stored_values,
)
from .seeding import STREAM_BATCHES, rng_stream
from .tensor import DimensionError, Tensor, _accumulate, _node, backward, mean_pool_tokens


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for one training run.

    The defaults are sized for the synthetic desk-scale tasks; see
    ``full_scale_config`` for the preset used when fine-tuning on top of a
    full pretrained encoder.
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
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be non-negative")

    @classmethod
    def from_dict(cls, doc, base=None):
        """Config from a JSON object; fields it omits come from ``base`` or the defaults."""
        check_document(cls, doc, ValueError, "train config")
        return replace(cls() if base is None else base, **doc)


def full_scale_config(**overrides):
    """Preset for fine-tuning behind a full pretrained encoder (lr 2e-5)."""
    return replace(TrainConfig(learning_rate=2e-5), **overrides)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels."""
    data = logits.data
    if data.ndim == 3 and data.shape[1] == 1:
        flat = data[:, 0, :]
    elif data.ndim == 2:
        flat = data
    else:
        raise DimensionError(f"logits must be (B, K) or (B, 1, K), got {data.shape}")
    labels = np.asarray(labels)
    count, classes = flat.shape
    if labels.shape != (count,):
        raise DataError(f"{count} logit rows but {labels.shape} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise DataError(f"labels must lie in [0, {classes}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    shifted = flat - flat.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(count)
    probs = np.exp(log_probs)

    def _bw(g, wanted):
        if id(logits) in wanted:
            grad = probs.copy()
            grad[rows, labels] -= 1.0
            grad *= float(g) / count
            _accumulate(logits, grad.reshape(data.shape))

    return _node(np.asarray(-log_probs[rows, labels].mean()), (logits,), _bw)


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


def _batch_loss(system, head, bank, rows, training):
    fused = system.fused_batch(bank, rows, training=training)
    features = mean_pool_tokens(fused)
    return softmax_cross_entropy(head.logits(features), bank.labels[rows])


def _raise_non_finite(named, epoch, batch):
    for name, value in named.items():
        if not np.isfinite(value.data if isinstance(value, Tensor) else value).all():
            raise ValueError(
                f"training diverged: non-finite {name} at epoch {epoch}, batch {batch}"
            )


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
    if isinstance(system, FusionSystem):
        bank.layer(system.pair.lower)
        bank.layer(system.pair.upper)
    params = {**system.parameters(), **head.parameters()}
    optimizer = AdamW(params, cfg)
    named = stored_values(system, head)
    # batch_norm updates the running statistics in place, so these stay
    # current; the empty leading array lets a baseline concatenate none.
    running = [np.zeros(0), *(v for v in named.values() if isinstance(v, np.ndarray))]
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
            loss = _batch_loss(system, head, bank, rows, training=True)
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
                _raise_non_finite(named, epoch, batch)
        curve.append(total / permuted.size)
    return curve


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    micro_f1: float
    count: int


def classification_metrics(predictions, labels):
    """Accuracy plus micro-F1 from per-class counts pooled over all classes."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise DataError(
            f"predictions and labels must be equal-length and non-empty, got "
            f"{predictions.shape} vs {labels.shape}"
        )
    true_pos = false_pos = false_neg = 0
    for cls in np.unique(np.concatenate([predictions, labels])):
        true_pos += int(np.sum((predictions == cls) & (labels == cls)))
        false_pos += int(np.sum((predictions == cls) & (labels != cls)))
        false_neg += int(np.sum((predictions != cls) & (labels == cls)))
    micro_f1 = 2.0 * true_pos / (2.0 * true_pos + false_pos + false_neg)
    accuracy = float(np.mean(predictions == labels))
    return Metrics(accuracy=accuracy, micro_f1=micro_f1, count=int(labels.size))


def evaluate(system, head, bank, split="test"):
    """Accuracy and micro-F1 on one split, with normalization in eval mode."""
    rows = bank.split_indices(split)
    if rows.size == 0:
        raise DataError(f"bank has no sentences in the {split!r} split")
    fused = system.fused_batch(bank, rows, training=False)
    features = mean_pool_tokens(fused)
    logits = head.logits(features).data.reshape(rows.size, -1)
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


def sweep_row(source, target, lower, upper, variant, mode, cfg):
    """Train on ``source`` and score the test splits of both banks.

    The row is the baseline when ``lower`` is None, else the system fusing
    ``lower`` with ``upper``.  System and head draw from ``cfg.seed``.
    """
    channels = source.shape[2]
    if lower is None:
        system = BaselineSystem(upper=upper)
    else:
        system = build_fusion_system(
            LayerPair(lower, upper), channels, variant=variant, mode=mode, seed=cfg.seed
        )
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


def _run_row(lower):
    return _runner(lower)


def layer_sweep(source, target, layers, cfg, variant="full", mode="sigmoid", upper=None, jobs=1):
    """Train and evaluate the baseline plus one fused system per lower layer.

    Every row shares the same seed protocol, so the row fusing the upper
    layer with itself reproduces the baseline exactly.  Rows are independent;
    ``jobs`` > 1 computes them in worker processes with identical results.
    """
    if upper is None:
        upper = source.n_layers
    if source.shape != target.shape or source.n_layers != target.n_layers:
        raise DataError(
            f"source and target banks differ: {source.n_layers} layers of "
            f"{source.shape} vs {target.n_layers} of {target.shape}"
        )
    wanted = sorted(set(int(x) for x in layers))
    for layer in wanted:
        if not 1 <= layer <= upper:
            raise DataError(f"sweep layer {layer} outside 1..{upper}")
    run = functools.partial(
        sweep_row, source, target, upper=upper, variant=variant, mode=mode, cfg=cfg
    )
    lowers = [None, *wanted]
    if jobs <= 1:
        rows = [run(lower) for lower in lowers]
    else:
        # The pool starts every worker up front, so never more than there are
        # rows.  Each worker receives ``run`` and its banks once, at start-up
        # (inherited, not pickled, under fork); a task is just a layer index.
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(lowers)), initializer=_adopt_runner, initargs=(run,)
        ) as pool:
            rows = list(pool.map(_run_row, lowers))
    return SweepReport(upper=upper, variant=variant, mode=mode, seed=cfg.seed, rows=rows)
