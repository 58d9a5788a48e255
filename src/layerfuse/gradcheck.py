"""Central finite-difference verification of the reverse-mode gradients."""

from dataclasses import dataclass

import numpy as np

from .fusion import fuse_layers, init_head
from .gate import init_gate_params
from .seeding import STREAM_CHECK, rng_stream
from .tensor import Tensor, backward, mean_pool_tokens
from .training import softmax_cross_entropy


class EvaluationError(RuntimeError):
    """The checked function returned a non-finite value at a probe point."""


# Central differences of an O(1) objective at step 1e-5 carry a roundoff
# floor around 1e-11, so relative comparisons are meaningful only for
# gradient entries comfortably above it; smaller entries are judged by
# absolute error instead.
ABSOLUTE_REGIME = 1e-6


@dataclass(frozen=True)
class ParameterCheck:
    name: str
    max_error: float
    error_kind: str
    worst_index: int
    passed: bool
    # A failed parameter's worst entry probed again at a tenth of the step;
    # None when the parameter passed.
    reprobe_error: float = None


@dataclass
class GradCheckReport:
    step: float
    rtol: float
    parameters: list

    @property
    def passed(self):
        return all(p.passed for p in self.parameters)

    @property
    def max_error(self):
        return max((p.max_error for p in self.parameters), default=0.0)

    def format_table(self):
        width = max([len(p.name) for p in self.parameters] + [9])
        lines = [f"{'parameter'.ljust(width)}  {'max error':>12}  kind      status"]
        for p in self.parameters:
            status = "ok" if p.passed else "FAIL"
            lines.append(
                f"{p.name.ljust(width)}  {p.max_error:>12.3e}  {p.error_kind:<8}  {status}"
            )
        lines += [
            f"re-probe {p.name}[{p.worst_index}]: {p.max_error:.3e} at step {self.step:g}, "
            f"{p.reprobe_error:.3e} at step {self.step / 10:g}"
            for p in self.parameters if not p.passed
        ]
        return "\n".join(lines)


def _scalar(loss_fn, name, index):
    value = float(np.asarray(loss_fn().data).reshape(-1)[0])
    if not np.isfinite(value):
        raise EvaluationError(
            f"non-finite objective while probing parameter {name!r} entry {index}"
        )
    return value


def _probe(loss_fn, name, flat, i, reverse, step):
    """(kind, error) of entry ``i``'s reverse-mode gradient against a central difference."""
    kept = flat[i]
    flat[i] = kept + step
    upper = _scalar(loss_fn, name, i)
    flat[i] = kept - step
    lower = _scalar(loss_fn, name, i)
    flat[i] = kept
    oracle = (upper - lower) / (2.0 * step)
    magnitude = max(abs(reverse), abs(oracle))
    error = abs(reverse - oracle)
    if magnitude >= ABSOLUTE_REGIME:
        return "relative", error / magnitude
    return "absolute", error


def finite_difference_check(loss_fn, params, step=1e-5, rtol=1e-4):
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` must rebuild the scalar objective from the current parameter
    values on every call.  Entries whose gradients fall below the absolute
    regime are judged by absolute rather than relative error.  Probes near a
    relu kink (within the step of an activation sign change), or where a
    training-mode variance is near ``eps``, can inflate the reported error.
    So a failed parameter's worst entry is probed again at step/10, which
    changes no verdict: a drop of about 100x or more marks a step too large
    for the curvature there, not a wrong gradient, whose error stays put.
    """
    if step <= 0 or rtol <= 0:
        raise ValueError("step and rtol must be positive")
    backward(loss_fn(), wrt=params.values())
    recorded = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }
    checks = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        reverse = recorded[name].reshape(-1)
        worst = -1.0
        worst_index = 0
        worst_kind = "relative"
        for i in range(flat.size):
            kind, metric = _probe(loss_fn, name, flat, i, reverse[i], step)
            if metric > worst:
                worst, worst_index, worst_kind = metric, i, kind
        passed = worst <= rtol
        checks.append(
            ParameterCheck(
                name=name,
                max_error=max(worst, 0.0),
                error_kind=worst_kind,
                worst_index=worst_index,
                passed=passed,
                reprobe_error=None if passed else _probe(
                    loss_fn, name, flat, worst_index, reverse[worst_index], step / 10)[1],
            )
        )
    return GradCheckReport(step=step, rtol=rtol, parameters=checks)


def classification_pipeline(
    seed,
    shape=(4, 8, 32),
    classes=3,
    variant="full",
    mode="sigmoid",
    check_inputs=False,
):
    """Build (loss_fn, params) for the fused-features classification objective.

    The objective is the full chain: fuse two random layers, mean-pool, apply
    the linear head, and take softmax cross-entropy against random labels.
    Normalization runs in training form, so gradients cross batch statistics.
    With ``check_inputs`` the two layer tensors join the checked parameters.
    """
    rng = rng_stream(seed, STREAM_CHECK)
    batch, tokens, channels = shape
    l1 = Tensor(rng.normal(size=shape))
    l2 = Tensor(rng.normal(size=shape))
    labels = rng.integers(0, classes, size=batch)
    gate = init_gate_params(channels, seed=seed)
    head = init_head(channels, classes, seed=seed)

    def loss_fn():
        fused, _ = fuse_layers(l1, l2, gate, mode, variant, training=True)
        features = mean_pool_tokens(fused)
        return softmax_cross_entropy(head.logits(features), labels)

    params = {**gate.parameters(), **head.parameters()}
    if check_inputs:
        params["input.l1"] = l1
        params["input.l2"] = l2
    return loss_fn, params
