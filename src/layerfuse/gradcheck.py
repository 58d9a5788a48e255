"""Central finite-difference verification of the reverse-mode gradients."""

from dataclasses import dataclass

import numpy as np

from .fusion import build_system, init_head, stored_values, trainable
from .seeding import STREAM_CHECK, rng_stream
from .tensor import Tensor, _row_slices, _topological_order, backward
from .training import sentence_loss


class EvaluationError(RuntimeError):
    """The checked function returned a non-finite value, unperturbed or at a probe point."""


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


# Values per chunk of probes: each stacked intermediate of a chunk's forward
# holds at most this many (512 KB), unless one probe's largest node holds more.
PROBE_CHUNK_VALUES = 2**16


def _losses(loss_fn, name, p, entries, step, largest):
    """The objective with each of ``entries`` moved by ``step``: one ``loss_fn`` call per slice of
    ``entries`` that ``_row_slices`` cuts at PROBE_CHUNK_VALUES over ``largest`` values a probe.

    For each call ``p.data`` is the chunk's stack of perturbed copies, padded
    to rank 3 behind the probe axis; the same array object comes back after.
    """
    kept = p.data
    flat = kept.reshape(-1)
    losses = []
    try:
        for part in _row_slices((entries.size, largest), PROBE_CHUNK_VALUES):
            chunk = entries[part]
            stacked = np.repeat(flat[np.newaxis], chunk.size, axis=0)
            stacked[np.arange(chunk.size), chunk] = flat[chunk] + step
            p.data = stacked.reshape((chunk.size,) + (1,) * (3 - kept.ndim) + kept.shape)
            losses.append(np.asarray(loss_fn().data))
            if losses[-1].shape != (chunk.size,):
                raise ValueError(
                    f"probing parameter {name!r}: loss_fn returned shape {losses[-1].shape} "
                    f"for {chunk.size} probes, not one loss per leading index"
                )
    finally:
        p.data = kept
    return np.concatenate(losses)


def _errors(loss_fn, name, p, entries, reverse, step, largest):
    """(relative?, error) of each entry's reverse-mode gradient against a central difference."""
    upper = _losses(loss_fn, name, p, entries, step, largest)
    lower = _losses(loss_fn, name, p, entries, -step, largest)
    finite = np.isfinite(upper) & np.isfinite(lower)
    if not finite.all():
        raise EvaluationError(
            f"non-finite objective while probing parameter {name!r} entry "
            f"{entries[np.argmin(finite)]}"
        )
    oracle = (upper - lower) / (2.0 * step)
    magnitude = np.maximum(np.abs(reverse), np.abs(oracle))
    error = np.abs(reverse - oracle)
    relative = magnitude >= ABSOLUTE_REGIME
    return relative, np.divide(error, magnitude, out=error, where=relative)


def finite_difference_check(loss_fn, params, step=1e-5, rtol=1e-4):
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` must rebuild the objective from the current parameter values
    on every call and return one loss per leading index of the probed
    parameter.  The first call sees every parameter as given and returns the
    scalar that ``backward`` differentiates; if it is not finite,
    ``EvaluationError`` is raised before any probe.  Each later call sees one
    parameter's ``.data`` replaced by P perturbed copies stacked on a leading
    axis and padded to rank 3: a kernel reads (P, 1, C, I), a vector
    (P, 1, 1, C), a feature map (P, B, T, C).  The ops broadcast such an
    operand, so the objective built from them has shape (P,); any other
    shape raises ``ValueError``.  P is at most PROBE_CHUNK_VALUES over the
    size of the first graph's largest node.

    Entries whose gradients fall below the absolute regime are judged by
    absolute rather than relative error.  Probes near a relu kink (within the
    step of an activation sign change), or where a training-mode variance is
    near ``eps``, can inflate the reported error.  So a failed parameter's
    worst entry is probed again at step/10, which changes no verdict: a drop
    of about 100x or more marks a step too large for the curvature there, not
    a wrong gradient, whose error stays put.
    """
    for name, value in (("step", step), ("rtol", rtol)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be a finite positive number, got {value:g}")
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise EvaluationError("non-finite objective at the unperturbed parameters, before any probe")
    largest = max(node.size for node in _topological_order(loss))
    backward(loss, wrt=params.values())
    checks = []
    for name, p in params.items():
        # No probe runs backward, so each gradient stays as this one left it.
        reverse = np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1)
        relative, errors = _errors(loss_fn, name, p, np.arange(reverse.size), reverse, step, largest)
        worst = int(np.argmax(errors))
        passed = bool(errors[worst] <= rtol)
        checks.append(
            ParameterCheck(
                name=name,
                max_error=errors[worst],
                error_kind="relative" if relative[worst] else "absolute",
                worst_index=worst,
                passed=passed,
                reprobe_error=None if passed else _errors(
                    loss_fn, name, p, np.array([worst]), reverse[worst:worst + 1], step / 10, largest)[1][0],
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

    The objective is ``sentence_loss``, the one ``train`` minimizes, on two
    random layers fused by a ``build_system`` system: mean-pool, linear head
    and softmax cross-entropy against random labels.  Normalization runs in
    training form, so gradients cross batch statistics.  The checked
    parameters are the ``trainable`` ones ``train`` moves, named as in a
    params file; with ``check_inputs`` the two layer tensors join them.
    """
    for name, size in zip(("batch", "tokens", "channels"), shape):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    if classes < 2:
        raise ValueError(f"classes must be at least 2, got {classes}")
    rng = rng_stream(seed, STREAM_CHECK)
    batch, tokens, channels = shape
    l1 = Tensor(rng.normal(size=shape))
    l2 = Tensor(rng.normal(size=shape))
    labels = rng.integers(0, classes, size=batch)
    system = build_system(1, 2, channels, variant, mode, seed)
    head = init_head(channels, classes, seed=seed)

    def loss_fn():
        return sentence_loss(system.forward(l1, l2, training=True)[0], head, labels)

    params = trainable(stored_values(system, head))
    if check_inputs:
        params["input.l1"] = l1
        params["input.l2"] = l2
    return loss_fn, params
