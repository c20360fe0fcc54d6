"""Generic recursive speaker/listener evaluator over finite scenarios.

This is the brute-force reference engine: scenarios are index-based tables
(worlds x messages x lifted contexts), and speakers/listeners are computed by
explicit enumeration.  All probability arithmetic runs in log space with
max-subtraction; ``-inf`` is the sentinel for "probability exactly zero" and
exponentiates to exactly 0, so rationality values in the hundreds do not
overflow.  :func:`iterate` is the one reference recursion, batched over
priors: ``rsa-exh simulate`` prints its tables, and :mod:`rsa_exh.oracles`
reads off it the references that pin seven closed forms of
:mod:`rsa_exh.models`.  The tests check its table primitives entry by entry
against plain-float arithmetic.

Lifted variables (interpretations, background assumptions, QUDs) are encoded
as a flat "context" axis.  Where a variant marginalizes the lifted variable is
variant-specific configuration: the plain recursion here integrates contexts
out at the first pragmatic listener, while the supervaluationist construction
(which carries the QUD through every level) lives in :mod:`rsa_exh.oracles`
and takes its listener and level-2 speaker from the table primitives below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NEG_INF = float("-inf")
_FLOAT_MAX = float(np.finfo(float).max)
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GenericScenario:
    """Tabular scenario: finite worlds/messages plus optional lifted contexts.

    ``truth`` has shape (contexts, messages, worlds); ``world_prior`` one row
    per context (rows may differ, as in the wonky-prior models), and
    ``context_prior`` weighs the lifted values.  A scenario without lifted
    variables uses a single context.  Leading batch axes on ``world_prior``,
    (..., contexts, worlds), give one scenario per batch entry.
    """

    worlds: tuple
    messages: tuple
    costs: np.ndarray
    truth: np.ndarray
    world_prior: np.ndarray
    context_prior: np.ndarray = field(default=None)  # type: ignore[assignment]
    contexts: tuple = ((),)

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=float)
        truth = np.asarray(self.truth, dtype=bool)
        if truth.ndim == 2:  # (messages, worlds) -> single context
            truth = truth[None, :, :]
        n_ctx = truth.shape[0]
        world_prior = np.asarray(self.world_prior, dtype=float)
        if world_prior.ndim == 1:
            world_prior = np.broadcast_to(world_prior, (n_ctx, len(self.worlds))).copy()
        context_prior = self.context_prior
        if context_prior is None:
            context_prior = np.full(n_ctx, 1.0 / n_ctx)
        context_prior = np.asarray(context_prior, dtype=float)
        contexts = self.contexts if len(self.contexts) == n_ctx else tuple(range(n_ctx))
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "world_prior", world_prior)
        object.__setattr__(self, "context_prior", context_prior)
        object.__setattr__(self, "contexts", contexts)

        if truth.shape != (n_ctx, len(self.messages), len(self.worlds)):
            raise ValueError("truth table shape must be (contexts, messages, worlds)")
        if costs.shape != (len(self.messages),) or np.any(costs < 0):
            raise ValueError("costs must be one nonnegative value per message")
        if world_prior.shape[-2:] != (n_ctx, len(self.worlds)):
            raise ValueError("world prior shape must be (..., contexts, worlds)")
        if np.any(np.abs(world_prior.sum(axis=-1) - 1.0) > _SUM_TOL):
            raise ValueError("each context's world prior must sum to 1")
        if abs(context_prior.sum() - 1.0) > _SUM_TOL or np.any(context_prior < 0):
            raise ValueError("context prior must be a probability vector")
        if np.any(~truth.any(axis=(0, 2))):
            raise ValueError("every message must be true in some (world, context) pair")

    @property
    def n_contexts(self) -> int:
        return self.truth.shape[0]


# ---------------------------------------------------------------------------
# Batched log-space table primitives.  These accept arbitrary leading batch
# axes so sweeps over the prior can run in one shot.  A row with no
# probability mass (a message false in every world, a speaker with no usable
# message, a message no speaker produces) comes back as all -inf, not as an
# error.
# ---------------------------------------------------------------------------


def _safe_log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def logsumexp(a, axis=None, keepdims: bool = False):
    """``log(sum(exp(a)))`` over ``axis`` (None for all axes, an int or a
    tuple), bit for bit scipy 1.17's ``scipy.special.logsumexp`` on float64
    input, without loading scipy.

    As there, the largest entries of a slice (``m`` of them, at ``top``) are
    taken out of the shifted sum ``s``, and the result is ``log1p(s / m) +
    log(m) + top``, with the same reductions over the same layout.  Where
    ``top`` is not finite scipy falls back on the direct ``log(sum(exp(a)))``,
    which is then ``top`` itself: -inf on an all-(-inf) or empty slice, +inf,
    or nan."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if axis is None:
        axis = tuple(range(a.ndim))
    top = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    at_top = a == top
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
        shifted = a - top
        shifted[at_top] = -np.inf
        s = np.sum(np.exp(shifted), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
    out = np.where(np.isfinite(out), out, top)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def log_literal_listener_table(truth: np.ndarray, world_prior: np.ndarray) -> np.ndarray:
    """log L0 over worlds, shape (..., contexts, messages, worlds).

    ``world_prior`` may carry leading batch axes: (..., contexts, worlds).
    Rows for (context, message) pairs whose message is false everywhere in
    that context come back as all ``-inf``.
    """
    masked = np.where(truth, world_prior[..., :, None, :], 0.0)
    totals = masked.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _safe_log(masked) - _safe_log(totals)
    return np.where(totals > 0, out, NEG_INF)


def log_softmax(weights: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis with max-subtraction; all-(-inf) slices
    stay all ``-inf``.

    Every caller's last axis is short (two to six entries), so the max and
    the sum are taken one column at a time: the same bits as numpy's
    reductions over that axis, which add in column order too, at a fraction
    of their cost."""
    top = weights[..., 0]
    for j in range(1, weights.shape[-1]):
        top = np.maximum(top, weights[..., j])
    # An all-(-inf) slice is shifted by a finite value instead, which keeps
    # it all -inf; every other max is finite and left as it is.
    shifted = weights - np.maximum(top, -_FLOAT_MAX)[..., None]
    exps = np.exp(shifted)
    total = exps[..., 0]
    for j in range(1, exps.shape[-1]):
        total = total + exps[..., j]
    # The max adds exp(0) = 1, so the total is at least 1, except on an
    # all-(-inf) slice, where it is 0 and is taken as 1: log 1 = 0 leaves
    # the slice all -inf.
    return shifted - np.log(np.maximum(total, 1.0))[..., None]


def log_speaker_table(log_listener: np.ndarray, costs: np.ndarray, lam: float) -> np.ndarray:
    """Softmax speaker from a listener table.

    ``log_listener`` is (..., messages, worlds); the result is
    (..., worlds, messages): for each world, probabilities proportional to
    exp(lam * (log listener posterior - cost)).
    """
    utilities = np.swapaxes(log_listener, -1, -2) - costs
    return log_softmax(lam * utilities)


def log_joint_listener_table(
    log_speaker: np.ndarray, joint_prior: np.ndarray
) -> np.ndarray:
    """Joint pragmatic-listener posterior over (context, world) per message.

    ``log_speaker`` is (..., contexts, worlds, messages) and ``joint_prior``
    (..., contexts, worlds); returns (..., messages, contexts, worlds).
    Unreachable messages come back as all-(-inf) rows.
    """
    log_weights = _safe_log(joint_prior)[..., None, :, :] + np.moveaxis(
        log_speaker, -1, -3
    )
    denom = logsumexp(log_weights, axis=(-2, -1), keepdims=True)
    # an unreachable message's weights are all -inf: subtract 0 from them
    return log_weights - np.where(np.isneginf(denom), 0.0, denom)


@dataclass
class RecursionResult:
    """Log-scale tables from :func:`iterate`, with the world prior's batch axes."""

    log_s1: np.ndarray  # (..., contexts, worlds, messages)
    log_s1_marginal: np.ndarray | None  # (..., worlds, messages)
    log_listeners: list  # L1, L2, ... as (..., messages, worlds)
    log_speakers: list  # S2, S3, ... as (..., worlds, messages)

    def listener(self, n: int) -> np.ndarray:
        """L_n marginal world posteriors, shape (..., messages, worlds)."""
        return np.exp(self.log_listeners[n - 1])

    def speaker(self, n: int) -> np.ndarray:
        """S_n message choice probabilities, shape (..., worlds, messages)."""
        if n == 1:
            if self.log_s1_marginal is None:
                raise ValueError(
                    "the level-1 speaker is relativized to the lifted variable; "
                    "use .log_s1 for the contextual table"
                )
            return np.exp(self.log_s1_marginal)
        return np.exp(self.log_speakers[n - 2])


def iterate(
    scenario: GenericScenario,
    lam: float,
    depth: int,
    *,
    speaker_mode: str = "per_context",
    listener_world_prior: np.ndarray | None = None,
) -> RecursionResult:
    """Run the alternating utility/softmax/Bayes recursion to ``depth``.

    Lifted contexts are integrated out at the first pragmatic listener; from
    there the recursion alternates S_{n+1} (softmax of log L_n minus costs)
    and L_{n+1} (Bayes against the listener's marginal world prior).  Batch
    axes of the world prior carry through every table.

    ``speaker_mode="joint"`` makes the level-1 speaker choose a
    (message, context) pair jointly (the lexical-intentions construction);
    the default relativizes her to each context separately.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    log_l0 = log_literal_listener_table(scenario.truth, scenario.world_prior)
    utilities = lam * (np.swapaxes(log_l0, -1, -2) - scenario.costs)
    if speaker_mode == "joint":
        # normalize over (context, message) pairs for each world
        moved = np.moveaxis(utilities, -3, -2)  # (..., worlds, contexts, messages)
        flat = log_softmax(moved.reshape(moved.shape[:-2] + (-1,)))
        log_s1 = np.moveaxis(flat.reshape(moved.shape), -2, -3)
        log_s1_marginal = logsumexp(log_s1, axis=-3)
    elif speaker_mode == "per_context":
        log_s1 = log_softmax(utilities)
        log_s1_marginal = log_s1[..., 0, :, :] if scenario.n_contexts == 1 else None
    else:
        raise ValueError(f"unknown speaker_mode {speaker_mode!r}")

    listener_prior = (
        scenario.world_prior if listener_world_prior is None
        else np.asarray(listener_world_prior, dtype=float)
    )
    joint_prior = scenario.context_prior[:, None] * listener_prior
    log_l1_joint = log_joint_listener_table(log_s1, joint_prior)
    log_listeners = [logsumexp(log_l1_joint, axis=-2)]

    log_prior_w = _safe_log(joint_prior.sum(axis=-2))[..., None, :]
    log_speakers = []
    for _ in range(2, depth + 1):
        log_s = log_speaker_table(log_listeners[-1], scenario.costs, lam)
        log_speakers.append(log_s)
        log_weights = log_prior_w + np.swapaxes(log_s, -1, -2)  # (..., messages, worlds)
        denom = logsumexp(log_weights, axis=-1, keepdims=True)
        log_listeners.append(log_weights - np.where(np.isneginf(denom), 0.0, denom))
    return RecursionResult(log_s1, log_s1_marginal, log_listeners, log_speakers)
