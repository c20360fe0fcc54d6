"""Closed-form predictions for the nine model variants.

Every variant exposes the same surface: comprehension posteriors for the
bare message and the conjunction (probability of ``World.AB`` after hearing
``A`` resp. ``A_AND_B``), and production distributions over the three
messages for each world.  Comprehension is modelled by the first pragmatic
listener; production by the level-2 speaker, except the first
lexical-intentions variant which uses its marginal level-1 speaker.

The expressions here are direct transcriptions of each variant's algebra,
evaluated through logistic/log-sum-exp primitives so that rationality values
up to the fitting bound (1e3) neither overflow nor underflow destructively.
:func:`predict_table` is the one prediction surface, and :func:`lu_predict`
reaches the lexical-uncertainty form under any interpretation prior.  One
private builder, :func:`_predict`, makes the tables of ``predict_table``,
and the fits and the region scans call it directly: it takes one model or a
tuple of models, one per parameter set, each set with the bits of its own
model's table, and it builds every field or one alone.  One registry,
:data:`_FORMS`, says which closed form each model uses and with which
constants; :data:`FAMILIES`, the models that share a form, is read off it.
Every call runs the cached plan of its model or tuple (:func:`_plan`): the
runs of consecutive sets of one form, each of which fills its rows of the
table in one batched call of that form.  Each form is pinned
against the brute-force references of :mod:`rsa_exh.oracles` (the recursion
of :func:`rsa_exh.engine.iterate`).  The builder allocates the output
table once, and each form writes the fields that the table holds straight
into a slice of it.  A table of one field holds that field alone: the
listener posterior's correction near the prior (:func:`_bayes_listener`)
runs only for ``post_a``, and speaker rows are formed only for ``prod_wa``
and ``prod_wab``.  A grid longer than :data:`BLOCK` priors is cut into blocks
that the calling thread and helper threads, one per further usable CPU but at
most one thread per :data:`BLOCKS_PER_THREAD` blocks, started and joined
within the call, take in turn; numpy's loops release the interpreter lock, so
the blocks overlap.  The forms drop each block-sized temporary after its last
use, and with that cap on the threads a call over at least
``BLOCKS_PER_THREAD`` blocks stays within 1.5 times the full table's bytes on
any number of CPUs.
Every entry depends on its own prior alone, so the table is bit for bit the
one-piece table whatever the blocks and threads.

Six variants update the measured prior by Bayes' rule (baseline, Bayesian
wonky, both lexical-uncertainty and both lexical-intentions variants), and
one routine, :func:`_bayes_listener`, forms their listener posterior after
``A``: ``p A / (p A + (1 - p) B)``, where ``A`` and ``B`` are the level-1
probabilities of ``A`` in ``World.AB`` and ``World.A``.  It is *order-exact*:
it compares with the clamped prior (``>``, ``==``, ``<``) exactly as the
exact posterior of the model's scores does, although at high rationality
``post - p`` is of order ``exp(-lam x)``, far below float64 resolution; the
order comes from ``A`` against ``B``, not from the rounded posterior.  It is
*faithfully rounded*: within a relative distance ``NEAR_PRIOR`` of the prior
it is ``p + (post - p)`` rounded once, within about one ulp of the exact
posterior and never rounded onto the prior when that differs from it;
further out it is the log-space value, whose error is far below its
distance from the prior.  Where one pair of logistics carries ``A - B``
(baseline, lexical intentions) its sign is that of ``z_ab - z_a``, exactly.
The mixtures (lexical uncertainty, Bayesian wonky) sum four logistics, whose
``A - B`` float64 resolves only to a few ``eps max(A, B)``: their order is
exact where ``|A - B| >= 4 eps max(A, B)`` (``eps = 2^-52``).  The scores
carry the rounding of ``log p`` and ``log1p(-p)``.

Every logistic is scipy's ``expit`` formula, ``1 / (1 + exp(-x))``, and no
scipy module is loaded to predict.  The two-way speaker rows
(:func:`_two_way_rows`, seven variants) and SVRSA's total-QUD row take each
logistic pair from :func:`_logistic_pair`, and the likelihoods of ``A`` their
one-sided logistics from :func:`_logistic`: the formula on numpy's vector
``exp``, with the overflow rule stated in :func:`_logistic_pair`.  A term that
depends on the parameters alone (a float, or a (K, 1) column of a batch) is
formed by :func:`_expit` on ``math.exp``, which gives ``expit``'s bits on the
same libm ``exp`` and the same bits in a batched row as in a float call.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .engine import _safe_log
from .scenario import ModelParams, everywhere, somewhere

LOG2 = np.log(2.0)

#: Interior clamp applied to priors before taking logs; endpoint behaviour is
#: the documented continuity limit of each form.
P_EPS = 1e-12

#: Smallest normal float64; sums below it have lost precision or underflowed.
TINY = np.finfo(float).tiny

#: Prior on the exhaustive interpretation in the supervaluationist variants.
CHI = 0.5


class MissingParameter(ValueError):
    """A model requires a parameter that was not supplied."""


class ModelId(Enum):
    BASE_RSA = "base"
    WRSA = "wrsa"
    BWRSA = "bwrsa"
    SVRSA1 = "svrsa1"
    SVRSA2 = "svrsa2"
    FREE_LU = "free-lu"
    EXH_LU = "exh-lu"
    RSA_LI1 = "li1"
    RSA_LI2 = "li2"


#: Models whose ModelParams must carry the extra prior ``xi``.
XI_MODELS = frozenset({ModelId.WRSA, ModelId.BWRSA, ModelId.SVRSA1, ModelId.SVRSA2})


def require_xi(model: ModelId, params: ModelParams) -> None:
    """Raise :class:`MissingParameter` where ``model`` needs ``xi`` and ``params`` lack it."""
    if model in XI_MODELS and params.xi is None:
        raise MissingParameter(f"{model.value} requires the extra prior xi")


#: Fixed interpretation priors (literal, exhaustive, anti-exhaustive).
FIXED_RHO = {
    ModelId.FREE_LU: (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    ModelId.EXH_LU: (0.5, 0.5, 0.0),
}

@dataclass(frozen=True)
class PredictionTable:
    """Vectorized predictions over a grid of N priors.

    The posteriors have shape (N,) and the production rows (N, 3); for a
    batch of K parameter sets (see :class:`ModelParams`) they have shape
    (K, N) and (K, N, 3).  ``p`` is the grid, shape (N,).  The production
    rows are distributions over ``(A, A_AND_B, A_AND_NOT_B)``.  A table of
    one field (see :func:`_predict`) holds ``None`` for each field but its
    own.
    """

    p: np.ndarray
    post_a: np.ndarray | None  # (N,) or (K, N)
    post_ab: np.ndarray | None  # (N,) or (K, N)
    prod_wa: np.ndarray | None  # (N, 3) or (K, N, 3)
    prod_wab: np.ndarray | None  # (N, 3) or (K, N, 3)


#: The fields of a :class:`PredictionTable` after ``p``, in its order.
FIELDS = ("post_a", "post_ab", "prod_wa", "prod_wab")


def _clip_prior(p) -> np.ndarray:
    # np.clip's bounds, without its Python-level wrapper
    return np.minimum(np.maximum(np.asarray(p, dtype=float), P_EPS), 1.0 - P_EPS)


def _keep_prior_ends(out: PredictionTable, sets=True) -> None:
    """Set the posterior after ``A`` in ``out`` to the prior where that is
    exactly 0 or 1 (see :func:`predict_table`), where ``out`` holds it: in
    every parameter set, or in those that the (K, 1) bool column ``sets``
    selects."""
    if out.post_a is None:
        return
    if sets is True:
        out.post_a[..., out.p <= 0.0] = 0.0
        out.post_a[..., out.p >= 1.0] = 1.0
    else:
        np.copyto(out.post_a, 0.0, where=sets & (out.p <= 0.0))
        np.copyto(out.post_a, 1.0, where=sets & (out.p >= 1.0))


#: Priors per block of a long grid (see :func:`predict_table`).  On a 2-vCPU
#: AMD EPYC VM, the nine models' 1e6-point calls at three parameter draws took,
#: in the median of interleaved repeats on two threads, 0.12 s per draw with
#: this block, 0.16 s with 8192 priors and 0.26 s with 4096, where the threads
#: spend more time handing the interpreter lock over than in numpy's loops; on
#: one thread they took 0.20 s.  32768 and 65536 priors gained 2-4% but double
#: a block's temporaries (128 KB each here), so a grid would need twice as many
#: priors per thread to stay within 1.5 times its table's bytes, the bound that
#: the tests hold.  Above two CPUs the timings are unmeasured.
BLOCK = 16384

#: The fewest blocks of a long grid per thread that shares them (see
#: :func:`_blocked`).  A thread holds up to about 21 block-sized temporaries
#: at once (in _mixture_gap), and the table is 8 arrays of the grid's length,
#: so with at most one thread per 6 blocks all the threads' temporaries stay
#: below 21/48 of the table's bytes, however many CPUs there are.
BLOCKS_PER_THREAD = 6


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform
    has one, or else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def _empty_table(p: np.ndarray, params: ModelParams, with_xi: bool = False,
                 field: str | None = None) -> PredictionTable:
    """An unfilled table over the priors ``p``, of every field or of
    ``field`` alone (``None`` for the others), shaped as :func:`predict_table`
    describes by the parameters that the form reads (``xi`` where
    ``with_xi``).  Every form reads ``lam``, ``delta_ab`` and ``delta_anb``,
    and those of XI_MODELS read ``xi``; the batching test checks that each
    model's table depends on each of these, so the list and the forms agree."""
    used = (params.lam, params.delta_ab, params.delta_anb) + ((params.xi,) if with_xi else ())
    shape = np.broadcast(p, *used).shape
    rows = shape + (3,)
    if field is None:
        return PredictionTable(p, np.empty(shape), np.empty(shape), np.empty(rows), np.empty(rows))
    one = np.empty(rows if field.startswith("prod") else shape)
    return PredictionTable(p, *(one if name == field else None for name in FIELDS))


def _block_of(table: PredictionTable, block: slice) -> PredictionTable:
    """Views of the priors ``block`` of each array that ``table`` holds."""
    post_a, post_ab, prod_wa, prod_wab = table.post_a, table.post_ab, table.prod_wa, table.prod_wab
    return PredictionTable(
        table.p[block],
        None if post_a is None else post_a[..., block],
        None if post_ab is None else post_ab[..., block],
        None if prod_wa is None else prod_wa[..., block, :],
        None if prod_wab is None else prod_wab[..., block, :],
    )


def _blocked(fill, table: PredictionTable) -> PredictionTable:
    """``table`` once ``fill`` has written every array it holds; ``fill``
    takes a table whose arrays are views of one block of ``table``'s (see
    :func:`_block_of`).

    A grid of at most BLOCK priors is one block, which this thread fills.  A
    longer grid is cut into blocks of BLOCK priors that this thread and up to
    ``_usable_cpus() - 1`` helper threads, one thread per BLOCKS_PER_THREAD
    blocks at most, take in turn from a shared counter.  The helpers are
    started and joined within the call, and each block runs under the
    caller's numpy error state (``np.geterr`` and ``np.geterrcall``: numpy
    2 keeps it in a context variable, numpy 1 per thread, and a new thread
    starts from the defaults in both).  The first exception raised in a
    block stops the handing out of blocks and is re-raised here once every
    helper has been joined."""
    n = len(table.p)
    if n <= BLOCK:
        fill(table)
        return table
    blocks, lock = iter(range(0, n, BLOCK)), threading.Lock()
    errors, state = [], dict(np.geterr(), call=np.geterrcall())

    def work():
        while True:
            with lock:
                start = None if errors else next(blocks, None)
            if start is None:
                return
            try:
                with np.errstate(**state):
                    fill(_block_of(table, slice(start, start + BLOCK)))
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

    helpers = []
    try:
        for _ in range(min(_usable_cpus(), n // (BLOCKS_PER_THREAD * BLOCK)) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return table


# ---------------------------------------------------------------------------
# The Bayes-rule listener after "A", shared by the baseline, Bayesian wonky,
# lexical-uncertainty and lexical-intentions variants
# ---------------------------------------------------------------------------

#: Band around the prior, relative to it, inside which the listener posterior
#: after ``A`` is formed as ``p + (post - p)`` (see _bayes_listener).  The
#: log-space value used outside it is accurate to better than about 1e-10
#: (relative) in the fitting box, so its order against the prior is never in
#: doubt there; a narrow band keeps the per-entry correction rare.
NEAR_PRIOR = 2.0 ** -20


def _each(fn, x):
    """``fn``, a function of one float, applied to every entry of ``x`` (a
    float or an array).  Takes the per-parameter-set scalars of a batched call
    with the same ``math`` function as a single call does: numpy's vector
    loops may round them differently in the last bit."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _log_weight(w: float) -> float:
    return math.log(w) if w > 0 else -math.inf


def _expit(x: float) -> float:
    """``sigma(x)`` of a float by ``expit``'s formula on ``math.exp``: 0
    where ``exp(-x)`` overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _scaled_expit(w, c):
    """``w sigma(c)`` for a weight and a score that depend on the parameters
    alone, floats or (K, 1) columns, by :func:`_expit`; 0.0 where ``w`` is
    the float 0 (the baseline's and the lexical intentions' constants)."""
    if isinstance(w, float) and w == 0:
        return 0.0
    return w * _each(_expit, c)


def _logistic(x, w=1.0):
    """``w sigma(x)`` as ``w / (1 + exp(-x))`` on numpy's vector ``exp``:
    exactly 0 where ``exp`` overflows, which the caller ignores (see
    :func:`_logistic_pair`).  One division rounds where ``w * sigma(x)``
    would round twice."""
    e = np.exp(-x)
    e += 1.0
    return w / e


def _pick(x, where: np.ndarray) -> np.ndarray:
    """The entries of ``x``, broadcast to the shape of the mask ``where``,
    that it selects (a 1-d copy)."""
    return np.broadcast_to(x, where.shape)[where]


def _log_mixture(w, z: np.ndarray, k) -> np.ndarray:
    """``log(w sigma(z) + k)`` for weights ``w, k >= 0``: floats, or (K, 1)
    columns of K parameter sets against the scores ``z``.

    Where a constant is below TINY it is dropped; the log-sigmoid then keeps
    the value finite where ``sigma(z)`` underflows.  In a batch whose sets lie
    on both sides of TINY, each run of consecutive sets takes its own form."""
    keep = k >= TINY
    if everywhere(keep):
        return np.log(_logistic(z, w) + k)
    if not somewhere(keep):
        return (_each(_log_weight, w) + np.minimum(z, 0.0)) - np.log1p(np.exp(-np.abs(z)))
    z = np.broadcast_to(z, np.broadcast_shapes(z.shape, k.shape))
    out = np.empty(z.shape)
    cuts = [0, *(np.flatnonzero(keep[1:, 0] != keep[:-1, 0]) + 1).tolist(), len(k)]
    for a, b in zip(cuts, cuts[1:]):
        out[a:b] = _log_mixture(w[a:b] if isinstance(w, np.ndarray) else w, z[a:b], k[a:b])
    return out


def _logistic_split(z):
    """``sigma(z)`` as a step in {0, 1/2, 1} plus a tail kept to full
    relative precision: ``tanh(z / 2) / 2`` for ``|z| <= 1`` and
    ``+-sigma(-|z|)`` beyond, so that sums of logistics cancel in the steps
    (exactly) rather than in the tails."""
    z = np.asarray(z, dtype=float)
    mid = np.abs(z) <= 1.0
    step = np.where(mid, 0.5, z > 0)
    tail = _logistic(-np.abs(z))
    tail *= -np.sign(z)
    tail[mid] = 0.5 * np.tanh(0.5 * z[mid])
    return step, tail


def _logistic_gap(a, b):
    """``sigma(a) - sigma(b)`` to full relative precision, as
    ``+-sigma(hi) sigma(-lo) (1 - exp(lo - hi))`` over the ordered pair (so
    that ``expm1`` cannot overflow)."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.sign(a - b) * _logistic(hi) * _logistic(-lo) * -np.expm1(lo - hi)


def _mixture_gap(rho, z_ab, z_a, c_ab, c_a, where):
    """``A - B`` of a mixture (see _bayes_listener) and its sign, as 1-d
    arrays over the entries that the mask ``where`` selects.  The weights of
    ``rho`` and the constant scores ``c_ab``, ``c_a`` are floats or (K, 1)
    columns; their terms are formed once per parameter set.

    Every logistic is split into a step and a tail (see _logistic_split):
    the steps cancel exactly, and the tails keep their relative accuracy
    where the likelihoods round to their limits or to 1/2.  An equal-weight
    pair whose steps agree enters through its gap in product form (see
    _logistic_gap), which stays accurate where its two scores nearly
    coincide.  Where ``|A - B|`` is below 1e-290 the tails are subnormal or
    have underflowed (``|z|`` beyond about 708) and the sign comes from log
    space, where ``log sigma(-|z|) = -softplus(|z|)`` is still representable.
    """
    rho_lit, rho_exh, rho_anti = rho
    z_ab, z_a, w_lit = _pick(z_ab, where), _pick(z_a, where), _pick(rho_lit, where)
    (s_ab, t_ab), (s_a, t_a) = _logistic_split(z_ab), _logistic_split(z_a)
    step_gap, tail_gap = s_ab - s_a, t_ab - t_a  # the steps differ by 0 exactly where they agree
    del s_ab, s_a, t_ab, t_a
    (s_anti, s_exh), (t_anti, t_exh) = _logistic_split(np.stack(np.broadcast_arrays(c_ab, c_a)))
    lit = np.where(step_gap == 0, _logistic_gap(z_ab, z_a), tail_gap)
    del tail_gap
    const = np.where((rho_anti == rho_exh) & (s_anti == s_exh),
                     rho_anti * _logistic_gap(c_ab, c_a), rho_anti * t_anti - rho_exh * t_exh)
    steps = w_lit * step_gap + _pick(rho_anti * s_anti - rho_exh * s_exh, where)
    diff = steps + (w_lit * lit + _pick(const, where))
    side = np.sign(diff)
    tie = np.abs(diff) < 1e-290
    if tie.any():
        # the steps cancel: weigh the positive against the negative tails
        z = np.stack([z_ab[tie], z_a[tie], _pick(c_ab, where)[tie], _pick(c_a, where)[tie]])
        rho_signed = np.stack([w_lit[tie], -w_lit[tie], _pick(rho_anti, where)[tie],
                               -_pick(rho_exh, where)[tie]])
        weight = rho_signed * np.where(z > 0, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            log_tail = np.log(np.abs(weight)) - np.logaddexp(0.0, np.abs(z))
        above = np.logaddexp.reduce(np.where(weight > 0, log_tail, -np.inf), axis=0)
        below = np.logaddexp.reduce(np.where(weight < 0, log_tail, -np.inf), axis=0)
        side[tie] = np.sign(above - below)
    return diff, side


@np.errstate(over="ignore")  # the logistics' overflow (see _logistic_pair)
def _bayes_listener(post, pc, log_pc, log_qc, z_ab, z_a, rho=(1.0, 0.0, 0.0), c_ab=0.0,
                    c_a=0.0):
    """Write the listener posterior on ``World.AB`` after ``A`` by Bayes'
    rule (see the module docstring) into ``post``, unless that is ``None``;
    return the log posteriors on ``World.AB`` and ``World.A``, which the
    correction within ``NEAR_PRIOR`` of the prior below does not touch.

    ``pc`` is the clamped prior, ``log_pc = log(pc)``, ``log_qc =
    log1p(-pc)``.  The likelihoods of ``A`` are ``A = rho_lit sigma(z_ab) +
    rho_anti sigma(c_ab)`` and ``B = rho_lit sigma(z_a) + rho_exh sigma(c_a)``
    with ``rho = (rho_lit, rho_exh, rho_anti)``; the weights and ``c_ab``,
    ``c_a`` are floats or (K, 1) columns, one entry per parameter set.  Where
    ``|log post - log pc| <= NEAR_PRIOR`` the posterior is ``pc + pc (1 - pc)
    (A - B) / (pc A + (1 - pc) B)``, the difference taken without
    cancellation; where that sum rounds onto ``pc`` although ``A != B`` it is
    the neighbour of ``pc`` on the side of ``A - B``.
    """
    rho_lit, rho_exh, rho_anti = rho
    log_wab = log_pc + _log_mixture(rho_lit, z_ab, _scaled_expit(rho_anti, c_ab))
    log_wa = log_qc + _log_mixture(rho_lit, z_a, _scaled_expit(rho_exh, c_a))
    # np.logaddexp(log_wab, log_wa) spelled out, which takes half the time
    denom = np.maximum(log_wab, log_wa) + np.log1p(np.exp(-np.abs(log_wab - log_wa)))
    log_ab, log_a = log_wab - denom, log_wa - denom
    del log_wab, log_wa
    if post is None:
        return log_ab, log_a
    np.exp(log_ab, out=post)
    near = np.abs(log_ab - log_pc) <= NEAR_PRIOR
    if not near.any():
        return log_ab, log_a
    one = near & (rho_exh == 0) & (rho_anti == 0)
    if one.any():
        # one pair: (A - B) / max(A, B) = +-sigma(-lo) (1 - exp(lo - hi)), and
        # post - p = (1 - p) post (A - B) / A above the prior and
        # p (1 - post) (A - B) / B below it: every factor stays bounded
        q, a, b = _pick(pc, one), _pick(z_ab, one), _pick(z_a, one)
        gap = a - b
        side = np.sign(gap)
        up = gap > 0
        delta = np.exp(np.where(up, log_ab[one], log_a[one]))
        delta *= q - up
        delta *= _logistic(-np.minimum(a, b))
        delta *= np.expm1(-np.abs(gap))
        post[one] = _off_prior(q, delta, side)
    mix = near & ~one
    if mix.any():
        q = _pick(pc, mix)
        diff, side = _mixture_gap(rho, z_ab, z_a, c_ab, c_a, mix)
        # the floor keeps a total that has underflowed from dividing by zero
        delta = q * (1 - q) * diff / np.maximum(np.exp(denom[mix]), 5e-324)
        post[mix] = _off_prior(q, delta, side)
    return log_ab, log_a


def _off_prior(q, delta, side):
    """``q + delta``, and where that rounds onto ``q`` the neighbour of ``q``
    on the side of ``side``."""
    fine = q + delta
    stuck = fine == q
    if stuck.any():
        fine[stuck] = np.nextafter(q[stuck], q[stuck] + side[stuck])
    return fine


def _logistic_pair(x, pos, neg):
    """Write ``sigma(x)`` into ``pos`` and ``sigma(-x)`` into ``neg`` by
    scipy's ``expit`` formula, ``1 / (1 + exp(-+x))``, on numpy's vector
    ``exp``, which costs a tenth of ``expit`` per entry: within 4 ulps of
    ``expit``, and exactly 0 or 1 wherever ``expit`` is.  Where ``exp``
    overflows (``|x|`` beyond about 709.78, ``x = +-inf``) the logistic is
    exactly 0; ``x`` is not clamped, so ``x = -inf`` (a posterior rounded to
    1) gives 0, not a tiny number.  The caller ignores the overflow, with one
    ``np.errstate`` around the function that forms the table or the rows."""
    e = np.exp(-x)
    e += 1.0
    np.divide(1.0, e, out=pos)
    np.exp(x, out=e)
    e += 1.0
    np.divide(1.0, e, out=neg)


@np.errstate(over="ignore")  # the logistics' overflow (see _logistic_pair)
def _two_way_rows(x_wa, x_wab, out: PredictionTable) -> None:
    """Write speaker rows over (A, A_AND_B, A_AND_NOT_B) for a choice between
    ``A`` and the explicit message into those of ``out`` that it holds:
    ``[sigma(x_wa), 0, sigma(-x_wa)]`` in ``World.A`` and ``[sigma(x_wab),
    sigma(-x_wab), 0]`` in ``World.AB``, by :func:`_logistic_pair`.  The
    score of a row that ``out`` does not hold is not read."""
    prod_wa, prod_wab = out.prod_wa, out.prod_wab
    if prod_wa is not None:
        prod_wa[..., 1] = 0.0
        _logistic_pair(x_wa, prod_wa[..., 0], prod_wa[..., 2])
    if prod_wab is not None:
        prod_wab[..., 2] = 0.0
        _logistic_pair(x_wab, prod_wab[..., 0], prod_wab[..., 1])


def _s2_scores(params: ModelParams, log_l1_ab, log_l1_a, out: PredictionTable):
    """The level-2 speaker's scores of ``A`` against the explicit message,
    from the level-1 posteriors after ``A``, for :func:`_two_way_rows`;
    ``None`` for a row that ``out`` does not hold.

    In ``World.A`` the choice is between ``A`` (scored by the listener's
    residual w_a posterior) and the explicit ``A_AND_NOT_B``; in ``World.AB``
    between ``A`` and ``A_AND_B``.  Literally false messages get zero.
    """
    lam = params.lam
    x_wa = None if out.prod_wa is None else lam * (log_l1_a + params.delta_anb)
    x_wab = None if out.prod_wab is None else lam * (log_l1_ab + params.delta_ab)
    return x_wa, x_wab


# ---------------------------------------------------------------------------
# Wonky-prior models: the listener is uncertain whether the speaker assumed
# the measured prior or a backed-off uniform prior over the two worlds.
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # the logistics' overflow (see _logistic_pair)
def _wrsa_table(params: ModelParams, out: PredictionTable) -> None:
    """Wonky-prior listener: joint inference over world and background.

    The prior over (world, background) couples them: under the wonky
    background both worlds weigh 1/2 (hence the log-2 terms).  Not Bayesian
    with respect to the measured prior, so the posterior stays away from 0/1
    at the endpoints.
    """
    omega = params.xi
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    pc = _clip_prior(out.p)
    wab_mass = (_logistic(lam * (np.log(pc) + dab), pc * (1 - omega))
                + _scaled_expit(0.5 * omega, lam * (dab - LOG2)))
    wa_mass = (_logistic(lam * (np.log1p(-pc) + danb), (1 - pc) * (1 - omega))
               + _scaled_expit(0.5 * omega, lam * (danb - LOG2)))
    del pc
    # the speaker rows read the posterior, also where out does not hold it
    post_a = np.divide(wab_mass, wab_mass + wa_mass, out=out.post_a)
    del wab_mass, wa_mass
    if out.post_ab is not None:
        out.post_ab[...] = 1.0
    if out.prod_wa is None and out.prod_wab is None:
        return
    log_ab = _safe_log(post_a)
    with np.errstate(divide="ignore"):
        log_a = np.log1p(-post_a)
    _two_way_rows(*_s2_scores(params, log_ab, log_a, out), out)


# ---------------------------------------------------------------------------
# Supervaluationist models: the speaker maximizes expected utility over
# interpretations and jointly communicates a QUD cell and the QUD itself.
# An ambiguous message is unusable for a total-QUD speaker unless true under
# every positive-prior interpretation.
# ---------------------------------------------------------------------------


def _softplus(z):
    """``log(1 + exp(z))``: ``np.logaddexp(0, z)`` spelled out, which takes
    half the time."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _softplus_pair(z):
    """``softplus(z)`` and ``softplus(-z)``, ``softplus(z) = log(1 + exp(z))``:
    ``np.logaddexp(0, +-z)`` spelled out, which takes half the time, as
    ``max(+-z, 0) + log1p(exp(-|z|))`` with the shared term formed once."""
    tail = np.log1p(np.exp(-np.abs(z)))
    return np.maximum(z, 0.0) + tail, np.maximum(-z, 0.0) + tail


@np.errstate(over="ignore")  # the logistics' overflow (see _logistic_pair)
def _svrsa_table(params: ModelParams, out: PredictionTable, partial) -> None:
    """Level-1 listener and level-2 speakers over the four (world, QUD) cells
    ((w_a, partial), (w_ab, partial), (w_a, total), (w_ab, total)).

    The level-1 speaker under the partial QUD is world-independent and
    cost-driven: it says message k with probability ``s[k]``.  Under the
    total QUD it says ``A`` in w_a with probability sigma(x) and
    ``A_AND_NOT_B`` otherwise; in w_ab the bare message is false under the
    exhaustive interpretation, hence unusable, and the conjunction is
    certain.  So the joint listener's total for each message is its partial
    mass ``(1 - q) s[k]`` plus one total-QUD term: ``T_A = (1 - q) s[0] +
    (1 - p) q sigma(x)``, ``T_AB = (1 - q) s[1] + p q`` and ``T_AnB = (1 - q)
    s[2] + (1 - p) q sigma(-x)``.  Each is formed once and shared by
    comprehension and production.

    ``partial`` tells whether the level-2 speaker may also address the
    partial QUD (SVRSA1) or not (SVRSA2): a bool, or a (K, 1) bool column
    with one entry per parameter set, whose SVRSA2 sets skip that speaker.
    """
    # The QUD prior gets the world prior's interior clamp; the endpoint values
    # q in {0, 1} are thereby the continuity limits.
    qc, pc = _clip_prior(params.xi), _clip_prior(out.p)
    lam, danb = params.lam, params.delta_anb
    # The level-1 partial-QUD speaker: engine.log_softmax's operations on
    # the weights (0, w_ab, w_anb) in its order, its top weight being 0, so
    # the same bits; 0.0 - log_z, as there, keeps +0.0 where log_z is 0.
    w_ab, w_anb = -lam * params.delta_ab, -lam * danb
    log_z = np.log((1.0 + np.exp(w_ab)) + np.exp(w_anb))
    log_s = (0.0 - log_z, w_ab - log_z, w_anb - log_z)
    s = np.exp(log_s)
    log_wa = np.log1p(-pc)
    x = lam * ((1 - CHI) * log_wa + danb)

    # The totals of A and A_AND_B are at least (1 - q) / 3 and p q, so they
    # neither underflow nor lose precision.  The multiplication order
    # p * fraction keeps post_a <= p exactly in floating point (the fraction
    # never exceeds 1).  At high rationality post_ab can round to 1 + 2^-52
    # (exact: <= 1); a complement form would lose its relative accuracy at
    # small p.
    total_a = (1 - qc) * s[0] + _logistic(x, (1 - pc) * qc)
    total_ab = (1 - qc) * s[1] + pc * qc
    if out.post_a is not None:
        np.multiply(pc, (1 - qc) * s[0] / total_a, out=out.post_a)
    if out.post_ab is not None:
        np.minimum(pc * (((1 - qc) * s[1] + qc) / total_ab), 1.0, out=out.post_ab)
    del pc
    # In w_ab the total-QUD speaker says the conjunction.
    prod_wa, prod_wab = out.prod_wa, out.prod_wab
    if prod_wab is not None:
        prod_wab[..., 0] = prod_wab[..., 2] = 0.0
        prod_wab[..., 1] = 1.0
    if prod_wa is None and (prod_wab is None or not somewhere(partial)):
        return

    # Every term of A_AND_NOT_B carries a factor of about exp(-lam delta_anb)
    # or below, and its total underflows once that exponent passes about
    # 745; so it enters through the log-ratio d of its partial mass to its
    # total-QUD mass (1 - p) q sigma(-x).
    log_part, log_wa_total, log_total_a = np.log1p(-qc), log_wa + np.log(qc), np.log(total_a)
    del log_wa, total_a
    softplus_x, softplus_neg_x = _softplus_pair(x)
    del x
    d = (log_part + log_s[2]) - (log_wa_total - softplus_x)
    if prod_wa is not None:
        # Level-2 speaker for (w_a, total): the conjunction has zero posterior
        # on that cell, so the choice is two-way, scored by the log posteriors
        # log((1 - p) q sigma(x) / T_A) and -softplus(d) of that cell.
        y = lam * (danb + ((log_wa_total - softplus_neg_x) - log_total_a) + _softplus(d))
        prod_wa[..., 1] = 0.0
        _logistic_pair(y, prod_wa[..., 0], prod_wa[..., 2])
        del y
    del softplus_x, softplus_neg_x, log_wa_total
    if not somewhere(partial):
        return
    dab, sets = params.delta_ab, None
    if not everywhere(partial):
        # the SVRSA1 sets of a batch that mixes the two models
        sets = np.flatnonzero(partial)
        lam, dab, danb, qc, log_part, log_total_a, total_ab, d = (
            a[sets] for a in (lam, dab, danb, qc, log_part, log_total_a, total_ab, d))
        log_s = tuple(a[sets] for a in log_s)

    # Level-2 speaker addressing the partial QUD: world-independent, scored
    # by each message's log joint posterior on the partial-QUD cell, all
    # finite: the softmax of u below, weighted 1 - q in the mixture of each
    # row that out holds.
    u = (lam * ((log_part + log_s[0]) - log_total_a),
         lam * ((log_part + log_s[1] - dab) - np.log(total_ab)),
         -lam * (_softplus(-d) + danb))
    del log_total_a, total_ab, d
    top = np.maximum(np.maximum(u[0], u[1]), u[2])
    e = [np.exp(u_k - top) for u_k in u]
    del u, top
    part = np.stack(e, axis=-1)
    part *= ((1 - qc) / (e[0] + e[1] + e[2]))[..., None]
    del e
    q = np.asarray(qc)[..., None]  # against the message axis
    for rows in (prod_wa, prod_wab):
        if rows is None:
            continue
        if sets is None:
            rows *= q
            rows += part
        else:
            rows[sets] = rows[sets] * q + part


# ---------------------------------------------------------------------------
# Lexical uncertainty: the level-1 speaker is relativized to one
# interpretation; the level-1 listener mixes interpretations by their prior.
# ---------------------------------------------------------------------------


def _lu_table(params: ModelParams, out: PredictionTable, rho, shift=0.0) -> None:
    """Listener whose likelihoods of ``A`` mix the literal level-1 speaker
    (weight ``rho[0]``) with prior-free speakers scored ``lam (delta - shift)``
    for whom ``A`` is true only in ``World.A`` (``rho[1]``) or only in
    ``World.AB`` (``rho[2]``)."""
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    pc = _clip_prior(out.p)
    log_pc, log_qc = np.log(pc), np.log1p(-pc)
    log_ab, log_a = _bayes_listener(
        out.post_a, pc, log_pc, log_qc, lam * (log_pc + dab), lam * (log_qc + danb),
        rho, lam * (dab - shift), lam * (danb - shift),
    )
    del pc, log_pc, log_qc
    if out.post_ab is not None:
        out.post_ab[...] = 1.0
    _two_way_rows(*_s2_scores(params, log_ab, log_a, out), out)


def _lu_form(params: ModelParams, out: PredictionTable, lit, exh, anti, shift, ends,
             wonky) -> None:
    """The lexical-uncertainty form of a model's constants (see
    :data:`_FORMS`): :func:`_lu_table` under the weights ``(lit, exh,
    anti)``, or BWRSA's ``(1 - xi, xi, xi)`` where ``wonky``, then the
    prior's ends kept where ``ends``.  Each constant is a float or a bool,
    or a (K, 1) column with one entry per parameter set."""
    if wonky is True:
        xi = params.xi
        lit, exh, anti = 1 - xi, xi, xi
    elif somewhere(wonky):
        xi = params.xi
        lit, exh, anti = np.where(wonky, 1 - xi, lit), np.where(wonky, xi, exh), np.where(wonky, xi, anti)
    _lu_table(params, out, (lit, exh, anti), shift)
    if somewhere(ends):
        _keep_prior_ends(out, ends)


def lu_predict(params: ModelParams, p, rho) -> PredictionTable:
    """Lexical-uncertainty predictions over the priors ``p`` under the
    interpretation priors ``rho``, shaped as by :func:`predict_table`.

    ``rho`` weighs (literal, exhaustive, anti-exhaustive).  The named
    variants fix rho: the free variant uses the uniform simplex point, the
    grammatical one excludes anti-exhaustive strengthening.
    """
    if len(rho) != 3 or not (all(r >= 0 for r in rho) and abs(sum(rho) - 1.0) <= 1e-9):
        raise ValueError("rho must be three nonnegative weights summing to 1")
    rho = tuple(rho)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return _blocked(lambda out: _lu_table(params, out, rho), _empty_table(p, params))


# ---------------------------------------------------------------------------
# Lexical intentions: the level-1 speaker picks a message-interpretation
# pair jointly; unambiguous messages pair with both interpretations, hence
# the factor-2 terms.
# ---------------------------------------------------------------------------


def _li_table(params: ModelParams, out: PredictionTable, li1) -> None:
    """Listener and speaker rows of the lexical-intentions variants: those of
    LI1's marginal level-1 speaker where ``li1``, else LI2's level-2 speaker;
    ``li1`` is a bool, or a (K, 1) bool column with one entry per parameter
    set."""
    lam = params.lam
    pc = _clip_prior(out.p)
    log_pc, log_qc = np.log(pc), np.log1p(-pc)
    # The marginal level-1 speaker says "A" with probability sigma(x) in
    # World.AB, and with (1 + e) / (1 + e + 2 exp(-lam delta_anb)) = sigma(y)
    # in World.A, e = (1 - p)^lam; its other message takes the rest.
    x = lam * (log_pc + params.delta_ab) - LOG2
    y = (lam * params.delta_anb - LOG2) + np.log1p(np.exp(lam * log_qc))
    if li1 is True:
        # its speaker rows read x and y alone
        if out.post_a is not None:
            _bayes_listener(out.post_a, pc, log_pc, log_qc, x, y)
        del pc, log_pc, log_qc
        x_wa, x_wab = y, x
    else:  # LI2's scores, and LI1's in its sets of a batch that mixes the two
        log_ab, log_a = _bayes_listener(out.post_a, pc, log_pc, log_qc, x, y)
        del pc, log_pc, log_qc
        x_wa, x_wab = _s2_scores(params, log_ab, log_a, out)
        if li1 is not False:
            x_wa = None if x_wa is None else np.where(li1, y, x_wa)
            x_wab = None if x_wab is None else np.where(li1, x, x_wab)
    _two_way_rows(x_wa, x_wab, out)
    if out.post_ab is not None:
        out.post_ab[...] = 1.0


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def predict_table(model: ModelId, params: ModelParams, p) -> PredictionTable:
    """Vectorized predictions over an array of N priors.

    With float parameters the table's posteriors have shape (N,) and its
    production rows (N, 3).  Parameters that are (K, 1) columns (see
    :class:`ModelParams`) give (K, N) and (K, N, 3) arrays whose row k is,
    bit for bit, the table of a call with the floats of parameter set k.
    The table holds all four fields.

    Every form is evaluated at the prior clamped to ``[P_EPS, 1 - P_EPS]``,
    so at the exact endpoints p in {0, 1} it gives its continuity limit.  The
    one exception is the posterior after ``A`` of the baseline and of the
    Bayesian wonky variant, which keep a prior zero as Bayes' rule does:
    there the posterior is the prior itself, 0 or 1.

    The output arrays are allocated once and each form writes its fields
    straight into them.  A grid longer than :data:`BLOCK` priors is cut into
    blocks, which the calling thread and one helper thread per further usable
    CPU (its affinity set) take in turn, with at most one thread per
    :data:`BLOCKS_PER_THREAD` blocks; the helpers are joined before the call
    returns, run under the caller's ``np.errstate``, and an exception in any
    block is raised here.  So the forms' temporaries stay cache-sized, and
    the call's peak memory is about the table itself: within 1.5 times the
    full table's bytes on a grid of at least ``BLOCKS_PER_THREAD`` blocks, on
    any number of CPUs.  Every entry is a function of its own prior alone, so
    the table is bit for bit the same as one evaluated in a single piece,
    whatever the number of threads.
    """
    return _predict(model, params, p)


def _predict(model, params: ModelParams, p, field: str | None = None) -> PredictionTable:
    """The table of :func:`predict_table`, of every field (``field`` None)
    or of ``field`` alone, one of :data:`FIELDS`, with the full table's bits
    and ``None`` for the other fields: a posterior after ``A`` that is not
    asked for skips its correction near the prior, and speaker rows are
    formed only for the row asked for.

    ``model`` is one model, or a tuple of models of any families (see
    :data:`FAMILIES`), one per set of the (K, 1) columns of ``params``: row
    k is then, bit for bit, the table of ``model[k]`` with the floats of set
    k.  The call runs the cached plan of ``model`` (see :func:`_plan`).  A
    plan of one run hands its form the caller's ``params`` and the whole
    table; in a plan of several runs, each run fills its rows of the one
    table, its form taking the run's rows of the caller's columns, which are
    not validated again.  ``xi`` is read in the sets of ``XI_MODELS`` alone.
    A tuple of one model only is a call on that model."""
    if field not in (None, *FIELDS):
        raise ValueError(f"field must be None or one of {FIELDS}, got {field!r}")
    if isinstance(model, ModelId):
        require_xi(model, params)
        with_xi = model in XI_MODELS
    else:
        for kind in set(model) if params.xi is None else ():
            require_xi(kind, params)
        with_xi = params.xi is not None
    p = np.atleast_1d(np.asarray(p, dtype=float))
    table = _empty_table(p, params, with_xi=with_xi, field=field)
    plan = _plan(model)
    if len(plan) == 1:
        _, form, constants = plan[0]
        return _blocked(lambda out: form(params, out, *constants), table)
    parts = [(form, constants, _Columns.rows_of(params, sets), sets)
             for sets, form, constants in plan]

    def fill(out: PredictionTable) -> None:
        for form, constants, columns, sets in parts:
            form(columns, _sets_of(out, sets), *constants)

    return _blocked(fill, table)


#: The closed form of each model and the constants that it hands the form,
#: the one place that says both.  The lexical-uncertainty form
#: (:func:`_lu_form`) takes the weights (literal, exhaustive,
#: anti-exhaustive), the shift of the constant scores, whether the posterior
#: keeps the prior's ends (see :func:`_keep_prior_ends`) and whether the
#: weights are BWRSA's (1 - xi, xi, xi) rather than the first three; the
#: supervaluationist form whether the level-2 speaker may address the partial
#: QUD, and the lexical-intentions form whether it is LI1's.
_FORMS = {
    ModelId.BASE_RSA: (_lu_form, (1.0, 0.0, 0.0, 0.0, True, False)),
    # The likelihoods of "A" mix the usual level-1 speaker (measured prior)
    # with the wonky one (uniform prior), whose constant scores are lam
    # (delta - log 2).
    ModelId.BWRSA: (_lu_form, (1.0, 0.0, 0.0, float(LOG2), True, True)),
    ModelId.FREE_LU: (_lu_form, (*FIXED_RHO[ModelId.FREE_LU], 0.0, False, False)),
    ModelId.EXH_LU: (_lu_form, (*FIXED_RHO[ModelId.EXH_LU], 0.0, False, False)),
    ModelId.SVRSA1: (_svrsa_table, (True,)),
    ModelId.SVRSA2: (_svrsa_table, (False,)),
    ModelId.RSA_LI1: (_li_table, (True,)),
    ModelId.RSA_LI2: (_li_table, (False,)),
    ModelId.WRSA: (_wrsa_table, ()),
}

#: The models of each closed form (see :data:`_FORMS`), largest family
#: first: one call of a form fills the rows of K parameter sets that mix
#: its models (see :func:`_predict`).
FAMILIES = tuple(tuple(model for model, (form, _) in _FORMS.items() if form is shared)
                 for shared in dict.fromkeys(form for form, _ in _FORMS.values()))


@functools.lru_cache(maxsize=64)
def _plan(model) -> tuple:
    """The runs of consecutive sets of one form of ``model``, one model or a
    tuple of one model per parameter set, in order: triples of the run's
    slice of the sets, its form and the constants that the form takes after
    the parameters and the table (see :data:`_FORMS`).  A run of one model
    takes that model's floats and bools; a run that mixes models takes
    (K, 1) columns of them, read-only, as every call of the tuple shares
    them.  Kept for the tuples that recur as the searches of a lockstep
    step on."""
    if isinstance(model, ModelId):
        return ((slice(None),) + _FORMS[model],)
    forms = [_FORMS[m][0] for m in model]
    cuts = [0, *(k for k in range(1, len(model)) if forms[k] is not forms[k - 1]), len(model)]
    runs = []
    for a, b in zip(cuts, cuts[1:]):
        run = model[a:b]
        form, constants = _FORMS[run[0]]
        if run.count(run[0]) < len(run):
            constants = tuple(np.array(c)[:, None] for c in zip(*(_FORMS[m][1] for m in run)))
            for column in constants:
                column.flags.writeable = False
        runs.append((slice(a, b), form, constants))
    return tuple(runs)


class _Columns(NamedTuple):
    """The four parameters that the forms read, as :class:`ModelParams`
    holds them, without its validation: rows of a validated batch's columns
    (see :meth:`rows_of`)."""

    lam: np.ndarray
    delta_ab: np.ndarray
    delta_anb: np.ndarray
    xi: np.ndarray | None

    @classmethod
    def rows_of(cls, params: ModelParams, sets: slice) -> "_Columns":
        """Views of the rows ``sets`` of each (K, 1) column of ``params``;
        a float or ``None`` is kept as it is."""
        return cls(*(v[sets] if isinstance(v, np.ndarray) else v
                     for v in (params.lam, params.delta_ab, params.delta_anb, params.xi)))


def _sets_of(table: PredictionTable, sets: slice) -> PredictionTable:
    """Views of the parameter sets ``sets`` of each array that the batched
    ``table`` holds."""
    return PredictionTable(table.p, *(None if a is None else a[sets] for a in (
        table.post_a, table.post_ab, table.prod_wa, table.prod_wab)))
