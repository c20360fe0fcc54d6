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
reaches the lexical-uncertainty form under any interpretation prior.  Each
form is pinned against the brute-force references of :mod:`rsa_exh.oracles`
(the recursion of :func:`rsa_exh.engine.iterate`).  Both entry points evaluate
a grid longer than :data:`BLOCK` priors one block at a time into the output
arrays, so a call's peak memory stays within 1.5 times its table's bytes; every
entry depends on its own prior alone, so the blocked table is bit for bit the
one-piece table.

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

import math
from dataclasses import dataclass
from enum import Enum

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
    rows are distributions over ``(A, A_AND_B, A_AND_NOT_B)``.
    """

    p: np.ndarray
    post_a: np.ndarray  # (N,) or (K, N)
    post_ab: np.ndarray  # (N,) or (K, N)
    prod_wa: np.ndarray  # (N, 3) or (K, N, 3)
    prod_wab: np.ndarray  # (N, 3) or (K, N, 3)


def _clip_prior(p) -> np.ndarray:
    # np.clip's bounds, without its Python-level wrapper
    return np.minimum(np.maximum(np.asarray(p, dtype=float), P_EPS), 1.0 - P_EPS)


def _keep_prior_ends(table: PredictionTable, p: np.ndarray) -> PredictionTable:
    """``table`` with its posterior after ``A`` set to the prior where that is
    exactly 0 or 1 (see :func:`predict_table`)."""
    table.post_a[..., p <= 0.0] = 0.0
    table.post_a[..., p >= 1.0] = 1.0
    return table


#: Priors per block of a long grid (see :func:`predict_table`).  On a 2-vCPU
#: Xeon VM with 2 MB of L2 per core, the nine models' 1e6-point calls at three
#: parameter draws took, in the median of interleaved repeats, 0.77-0.84 of
#: their unblocked time with this block, 0.83-0.90 with 8192 priors, 0.91 with
#: 4096 and 0.84 with 65536: a block's temporaries (128 KB each) stay near the
#: core, where longer ones stream memory and shorter ones pay numpy's per-call
#: cost.  Much longer blocks would also lift a call's peak memory past 1.5
#: times its table's bytes, the bound that the tests hold.
BLOCK = 16384

#: The prior axis of each field of a PredictionTable, from the end.
_PRIOR_AXIS = {"post_a": -1, "post_ab": -1, "prod_wa": -2, "prod_wab": -2}


def _blocked(table_of, p: np.ndarray) -> PredictionTable:
    """``table_of(p)``, evaluated on consecutive slices of at most BLOCK
    priors where ``p`` is longer and copied into one table over all of ``p``."""
    n = len(p)
    if n <= BLOCK:
        return table_of(p)
    out = {}
    for start in range(0, n, BLOCK):
        block = table_of(p[start:start + BLOCK])
        for name, axis in _PRIOR_AXIS.items():
            value = getattr(block, name)
            if name not in out:
                shape = list(value.shape)
                shape[axis] = n
                out[name] = np.empty(shape)
            np.moveaxis(out[name], axis, 0)[start:start + BLOCK] = np.moveaxis(value, axis, 0)
    return PredictionTable(p, **out)


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
    """``log(w sigma(z) + k)`` for weights ``w, k >= 0``, floats or arrays that
    broadcast against ``z``.

    Where a constant is below TINY it is dropped; the log-sigmoid then keeps
    the value finite where ``sigma(z)`` underflows."""
    keep = k >= TINY
    if everywhere(keep):
        return np.log(_logistic(z, w) + k)
    out = (_each(_log_weight, w) + np.minimum(z, 0.0)) - np.log1p(np.exp(-np.abs(z)))
    if somewhere(keep):
        with np.errstate(divide="ignore"):
            out = np.where(keep, np.log(_logistic(z, w) + k), out)
    return out


def _logistic_split(z):
    """``sigma(z)`` as a step in {0, 1/2, 1} plus a tail kept to full
    relative precision: ``tanh(z / 2) / 2`` for ``|z| <= 1`` and
    ``+-sigma(-|z|)`` beyond, so that sums of logistics cancel in the steps
    (exactly) rather than in the tails."""
    z = np.asarray(z, dtype=float)
    size = np.abs(z)
    mid = size <= 1.0
    step = np.where(mid, 0.5, z > 0)
    tail = np.where(mid, 0.5 * np.tanh(0.5 * z), -np.sign(z) * _logistic(-size))
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
    (s_ab, s_a), (t_ab, t_a) = _logistic_split(np.stack([z_ab, z_a]))
    (s_anti, s_exh), (t_anti, t_exh) = _logistic_split(np.stack(np.broadcast_arrays(c_ab, c_a)))
    lit = np.where(s_ab == s_a, _logistic_gap(z_ab, z_a), t_ab - t_a)
    const = np.where((rho_anti == rho_exh) & (s_anti == s_exh),
                     rho_anti * _logistic_gap(c_ab, c_a), rho_anti * t_anti - rho_exh * t_exh)
    steps = w_lit * (s_ab - s_a) + _pick(rho_anti * s_anti - rho_exh * s_exh, where)
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
def _bayes_listener(pc, log_pc, log_qc, z_ab, z_a, rho=(1.0, 0.0, 0.0), c_ab=0.0, c_a=0.0):
    """Listener posterior on ``World.AB`` after ``A`` by Bayes' rule (see the
    module docstring), and the log posteriors on ``World.AB`` and ``World.A``.

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
    post = np.exp(log_ab)
    near = np.abs(log_ab - log_pc) <= NEAR_PRIOR
    if not near.any():
        return post, log_ab, log_a
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
    return post, log_ab, log_a


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
def _two_way_rows(x_wa, x_wab):
    """Speaker rows over (A, A_AND_B, A_AND_NOT_B) for a choice between ``A``
    and the explicit message: ``[sigma(x_wa), 0, sigma(-x_wa)]`` in
    ``World.A`` and ``[sigma(x_wab), sigma(-x_wab), 0]`` in ``World.AB``,
    by :func:`_logistic_pair`."""
    prod_wa, prod_wab = np.empty((2,) + x_wa.shape + (3,))
    prod_wa[..., 1] = prod_wab[..., 2] = 0.0
    _logistic_pair(x_wa, prod_wa[..., 0], prod_wa[..., 2])
    _logistic_pair(x_wab, prod_wab[..., 0], prod_wab[..., 1])
    return prod_wa, prod_wab


def _two_way_s2(params: ModelParams, log_l1_ab, log_l1_a):
    """Level-2 speaker rows from the level-1 posteriors after ``A``.

    In ``World.A`` the choice is between ``A`` (scored by the listener's
    residual w_a posterior) and the explicit ``A_AND_NOT_B``; in ``World.AB``
    between ``A`` and ``A_AND_B``.  Literally false messages get zero.
    """
    lam = params.lam
    return _two_way_rows(lam * (log_l1_a + params.delta_anb), lam * (log_l1_ab + params.delta_ab))


# ---------------------------------------------------------------------------
# Wonky-prior models: the listener is uncertain whether the speaker assumed
# the measured prior or a backed-off uniform prior over the two worlds.
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # the logistics' overflow (see _logistic_pair)
def _wrsa_table(params: ModelParams, p: np.ndarray) -> PredictionTable:
    """Wonky-prior listener: joint inference over world and background.

    The prior over (world, background) couples them: under the wonky
    background both worlds weigh 1/2 (hence the log-2 terms).  Not Bayesian
    with respect to the measured prior, so the posterior stays away from 0/1
    at the endpoints.
    """
    omega = params.xi
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    pc = _clip_prior(p)
    wab_mass = (_logistic(lam * (np.log(pc) + dab), pc * (1 - omega))
                + _scaled_expit(0.5 * omega, lam * (dab - LOG2)))
    wa_mass = (_logistic(lam * (np.log1p(-pc) + danb), (1 - pc) * (1 - omega))
               + _scaled_expit(0.5 * omega, lam * (danb - LOG2)))
    post_a = wab_mass / (wab_mass + wa_mass)
    log_ab = _safe_log(post_a)
    with np.errstate(divide="ignore"):
        log_a = np.log1p(-post_a)
    prod_wa, prod_wab = _two_way_s2(params, log_ab, log_a)
    return PredictionTable(p, post_a, np.ones_like(post_a), prod_wa, prod_wab)


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
def _svrsa_table(model: ModelId, params: ModelParams, p: np.ndarray) -> PredictionTable:
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
    """
    # The QUD prior gets the world prior's interior clamp; the endpoint values
    # q in {0, 1} are thereby the continuity limits.
    qc, pc = _clip_prior(params.xi), _clip_prior(p)
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
    post_a = pc * ((1 - qc) * s[0] / total_a)
    post_ab = np.minimum(pc * (((1 - qc) * s[1] + qc) / total_ab), 1.0)

    # Every term of A_AND_NOT_B carries a factor of about exp(-lam delta_anb)
    # or below, and its total underflows once that exponent passes about
    # 745; so it enters through the log-ratio d of its partial mass to its
    # total-QUD mass (1 - p) q sigma(-x).
    log_part, log_wa_total, log_total_a = np.log1p(-qc), log_wa + np.log(qc), np.log(total_a)
    softplus_x, softplus_neg_x = _softplus_pair(x)
    d = (log_part + log_s[2]) - (log_wa_total - softplus_x)
    # Level-2 speaker for (w_a, total): the conjunction has zero posterior on
    # that cell, so the choice is two-way, scored by the log posteriors
    # log((1 - p) q sigma(x) / T_A) and -softplus(d) of that cell.
    y = lam * (danb + ((log_wa_total - softplus_neg_x) - log_total_a) + _softplus(d))
    del softplus_x, softplus_neg_x  # they would lift the call's peak memory
    # In w_ab the total-QUD speaker says the conjunction.
    prod_wa, prod_wab = np.empty((2,) + y.shape + (3,))
    prod_wa[..., 1] = prod_wab[..., 0] = prod_wab[..., 2] = 0.0
    prod_wab[..., 1] = 1.0
    _logistic_pair(y, prod_wa[..., 0], prod_wa[..., 2])
    if model is ModelId.SVRSA2:
        return PredictionTable(p, post_a, post_ab, prod_wa, prod_wab)

    # Level-2 speaker addressing the partial QUD: world-independent, scored
    # by each message's log joint posterior on the partial-QUD cell, all
    # finite: the softmax of u below, weighted 1 - q in the mixture.
    u = (lam * ((log_part + log_s[0]) - log_total_a),
         lam * ((log_part + log_s[1] - params.delta_ab) - np.log(total_ab)),
         -lam * (_softplus(-d) + danb))
    top = np.maximum(np.maximum(u[0], u[1]), u[2])
    e = [np.exp(u_k - top) for u_k in u]
    part = np.stack(e, axis=-1) * ((1 - qc) / (e[0] + e[1] + e[2]))[..., None]
    q = np.asarray(qc)[..., None]  # against the message axis
    for rows in (prod_wa, prod_wab):
        rows *= q
        rows += part
    return PredictionTable(p, post_a, post_ab, prod_wa, prod_wab)


# ---------------------------------------------------------------------------
# Lexical uncertainty: the level-1 speaker is relativized to one
# interpretation; the level-1 listener mixes interpretations by their prior.
# ---------------------------------------------------------------------------


def _lu_table(params: ModelParams, p: np.ndarray, rho, shift=0.0) -> PredictionTable:
    """Listener whose likelihoods of ``A`` mix the literal level-1 speaker
    (weight ``rho[0]``) with prior-free speakers scored ``lam (delta - shift)``
    for whom ``A`` is true only in ``World.A`` (``rho[1]``) or only in
    ``World.AB`` (``rho[2]``)."""
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    pc = _clip_prior(p)
    log_pc, log_qc = np.log(pc), np.log1p(-pc)
    post_a, log_ab, log_a = _bayes_listener(
        pc, log_pc, log_qc, lam * (log_pc + dab), lam * (log_qc + danb),
        rho, lam * (dab - shift), lam * (danb - shift),
    )
    prod_wa, prod_wab = _two_way_s2(params, log_ab, log_a)
    return PredictionTable(p, post_a, np.ones_like(post_a), prod_wa, prod_wab)


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
    return _blocked(lambda block: _lu_table(params, block, rho),
                    np.atleast_1d(np.asarray(p, dtype=float)))


# ---------------------------------------------------------------------------
# Lexical intentions: the level-1 speaker picks a message-interpretation
# pair jointly; unambiguous messages pair with both interpretations, hence
# the factor-2 terms.
# ---------------------------------------------------------------------------


def _li_table(model: ModelId, params: ModelParams, p: np.ndarray) -> PredictionTable:
    lam = params.lam
    pc = _clip_prior(p)
    log_pc, log_qc = np.log(pc), np.log1p(-pc)
    # The marginal level-1 speaker says "A" with probability sigma(x) in
    # World.AB, and with (1 + e) / (1 + e + 2 exp(-lam delta_anb)) = sigma(y)
    # in World.A, e = (1 - p)^lam; its other message takes the rest.
    x = lam * (log_pc + params.delta_ab) - LOG2
    y = (lam * params.delta_anb - LOG2) + np.log1p(np.exp(lam * log_qc))
    post_a, log_ab, log_a = _bayes_listener(pc, log_pc, log_qc, x, y)
    if model is ModelId.RSA_LI1:
        prod_wa, prod_wab = _two_way_rows(y, x)
    else:
        prod_wa, prod_wab = _two_way_s2(params, log_ab, log_a)
    return PredictionTable(p, post_a, np.ones_like(post_a), prod_wa, prod_wab)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def predict_table(model: ModelId, params: ModelParams, p) -> PredictionTable:
    """Vectorized predictions over an array of N priors.

    With float parameters the table's posteriors have shape (N,) and its
    production rows (N, 3).  Parameters that are (K, 1) columns (see
    :class:`ModelParams`) give (K, N) and (K, N, 3) arrays whose row k is,
    bit for bit, the table of a call with the floats of parameter set k.

    Every form is evaluated at the prior clamped to ``[P_EPS, 1 - P_EPS]``,
    so at the exact endpoints p in {0, 1} it gives its continuity limit.  The
    one exception is the posterior after ``A`` of the baseline and of the
    Bayesian wonky variant, which keep a prior zero as Bayes' rule does:
    there the posterior is the prior itself, 0 or 1.

    A grid longer than :data:`BLOCK` priors is evaluated block by block into
    the output arrays, so the forms' temporaries stay cache-sized and the
    call's peak memory is about the table itself (within 1.5 times its bytes
    at N = 2e5).  Every entry is a function of its own prior alone, so the
    table is bit for bit the same as one evaluated in a single piece.
    """
    require_xi(model, params)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return _blocked(lambda block: _table(model, params, block), p)


def _table(model: ModelId, params: ModelParams, p: np.ndarray) -> PredictionTable:
    """The table of ``model`` over the priors ``p`` in one piece."""
    if model is ModelId.BASE_RSA:
        return _keep_prior_ends(_lu_table(params, p, (1.0, 0.0, 0.0)), p)
    if model is ModelId.WRSA:
        return _wrsa_table(params, p)
    if model is ModelId.BWRSA:
        # The likelihoods of "A" mix the usual level-1 speaker (measured
        # prior) with the wonky one (uniform prior): the lexical-uncertainty
        # form with weights (1 - xi, xi, xi) and constant scores
        # lam (delta - log 2).
        omega = params.xi
        return _keep_prior_ends(_lu_table(params, p, (1 - omega, omega, omega), shift=LOG2), p)
    if model in (ModelId.SVRSA1, ModelId.SVRSA2):
        return _svrsa_table(model, params, p)
    if model in (ModelId.FREE_LU, ModelId.EXH_LU):
        return _lu_table(params, p, FIXED_RHO[model])
    if model in (ModelId.RSA_LI1, ModelId.RSA_LI2):
        return _li_table(model, params, p)
    raise ValueError(f"unknown model {model!r}")
