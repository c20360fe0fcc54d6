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
:func:`predict_table` is the one prediction surface; the public per-variant
functions are the implementations holding an endpoint or ``rho`` contract.
Each form is pinned against the brute-force references of
:mod:`rsa_exh.oracles` (the recursion of :func:`rsa_exh.engine.iterate`).

The listener posterior after ``A`` of the variants that update the measured
prior by Bayes' rule (baseline, Bayesian wonky, lexical uncertainty, lexical
intentions) is *order-exact* and *faithfully rounded*.  Order-exact: it
compares with the clamped prior (``>``, ``==``, ``<``) exactly as the exact posterior
``p A / (p A + (1 - p) B)`` does, where ``A`` and ``B`` are the level-1
probabilities of ``A`` in ``World.AB`` and ``World.A``.  At high rationality
``post - p`` is of order ``exp(-lam x)`` and falls far below float64
resolution, so the order comes from ``A`` against ``B`` (their difference
built from the complements ``1 - sigma(z) = sigma(-z)``, or their log
ratio), not from the rounded posterior.  Faithfully rounded: within a
relative distance ``NEAR_PRIOR`` of the prior the posterior is
``p + (post - p)`` rounded once, within about one ulp of the exact posterior
of the model's scores ``z``, and never rounded onto the prior when it
differs from it; further out it is the log-space value ``exp(log post)``,
whose error is far below its distance from the prior.  The scores themselves
carry the rounding of ``log p``.  See :func:`_posterior_after_a`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .engine import _safe_log, log_softmax
from .scenario import ModelParams

LOG2 = np.log(2.0)

#: Interior clamp applied to priors before taking logs; endpoint behaviour is
#: the documented continuity limit of each form.
P_EPS = 1e-12

#: Smallest normal float64; sums below it have lost precision or underflowed.
TINY = np.finfo(float).tiny


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

    @classmethod
    def from_name(cls, name: str) -> "ModelId":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(
            f"unknown model {name!r}; choose from "
            f"{', '.join(m.value for m in cls)}"
        )


#: Models whose ModelParams must carry the extra prior ``xi``.
XI_MODELS = frozenset({ModelId.WRSA, ModelId.BWRSA, ModelId.SVRSA1, ModelId.SVRSA2})

#: Fixed interpretation priors (literal, exhaustive, anti-exhaustive).
FIXED_RHO = {
    ModelId.FREE_LU: (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    ModelId.EXH_LU: (0.5, 0.5, 0.0),
}


@dataclass(frozen=True)
class Predictions:
    """Unified per-prior output of every model variant.

    ``prod_wa`` / ``prod_wab`` are length-3 vectors over
    ``(A, A_AND_B, A_AND_NOT_B)``.
    """

    post_a: float
    post_ab: float
    prod_wa: np.ndarray
    prod_wab: np.ndarray

    def as_row(self, model: ModelId, p: float) -> dict:
        """Flatten to the canonical CSV row schema."""
        return {
            "model": model.value,
            "p": p,
            "post_A": self.post_a,
            "post_AB": self.post_ab,
            "prod_wa_A": float(self.prod_wa[0]),
            "prod_wa_AB": float(self.prod_wa[1]),
            "prod_wa_AnB": float(self.prod_wa[2]),
            "prod_wab_A": float(self.prod_wab[0]),
            "prod_wab_AB": float(self.prod_wab[1]),
            "prod_wab_AnB": float(self.prod_wab[2]),
        }


@dataclass(frozen=True)
class PredictionTable:
    """Vectorized predictions over a grid of priors (arrays share length N)."""

    p: np.ndarray
    post_a: np.ndarray
    post_ab: np.ndarray
    prod_wa: np.ndarray  # (N, 3)
    prod_wab: np.ndarray  # (N, 3)

    def at(self, i: int) -> Predictions:
        return Predictions(
            float(self.post_a[i]),
            float(self.post_ab[i]),
            self.prod_wa[i].copy(),
            self.prod_wab[i].copy(),
        )


def _clip_prior(p) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=float), P_EPS, 1.0 - P_EPS)


def _logistic(lam: float, x):
    """The rate-``lam`` logistic 1 / (1 + exp(-lam * x))."""
    return expit(lam * np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Baseline model
# ---------------------------------------------------------------------------

#: Band around the prior, relative to it, inside which the listener posterior
#: after ``A`` is formed as ``p + (post - p)`` (see _posterior_after_a).  The
#: log-space value used outside it is accurate to better than about 1e-10
#: (relative) in the fitting box, so its order against the prior is never in
#: doubt there; a narrow band keeps the per-entry correction rare.
NEAR_PRIOR = 2.0 ** -20


def _posterior_after_a(
    pc: np.ndarray, log_pc: np.ndarray, log_post_ab: np.ndarray, delta_at, tie
) -> np.ndarray:
    """Listener posterior on ``World.AB`` after ``A``, order-exact against
    the clamped prior ``pc``.

    Away from the prior this is the log-space value ``exp(log_post_ab)``,
    whose error is far below its distance from ``pc``.  Where
    ``|log_post_ab - log_pc| <= NEAR_PRIOR`` it is ``pc + delta_at(i)``:
    ``delta_at(i)`` is the model's ``post - p`` at the indices ``i`` (an
    index array or a full slice), computed without cancellation so that its
    sign is that of ``A - B``; the sum is rounded once and cannot cross
    ``pc``.  Where it rounds to ``pc`` although the exact posterior differs,
    the result is the neighbour of ``pc`` on the exact posterior's side.
    Where ``|delta|`` is below 1e-290 the complements of ``A`` and ``B`` are
    subnormal or have underflowed (``lam * x`` beyond about 708) and no
    longer carry the sign; there ``tie(i)`` returns a number with the sign of
    ``A - B`` taken from log space, where ``log sigma(-z) = -softplus(z)`` is
    still representable.
    """
    post = np.exp(log_post_ab)
    gap = np.subtract(log_post_ab, log_pc)
    near = np.abs(gap, out=gap) <= NEAR_PRIOR
    if near.any():
        at = np.flatnonzero(near)
        i = slice(None) if at.size == pc.size else at
        q, delta = pc[i], delta_at(i)
        fine = q + delta
        stuck = fine == q
        if stuck.any():
            side = np.sign(delta[stuck])
            unresolved = np.abs(delta[stuck]) < 1e-290
            if unresolved.any():
                side[unresolved] = np.sign(tie(at[stuck][unresolved]))
            fine[stuck] = np.nextafter(q[stuck], q[stuck] + side)
        post[i] = fine
    return post


def _base_listener(params: ModelParams, p: np.ndarray):
    """Baseline level-1 listener after ``A``: the posterior on ``World.AB``
    (with the endpoint convention of :func:`base_rsa_l1`) and the log
    posteriors on ``World.AB`` and ``World.A``."""
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    pc = _clip_prior(p)
    log_pc, log_qc = np.log(pc), np.log(1 - pc)
    # masses proportional to prior times the level-1 probability of "A",
    # sigma(z) with scores z_ab = lam (log p + delta_ab), z_a likewise
    log_wab = log_pc - np.logaddexp(0.0, -lam * (log_pc + dab))
    log_wa = log_qc - np.logaddexp(0.0, -lam * (log_qc + danb))
    denom = np.logaddexp(log_wab, log_wa)
    log_ab, log_a = log_wab - denom, log_wa - denom

    def scores_at(i):
        # log1p keeps the small score of a small prior to full precision
        return lam * (log_pc[i] + dab), lam * (np.log1p(-pc[i]) + danb)

    def delta_at(i):
        # log(A / B) = softplus(-z_a) - softplus(-z_ab), with the linear parts
        # max(-z, 0) subtracted apart from the bounded curved parts, so that
        # scores far below 0 do not cancel
        z_ab_i, z_a_i = scores_at(i)
        llr = (np.maximum(-z_a_i, 0.0) - np.maximum(-z_ab_i, 0.0)) + (
            np.log1p(np.exp(-np.abs(z_a_i))) - np.log1p(np.exp(-np.abs(z_ab_i)))
        )
        # post - p = (1 - p) post (1 - B/A) above the prior and
        # p (1 - post) (A/B - 1) below it: every factor stays bounded
        up = llr > 0
        post_or_rest = np.exp(np.where(up, log_ab[i], log_a[i]))
        return (pc[i] - up) * post_or_rest * np.expm1(-np.abs(llr))

    def tie(i):
        z_ab_i, z_a_i = scores_at(i)
        return z_ab_i - z_a_i

    post = _posterior_after_a(pc, log_pc, log_ab, delta_at, tie)
    post[p <= 0.0] = 0.0
    post[p >= 1.0] = 1.0
    return post, log_ab, log_a


def base_rsa_l1(params: ModelParams, p):
    """Baseline posterior of ``World.AB`` after the bare message.

    The result is order-exact: it is above, equal to or below the clamped
    prior exactly when the exact posterior ``p A / (p A + (1 - p) B)`` is,
    which happens exactly when the prior log-odds are above, equal to or below
    ``delta_anb - delta_ab``.  Within a relative distance ``NEAR_PRIOR`` of
    the prior it is ``p + (post - p)`` rounded once, and it is never rounded
    onto the prior when the exact posterior differs from it (see the module
    docstring).

    At the exact endpoints p in {0, 1} the prior is returned unchanged
    (continuity limit).
    """
    p_arr = np.asarray(p, dtype=float)
    out = _base_listener(params, p_arr.reshape(-1))[0].reshape(p_arr.shape)
    return out if out.ndim else float(out)


def _two_way_s2(params: ModelParams, log_l1_ab, log_l1_a):
    """Level-2 speaker rows from the level-1 posteriors after ``A``.

    In ``World.A`` the choice is between ``A`` (scored by the listener's
    residual w_a posterior) and the explicit ``A_AND_NOT_B``; in ``World.AB``
    between ``A`` and ``A_AND_B``.  Literally false messages get zero.
    """
    lam = params.lam
    x_wa = lam * (np.asarray(log_l1_a) + params.delta_anb)
    x_wab = lam * (np.asarray(log_l1_ab) + params.delta_ab)
    zeros = np.zeros_like(x_wa)
    prod_wa = np.stack([expit(x_wa), zeros, expit(-x_wa)], axis=-1)
    prod_wab = np.stack([expit(x_wab), expit(-x_wab), zeros], axis=-1)
    return prod_wa, prod_wab


def _base_table(params: ModelParams, p: np.ndarray) -> PredictionTable:
    post_a, log_ab, log_a = _base_listener(params, p)
    prod_wa, prod_wab = _two_way_s2(params, log_ab, log_a)
    return PredictionTable(p, post_a, np.ones_like(post_a), prod_wa, prod_wab)


# ---------------------------------------------------------------------------
# Wonky-prior models: the listener is uncertain whether the speaker assumed
# the measured prior or a backed-off uniform prior over the two worlds.
# ---------------------------------------------------------------------------


def wrsa_l1(params: ModelParams, p):
    """Wonky-prior posterior: joint inference over world and background.

    The prior over (world, background) couples them: under the wonky
    background both worlds weigh 1/2 (hence the log-2 terms).  Not Bayesian
    with respect to the measured prior, so the posterior stays away from 0/1
    at the endpoints.
    """
    omega = params.require_xi()
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    pc = _clip_prior(p)
    wab_mass = (pc * (1 - omega) * _logistic(lam, _safe_log(pc) + dab)
                + 0.5 * omega * _logistic(lam, dab - LOG2))
    wa_mass = ((1 - pc) * (1 - omega) * _logistic(lam, _safe_log(1 - pc) + danb)
               + 0.5 * omega * _logistic(lam, danb - LOG2))
    out = wab_mass / (wab_mass + wa_mass)
    return out if out.ndim else float(out)


def _wrsa_table(params: ModelParams, p: np.ndarray) -> PredictionTable:
    post_a = np.atleast_1d(wrsa_l1(params, p))
    log_ab = _safe_log(post_a)
    with np.errstate(divide="ignore"):
        log_a = np.log1p(-post_a)
    prod_wa, prod_wab = _two_way_s2(params, log_ab, log_a)
    return PredictionTable(p, post_a, np.ones_like(post_a), prod_wa, prod_wab)


def bwrsa_l1(params: ModelParams, p):
    """Bayesian wonky variant: own world prior, mixture over backgrounds.

    Order-exact against the clamped prior (see the module docstring), and
    respects prior zeros exactly: returns p unchanged at p in {0, 1}.
    """
    p_arr = np.asarray(p, dtype=float)
    out = _bwrsa_table(params, p_arr.reshape(-1)).post_a.reshape(p_arr.shape)
    return out if out.ndim else float(out)


def _bwrsa_table(params: ModelParams, p: np.ndarray) -> PredictionTable:
    # The likelihoods of "A" mix the usual level-1 speaker (measured prior)
    # with the wonky one (uniform prior): the lexical-uncertainty form with
    # weights (1 - xi, xi, xi) and constant scores lam (delta - log 2).
    omega = params.require_xi()
    table = _lu_table(params, p, (1 - omega, omega, omega), shift=LOG2)
    table.post_a[p <= 0.0] = 0.0
    table.post_a[p >= 1.0] = 1.0
    return table


# ---------------------------------------------------------------------------
# Supervaluationist models: the speaker maximizes expected utility over
# interpretations and jointly communicates a QUD cell and the QUD itself.
# An ambiguous message is unusable for a total-QUD speaker unless true under
# every positive-prior interpretation.
# ---------------------------------------------------------------------------


def _svrsa_components(params: ModelParams, pc: np.ndarray, qc: float):
    """Level-1 speakers and the level-2 speakers built on the joint level-1
    listener.

    The joint listener rows run over the four (world, QUD) cells
    ((w_a, partial), (w_ab, partial), (w_a, total), (w_ab, total)).
    """
    lam, dab, danb, chi = params.lam, params.delta_ab, params.delta_anb, params.chi
    n = pc.shape[0]
    costs = np.array([0.0, dab, danb])

    # Level-1 speaker under the partial QUD: world-independent, cost-driven.
    log_s1_part = log_softmax(-lam * costs)
    s1_part = np.exp(log_s1_part)
    # Level-1 speaker under the total QUD in w_a: the bare message scores
    # only through the literal interpretation's share of the cell posterior.
    x = lam * ((1 - chi) * np.log1p(-pc) + danb)
    s1_tot_wa_a = expit(x)
    s1_tot_wa_anb = expit(-x)
    # In w_ab under the total QUD the bare message is false under the
    # exhaustive interpretation, hence unusable: the conjunction is certain.

    zeros = np.zeros(n)
    weights = {
        "A": np.stack(
            [(1 - pc) * (1 - qc) * s1_part[0], pc * (1 - qc) * s1_part[0],
             (1 - pc) * qc * s1_tot_wa_a, zeros], axis=-1),
        "AB": np.stack(
            [(1 - pc) * (1 - qc) * s1_part[1], pc * (1 - qc) * s1_part[1],
             zeros, pc * qc * np.ones(n)], axis=-1),
        "AnB": np.stack(
            [(1 - pc) * (1 - qc) * s1_part[2], pc * (1 - qc) * s1_part[2],
             (1 - pc) * qc * s1_tot_wa_anb, zeros], axis=-1),
    }
    # With the priors clamped away from the endpoints the totals of A and
    # A_AND_B stay positive, so their joint posteriors are plain
    # normalizations.  Every weight of A_AND_NOT_B carries a factor of about
    # exp(-lam * delta_anb) or below, and its total underflows once that
    # exponent passes about 745.  Its first two weights add up to
    # (1 - qc) * s1_part[2], so a total can fall below TINY only where that
    # scalar is below 2 * TINY.  Such rows get placeholder weights here, and
    # the terms built on them are redone in log space below.
    tiny = ()
    if (1 - qc) * s1_part[2] < 2 * TINY:
        tiny = np.flatnonzero(weights["AnB"].sum(axis=-1) < TINY)
        weights["AnB"][tiny] = 1.0
    joint = {key: w / w.sum(axis=-1, keepdims=True) for key, w in weights.items()}

    # Level-2 speaker addressing the partial QUD: scored by each message's
    # joint (cell, QUD) posterior; world-independent.
    log_m = np.stack(
        [_safe_log(joint[k][:, 0] + joint[k][:, 1]) for k in ("A", "AB", "AnB")],
        axis=-1,
    )
    if len(tiny):
        log_wa, log_wab = np.log1p(-pc[tiny]), np.log(pc[tiny])
        log_joint_anb = log_softmax(np.stack(
            [log_wa + np.log1p(-qc) + log_s1_part[2],
             log_wab + np.log1p(-qc) + log_s1_part[2],
             log_wa + np.log(qc) - np.logaddexp(0.0, x[tiny])], axis=-1))
        log_m[tiny, 2] = np.logaddexp(log_joint_anb[:, 0], log_joint_anb[:, 1])
    s2_part = np.exp(log_softmax(lam * (log_m - costs)))
    # Level-2 speaker for (w_a, total): the conjunction has zero posterior on
    # that cell, so the choice is two-way.
    y = lam * (_safe_log(joint["A"][:, 2]) - _safe_log(joint["AnB"][:, 2]) + danb)
    if len(tiny):
        y[tiny] = lam * (_safe_log(joint["A"][tiny, 2]) - log_joint_anb[:, 2] + danb)
    s2_tot_wa = np.stack([expit(y), zeros, expit(-y)], axis=-1)
    s2_tot_wab = np.stack([zeros, np.ones(n), zeros], axis=-1)
    return s1_part, s1_tot_wa_a, s2_part, s2_tot_wa, s2_tot_wab


def _svrsa_table(params: ModelParams, p: np.ndarray, variant: int) -> PredictionTable:
    # The QUD prior gets the same interior clamp as the world prior; the
    # endpoint values q in {0, 1} are thereby the continuity limits.
    qc = float(np.clip(params.require_xi(), P_EPS, 1.0 - P_EPS))
    pc = _clip_prior(p)
    s1_part, s1_tot_wa_a, s2_part, s2_tot_wa, s2_tot_wab = _svrsa_components(
        params, pc, qc
    )

    # Comprehension marginals.  The multiplication order p * fraction keeps
    # post_a <= p exactly in floating point (the fraction never exceeds 1).
    denom_a = (1 - qc) * s1_part[0] + (1 - pc) * qc * s1_tot_wa_a
    post_a = pc * ((1 - qc) * s1_part[0] / denom_a)
    # At high rationality the product can round to 1 + 2^-52 (exact: <= 1).
    # A complement form would lose post_ab's relative accuracy at small p.
    denom_ab = (1 - qc) * s1_part[1] + pc * qc
    post_ab = np.minimum(pc * (((1 - qc) * s1_part[1] + qc) / denom_ab), 1.0)

    if variant == 1:
        prod_wa = (1 - qc) * s2_part + qc * s2_tot_wa
        prod_wab = (1 - qc) * s2_part + qc * s2_tot_wab
    else:
        prod_wa, prod_wab = s2_tot_wa, s2_tot_wab
    return PredictionTable(p, post_a, post_ab, prod_wa, prod_wab)


# ---------------------------------------------------------------------------
# Lexical uncertainty: the level-1 speaker is relativized to one
# interpretation; the level-1 listener mixes interpretations by their prior.
# ---------------------------------------------------------------------------


def _logistic_split(z):
    """``sigma(z)`` as a step in {0, 1/2, 1} plus a tail kept to full
    relative precision: ``tanh(z / 2) / 2`` for ``|z| <= 1`` and
    ``+-sigma(-|z|)`` beyond, so that sums of logistics cancel in the steps
    (exactly) rather than in the tails."""
    z = np.asarray(z, dtype=float)
    mid = np.abs(z) <= 1.0
    up = z > 0
    step = np.where(mid, 0.5, up * 1.0)
    tail = np.where(mid, 0.5 * np.tanh(0.5 * z), np.where(up, -expit(-z), expit(z)))
    return step, tail


def _lu_table(params: ModelParams, p: np.ndarray, rho, shift=0.0) -> PredictionTable:
    """Listener whose likelihoods of ``A`` mix the literal level-1 speaker
    (weight ``rho[0]``) with prior-free speakers scored ``lam (delta - shift)``
    for whom ``A`` is true only in ``World.A`` (``rho[1]``) or only in
    ``World.AB`` (``rho[2]``)."""
    rho_lit, rho_exh, rho_anti = rho
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    pc = _clip_prior(p)
    log_pc, log_qc = np.log(pc), np.log(1 - pc)
    z_ab = lam * (log_pc + dab)
    z_a = lam * (log_qc + danb)
    c_ab, c_a = lam * (dab - shift), lam * (danb - shift)
    s_wab_lit, s_wa_lit = expit(z_ab), expit(z_a)
    s_wab_anti, s_wa_exh = expit(c_ab), expit(c_a)
    lik_ab = rho_lit * s_wab_lit + rho_anti * s_wab_anti
    lik_a = rho_lit * s_wa_lit + rho_exh * s_wa_exh
    wab_mass = pc * lik_ab
    wa_mass = (1 - pc) * lik_a
    with np.errstate(divide="ignore"):
        log_wab, log_wa = np.log(wab_mass), np.log(wa_mass)
    denom = np.logaddexp(log_wab, log_wa)
    fallback = np.isneginf(denom)
    log_ab = np.where(fallback, log_pc, log_wab - denom)
    log_a = np.where(fallback, log_qc, log_wa - denom)
    prod_wa, prod_wab = _two_way_s2(params, log_ab, log_a)

    def scores_at(i):
        # log1p keeps the small score of a small prior to full precision
        return z_ab[i], lam * (np.log1p(-pc[i]) + danb), c_ab, c_a

    def delta_at(i):
        # A - B with every logistic split into a step and a tail (see
        # _logistic_split): the steps cancel exactly and the tails keep
        # their relative accuracy where the likelihoods round to their limits
        # or to 1/2
        (step_ab, tail_ab), (step_a, tail_a), (step_anti, tail_anti), (step_exh, tail_exh) = (
            _logistic_split(z) for z in scores_at(i)
        )
        steps = rho_lit * (step_ab - step_a) + (rho_anti * step_anti - rho_exh * step_exh)
        tails = rho_lit * (tail_ab - tail_a) + (rho_anti * tail_anti - rho_exh * tail_exh)
        q = pc[i]
        # the floor keeps a total whose every term has underflowed from
        # dividing by zero
        return q * (1 - q) * (steps + tails) / np.maximum(wab_mass[i] + wa_mass[i], 5e-324)

    def tie(i):
        # all tails have underflowed, so the steps cancel: weigh the positive
        # against the negative tails in log space,
        # log sigma(-|z|) = -softplus(|z|)
        z = np.stack(np.broadcast_arrays(*scores_at(i)))
        rho_signed = np.array([rho_lit, -rho_lit, rho_anti, -rho_exh])[:, None]
        weight = rho_signed * np.where(z > 0, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            log_tail = np.log(np.abs(weight)) - np.logaddexp(0.0, np.abs(z))
        above = np.logaddexp.reduce(np.where(weight > 0, log_tail, -np.inf), axis=0)
        below = np.logaddexp.reduce(np.where(weight < 0, log_tail, -np.inf), axis=0)
        return above - below

    post_a = _posterior_after_a(pc, log_pc, log_ab, delta_at, tie)
    return PredictionTable(p, post_a, np.ones_like(post_a), prod_wa, prod_wab)


def lu_predict(params: ModelParams, p, rho) -> Predictions:
    """Lexical-uncertainty predictions under interpretation priors ``rho``.

    ``rho`` weighs (literal, exhaustive, anti-exhaustive).  The named
    variants fix rho: the free variant uses the uniform simplex point, the
    grammatical one excludes anti-exhaustive strengthening.
    """
    if len(rho) != 3 or min(rho) < 0 or abs(sum(rho) - 1.0) > 1e-9:
        raise ValueError("rho must be three nonnegative weights summing to 1")
    table = _lu_table(params, np.atleast_1d(np.asarray(p, dtype=float)), tuple(rho))
    return table.at(0)


# ---------------------------------------------------------------------------
# Lexical intentions: the level-1 speaker picks a message-interpretation
# pair jointly; unambiguous messages pair with both interpretations, hence
# the factor-2 terms.
# ---------------------------------------------------------------------------


def _li_s1(params: ModelParams, pc: np.ndarray, log_pc: np.ndarray):
    """Marginal level-1 speaker rows (A, A_AND_B, A_AND_NOT_B) per world."""
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    e_wa = np.exp(lam * np.log1p(-pc))
    denom_wa = 1 + e_wa + 2 * np.exp(-lam * danb)
    s1_a_wa = (1 + e_wa) / denom_wa
    s1_anb_wa = 2 * np.exp(-lam * danb) / denom_wa
    z_ab = lam * (log_pc + dab)
    s1_a_wab = expit(z_ab - LOG2)
    s1_ab_wab = expit(LOG2 - z_ab)
    zeros = np.zeros_like(pc)
    prod_wa = np.stack([s1_a_wa, zeros, s1_anb_wa], axis=-1)
    prod_wab = np.stack([s1_a_wab, s1_ab_wab, zeros], axis=-1)
    return prod_wa, prod_wab


def _li_table(params: ModelParams, p: np.ndarray, variant: int) -> PredictionTable:
    pc = _clip_prior(p)
    log_pc = np.log(pc)
    s1_wa, s1_wab = _li_s1(params, pc, log_pc)
    wab_mass = pc * s1_wab[:, 0]
    wa_mass = (1 - pc) * s1_wa[:, 0]
    with np.errstate(divide="ignore"):
        log_wab = np.log(wab_mass)
    log_wa = np.log(wa_mass)
    denom = np.logaddexp(log_wab, log_wa)
    log_ab = log_wab - denom
    log_a = log_wa - denom

    def delta_at(i):
        # A - B = A (1 - B) - B (1 - A), from the shares of the explicit
        # messages: accurate where A and B both round to 1
        diff = s1_wab[i, 0] * s1_wa[i, 2] - s1_wa[i, 0] * s1_wab[i, 1]
        q = pc[i]
        return q * (1 - q) * diff / (wab_mass[i] + wa_mass[i])

    def tie(i):
        # A = sigma(x), B = sigma(y) with x = lam (log p + delta_ab) - log 2
        # and y = lam delta_anb + log((1 + (1 - p)^lam) / 2), so A - B has
        # the sign of x - y, in which the log 2 terms cancel
        lam = params.lam
        x = lam * (log_pc[i] + params.delta_ab)
        return x - lam * params.delta_anb - np.log1p(np.exp(lam * np.log1p(-pc[i])))

    post_a = _posterior_after_a(pc, log_pc, log_ab, delta_at, tie)
    if variant == 1:
        prod_wa, prod_wab = s1_wa, s1_wab
    else:
        prod_wa, prod_wab = _two_way_s2(params, log_ab, log_a)
    return PredictionTable(p, post_a, np.ones_like(post_a), prod_wa, prod_wab)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def predict_table(model: ModelId, params: ModelParams, p) -> PredictionTable:
    """Vectorized predictions over an array of priors."""
    if model in XI_MODELS and params.xi is None:
        raise MissingParameter(f"{model.value} requires the extra prior xi")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if model is ModelId.BASE_RSA:
        return _base_table(params, p)
    if model is ModelId.WRSA:
        return _wrsa_table(params, p)
    if model is ModelId.BWRSA:
        return _bwrsa_table(params, p)
    if model is ModelId.SVRSA1:
        return _svrsa_table(params, p, variant=1)
    if model is ModelId.SVRSA2:
        return _svrsa_table(params, p, variant=2)
    if model in (ModelId.FREE_LU, ModelId.EXH_LU):
        return _lu_table(params, p, FIXED_RHO[model])
    if model is ModelId.RSA_LI1:
        return _li_table(params, p, variant=1)
    if model is ModelId.RSA_LI2:
        return _li_table(params, p, variant=2)
    raise ValueError(f"unknown model {model!r}")


def predict(model: ModelId, params: ModelParams, p: float) -> Predictions:
    """Predictions of ``model`` at conditional prior ``p``."""
    return predict_table(model, params, float(p)).at(0)
