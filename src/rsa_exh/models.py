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
"""

from __future__ import annotations

import math
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


def _log_mixture(w: float, z: np.ndarray, k: float) -> np.ndarray:
    """``log(w sigma(z) + k)`` for scalars ``w, k >= 0``.

    A constant below TINY is dropped; the log-sigmoid then keeps the value
    finite where ``sigma(z)`` underflows."""
    if k >= TINY:
        return np.log(w * expit(z) + k)
    log_w = math.log(w) if w > 0 else -np.inf
    return (log_w + np.minimum(z, 0.0)) - np.log1p(np.exp(-np.abs(z)))


def _logistic_split(z):
    """``sigma(z)`` as a step in {0, 1/2, 1} plus a tail kept to full
    relative precision: ``tanh(z / 2) / 2`` for ``|z| <= 1`` and
    ``+-sigma(-|z|)`` beyond, so that sums of logistics cancel in the steps
    (exactly) rather than in the tails."""
    z = np.asarray(z, dtype=float)
    size = np.abs(z)
    mid = size <= 1.0
    step = np.where(mid, 0.5, z > 0)
    tail = np.where(mid, 0.5 * np.tanh(0.5 * z), -np.sign(z) * expit(-size))
    return step, tail


def _logistic_gap(a, b):
    """``sigma(a) - sigma(b)`` to full relative precision, as
    ``+-sigma(hi) sigma(-lo) (1 - exp(lo - hi))`` over the ordered pair (so
    that ``expm1`` cannot overflow)."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.sign(a - b) * expit(hi) * expit(-lo) * -np.expm1(lo - hi)


def _mixture_gap(rho, z_ab, z_a, c_ab, c_a):
    """``A - B`` of a mixture (see _bayes_listener) and its sign.

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
    (s_ab, s_a), (t_ab, t_a) = _logistic_split(np.stack([z_ab, z_a]))
    (s_anti, s_exh), (t_anti, t_exh) = _logistic_split([c_ab, c_a])
    lit = np.where(s_ab == s_a, _logistic_gap(z_ab, z_a), t_ab - t_a)
    if rho_anti == rho_exh and s_anti == s_exh:
        const = rho_anti * _logistic_gap(c_ab, c_a)
    else:
        const = rho_anti * t_anti - rho_exh * t_exh
    steps = rho_lit * (s_ab - s_a) + (rho_anti * s_anti - rho_exh * s_exh)
    diff = steps + (rho_lit * lit + const)
    side = np.sign(diff)
    tie = np.abs(diff) < 1e-290
    if tie.any():
        # the steps cancel: weigh the positive against the negative tails
        z = np.stack(np.broadcast_arrays(z_ab[tie], z_a[tie], c_ab, c_a))
        rho_signed = np.array([rho_lit, -rho_lit, rho_anti, -rho_exh])[:, None]
        weight = rho_signed * np.where(z > 0, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            log_tail = np.log(np.abs(weight)) - np.logaddexp(0.0, np.abs(z))
        above = np.logaddexp.reduce(np.where(weight > 0, log_tail, -np.inf), axis=0)
        below = np.logaddexp.reduce(np.where(weight < 0, log_tail, -np.inf), axis=0)
        side[tie] = np.sign(above - below)
    return diff, side


def _bayes_listener(pc, log_pc, log_qc, z_ab, z_a, rho=(1.0, 0.0, 0.0), c_ab=0.0, c_a=0.0):
    """Listener posterior on ``World.AB`` after ``A`` by Bayes' rule (see the
    module docstring), and the log posteriors on ``World.AB`` and ``World.A``.

    ``pc`` is the clamped prior, ``log_pc = log(pc)``, ``log_qc =
    log1p(-pc)``.  The likelihoods of ``A`` are ``A = rho_lit sigma(z_ab) +
    rho_anti sigma(c_ab)`` and ``B = rho_lit sigma(z_a) + rho_exh sigma(c_a)``
    with ``rho = (rho_lit, rho_exh, rho_anti)``.  Where ``|log post - log pc|
    <= NEAR_PRIOR`` the posterior is ``pc + pc (1 - pc) (A - B) / (pc A +
    (1 - pc) B)``, the difference taken without cancellation; where that sum
    rounds onto ``pc`` although ``A != B`` it is the neighbour of ``pc`` on
    the side of ``A - B``.
    """
    rho_lit, rho_exh, rho_anti = rho
    log_wab = log_pc + _log_mixture(rho_lit, z_ab, rho_anti * expit(c_ab))
    log_wa = log_qc + _log_mixture(rho_lit, z_a, rho_exh * expit(c_a))
    # np.logaddexp(log_wab, log_wa) spelled out, which takes half the time
    denom = np.maximum(log_wab, log_wa) + np.log1p(np.exp(-np.abs(log_wab - log_wa)))
    log_ab, log_a = log_wab - denom, log_wa - denom
    post = np.exp(log_ab)
    near = np.abs(log_ab - log_pc) <= NEAR_PRIOR
    if not near.any():
        return post, log_ab, log_a
    i = slice(None) if near.all() else np.flatnonzero(near)
    q, a, b = pc[i], z_ab[i], z_a[i]
    if rho_exh == rho_anti == 0:
        # one pair: (A - B) / max(A, B) = +-sigma(-lo) (1 - exp(lo - hi)), and
        # post - p = (1 - p) post (A - B) / A above the prior and
        # p (1 - post) (A - B) / B below it: every factor stays bounded
        gap = a - b
        side = np.sign(gap)
        up = gap > 0
        delta = np.exp(np.where(up, log_ab[i], log_a[i]))
        delta *= q - up
        delta *= expit(-np.minimum(a, b))
        delta *= np.expm1(-np.abs(gap))
    else:
        diff, side = _mixture_gap(rho, a, b, c_ab, c_a)
        # the floor keeps a total that has underflowed from dividing by zero
        delta = q * (1 - q) * diff / np.maximum(np.exp(denom[i]), 5e-324)
    fine = q + delta
    stuck = fine == q
    if stuck.any():
        fine[stuck] = np.nextafter(q[stuck], q[stuck] + side[stuck])
    post[i] = fine
    return post, log_ab, log_a


def _two_way_rows(x_wa, x_wab):
    """Speaker rows over (A, A_AND_B, A_AND_NOT_B) for a choice between ``A``
    and the explicit message: ``[sigma(x_wa), 0, sigma(-x_wa)]`` in
    ``World.A`` and ``[sigma(x_wab), sigma(-x_wab), 0]`` in ``World.AB``."""
    prod_wa, prod_wab = np.zeros((2,) + x_wa.shape + (3,))
    prod_wa[..., 0], prod_wa[..., 2] = expit(x_wa), expit(-x_wa)
    prod_wab[..., 0], prod_wab[..., 1] = expit(x_wab), expit(-x_wab)
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
# Baseline model: the literal interpretation only
# ---------------------------------------------------------------------------


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
    out = _base_table(params, p_arr.reshape(-1)).post_a.reshape(p_arr.shape)
    return out if out.ndim else float(out)


def _base_table(params: ModelParams, p: np.ndarray) -> PredictionTable:
    table = _lu_table(params, p, (1.0, 0.0, 0.0))
    table.post_a[p <= 0.0] = 0.0
    table.post_a[p >= 1.0] = 1.0
    return table


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
    wab_mass = (pc * (1 - omega) * expit(lam * (np.log(pc) + dab))
                + 0.5 * omega * expit(lam * (dab - LOG2)))
    wa_mass = ((1 - pc) * (1 - omega) * expit(lam * (np.log1p(-pc) + danb))
               + 0.5 * omega * expit(lam * (danb - LOG2)))
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


def _li_table(params: ModelParams, p: np.ndarray, variant: int) -> PredictionTable:
    lam = params.lam
    pc = _clip_prior(p)
    log_pc, log_qc = np.log(pc), np.log1p(-pc)
    # The marginal level-1 speaker says "A" with probability sigma(x) in
    # World.AB, and with (1 + e) / (1 + e + 2 exp(-lam delta_anb)) = sigma(y)
    # in World.A, e = (1 - p)^lam; its other message takes the rest.
    x = lam * (log_pc + params.delta_ab) - LOG2
    y = (lam * params.delta_anb - LOG2) + np.log1p(np.exp(lam * log_qc))
    post_a, log_ab, log_a = _bayes_listener(pc, log_pc, log_qc, x, y)
    if variant == 1:
        prod_wa, prod_wab = _two_way_rows(y, x)
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
