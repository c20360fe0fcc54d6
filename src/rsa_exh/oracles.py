"""Brute-force reference constructions of every model variant.

Seven variants (baseline, wonky x2, lexical uncertainty x2, lexical
intentions x2) follow the plain alternating recursion.  Each is written once,
as a scenario for :func:`rsa_exh.engine.iterate` (:func:`canonical_scenario`),
and its predictions are read off the recursion that ``rsa-exh simulate``
prints.  The supervaluationist variants carry the QUD through the level-2
speaker and have their own construction (:func:`svrsa_oracle`), whose
listener and level-2 speaker are the engine's table primitives.  Nothing is
algebraically simplified, which is the point: the test suite pins the closed
forms of :mod:`rsa_exh.models` against these constructions on dense grids.
Everything is vectorized over the prior (a leading batch axis).
"""

from __future__ import annotations

import numpy as np

from .engine import (GenericScenario, _safe_log, iterate, log_joint_listener_table,
                     log_softmax, log_speaker_table, logsumexp)
from .models import CHI, FIXED_RHO, ModelId, ModelParams, PredictionTable, _clip_prior, require_xi
from .scenario import INTERPRETATIONS, MESSAGES, WORLDS, Interpretation, Qud, truth_value

_IW_A, _IW_AB = 0, 1
_IM_A, _IM_AB = 0, 1


def _truth_table(interps) -> np.ndarray:
    """Boolean (contexts, messages, worlds) table from the scenario semantics."""
    return np.array(
        [[[truth_value(m, w, i) for w in WORLDS] for m in MESSAGES] for i in interps]
    )


def _costs(params: ModelParams) -> np.ndarray:
    return np.array([0.0, params.delta_ab, params.delta_anb])


def svrsa_oracle(model: ModelId, params: ModelParams, p: np.ndarray) -> PredictionTable:
    """Supervaluationist variants, carrying the QUD through both levels.

    The level-1 speaker's utility for communicating the cell of world t
    under QUD k is the interpretation-weighted average of the literal
    listener's log posterior on that cell, minus the message cost; an
    interpretation with positive weight that gives the cell no mass makes it
    -inf.  Listeners are joint over (world, QUD), with the QUD in the
    engine's context axis; level-2 speakers communicate (cell, QUD).
    """
    require_xi(model, params)
    qc, pc = float(_clip_prior(params.xi)), _clip_prior(p)
    truth = _truth_table([Interpretation.LITERAL, Interpretation.EXHAUSTIVE])
    costs, lam = _costs(params), params.lam
    wp = np.stack([1.0 - pc, pc], axis=-1)  # (n, worlds)
    rho = np.array([1.0 - CHI, CHI])
    qud_prior = np.array([1.0 - qc, qc])  # partial, total: the order of Qud
    # cell membership (qud, target world, member world)
    cmask = np.array([[[w in qud.cell_of(t) for w in WORLDS] for t in WORLDS] for qud in Qud],
                     dtype=float)

    masses = wp[:, None, None, :] * truth  # (n, interp, message, world)
    true_mass = masses.sum(axis=-1)
    cell_mass = np.einsum("nimw,ktw->nimkt", masses, cmask)
    log_cp = _safe_log(cell_mass) - _safe_log(true_mass)[..., None, None]
    # interpretation-averaged utility of m for communicating (cell(t), Q=k)
    weighted = np.where(rho[None, :, None, None, None] > 0,
                        rho[None, :, None, None, None] * log_cp, 0.0)
    eu = weighted.sum(axis=1) - costs[None, :, None, None]  # (n, m, k, t)
    log_s1 = log_softmax(lam * np.moveaxis(eu, 1, -1))  # (n, k, t, m)

    joint_prior = qud_prior[None, :, None] * wp[:, None, :]  # (n, k, w)
    log_l1 = log_joint_listener_table(log_s1, joint_prior)  # (n, m, k, w)
    cell_l1 = np.einsum("nmkw,ktw->nkmt", np.exp(log_l1), cmask)
    s2 = np.exp(log_speaker_table(_safe_log(cell_l1), costs, lam))  # (n, k, t, m)

    post_a, post_ab = (np.exp(logsumexp(log_l1[:, m, :, _IW_AB], axis=-1)) for m in (_IM_A, _IM_AB))
    prod = (1 - qc) * s2[:, 0] + qc * s2[:, 1] if model is ModelId.SVRSA1 else s2[:, 1]
    return PredictionTable(p, post_a, post_ab, prod[:, _IW_A], prod[:, _IW_AB])


def canonical_scenario(model: ModelId, params: ModelParams, p):
    """Scenario plus :func:`rsa_exh.engine.iterate` keyword arguments for the
    variants that follow the plain alternating recursion.

    ``p`` is a prior or an array of priors; an array becomes the leading
    batch axis of the world prior.  The supervaluationist variants carry the
    QUD through every level and do not reduce to ``iterate``; use
    :func:`svrsa_oracle` for those.
    """
    require_xi(model, params)
    pc = _clip_prior(p)
    measured = np.stack([1.0 - pc, pc], axis=-1)  # (..., worlds)

    def scenario(interps, world_prior, context_prior, contexts):
        return GenericScenario(
            worlds=WORLDS, messages=MESSAGES, costs=_costs(params),
            truth=_truth_table(interps), world_prior=world_prior,
            context_prior=np.array(context_prior, dtype=float), contexts=contexts,
        )

    def each_context(n_ctx):
        return np.broadcast_to(measured[..., None, :], measured.shape[:-1] + (n_ctx, 2))

    literal, exhaustive = Interpretation.LITERAL, Interpretation.EXHAUSTIVE
    if model is ModelId.BASE_RSA:
        return scenario([literal], each_context(1), [1.0], ("literal",)), {}
    if model in (ModelId.WRSA, ModelId.BWRSA):
        # the wonky background conditions on the uniform prior; the Bayesian
        # listener keeps the measured prior under both backgrounds
        omega = params.xi
        uniform = np.broadcast_to(0.5, measured.shape)
        wonky = scenario([literal] * 2, np.stack([measured, uniform], axis=-2),
                         [1.0 - omega, omega], ("usual", "wonky"))
        if model is ModelId.WRSA:
            return wonky, {}
        return wonky, {"listener_world_prior": each_context(2)}
    if model in (ModelId.FREE_LU, ModelId.EXH_LU):
        return scenario(INTERPRETATIONS, each_context(3), FIXED_RHO[model],
                        tuple(i.value for i in INTERPRETATIONS)), {}
    if model in (ModelId.RSA_LI1, ModelId.RSA_LI2):
        return (scenario([literal, exhaustive], each_context(2), [0.5, 0.5],
                         ("literal", "exhaustive")), {"speaker_mode": "joint"})
    raise ValueError(f"{model.value} does not follow the plain recursion")


def oracle_predict_table(model: ModelId, params: ModelParams, p) -> PredictionTable:
    """Engine-built predictions for any model (mirror of ``predict_table``).

    Comprehension is the level-1 listener; production the level-2 speaker,
    or the marginal level-1 speaker for the first lexical-intentions variant.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if model in (ModelId.SVRSA1, ModelId.SVRSA2):
        return svrsa_oracle(model, params, p)
    scenario, kwargs = canonical_scenario(model, params, p)
    result = iterate(scenario, params.lam, 2, **kwargs)
    l1 = result.listener(1)
    prod = result.speaker(1 if model is ModelId.RSA_LI1 else 2)
    return PredictionTable(
        p, l1[:, _IM_A, _IW_AB], l1[:, _IM_AB, _IW_AB], prod[:, _IW_A], prod[:, _IW_AB]
    )
