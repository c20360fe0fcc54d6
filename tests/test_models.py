import functools
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from rsa_exh import models
from rsa_exh.models import (
    BLOCK,
    FIELDS,
    FIXED_RHO,
    LOG2,
    MissingParameter,
    NEAR_PRIOR,
    TINY,
    ModelId,
    _empty_table,
    _expit,
    _logistic,
    _predict,
    _scaled_expit,
    _softplus,
    _softplus_pair,
    _two_way_rows,
    lu_predict,
    predict_table,
    XI_MODELS,
)
from rsa_exh.oracles import oracle_predict_table
from rsa_exh.scenario import ModelParams

GRID = np.arange(1, 100) / 100
GRID_199 = np.arange(1, 200) / 200


def random_params(rng, xi=False, lam_hi=10.0):
    return ModelParams(
        lam=float(np.exp(rng.uniform(np.log(0.1), np.log(lam_hi)))),
        delta_ab=float(rng.uniform(0, 2)),
        delta_anb=float(rng.uniform(0, 2)),
        xi=float(rng.uniform(0.01, 0.99)) if xi else None,
    )


# ---------------------------------------------------------------------------
# baseline closed forms
# ---------------------------------------------------------------------------


def base_post_a(params, p):
    return predict_table(ModelId.BASE_RSA, params, p).post_a


def test_base_l1_symmetric_point():
    params = ModelParams(lam=7.3, delta_ab=0.8, delta_anb=0.8)
    assert base_post_a(params, 0.5)[0] == pytest.approx(0.5, abs=1e-15)


def test_base_l1_sign_flips_at_logodds_threshold():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    threshold = math.exp(0.5) / (1 + math.exp(0.5))
    p = np.linspace(1e-4, 1 - 1e-4, 20001)
    diff = base_post_a(params, p) - p
    crossings = np.where(np.diff(np.sign(diff)) != 0)[0]
    assert len(crossings) == 1
    assert p[crossings[0]] == pytest.approx(threshold, abs=1e-4)


def test_base_l1_endpoints_exact():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    assert base_post_a(params, [0.0, 1.0]).tolist() == [0.0, 1.0]


def test_base_s2_worked_example():
    # parameters that put the level-1 posterior at exactly 1/2
    params = ModelParams(lam=1.0)
    table = predict_table(ModelId.BASE_RSA, params, 0.5)
    assert table.post_a[0] == pytest.approx(0.5, abs=1e-15)
    row_wa = table.prod_wa[0]
    assert row_wa[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert row_wa[1] == 0.0
    assert row_wa[2] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_base_s2_false_message_excluded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params = random_params(rng)
        row = predict_table(ModelId.BASE_RSA, params, rng.uniform(0.01, 0.99)).prod_wab[0]
        assert row[2] == 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_base_s2_high_rationality_limit():
    # the bare message wins in w_a when its cost advantage beats the
    # (vanishing) informativity penalty
    params = ModelParams(lam=200.0, delta_ab=0.0, delta_anb=1.0)
    row = predict_table(ModelId.BASE_RSA, params, 0.5).prod_wa[0]
    assert row[0] > 1 - 1e-9


# ---------------------------------------------------------------------------
# wonky-prior closed forms
# ---------------------------------------------------------------------------


def test_wrsa_collapses_to_base_at_zero_wonkiness():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.0)
    base = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2)
    np.testing.assert_allclose(
        predict_table(ModelId.WRSA, params, GRID).post_a, base_post_a(base, GRID), atol=1e-12
    )


def test_wrsa_fully_wonky_ignores_prior():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=1.0)
    values = predict_table(ModelId.WRSA, params, GRID).post_a
    np.testing.assert_allclose(values, values[0], atol=1e-14)


def test_bwrsa_endpoints_and_collapse():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.35)
    assert predict_table(ModelId.BWRSA, params, [0.0, 1.0]).post_a.tolist() == [0.0, 1.0]
    at_zero = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.0)
    base = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2)
    np.testing.assert_allclose(
        predict_table(ModelId.BWRSA, at_zero, GRID).post_a, base_post_a(base, GRID), atol=1e-12
    )


# ---------------------------------------------------------------------------
# supervaluationist closed forms
# ---------------------------------------------------------------------------


def test_svrsa_never_exceeds_prior():
    rng = np.random.default_rng(1)
    for _ in range(300):
        params = random_params(rng, xi=True)
        p = float(rng.uniform(0.01, 0.99))
        assert predict_table(ModelId.SVRSA1, params, p).post_a[0] < p


def test_svrsa_total_qud_speaker_is_categorical_in_wab():
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = random_params(rng, xi=True)
        table = predict_table(ModelId.SVRSA2, params, rng.uniform(0.05, 0.95))
        np.testing.assert_allclose(table.prod_wab[0], [0.0, 1.0, 0.0], atol=0)


def test_svrsa_partial_qud_speaker_world_independent():
    # under the partial QUD the level-1 speaker ignores the world and is
    # driven by costs alone: each interpretation's literal listener puts a
    # true message's whole mass on the QUD's one cell
    from scipy.special import logsumexp

    from rsa_exh.engine import log_literal_listener_table, log_softmax
    from rsa_exh.oracles import _truth_table
    from rsa_exh.scenario import WORLDS, Interpretation, Qud

    lam, costs = 2.0, np.array([0.0, 0.3, 0.6])
    truth = _truth_table([Interpretation.LITERAL, Interpretation.EXHAUSTIVE])
    hand = np.exp(-lam * costs) / np.exp(-lam * costs).sum()
    for p in (0.2, 0.7):
        log_l0 = log_literal_listener_table(truth, np.array([[1 - p, p]] * 2))
        for target in WORLDS:
            in_cell = [w in Qud.PARTIAL.cell_of(target) for w in WORLDS]
            log_cell = logsumexp(log_l0[..., in_cell], axis=-1)  # (interpretations, messages)
            utilities = log_cell.mean(axis=0) - costs
            np.testing.assert_allclose(np.exp(log_softmax(lam * utilities)), hand, atol=1e-12)


def test_svrsa_oracle_total_qud_speaker_never_says_a_in_wab():
    # A is false at w_ab under the exhaustive reading, so its utility for the
    # total-QUD cell {w_ab} is -inf whatever the literal reading gives; the
    # explicit exclusion is false there under both
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = random_params(rng, xi=True)
        table = oracle_predict_table(ModelId.SVRSA2, params, rng.uniform(0.05, 0.95, size=3))
        assert table.prod_wab.tolist() == [[0.0, 1.0, 0.0]] * 3


@pytest.mark.parametrize("lam, dab, danb, xi, p", [
    (1.0, 0.0, 0.0, 0.5, 0.5), (2.5, 0.3, 1.1, 0.2, 0.3), (0.7, 1.5, 0.4, 0.9, 0.8),
])
def test_svrsa_oracle_bare_message_listener_by_hand(lam, dab, danb, xi, p):
    # level-1 utilities term by term: for the total-QUD cell {w_a}, A averages
    # log(1 - p) (literal reading) and log 1 (exhaustive), A_AND_NOT_B has
    # log 1 under both, A_AND_B is false; under the partial QUD each message
    # keeps minus its cost.  The oracle's listener after A follows from these.
    from rsa_exh.models import CHI

    partial = 1 / (1 + math.exp(-lam * dab) + math.exp(-lam * danb))
    bare = (1 - p) ** (lam * (1 - CHI))
    total_wa = bare / (bare + math.exp(-lam * danb))
    hand = (1 - xi) * p * partial / ((1 - xi) * partial + xi * (1 - p) * total_wa)
    params = ModelParams(lam=lam, delta_ab=dab, delta_anb=danb, xi=xi)
    for model in (ModelId.SVRSA1, ModelId.SVRSA2):
        assert oracle_predict_table(model, params, p).post_a[0] == pytest.approx(hand, rel=1e-12)


def test_svrsa_conjunction_compatible_with_wa_at_low_prior():
    # the conjunction can signal the partial QUD, so its posterior on w_ab
    # dips below 1 when the prior is low
    params = ModelParams(lam=1.0, delta_ab=0.1, delta_anb=0.5, xi=0.5)
    assert predict_table(ModelId.SVRSA1, params, 0.1).post_ab[0] < 1.0


def test_svrsa_zero_total_qud_prior_gives_uninformative_bare_message():
    params = ModelParams(lam=2.0, delta_ab=0.4, delta_anb=0.8, xi=0.0)
    priors = [0.2, 0.5, 0.9]
    np.testing.assert_allclose(
        predict_table(ModelId.SVRSA1, params, priors).post_a, priors, rtol=0, atol=1e-9
    )


@pytest.mark.parametrize("model", [ModelId.SVRSA1, ModelId.SVRSA2])
@pytest.mark.parametrize(
    "params",
    [
        ModelParams(lam=200.0, delta_ab=4.0, delta_anb=4.0, xi=0.5),
        ModelParams(lam=10.0, delta_ab=0.0, delta_anb=200.0, xi=0.5),
    ],
)
def test_svrsa_matches_oracle_where_conjunction_weights_underflow(model, params):
    # lam * delta_anb is beyond ~745: every level-1 weight of A_AND_NOT_B
    # underflows, and so would that message's linear total; the closed form
    # scores it through logs only
    ours = predict_table(model, params, GRID)
    ref = oracle_predict_table(model, params, GRID)
    for name in ("post_a", "post_ab", "prod_wa", "prod_wab"):
        np.testing.assert_allclose(getattr(ours, name), getattr(ref, name), rtol=0, atol=1e-9)


def _svrsa_rows(mp, lam, dab, danb, xi, p, variant):
    """SVRSA production rows in mpmath, from the model's definition: the
    joint listener over the four (world, QUD) cells, level-2 speakers scored
    by log cell posteriors, and the (w_a, total) score from
    log(a2 / T_A) - log(n2 / T_AnB)."""
    lam, dab, danb, q, p = (mp.mpf(v) for v in (lam, dab, danb, xi, p))
    costs = (mp.mpf(0), dab, danb)
    weights = [mp.exp(-lam * c) for c in costs]
    s = [w / mp.fsum(weights) for w in weights]
    x = lam * (mp.log(1 - p) / 2 + danb)  # exhaustive interpretation prior 1/2
    partial = [(1 - q) * sk for sk in s]
    total_wa = [(1 - p) * q / (1 + mp.exp(-x)), 0, (1 - p) * q / (1 + mp.exp(x))]
    totals = [partial[0] + total_wa[0], partial[1] + p * q, partial[2] + total_wa[2]]
    utils = [lam * (mp.log(partial[k] / totals[k]) - costs[k]) for k in range(3)]
    top = max(utils)
    exps = [mp.exp(u - top) for u in utils]
    s2_part = [e / mp.fsum(exps) for e in exps]
    y = lam * (mp.log(total_wa[0] / totals[0]) - mp.log(total_wa[2] / totals[2]) + danb)
    s2_wa, s2_wab = [1 / (1 + mp.exp(-y)), 0, 1 / (1 + mp.exp(y))], [0, 1, 0]
    if variant == 2:
        return s2_wa, s2_wab
    return ([(1 - q) * a + q * b for a, b in zip(s2_part, s2_wa)],
            [(1 - q) * a + q * b for a, b in zip(s2_part, s2_wab)])


def test_svrsa_production_rows_relative_accuracy():
    # every entry above 1e-300 within 1e-11 of a 60-digit evaluation; the
    # (w_a, total) score multiplies the rounding of its log terms by lam, so
    # a grouping through a large intermediate (log T_AnB ~ -2855 at lam = 1e3)
    # shows up here as errors of order 1e-10
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 60
    priors = np.array([1e-9, 0.1, 0.5, 0.9, 1 - 1e-9])
    worst = 0.0
    for variant, model in ((1, ModelId.SVRSA1), (2, ModelId.SVRSA2)):
        for lam, dab, danb, xi in itertools.product(
                (10.0, 200.0, 1e3), (0.0, 1.0, 4.0), (0.0, 1.0, 4.0), (0.1, 0.5)):
            table = predict_table(model, ModelParams(lam, dab, danb, xi), priors)
            for i, p in enumerate(priors):
                exact = _svrsa_rows(mp, lam, dab, danb, xi, p, variant)
                for ours, ref in zip((table.prod_wa[i], table.prod_wab[i]), exact):
                    for value, e in zip(ours, ref):
                        if e >= 1e-300:
                            worst = max(worst, float(abs(mp.mpf(value) - e) / e))
    assert worst <= 1e-11


def test_softmax_by_columns_matches_log_softmax_over_a_short_last_axis():
    # log_softmax takes the max and the sum of its two to six columns one at
    # a time; numpy reduces a short last axis in the same order, so the bits
    # agree with its reductions, -inf entries and single rows included
    from rsa_exh.engine import NEG_INF, _safe_log, log_softmax

    def by_reductions(weights):
        shifted = weights - np.max(weights, axis=-1, keepdims=True)
        shifted = np.where(np.isnan(shifted), NEG_INF, shifted)
        norm = _safe_log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return np.where(np.isneginf(norm), NEG_INF, shifted - norm)

    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 6):
        for shape in ((2, 250, n), (n,)):
            weights = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
            weights.reshape(-1, n)[::7, 1] = -np.inf
            total = weights[..., 0]
            for j in range(1, n):
                total = total + weights[..., j]
            assert total.tobytes() == weights.sum(axis=-1).tobytes()
            assert log_softmax(weights).tobytes() == by_reductions(weights).tobytes()


def test_svrsa_production_rows_normalized_on_stress_grid():
    lams = (0.2, 1.0, 10.0, 50.0, 200.0, 1e3)
    costs = (0.0, 0.01, 1.0, 4.0, 20.0, 200.0)
    priors = np.linspace(0.0, 1.0, 30)
    for model in (ModelId.SVRSA1, ModelId.SVRSA2):
        for lam, dab, danb, xi in itertools.product(lams, costs, costs, (0.0, 0.5, 1.0)):
            params = ModelParams(lam=lam, delta_ab=dab, delta_anb=danb, xi=xi)
            table = predict_table(model, params, priors)
            for rows in (table.prod_wa, table.prod_wab):
                assert np.all(np.isfinite(rows)), params
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# lexical uncertainty closed forms
# ---------------------------------------------------------------------------


def test_lu_literal_only_is_base():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    base_table = predict_table(ModelId.BASE_RSA, params, GRID)
    table = lu_predict(params, GRID, (1.0, 0.0, 0.0))
    for name in ("p", "post_a", "post_ab", "prod_wa", "prod_wab"):
        np.testing.assert_allclose(getattr(table, name), getattr(base_table, name), atol=1e-12)


def test_exh_lu_blocks_listener_anti_exhaustivity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dab = float(rng.uniform(0, 1.5))
        params = ModelParams(
            lam=float(rng.uniform(0.2, 8)),
            delta_ab=dab,
            delta_anb=dab + float(rng.uniform(0, 1.5)),
        )
        p = float(rng.uniform(0.01, 0.99))
        assert predict_table(ModelId.EXH_LU, params, p).post_a[0] <= p + 1e-12


def test_free_lu_allows_listener_anti_exhaustivity():
    params = ModelParams(lam=3.0)
    assert predict_table(ModelId.FREE_LU, params, 0.9).post_a[0] > 0.9


def test_lu_rejects_bad_rho():
    for rho in [(0.5, 0.5, 0.5), (1.5, -0.5, 0.0), (0.5, 0.5),
                (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5)]:
        with pytest.raises(ValueError):
            lu_predict(ModelParams(lam=1.0), 0.5, rho)


def test_lu_predict_named_rho_is_the_named_variant():
    params = ModelParams(lam=3.9, delta_ab=0.37, delta_anb=2.0)
    for model, rho in FIXED_RHO.items():
        ours, named = lu_predict(params, GRID, rho), predict_table(model, params, GRID)
        for name in ("p", "post_a", "post_ab", "prod_wa", "prod_wab"):
            assert getattr(ours, name).tobytes() == getattr(named, name).tobytes()


# ---------------------------------------------------------------------------
# lexical intentions closed forms
# ---------------------------------------------------------------------------


def test_li_bare_message_no_more_likely_in_wab():
    rng = np.random.default_rng(4)
    for _ in range(200):
        dab = float(rng.uniform(0, 1.5))
        params = ModelParams(
            lam=float(np.exp(rng.uniform(np.log(0.1), np.log(30)))),
            delta_ab=dab,
            delta_anb=dab + float(rng.uniform(0, 1.5)),
        )
        table = predict_table(ModelId.RSA_LI1, params, rng.uniform(0.01, 0.99))
        assert table.prod_wab[0, 0] <= table.prod_wa[0, 0] + 1e-12


def test_li_s1_limit_at_certain_prior():
    params = ModelParams(lam=4.0, delta_ab=0.3, delta_anb=0.7)
    table = predict_table(ModelId.RSA_LI1, params, 1.0)
    expected = 1.0 / (1.0 + 2.0 * math.exp(-params.lam * params.delta_anb))
    assert table.prod_wa[0, 0] == pytest.approx(expected, rel=1e-9)


def _bayes_likelihoods(model: ModelId, params: ModelParams, p, mp):
    """Level-1 probabilities of "A" in w_ab and w_a, in mpmath."""
    lam, dab, danb = (mp.mpf(v) for v in (params.lam, params.delta_ab, params.delta_anb))
    p = mp.mpf(p)
    sigma = lambda x: 1 / (1 + mp.exp(-x))  # noqa: E731
    z_ab, z_a = lam * (mp.log(p) + dab), lam * (mp.log(1 - p) + danb)
    if model in (ModelId.RSA_LI1, ModelId.RSA_LI2):
        e_wa = (1 - p) ** lam
        return sigma(z_ab - mp.log(2)), (1 + e_wa) / (1 + e_wa + 2 * mp.exp(-lam * danb))
    if model is ModelId.BWRSA:
        # usual background on the measured prior, wonky one on the uniform
        xi = mp.mpf(params.xi)
        return (
            (1 - xi) * sigma(z_ab) + xi * sigma(lam * (dab - mp.log(2))),
            (1 - xi) * sigma(z_a) + xi * sigma(lam * (danb - mp.log(2))),
        )
    rho_lit, rho_exh, rho_anti = (
        (1, 0, 0) if model is ModelId.BASE_RSA else (mp.mpf(r) for r in FIXED_RHO[model])
    )
    return (
        rho_lit * sigma(z_ab) + rho_anti * sigma(lam * dab),
        rho_lit * sigma(z_a) + rho_exh * sigma(lam * danb),
    )


@pytest.mark.parametrize(
    "model",
    [ModelId.BASE_RSA, ModelId.FREE_LU, ModelId.EXH_LU, ModelId.RSA_LI1, ModelId.RSA_LI2,
     ModelId.BWRSA],
)
@pytest.mark.parametrize(
    "lam, dab, danb, digits", [(100.0, 3.0, 3.1, 320), (1e3, 2.0, 2.1, 1000)]
)
def test_bayes_listener_order_against_prior_at_high_rationality(
    model, lam, dab, danb, digits
):
    # The gap post - p is of order exp(-lam x): down to about e^-310 at
    # lam = 100, far below float64 resolution around p and beyond what fewer
    # than about 300 digits resolve; at lam = 1e3 the complements of A and B
    # underflow altogether (lam x beyond 745), so the order must come from
    # log space.  post_a must still lie above, on or below the prior exactly
    # as A / B lies against 1, and well inside the band where it is formed as
    # p + (post - p) it must be within one ulp of the exact posterior.
    mp = pytest.importorskip("mpmath")
    xi = 0.5 if model is ModelId.BWRSA else None
    params = ModelParams(lam=lam, delta_ab=dab, delta_anb=danb, xi=xi)
    table = predict_table(model, params, GRID_199)
    with mp.workdps(digits):
        for p, post in zip(GRID_199, table.post_a):
            lik_ab, lik_a = _bayes_likelihoods(model, params, p, mp)
            order = mp.sign(lik_ab / lik_a - 1)
            assert np.sign(post - p) == order, f"p={p}: post - p = {post - p:.3e}"
            prior = mp.mpf(float(p))
            exact = prior * lik_ab / (prior * lik_ab + (1 - prior) * lik_a)
            if abs(exact - p) <= NEAR_PRIOR * p / 2:
                assert abs(post - exact) <= math.ulp(post), f"p={p}"


BAYES_MODELS = [
    ModelId.BASE_RSA, ModelId.FREE_LU, ModelId.EXH_LU, ModelId.RSA_LI1, ModelId.RSA_LI2,
    ModelId.BWRSA,
]


def _float_scores(model: ModelId, params: ModelParams, p):
    """The float64 scores ``(z_ab, z_a, c_ab, c_a)`` and the weights
    ``(rho_lit, rho_exh, rho_anti)`` of the likelihoods of "A", formed as the
    closed forms form them."""
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    if model in (ModelId.RSA_LI1, ModelId.RSA_LI2):
        x = lam * (np.log(p) + dab) - LOG2
        y = (lam * danb - LOG2) + np.log1p(np.exp(lam * np.log1p(-p)))
        return (x, y, 0.0, 0.0), (1.0, 0.0, 0.0)
    if model is ModelId.BWRSA:
        rho, shift = (1 - params.xi, params.xi, params.xi), LOG2
    else:
        rho, shift = FIXED_RHO.get(model, (1.0, 0.0, 0.0)), 0.0
    scores = (lam * (np.log(p) + dab), lam * (np.log1p(-p) + danb),
              lam * (dab - shift), lam * (danb - shift))
    return scores, rho


@pytest.mark.parametrize("model", BAYES_MODELS)
def test_bayes_listener_near_crossings_at_moderate_rationality(model):
    # Priors 1e-6 .. 1e-14 from a crossing A = B lie in the band where post_a
    # is formed as p + (post - p).  The reference is the exact posterior of
    # the model's own float64 scores, taken with numpy's log and log1p as the
    # model takes them (math.log differs from numpy's on some of these
    # inputs).  Within half the band post_a must be within 1.5 ulp of it.  Its
    # order against p must be that of A against B wherever float64 resolves
    # that: everywhere for one logistic pair (baseline, lexical intentions),
    # and where |A - B| >= 4 eps max(A, B) for the mixtures.  Each cost pair
    # is also run swapped, so that every model meets a crossing.
    mp = pytest.importorskip("mpmath")
    sigma = lambda x: 1 / (1 + mp.exp(-x))  # noqa: E731
    one_pair = model in (ModelId.BASE_RSA, ModelId.RSA_LI1, ModelId.RSA_LI2)
    xi = 0.3 if model is ModelId.BWRSA else None
    crossings = 0
    with mp.workdps(60):
        for lam, d1, d2 in [(0.3, 0.2, 1.1), (1.0, 0.5, 0.6), (3.9, 0.0, 0.37),
                            (8.0, 1.0, 1.3), (20.0, 0.3, 0.9)]:
            for dab, danb in ((d1, d2), (d2, d1)):
                params = ModelParams(lam=lam, delta_ab=dab, delta_anb=danb, xi=xi)
                gap = lambda p: mp.fsub(*_bayes_likelihoods(model, params, p, mp))  # noqa: E731
                signs = [int(mp.sign(gap(p))) for p in GRID]
                for k in np.flatnonzero(np.diff(signs)):
                    crossings += 1
                    root = float(mp.findroot(gap, (GRID[k], GRID[k + 1]), solver="anderson"))
                    priors = root + np.outer([-1.0, 1.0], 10.0 ** -np.arange(6, 15)).ravel()
                    for p, post in zip(priors, predict_table(model, params, priors).post_a):
                        scores, rho = _float_scores(model, params, p)
                        z_ab, z_a, c_ab, c_a = (mp.mpf(float(z)) for z in scores)
                        rho_lit, rho_exh, rho_anti = (mp.mpf(r) for r in rho)
                        lik_ab = rho_lit * sigma(z_ab) + rho_anti * sigma(c_ab)
                        lik_a = rho_lit * sigma(z_a) + rho_exh * sigma(c_a)
                        diff = lik_ab - lik_a
                        if one_pair or abs(diff) >= 4 * 2.0 ** -52 * max(lik_ab, lik_a):
                            assert np.sign(post - p) == mp.sign(diff), (params, p)
                        prior = mp.mpf(float(p))
                        exact = prior * lik_ab / (prior * lik_ab + (1 - prior) * lik_a)
                        if abs(exact - p) <= NEAR_PRIOR * p / 2:
                            assert abs(post - exact) <= 1.5 * math.ulp(post), (params, p)
    assert crossings


def test_li2_matches_exh_lu_at_high_rationality():
    params = ModelParams(lam=1e3)
    a = predict_table(ModelId.EXH_LU, params, 0.3)
    b = predict_table(ModelId.RSA_LI2, params, 0.3)
    np.testing.assert_allclose(a.post_a, b.post_a, rtol=0, atol=1e-9)
    np.testing.assert_allclose(a.prod_wa, b.prod_wa, atol=1e-9)
    np.testing.assert_allclose(a.prod_wab, b.prod_wab, atol=1e-9)


def test_li2_differs_from_exh_lu_at_moderate_rationality():
    # the joint-normalization of the intentions speaker is a real difference:
    # the two variants only converge in the high-rationality limit
    params = ModelParams(lam=1.0)
    a = predict_table(ModelId.EXH_LU, params, 0.3)
    b = predict_table(ModelId.RSA_LI2, params, 0.3)
    assert abs(a.post_a[0] - b.post_a[0]) > 1e-3


def test_li2_exh_lu_residual_gap_at_fit_bound_rationality():
    # at the rationality search bound the convergence is complete except for
    # priors so extreme that lam*|log p| stays small; pin that tail behaviour
    params = ModelParams(lam=1e3)
    gap = abs(
        predict_table(ModelId.EXH_LU, params, 0.99).post_a[0]
        - predict_table(ModelId.RSA_LI2, params, 0.99).post_a[0]
    )
    assert 1e-4 < gap < 5e-3


# ---------------------------------------------------------------------------
# dispatch-level contracts
# ---------------------------------------------------------------------------


def _batch_rows():
    """(lam, delta_ab, delta_anb, xi) rows: draws over the fitting box, then the
    band around the prior (lam = 100), the mixtures' tie rows (lam = 1e3,
    where every logistic tail underflows), SVRSA's underflow rows (lam *
    delta_anb beyond 745) and xi at its ends."""
    rng = np.random.default_rng(7)
    rows = [
        (float(np.exp(rng.uniform(np.log(0.1), np.log(1e3)))),
         float(rng.choice([0.0, rng.uniform(0, 5), rng.uniform(0, 200)])),
         float(rng.choice([0.0, rng.uniform(0, 5), rng.uniform(0, 200)])),
         float(rng.uniform(0, 1)))
        for _ in range(24)
    ]
    return rows + [
        (100.0, 3.0, 3.1, 0.5), (100.0, 3.1, 3.0, 0.5),
        (1e3, 2.0, 2.1, 0.5), (1e3, 2.1, 2.0, 0.5),
        (200.0, 4.0, 4.0, 0.5), (10.0, 0.0, 200.0, 0.5),
        (3.9, 0.0, 0.37, 0.0), (3.9, 0.0, 0.37, 1.0),
    ]


@pytest.mark.parametrize("model", list(ModelId))
def test_predict_table_batched_over_params_matches_single_calls(model):
    # one call on (K, 1) columns of parameter sets gives, row for row, the
    # bits of a loop of single calls with float parameters
    priors = np.concatenate([[0.0, 1e-12, 1e-9], GRID_199, [1 - 1e-9, 1.0]])
    rows = [(lam, dab, danb, xi if model in XI_MODELS else None)
            for lam, dab, danb, xi in _batch_rows()]
    columns = [None if r[0] is None else np.array(r, dtype=float)[:, None]
               for r in zip(*rows)]
    batched = predict_table(model, ModelParams(*columns), priors)
    assert batched.post_a.shape == (len(rows), priors.size)
    assert batched.prod_wa.shape == (len(rows), priors.size, 3)
    for k, params in enumerate(rows):
        single = predict_table(model, ModelParams(*params), priors)
        for name in ("post_a", "post_ab", "prod_wa", "prod_wab"):
            one = getattr(single, name)
            assert getattr(batched, name)[k].shape == one.shape
            assert getattr(batched, name)[k].tobytes() == one.tobytes(), (name, params)
    # the table's shape is set before any form runs (models._empty_table),
    # from the parameters that it lists: each model's table must depend on
    # each of them, so that a column of any one gives rows that differ
    lam, dab, danb, xi = BLOCK_ROWS[0]
    xi = xi if model in XI_MODELS else None
    for i, name in enumerate(("lam", "delta_ab", "delta_anb", "xi")[:4 if xi else 3]):
        pair = [lam, dab, danb, xi]
        pair[i] = np.array([[pair[i]], [pair[i] / 2]])
        table = predict_table(model, ModelParams(*pair), priors)
        assert table.post_a.shape == (2, priors.size), name
        assert any((getattr(table, f)[0] != getattr(table, f)[1]).any()
                   for f in ("post_a", "post_ab", "prod_wa", "prod_wab")), name


def _assert_same_tables(table, other, context):
    """``table`` and ``other`` hold the same fields, of the same shapes and bits."""
    for name in FIELDS:
        mine, theirs = getattr(table, name), getattr(other, name)
        assert (mine is None) == (theirs is None), (name, context)
        if mine is not None:
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), (name, context)


#: Every model, family by family: the "family" of batches that mix them all.
MIXED = sum(models.FAMILIES, ())


@pytest.mark.parametrize("family", [*models.FAMILIES, MIXED],
                         ids=[*(f[0].value for f in models.FAMILIES), "mixed"])
def test_predict_gives_each_set_of_a_family_its_own_models_bits(family):
    # a batch whose sets are of one family's models, or of models of any
    # families, gives each set the bits of its own model's call with float
    # parameters, in the full table and in each one-field table, which holds
    # None for the other fields; xi, read in the sets of XI_MODELS alone, is
    # any value in [0, 1] in the others.  A tuple of one model gives the bits
    # and shapes of a call on that model, with columns and with floats
    priors = np.concatenate([[0.0, 1e-12, 1e-9, 0.005], GRID_199, [0.995, 1 - 1e-9, 1.0]])
    rows = _batch_rows()
    rng = np.random.default_rng(11)
    assignments = [] if family is MIXED else [[model] * len(rows) for model in family]
    if len(family) > 1:
        # sets dealt in turn (for MIXED, runs of one family), in one block per
        # model, and drawn at random
        assignments += [[family[k % len(family)] for k in range(len(rows))],
                        [family[k * len(family) // len(rows)] for k in range(len(rows))],
                        list(rng.choice(np.array(family, dtype=object), len(rows)))]
    if family is MIXED:
        # families interleaved set by set, and models without xi from two
        # families, whose batch has no xi column
        order = list(ModelId)
        no_xi = (ModelId.BASE_RSA, ModelId.RSA_LI1, ModelId.RSA_LI2, ModelId.FREE_LU)
        assignments += [[order[k % len(order)] for k in range(len(rows))],
                        [no_xi[k % len(no_xi)] for k in range(len(rows))]]
    for assign in assignments:
        columns = [np.array(r, dtype=float)[:, None] for r in zip(*rows)]
        if not any(model in XI_MODELS for model in assign):
            columns[3] = None
        tables = {field: _predict(tuple(assign), ModelParams(*columns), priors, field)
                  for field in (None, *FIELDS)}
        assert tables[None].post_a.shape == (len(rows), priors.size)
        if len(set(assign)) == 1:
            for field, table in tables.items():
                _assert_same_tables(table, _predict(assign[0], ModelParams(*columns), priors,
                                                    field), (assign[0], field))
        for k, (model, (lam, dab, danb, xi)) in enumerate(zip(assign, rows)):
            params = ModelParams(lam, dab, danb, xi if model in XI_MODELS else None)
            single = predict_table(model, params, priors)
            if len(set(assign)) == 1 and k < 4:
                _assert_same_tables(_predict((model,), params, priors), single, (model, k))
            for field, table in tables.items():
                for name in FIELDS:
                    if field not in (None, name):
                        assert getattr(table, name) is None, (name, field)
                        continue
                    one = getattr(single, name).tobytes()
                    assert getattr(table, name)[k].tobytes() == one, (model, field, name, k)


def test_the_plan_of_a_model_tuple_is_built_once():
    # a lockstep step's tuple of models recurs from step to step: its plan,
    # with the (K, 1) constant columns of its mixed runs, is built on its
    # first call and reused, and xi is read afresh in BWRSA's sets
    models._plan.cache_clear()
    family = models.FAMILIES[0]
    assign = tuple(family[k % len(family)] for k in range(32))
    priors = np.concatenate([[0.0, 1e-12], GRID_199, [1.0]])
    rng = np.random.default_rng(5)
    lam, dab, danb = (rng.uniform(0.5, 20.0, (32, 1)), rng.uniform(0, 3, (32, 1)),
                      rng.uniform(0, 3, (32, 1)))
    xis = [np.full((32, 1), 0.3), rng.uniform(0, 1, (32, 1))]
    tables = [_predict(assign, ModelParams(lam, dab, danb, xi), priors) for xi in xis]
    info = models._plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for xi, table in zip(xis, tables):
        for k, model in enumerate(assign):
            params = ModelParams(float(lam[k, 0]), float(dab[k, 0]), float(danb[k, 0]),
                                 float(xi[k, 0]) if model in XI_MODELS else None)
            single = predict_table(model, params, priors)
            for name in FIELDS:
                assert getattr(table, name)[k].tobytes() == getattr(single, name).tobytes(), (
                    model, name, k)


def test_the_constant_columns_of_a_plan_are_read_only():
    # every call of a tuple shares its plan's columns: none may be written to
    plan = models._plan(sum(models.FAMILIES, ()))
    columns = [(sets, column) for sets, _, constants in plan for column in constants
               if isinstance(column, np.ndarray)]
    assert len(columns) == 6 + 1 + 1  # the LU form's six, SVRSA's and LI's flag
    for sets, column in columns:
        assert column.shape == (sets.stop - sets.start, 1)
        with pytest.raises(ValueError, match="read-only"):
            column[0, 0] = column[1, 0]


def test_the_families_partition_the_models_one_form_each():
    # FAMILIES is read off the registry of forms: every model is in one
    # family, the models of a family share one form, and no two families do
    assert models.FAMILIES == (
        (ModelId.BASE_RSA, ModelId.BWRSA, ModelId.FREE_LU, ModelId.EXH_LU),
        (ModelId.SVRSA1, ModelId.SVRSA2),
        (ModelId.RSA_LI1, ModelId.RSA_LI2),
        (ModelId.WRSA,),
    )
    flat = sum(models.FAMILIES, ())
    assert len(flat) == len(set(flat)) and set(flat) == set(ModelId) == set(models._FORMS)
    forms = [{models._FORMS[model][0] for model in family} for family in models.FAMILIES]
    assert all(len(shared) == 1 for shared in forms)
    assert len(set.union(*forms)) == len(models.FAMILIES)


#: (lam, delta_ab, delta_anb, xi): a fitted point, the band-heavy point
#: (most priors within NEAR_PRIOR of the posterior), a low-rationality one and
#: the two high-rationality points of the order test.
BLOCK_ROWS = [(3.9, 0.2, 0.37, 0.86), (25.0, 2.0, 2.2, 0.5), (0.7, 1.1, 0.4, 0.3),
              (100.0, 3.0, 3.1, 0.5), (1e3, 2.0, 2.1, 0.5)]

def _block_params(model):
    """Float parameters for each row of BLOCK_ROWS, then all of them as a batch."""
    rows = [(lam, dab, danb, xi if model in XI_MODELS else None)
            for lam, dab, danb, xi in BLOCK_ROWS]
    batch = [None if r[0] is None else np.array(r, dtype=float)[:, None] for r in zip(*rows)]
    return [ModelParams(*r) for r in rows] + [ModelParams(*batch)]


def _assert_cut_free(table_of, grid, monkeypatch, fields=(None,)):
    """``table_of(grid, field)`` holds, bit for bit, the full tables on
    1000-prior slices put together (``field`` None, see ``table_of(p,
    None)``), or their ``field`` alone and ``None`` for the others, for each
    of ``fields``: with one, two and three threads sharing the blocks of a
    grid longer than BLOCK (each thread may take a single block here).  The
    slices do not line up with the blocks."""
    pieces = [table_of(grid[i:i + 1000], None) for i in range(0, grid.size, 1000)]
    monkeypatch.setattr(models, "BLOCKS_PER_THREAD", 1)
    for cpus, field in itertools.product((1, 2, 3) if grid.size > BLOCK else (1,), fields):
        monkeypatch.setattr(models, "_usable_cpus", lambda: cpus)
        whole = table_of(grid, field)
        assert whole.p is grid
        for name in FIELDS:
            if field not in (None, name):
                assert getattr(whole, name) is None, (name, field)
                continue
            axis = -1 if name.startswith("post") else -2
            joined = np.concatenate([getattr(t, name) for t in pieces], axis=axis)
            assert getattr(whole, name).shape == joined.shape, (name, cpus, field)
            assert getattr(whole, name).tobytes() == joined.tobytes(), (name, cpus, field)


@pytest.mark.parametrize("model", list(ModelId))
def test_predict_table_does_not_depend_on_where_the_grid_is_cut(model, monkeypatch):
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 100_000):
        grid = np.linspace(0.0, 1.0, n)  # exact 0 and 1 at the ends
        for params in _block_params(model):
            _assert_cut_free(lambda p, field: _predict(model, params, p, field), grid,
                             monkeypatch, (None, *FIELDS))


def test_a_mixed_batch_does_not_depend_on_where_the_grid_is_cut(monkeypatch):
    # each run of one family's sets fills its rows of every block
    mixed = (ModelId.BASE_RSA, ModelId.WRSA, ModelId.SVRSA2, ModelId.SVRSA1, ModelId.RSA_LI1)
    params = _block_params(ModelId.WRSA)[-1]
    _assert_cut_free(lambda p, field: _predict(mixed, params, p, field),
                     np.linspace(0.0, 1.0, 2 * BLOCK + 3), monkeypatch, (None, *FIELDS))


def test_lu_predict_does_not_depend_on_where_the_grid_is_cut(monkeypatch):
    grid = np.linspace(0.0, 1.0, 2 * BLOCK + 3)
    for params in _block_params(ModelId.FREE_LU):
        _assert_cut_free(lambda p, field: lu_predict(params, p, (0.5, 0.2, 0.3)), grid,
                         monkeypatch)


def _spy_on_fills(monkeypatch, spy):
    """Make every table call hand each block's table ``out`` to ``spy(fill,
    out)`` in place of its own ``fill(out)`` (see ``models._blocked``)."""
    blocked = models._blocked
    monkeypatch.setattr(models, "_blocked",
                        lambda fill, table: blocked(functools.partial(spy, fill), table))


def _helpers_take_blocks(monkeypatch, form):
    """Run ``form(fill, out)`` on every block of a long grid in place of the
    call's ``fill(out)``, on two threads that each take at least one block:
    the first block of each waits until the other thread has taken one."""
    monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(models, "BLOCKS_PER_THREAD", 1)
    both, started = threading.Barrier(2, timeout=30), set()

    def spy(fill, out):
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            both.wait()
        form(fill, out)

    _spy_on_fills(monkeypatch, spy)


def test_an_error_in_a_helper_thread_reaches_the_caller(monkeypatch):
    class Fault(Exception):
        pass

    caller = threading.get_ident()

    def form(fill, out):
        if threading.get_ident() != caller:
            raise Fault("raised in a block")

    _helpers_take_blocks(monkeypatch, form)
    before = threading.active_count()
    with pytest.raises(Fault, match="raised in a block"):
        predict_table(ModelId.BASE_RSA, ModelParams(lam=3.9), np.linspace(0.0, 1.0, 4 * BLOCK))
    assert threading.active_count() == before


def test_each_block_is_filled_once_under_contention(monkeypatch):
    # eight threads, switching often: the shared counter hands out every
    # block exactly once, and no thread outlives the call
    grid = np.arange(24 * BLOCK + 5) / (24 * BLOCK + 5)
    params = ModelParams(25.0, 2.0, 2.2, 0.5)
    monkeypatch.setattr(models, "_usable_cpus", lambda: 1)
    serial = predict_table(ModelId.BWRSA, params, grid)
    firsts = []

    def spy(fill, out):
        firsts.append(float(out.p[0]))
        fill(out)

    monkeypatch.setattr(models, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(models, "BLOCKS_PER_THREAD", 1)
    _spy_on_fills(monkeypatch, spy)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = predict_table(ModelId.BWRSA, params, grid)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert sorted(firsts) == grid[::BLOCK].tolist()
    for name in FIELDS:
        assert getattr(shared, name).tobytes() == getattr(serial, name).tobytes(), name


def test_every_block_runs_under_the_callers_error_state(monkeypatch):
    seen = []

    def form(fill, out):
        seen.append((threading.get_ident(), np.geterr()["divide"]))

    _helpers_take_blocks(monkeypatch, form)
    with np.errstate(divide="raise"):
        predict_table(ModelId.BASE_RSA, ModelParams(lam=3.9), np.linspace(0.0, 1.0, 4 * BLOCK))
    assert len(seen) == 4 and len({ident for ident, _ in seen}) == 2
    assert {divide for _, divide in seen} == {"raise"}


@pytest.mark.parametrize("model", list(ModelId))
def test_predict_table_peak_memory_is_about_its_table(model):
    # numpy reports its allocations to tracemalloc: a long grid's temporaries
    # are a block's, so the peak is close to the output arrays themselves
    grid = np.arange(1, 200_001) / 200_001
    for params in _block_params(model)[:2]:
        predict_table(model, params, grid[:100])
        tracemalloc.start()
        try:
            table = predict_table(model, params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(getattr(table, name).nbytes for name in FIELDS)
        assert peak <= 1.5 * size, (params, peak / size)


@pytest.mark.parametrize("cpus", [2, 8])
@pytest.mark.parametrize("model", list(ModelId))
def test_predict_table_peak_memory_is_about_its_table_on_two_threads(model, cpus, monkeypatch):
    # the same bound with two threads sharing the blocks, whatever the CPUs:
    # on eight, BLOCKS_PER_THREAD caps this grid's threads at two, and with
    # them the temporaries held at once
    monkeypatch.setattr(models, "_usable_cpus", lambda: cpus)
    test_predict_table_peak_memory_is_about_its_table(model)


def test_predict_builds_the_full_table_or_one_field_and_rejects_anything_else():
    params = ModelParams(lam=1.0)
    full = _predict(ModelId.BASE_RSA, params, 0.5, None)
    assert all(getattr(full, name) is not None for name in FIELDS)
    for field in ("", "p", "post_b", ("post_a",), ["post_a", "prod_wa"], 1):
        with pytest.raises(ValueError, match="field"):
            _predict(ModelId.BASE_RSA, params, 0.5, field)


def test_predict_requires_xi_where_applicable():
    for model in XI_MODELS:
        with pytest.raises(MissingParameter):
            predict_table(model, ModelParams(lam=1.0), 0.5)
    with pytest.raises(MissingParameter, match="bwrsa"):
        _predict((ModelId.BASE_RSA, ModelId.BWRSA), ModelParams(np.ones((2, 1))), 0.5)
    with pytest.raises(MissingParameter, match="wrsa"):
        _predict((ModelId.RSA_LI1, ModelId.WRSA), ModelParams(np.ones((2, 1))), 0.5)


def test_base_prediction_shape_example():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    table = predict_table(ModelId.BASE_RSA, params, 0.5)
    assert table.post_a.shape == table.post_ab.shape == (1,)
    assert table.prod_wa.shape == table.prod_wab.shape == (1, 3)
    assert table.post_a[0] < 0.5
    assert table.post_ab[0] == 1.0


def test_posterior_after_conjunction_is_one_except_svrsa():
    rng = np.random.default_rng(5)
    for model in ModelId:
        params = random_params(rng, xi=model in XI_MODELS)
        post_ab = predict_table(model, params, 0.4).post_ab[0]
        if model in (ModelId.SVRSA1, ModelId.SVRSA2):
            assert post_ab <= 1.0
        else:
            assert post_ab == 1.0


def test_predictions_finite_unit_interval_everywhere():
    rng = np.random.default_rng(6)
    priors = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=30)])
    for model in ModelId:
        for _ in range(5):
            params = random_params(rng, xi=model in XI_MODELS)
            table = predict_table(model, params, priors)
            for arr in (table.post_a, table.post_ab, table.prod_wa, table.prod_wab):
                assert np.all(np.isfinite(arr))
                assert np.all((arr >= 0) & (arr <= 1))
            np.testing.assert_allclose(table.prod_wa.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(table.prod_wab.sum(axis=1), 1.0, atol=1e-12)


def test_closed_forms_match_oracles_spot_sample():
    rng = np.random.default_rng(7)
    priors = rng.uniform(0.01, 0.99, size=25)
    for model in ModelId:
        for _ in range(8):
            params = random_params(rng, xi=model in XI_MODELS)
            ours = predict_table(model, params, priors)
            ref = oracle_predict_table(model, params, priors)
            np.testing.assert_allclose(ours.post_a, ref.post_a, atol=1e-10)
            np.testing.assert_allclose(ours.post_ab, ref.post_ab, atol=1e-10)
            np.testing.assert_allclose(ours.prod_wa, ref.prod_wa, atol=1e-10)
            np.testing.assert_allclose(ours.prod_wab, ref.prod_wab, atol=1e-10)


def test_fixed_rho_values():
    assert FIXED_RHO[ModelId.FREE_LU] == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert FIXED_RHO[ModelId.EXH_LU] == (0.5, 0.5, 0.0)


# ---------------------------------------------------------------------------
# logistic and softplus primitives
# ---------------------------------------------------------------------------


def _ulps(a, b):
    """Distance in ulps between arrays of nonnegative floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_logistic_pair_matches_expit():
    # sigma(x) and sigma(-x) from numpy's exp, in pairs and one-sided:
    # exactly 0 and 1 where expit is, also where exp overflows (|x| >
    # 709.78, x = +-inf), without a warning from the rows; elsewhere within
    # 4 ulps of expit and, above TINY, within 3 ulps of a 50-digit value
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(16)
    x = np.concatenate([
        rng.standard_normal(2000), 30 * rng.standard_normal(2000),
        rng.uniform(-760, 760, 2000),
        [0.0, -0.0, 1e-300, 36.7, 37.5, 709.78, 709.79, 710.0, 745.2, 800.0, np.inf],
    ])
    x = np.concatenate([x, -x])
    rows = _empty_table(x, ModelParams(lam=1.0))
    _two_way_rows(x, -x, rows)
    prod_wa, prod_wab = rows.prod_wa, rows.prod_wab
    assert prod_wa[:, 1].tolist() == prod_wab[:, 2].tolist() == [0.0] * x.size
    with np.errstate(over="ignore"):  # as the tables that call it do
        one_sided = _logistic(x)
    mp = mpmath.mp.clone()
    mp.dps = 50
    for ours, arg in ((prod_wa[:, 0], x), (prod_wa[:, 2], -x),
                      (prod_wab[:, 0], -x), (prod_wab[:, 1], x), (one_sided, x)):
        ref = expit(arg)
        ends = (ref == 0.0) | (ref == 1.0)
        assert ours[ends].tobytes() == ref[ends].tobytes()
        assert np.all(_ulps(ours, ref) <= 4)
        for value, v in zip(ours[~ends].tolist(), arg[~ends].tolist()):
            exact = 1 / (1 + mp.exp(-mp.mpf(v)))
            if exact >= TINY:
                assert abs(value - exact) <= 3 * math.ulp(float(exact)), v
    assert prod_wa[x == -np.inf, 0].tolist() == [0.0]
    assert prod_wa[x == np.inf, 0].tolist() == [1.0]
    assert one_sided[x == -np.inf].tolist() == [0.0]
    assert one_sided[x == np.inf].tolist() == [1.0]


def test_parameter_logistics_are_expit_bit_for_bit():
    # the terms that depend on the parameters alone, floats or (K, 1)
    # columns, are scipy's expit to the bit, 0 where exp(-x) overflows
    rng = np.random.default_rng(19)
    c = np.concatenate([rng.standard_normal(3000), 30 * rng.standard_normal(3000),
                        rng.uniform(-760, 760, 3000),
                        [0.0, -0.0, 709.78, -709.78, -709.79, -745.2, -800.0, np.inf, -np.inf]])
    ref = expit(c)
    assert np.array([_expit(v) for v in c.tolist()]).tobytes() == ref.tobytes()
    for w in (1.0, 0.5, 1 / 3, rng.uniform(size=(c.size, 1))):
        column = _scaled_expit(w, c[:, None])
        assert column.shape == (c.size, 1)
        assert column.tobytes() == (w * ref[:, None]).tobytes()
        floats = [_scaled_expit(np.ravel(w)[k % np.size(w)], v) for k, v in enumerate(c.tolist())]
        assert np.array(floats).tobytes() == column.tobytes()
    # a float weight of 0 drops the term, as 0 * expit(c) would
    assert _scaled_expit(0.0, c[:, None]) == 0.0


def test_speaker_row_is_exactly_zero_where_the_posterior_rounds_to_one():
    # log(1 - post_a) = -inf scores A at -inf in World.A: its probability is
    # 0, not a tiny positive number, so an epsilon-free likelihood still sees
    # that the row rules A out
    table = predict_table(ModelId.WRSA, ModelParams(50.0, 0.0, 0.0, 0.0), [1 - 1e-6])
    assert table.post_a.tolist() == [1.0]
    assert table.prod_wa.tolist() == [[0.0, 0.0, 1.0]]


def test_softplus_pair_is_the_two_softplus_forms():
    rng = np.random.default_rng(17)
    z = np.concatenate([rng.standard_normal(500) * np.exp(rng.uniform(-10, 7, 500)),
                        [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf]])
    pos, neg = _softplus_pair(z)
    for ours, arg in ((pos, z), (neg, -z)):
        ref = np.maximum(arg, 0.0) + np.log1p(np.exp(-np.abs(arg)))
        assert ours.tobytes() == ref.tobytes() == _softplus(arg).tobytes()


def test_production_rows_sum_to_one_within_four_ulps():
    # over the fitting box (lam to 1e3, costs to 200) and priors at the ends
    rng = np.random.default_rng(18)
    priors = np.concatenate([[0.0, 1e-12, 1e-9], rng.uniform(0, 1, 200), [1 - 1e-9, 1.0]])
    for model in ModelId:
        for _ in range(6):
            params = ModelParams(
                lam=float(np.exp(rng.uniform(np.log(0.05), np.log(1e3)))),
                delta_ab=float(rng.choice([0.0, rng.uniform(0, 3), rng.uniform(0, 200)])),
                delta_anb=float(rng.choice([0.0, rng.uniform(0, 3), rng.uniform(0, 200)])),
                xi=float(rng.choice([0.0, 1.0, rng.uniform()])) if model in XI_MODELS else None,
            )
            table = predict_table(model, params, priors)
            for rows in (table.prod_wa, table.prod_wab):
                assert np.all(np.abs(rows.sum(axis=-1) - 1.0) <= 4 * np.spacing(1.0)), params
