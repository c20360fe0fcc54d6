import itertools
import math

import numpy as np
import pytest

from rsa_exh.models import (
    FIXED_RHO,
    LOG2,
    MissingParameter,
    NEAR_PRIOR,
    ModelId,
    base_rsa_l1,
    bwrsa_l1,
    lu_predict,
    predict,
    predict_table,
    wrsa_l1,
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


def test_base_l1_symmetric_point():
    params = ModelParams(lam=7.3, delta_ab=0.8, delta_anb=0.8)
    assert base_rsa_l1(params, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_base_l1_sign_flips_at_logodds_threshold():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    threshold = math.exp(0.5) / (1 + math.exp(0.5))
    p = np.linspace(1e-4, 1 - 1e-4, 20001)
    diff = base_rsa_l1(params, p) - p
    crossings = np.where(np.diff(np.sign(diff)) != 0)[0]
    assert len(crossings) == 1
    assert p[crossings[0]] == pytest.approx(threshold, abs=1e-4)


def test_base_l1_endpoints_exact():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    assert base_rsa_l1(params, 0.0) == 0.0
    assert base_rsa_l1(params, 1.0) == 1.0


def test_base_s2_worked_example():
    # parameters that put the level-1 posterior at exactly 1/2
    params = ModelParams(lam=1.0)
    assert base_rsa_l1(params, 0.5) == pytest.approx(0.5, abs=1e-15)
    row_wa = predict(ModelId.BASE_RSA, params, 0.5).prod_wa
    assert row_wa[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert row_wa[1] == 0.0
    assert row_wa[2] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_base_s2_false_message_excluded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params = random_params(rng)
        row = predict(ModelId.BASE_RSA, params, float(rng.uniform(0.01, 0.99))).prod_wab
        assert row[2] == 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_base_s2_high_rationality_limit():
    # the bare message wins in w_a when its cost advantage beats the
    # (vanishing) informativity penalty
    params = ModelParams(lam=200.0, delta_ab=0.0, delta_anb=1.0)
    row = predict(ModelId.BASE_RSA, params, 0.5).prod_wa
    assert row[0] > 1 - 1e-9


# ---------------------------------------------------------------------------
# wonky-prior closed forms
# ---------------------------------------------------------------------------


def test_wrsa_collapses_to_base_at_zero_wonkiness():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.0)
    base = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2)
    np.testing.assert_allclose(
        wrsa_l1(params, GRID), base_rsa_l1(base, GRID), atol=1e-12
    )


def test_wrsa_fully_wonky_ignores_prior():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=1.0)
    values = wrsa_l1(params, GRID)
    np.testing.assert_allclose(values, values[0], atol=1e-14)


def test_bwrsa_endpoints_and_collapse():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.35)
    assert bwrsa_l1(params, 0.0) == 0.0
    assert bwrsa_l1(params, 1.0) == 1.0
    at_zero = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.0)
    base = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2)
    np.testing.assert_allclose(
        bwrsa_l1(at_zero, GRID), base_rsa_l1(base, GRID), atol=1e-12
    )


# ---------------------------------------------------------------------------
# supervaluationist closed forms
# ---------------------------------------------------------------------------


def test_svrsa_never_exceeds_prior():
    rng = np.random.default_rng(1)
    for _ in range(300):
        params = random_params(rng, xi=True)
        p = float(rng.uniform(0.01, 0.99))
        pred = predict(ModelId.SVRSA1, params, p)
        assert pred.post_a < p


def test_svrsa_total_qud_speaker_is_categorical_in_wab():
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = random_params(rng, xi=True)
        pred = predict(ModelId.SVRSA2, params, float(rng.uniform(0.05, 0.95)))
        np.testing.assert_allclose(pred.prod_wab, [0.0, 1.0, 0.0], atol=0)


def test_svrsa_partial_qud_speaker_world_independent():
    # under the partial QUD the level-1 speaker ignores the world and is
    # driven by costs alone: check via the engine's expected utilities
    from rsa_exh.engine import expected_utility_over_interpretations, softmax_speaker
    from rsa_exh.oracles import _truth_table
    from rsa_exh.engine import GenericScenario
    from rsa_exh.scenario import Interpretation, Message, Qud, World

    lam, dab, danb = 2.0, 0.3, 0.6
    rows = {}
    for p in (0.2, 0.7):
        scenario = GenericScenario(
            worlds=(World.A, World.AB),
            messages=(Message.A, Message.A_AND_B, Message.A_AND_NOT_B),
            costs=np.array([0.0, dab, danb]),
            truth=_truth_table([Interpretation.LITERAL, Interpretation.EXHAUSTIVE]),
            world_prior=np.array([1 - p, p]),
            context_prior=np.array([0.5, 0.5]),
        )
        cells = [tuple(cell) for cell in Qud.PARTIAL.cells]
        for world in (World.A, World.AB):
            utilities = [
                expected_utility_over_interpretations(scenario, m, world, cells)
                for m in scenario.messages
            ]
            rows[(p, world)] = softmax_speaker(utilities, lam).probs
    hand = np.exp(lam * -np.array([0.0, dab, danb]))
    hand = hand / hand.sum()
    for probs in rows.values():
        np.testing.assert_allclose(probs, hand, atol=1e-12)


def test_svrsa_conjunction_compatible_with_wa_at_low_prior():
    # the conjunction can signal the partial QUD, so its posterior on w_ab
    # dips below 1 when the prior is low
    params = ModelParams(lam=1.0, delta_ab=0.1, delta_anb=0.5, xi=0.5)
    pred = predict(ModelId.SVRSA1, params, 0.1)
    assert pred.post_ab < 1.0


def test_svrsa_zero_total_qud_prior_gives_uninformative_bare_message():
    params = ModelParams(lam=2.0, delta_ab=0.4, delta_anb=0.8, xi=0.0)
    for p in (0.2, 0.5, 0.9):
        pred = predict(ModelId.SVRSA1, params, p)
        assert pred.post_a == pytest.approx(p, abs=1e-9)


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
    # underflows, and its joint posterior needs log space
    ours = predict_table(model, params, GRID)
    ref = oracle_predict_table(model, params, GRID)
    for name in ("post_a", "post_ab", "prod_wa", "prod_wab"):
        np.testing.assert_allclose(getattr(ours, name), getattr(ref, name), rtol=0, atol=1e-9)


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
    for i, p in enumerate(GRID):
        pred = lu_predict(params, float(p), (1.0, 0.0, 0.0))
        assert pred.post_a == pytest.approx(base_table.post_a[i], abs=1e-12)
        np.testing.assert_allclose(pred.prod_wa, base_table.prod_wa[i], atol=1e-12)
        np.testing.assert_allclose(pred.prod_wab, base_table.prod_wab[i], atol=1e-12)


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
        pred = predict(ModelId.EXH_LU, params, p)
        assert pred.post_a <= p + 1e-12


def test_free_lu_allows_listener_anti_exhaustivity():
    params = ModelParams(lam=3.0)
    pred = predict(ModelId.FREE_LU, params, 0.9)
    assert pred.post_a > 0.9


def test_lu_rejects_bad_rho():
    with pytest.raises(ValueError):
        lu_predict(ModelParams(lam=1.0), 0.5, (0.5, 0.5, 0.5))


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
        pred = predict(ModelId.RSA_LI1, params, float(rng.uniform(0.01, 0.99)))
        assert pred.prod_wab[0] <= pred.prod_wa[0] + 1e-12


def test_li_s1_limit_at_certain_prior():
    params = ModelParams(lam=4.0, delta_ab=0.3, delta_anb=0.7)
    pred = predict(ModelId.RSA_LI1, params, 1.0)
    expected = 1.0 / (1.0 + 2.0 * math.exp(-params.lam * params.delta_anb))
    assert pred.prod_wa[0] == pytest.approx(expected, rel=1e-9)


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
    a = predict(ModelId.EXH_LU, params, 0.3)
    b = predict(ModelId.RSA_LI2, params, 0.3)
    assert a.post_a == pytest.approx(b.post_a, abs=1e-9)
    np.testing.assert_allclose(a.prod_wa, b.prod_wa, atol=1e-9)
    np.testing.assert_allclose(a.prod_wab, b.prod_wab, atol=1e-9)


def test_li2_differs_from_exh_lu_at_moderate_rationality():
    # the joint-normalization of the intentions speaker is a real difference:
    # the two variants only converge in the high-rationality limit
    params = ModelParams(lam=1.0)
    a = predict(ModelId.EXH_LU, params, 0.3)
    b = predict(ModelId.RSA_LI2, params, 0.3)
    assert abs(a.post_a - b.post_a) > 1e-3


def test_li2_exh_lu_residual_gap_at_fit_bound_rationality():
    # at the rationality search bound the convergence is complete except for
    # priors so extreme that lam*|log p| stays small; pin that tail behaviour
    params = ModelParams(lam=1e3)
    gap = abs(
        predict(ModelId.EXH_LU, params, 0.99).post_a
        - predict(ModelId.RSA_LI2, params, 0.99).post_a
    )
    assert 1e-4 < gap < 5e-3


# ---------------------------------------------------------------------------
# dispatch-level contracts
# ---------------------------------------------------------------------------


def test_predict_requires_xi_where_applicable():
    for model in XI_MODELS:
        with pytest.raises(MissingParameter):
            predict(model, ModelParams(lam=1.0), 0.5)


def test_base_prediction_shape_example():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    pred = predict(ModelId.BASE_RSA, params, 0.5)
    assert pred.post_a < 0.5
    assert pred.post_ab == 1.0


def test_posterior_after_conjunction_is_one_except_svrsa():
    rng = np.random.default_rng(5)
    for model in ModelId:
        params = random_params(rng, xi=model in XI_MODELS)
        pred = predict(model, params, 0.4)
        if model in (ModelId.SVRSA1, ModelId.SVRSA2):
            assert pred.post_ab <= 1.0
        else:
            assert pred.post_ab == 1.0


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


def test_predictions_row_schema():
    params = ModelParams(lam=2.0, delta_ab=0.1, delta_anb=0.2)
    row = predict(ModelId.BASE_RSA, params, 0.25).as_row(ModelId.BASE_RSA, 0.25)
    assert list(row) == [
        "model", "p", "post_A", "post_AB",
        "prod_wa_A", "prod_wa_AB", "prod_wa_AnB",
        "prod_wab_A", "prod_wab_AB", "prod_wab_AnB",
    ]
    assert row["model"] == "base"


def test_model_id_from_name():
    assert ModelId.from_name("exh-lu") is ModelId.EXH_LU
    with pytest.raises(ValueError):
        ModelId.from_name("nonsense")


def test_fixed_rho_values():
    assert FIXED_RHO[ModelId.FREE_LU] == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert FIXED_RHO[ModelId.EXH_LU] == (0.5, 0.5, 0.0)
