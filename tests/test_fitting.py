import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from rsa_exh.data import (
    Condition,
    Dataset,
    ObservationRow,
    ResponseMessage,
    Survey,
    SynthDesign,
    preprocess,
    synth_generate,
)
from rsa_exh import fitting
from rsa_exh.fitting import (
    FIT_COLUMNS,
    Constraints,
    FitOptions,
    NoConvergence,
    NoiseParams,
    NonfiniteLikelihood,
    _ParamSpec,
    compare,
    comprehension_loglik,
    dataset_loglik,
    fit,
    fit_result_row,
    production_loglik,
    smoothed_production_probs,
)
from rsa_exh.models import MissingParameter, ModelId, XI_MODELS, predict
from rsa_exh.scenario import ModelParams

BASE_PARAMS = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
NOISE = NoiseParams(sigma_a=0.33, sigma_ab=0.22, epsilon=0.022)
SMALL_DESIGN = SynthDesign(levels=4)
FAST_OPTIONS = FitOptions(restarts=4, seed=0)


# ---------------------------------------------------------------------------
# per-observation likelihoods
# ---------------------------------------------------------------------------


def test_production_loglik_certain_hit():
    assert production_loglik([1.0, 0.0, 0.0], ResponseMessage.A, 0.0) == 0.0


def test_production_loglik_smoothed_miss():
    value = production_loglik([0.0, 1.0, 0.0], ResponseMessage.A, 0.022)
    assert value == pytest.approx(math.log(0.022 / 1.066), abs=1e-12)


def test_production_loglik_nonfinite():
    with pytest.raises(NonfiniteLikelihood):
        production_loglik([0.0, 1.0, 0.0], ResponseMessage.A, 0.0)


def test_smoothed_probs_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pred = rng.dirichlet(np.ones(3))
        eps = float(rng.uniform(0, 1))
        total = math.fsum(smoothed_production_probs(pred, eps))
        assert abs(total - 1.0) <= 1e-15


def test_comprehension_loglik_censored_at_top():
    assert comprehension_loglik(1.0, 1.0, 0.5) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_comprehension_loglik_interior_density():
    value = comprehension_loglik(0.5, 0.5, 0.33)
    assert value == pytest.approx(math.log(1 / (0.33 * math.sqrt(2 * math.pi))), abs=1e-12)


def test_comprehension_loglik_requires_positive_sigma():
    with pytest.raises(ValueError):
        comprehension_loglik(0.5, 0.5, 0.0)


def test_tobit_density_integrates_to_one_spot():
    for pred, sigma in [(0.3, 0.2), (0.9, 0.05), (0.0, 1.4)]:
        interior, _ = quad(
            lambda y: math.exp(comprehension_loglik(pred, y, sigma)), 1e-12, 1 - 1e-12
        )
        mass0 = math.exp(comprehension_loglik(pred, 0.0, sigma))
        mass1 = math.exp(comprehension_loglik(pred, 1.0, sigma))
        assert interior + mass0 + mass1 == pytest.approx(1.0, abs=1e-8)
        assert mass0 == pytest.approx(norm.cdf(-pred / sigma), abs=1e-12)


# ---------------------------------------------------------------------------
# dataset likelihood
# ---------------------------------------------------------------------------


def test_dataset_loglik_empty():
    assert dataset_loglik(ModelId.BASE_RSA, BASE_PARAMS, NOISE, Dataset(())) == 0.0


def test_dataset_loglik_single_comprehension_row():
    row = ObservationRow(
        "c1", Survey.COMPREHENSION, 0.6, Condition.UTT_A, response_posterior=0.4
    )
    ds = Dataset((row,), priors_compressed=True, messages_merged=True)
    from rsa_exh.models import base_rsa_l1

    expected = comprehension_loglik(
        base_rsa_l1(BASE_PARAMS, 0.6), 0.4, NOISE.sigma_a
    )
    assert dataset_loglik(ModelId.BASE_RSA, BASE_PARAMS, NOISE, ds) == pytest.approx(
        expected, abs=1e-12
    )


def test_dataset_loglik_row_order_invariant():
    ds = synth_generate(ModelId.WRSA,
                        ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NOISE, SMALL_DESIGN, seed=11)
    rng = np.random.default_rng(1)
    shuffled = list(ds.rows)
    rng.shuffle(shuffled)
    a = dataset_loglik(ModelId.WRSA,
                       ModelParams(lam=2.0, delta_ab=0.1, delta_anb=0.3, xi=0.5),
                       NOISE, ds)
    b = dataset_loglik(ModelId.WRSA,
                       ModelParams(lam=2.0, delta_ab=0.1, delta_anb=0.3, xi=0.5),
                       NOISE, Dataset(tuple(shuffled)))
    assert a == pytest.approx(b, abs=1e-9)


def test_dataset_loglik_nonfinite_names_row():
    row = ObservationRow(
        "oddball", Survey.PRODUCTION, 0.3, Condition.WORLD_A,
        response_message=ResponseMessage.A_AND_B,  # literally false in w_a
    )
    ds = Dataset((row,), priors_compressed=True, messages_merged=True)
    zero_eps = NoiseParams(sigma_a=0.3, sigma_ab=0.3, epsilon=0.0)
    with pytest.raises(NonfiniteLikelihood, match="oddball"):
        dataset_loglik(ModelId.BASE_RSA, BASE_PARAMS, zero_eps, ds)


def test_dataset_loglik_nonfinite_names_row_after_other_conditions():
    # the offending World.AB row comes after rows of every other condition
    # and after a valid World.AB row, so it sits far from offset 0
    rows = (
        ObservationRow("c1", Survey.COMPREHENSION, 0.6, Condition.UTT_A,
                       response_posterior=0.4),
        ObservationRow("c2", Survey.COMPREHENSION, 0.3, Condition.UTT_AB,
                       response_posterior=1.0),
        ObservationRow("p1", Survey.PRODUCTION, 0.2, Condition.WORLD_A,
                       response_message=ResponseMessage.A),
        ObservationRow("p2", Survey.PRODUCTION, 0.7, Condition.WORLD_AB,
                       response_message=ResponseMessage.A_AND_B),
        ObservationRow("oddball", Survey.PRODUCTION, 0.5, Condition.WORLD_AB,
                       response_message=ResponseMessage.A_AND_NOT_B),  # false in w_ab
    )
    zero_eps = NoiseParams(sigma_a=0.3, sigma_ab=0.3, epsilon=0.0)
    ds = Dataset(rows, priors_compressed=True, messages_merged=True)
    with pytest.raises(NonfiniteLikelihood, match="oddball"):
        dataset_loglik(ModelId.BASE_RSA, BASE_PARAMS, zero_eps, ds)
    valid = Dataset(rows[:-1], priors_compressed=True, messages_merged=True)
    expected = _row_by_row_loglik(ModelId.BASE_RSA, BASE_PARAMS, zero_eps, valid)
    assert dataset_loglik(ModelId.BASE_RSA, BASE_PARAMS, zero_eps, valid) == pytest.approx(
        expected, rel=1e-12, abs=0
    )


def _row_by_row_loglik(model, params, noise, dataset):
    """The joint loglik as the exact sum of the per-observation scores."""
    scores = []
    for row in preprocess(dataset).rows:
        pred = predict(model, params, row.raw_prior)
        observed = row.response_posterior
        if row.condition is Condition.UTT_A:
            scores.append(comprehension_loglik(pred.post_a, observed, noise.sigma_a))
        elif row.condition is Condition.UTT_AB:
            scores.append(comprehension_loglik(pred.post_ab, observed, noise.sigma_ab))
        else:
            probs = pred.prod_wa if row.condition is Condition.WORLD_A else pred.prod_wab
            scores.append(production_loglik(probs, row.response_message, noise.epsilon))
    return math.fsum(scores)


def _shuffled_synth(seed):
    # wide comprehension noise, so that many slider responses are censored
    ds = synth_generate(ModelId.WRSA,
                        ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NoiseParams(sigma_a=0.6, sigma_ab=0.4, epsilon=0.022),
                        SMALL_DESIGN, seed=seed)
    rows = list(ds.rows)
    np.random.default_rng(seed).shuffle(rows)
    return rows


@pytest.mark.parametrize("model", list(ModelId))
def test_dataset_loglik_equals_sum_of_row_scores(model):
    rows = _shuffled_synth(12)
    responses = [r.response_posterior for r in rows if r.survey is Survey.COMPREHENSION]
    assert 0.0 in responses and 1.0 in responses
    assert any(0.0 < r < 1.0 for r in responses)
    comprehension = [r for r in rows if r.survey is Survey.COMPREHENSION]
    production = [r for r in rows if r.survey is Survey.PRODUCTION]
    rng = np.random.default_rng(13)
    for _ in range(3):
        params = ModelParams(
            lam=float(np.exp(rng.uniform(np.log(0.5), np.log(30.0)))),
            delta_ab=float(rng.uniform(0.0, 3.0)),
            delta_anb=float(rng.uniform(0.0, 3.0)),
            xi=float(rng.uniform(0.05, 0.95)) if model in XI_MODELS else None,
        )
        for subset in (rows, comprehension, production):
            ds = Dataset(tuple(subset))
            expected = _row_by_row_loglik(model, params, NOISE, ds)
            assert dataset_loglik(model, params, NOISE, ds) == pytest.approx(
                expected, rel=1e-12, abs=0
            )


def test_true_params_beat_perturbed_in_expectation():
    true_params = ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86)
    perturbed = ModelParams(lam=6.5, delta_ab=0.5, delta_anb=0.9, xi=0.5)
    gaps = []
    for seed in range(20):
        ds = synth_generate(ModelId.WRSA, true_params, NOISE, SMALL_DESIGN, seed=seed)
        gaps.append(
            dataset_loglik(ModelId.WRSA, true_params, NOISE, ds)
            - dataset_loglik(ModelId.WRSA, perturbed, NOISE, ds)
        )
    assert np.mean(gaps) > 0


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", [ModelId.BASE_RSA, ModelId.WRSA])
@pytest.mark.parametrize("equal_costs", [False, True])
def test_initial_points_match_scipy_latin_hypercube(model, equal_costs):
    qmc = pytest.importorskip("scipy.stats.qmc")
    spec = _ParamSpec.build(model, equal_costs, Constraints())
    for n in (1, 2, 10, 32):
        for seed in range(10):
            cube = qmc.LatinHypercube(d=len(spec.names), seed=seed).random(n)
            span_lin = spec.init_lo + cube * (spec.init_hi - spec.init_lo)
            span_log = np.exp(
                np.log(spec.init_lo) + cube * (np.log(spec.init_hi) - np.log(spec.init_lo))
            )
            expected = np.apply_along_axis(
                spec.encode, 1, np.where(spec.log_init, span_log, span_lin)
            )
            np.testing.assert_array_equal(spec.initial_points(n, seed), expected)


def test_aic_identity_arithmetic():
    assert 2 * 7 - 2 * (-239.0) == 492.0


def test_fit_recovers_cost_gap_on_base_data():
    gaps = []
    for seed in range(5):
        ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, seed=seed)
        res = fit(ModelId.BASE_RSA, ds, options=FitOptions(restarts=4, seed=seed))
        gaps.append(abs((res.params.delta_anb - res.params.delta_ab) - 0.5))
        assert res.aic == pytest.approx(2 * res.n_params - 2 * res.loglik, abs=1e-9)
        assert res.n_params == 6
    assert np.median(gaps) <= 0.15


def test_equal_costs_fit_is_nested():
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=2)
    free = fit(ModelId.BASE_RSA, ds, options=FAST_OPTIONS)
    tied = fit(ModelId.BASE_RSA, ds, options=FAST_OPTIONS, equal_costs=True)
    assert tied.loglik <= free.loglik + 1e-6
    assert tied.n_params == free.n_params - 1
    assert tied.params.delta_ab == tied.params.delta_anb
    assert tied.equal_costs


def test_fit_flags_rationality_at_bound():
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=3)
    res = fit(
        ModelId.BASE_RSA, ds,
        constraints=Constraints(lam_max=0.3),
        options=FAST_OPTIONS,
    )
    assert "lambda" in res.at_bounds


def test_compare_single_and_duplicate_models():
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=4)
    single = compare([ModelId.BASE_RSA], ds, options=FAST_OPTIONS)
    assert len(single) == 1
    twice = compare([ModelId.BASE_RSA, ModelId.BASE_RSA], ds, options=FAST_OPTIONS)
    assert abs(twice[0].aic - twice[1].aic) < 0.5
    ranked = compare(
        [ModelId.BASE_RSA, ModelId.WRSA], ds, options=FAST_OPTIONS
    )
    assert ranked[0].aic <= ranked[1].aic


def _raise(error):
    def raising(*args, **kwargs):
        raise error
    return raising


@pytest.mark.parametrize("error", [TypeError("fault"), MissingParameter("fault")])
def test_fit_propagates_errors_raised_while_scoring(monkeypatch, error):
    # the objective scores inf only for a NonfiniteLikelihood and for a
    # parameter vector that decodes to a zero scale; anything else is a fault
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=6)
    monkeypatch.setattr(fitting, "predict_table", _raise(error))
    with pytest.raises(type(error)):
        fit(ModelId.BASE_RSA, ds, options=FitOptions(restarts=1, seed=0))


def test_compare_propagates_errors_other_than_value_errors(monkeypatch):
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=6)
    monkeypatch.setattr(fitting, "predict_table", _raise(TypeError("fault")))
    with pytest.raises(TypeError):
        compare([ModelId.BASE_RSA], ds, options=FitOptions(restarts=1, seed=0))


def test_compare_records_a_failed_fit_as_inf_aic_row(monkeypatch):
    monkeypatch.setattr(fitting, "fit", _raise(NonfiniteLikelihood("row 's0001'")))
    with pytest.warns(NoConvergence, match="s0001"):
        (result,) = compare([ModelId.BASE_RSA], Dataset(()))
    assert result.aic == math.inf and result.params is None and not result.converged


def test_compare_requires_models():
    with pytest.raises(ValueError):
        compare([], Dataset(()))


def test_fit_result_row_schema():
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=5)
    res = fit(ModelId.BASE_RSA, ds, options=FitOptions(restarts=2, seed=0))
    row = fit_result_row(res)
    assert tuple(row) == FIT_COLUMNS
    assert row["model"] == "base"
    assert row["xi"] is None
    assert isinstance(row["converged"], bool)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(sigma_a=0.0, sigma_ab=0.2, epsilon=0.0)
    with pytest.raises(ValueError):
        NoiseParams(sigma_a=0.2, sigma_ab=0.2, epsilon=-0.1)
