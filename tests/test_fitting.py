import dataclasses
import functools
import math
import multiprocessing
import time
import traceback
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import norm

from rsa_exh.data import (
    MODEL_MESSAGES,
    Condition,
    Dataset,
    ObservationRow,
    ResponseMessage,
    Survey,
    SynthDesign,
    preprocess,
    smoothed_production_probs,
    synth_generate,
)
from rsa_exh import fitting
from rsa_exh.fitting import (
    FIT_COLUMNS,
    FitOptions,
    NoConvergence,
    NoiseParams,
    NonfiniteLikelihood,
    _PackedData,
    _ParamSpec,
    _objective,
    compare,
    comprehension_loglik,
    dataset_loglik,
    fit,
    fit_result_row,
    production_loglik,
)
from rsa_exh.models import FAMILIES, MissingParameter, ModelId, XI_MODELS, predict_table
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
    ds = Dataset((row,), preprocessed=True)
    expected = comprehension_loglik(
        predict_table(ModelId.BASE_RSA, BASE_PARAMS, 0.6).post_a[0], 0.4, NOISE.sigma_a
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
    ds = Dataset((row,), preprocessed=True)
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
    ds = Dataset(rows, preprocessed=True)
    with pytest.raises(NonfiniteLikelihood, match="oddball"):
        dataset_loglik(ModelId.BASE_RSA, BASE_PARAMS, zero_eps, ds)
    valid = Dataset(rows[:-1], preprocessed=True)
    expected = _row_by_row_loglik(ModelId.BASE_RSA, BASE_PARAMS, zero_eps, valid)
    assert dataset_loglik(ModelId.BASE_RSA, BASE_PARAMS, zero_eps, valid) == pytest.approx(
        expected, rel=1e-12, abs=0
    )


def _slider_loglik(pred, observed, sigma):
    """Tobit score of one slider response from scipy's normal distribution,
    independent of the package's slider code."""
    if observed <= 0.0:
        return norm.logcdf(0.0, pred, sigma)
    if observed >= 1.0:
        return norm.logsf(1.0, pred, sigma)
    return norm.logpdf(observed, pred, sigma)


def _row_by_row_loglik(model, params, noise, dataset):
    """The joint loglik as the exact sum of the per-observation scores."""
    scores = []
    for row in preprocess(dataset).rows:
        table = predict_table(model, params, row.raw_prior)
        observed = row.response_posterior
        if row.condition is Condition.UTT_A:
            scores.append(_slider_loglik(table.post_a[0], observed, noise.sigma_a))
        elif row.condition is Condition.UTT_AB:
            scores.append(_slider_loglik(table.post_ab[0], observed, noise.sigma_ab))
        else:
            probs = (table.prod_wa if row.condition is Condition.WORLD_A else table.prod_wab)[0]
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
    # the starts are the model-parameter columns of a hypercube drawn with
    # a column for each noise parameter too, which the search solves for
    qmc = pytest.importorskip("scipy.stats.qmc")
    spec = _ParamSpec.build(model, equal_costs)
    d = len(spec.names)
    for n in (1, 2, 10, 32):
        for seed in range(10):
            cube = qmc.LatinHypercube(d=d + 3, seed=seed).random(n)[:, :d]
            span_lin = spec.init_lo + cube * (spec.init_hi - spec.init_lo)
            span_log = np.exp(
                np.log(spec.init_lo) + cube * (np.log(spec.init_hi) - np.log(spec.init_lo))
            )
            expected = np.apply_along_axis(
                spec.encode, 1, np.where(spec.log_init, span_log, span_lin)
            )
            np.testing.assert_array_equal(spec.initial_points(n, seed), expected)
            # the starts decode back into their ranges (to rounding)
            values = spec.decode(spec.initial_points(n, seed))
            for name, lo, hi in zip(spec.names, spec.init_lo, spec.init_hi):
                assert np.all((values[name] >= lo * (1 - 1e-12))
                              & (values[name] <= hi * (1 + 1e-12))), name


@pytest.mark.parametrize("model", [ModelId.BASE_RSA, ModelId.WRSA])
@pytest.mark.parametrize("equal_costs", [False, True])
def test_clipped_logit_reaches_the_bounds_and_inverts_inside_the_box(model, equal_costs):
    spec = _ParamSpec.build(model, equal_costs)
    d = len(spec.names)

    def decoded(t):
        return np.array(list(spec.decode(t).values()))

    for t in (-800.0, -40.0, 0.0, 40.0, 800.0):
        values = decoded(np.full(d, t))
        assert np.all((values >= 0.0) & (values <= spec.highs))
    assert decoded(spec.encode(np.zeros(d))).tolist() == [0.0] * d
    assert decoded(spec.encode(spec.highs)).tolist() == spec.highs.tolist()
    ratios = np.concatenate([np.geomspace(1e-6, 0.5, 40), 1.0 - np.geomspace(1e-6, 0.5, 40)])
    for ratio in ratios:
        inside = ratio * spec.highs
        np.testing.assert_allclose(decoded(spec.encode(inside)), inside, rtol=1e-12, atol=0)
    for t in np.linspace(-9.2, 9.2, 37):
        np.testing.assert_allclose(spec.encode(decoded(np.full(d, t))), t, rtol=1e-12, atol=1e-12)


def test_at_bounds_names_the_columns_on_either_bound():
    spec = _ParamSpec.build(ModelId.WRSA, equal_costs=True)  # lambda delta xi
    t = spec.encode(np.array([2.0, 0.0, 1.0]))
    assert spec.at_bounds(t) == ("delta_ab", "delta_anb", "xi")
    t[0] = 40.0
    assert spec.at_bounds(t) == ("lambda", "delta_ab", "delta_anb", "xi")


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


def test_fit_flags_rationality_at_bound(monkeypatch):
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=3)
    monkeypatch.setitem(fitting._PARAMS, "lambda", (0.3, *fitting._PARAMS["lambda"][1:]))
    res = fit(ModelId.BASE_RSA, ds, options=FAST_OPTIONS)
    assert "lambda" in res.at_bounds


@pytest.mark.parametrize("params, noise, flagged", [
    (ModelParams(lam=3.0, delta_ab=0.0, delta_anb=1.0), NOISE, "delta_ab"),
    (BASE_PARAMS, dataclasses.replace(NOISE, epsilon=0.0), "epsilon"),
], ids=["delta_ab", "epsilon"])
def test_fit_flags_a_parameter_on_its_lower_bound(params, noise, flagged):
    # data generated with a cost or error rate of 0: the fit lands on
    # exactly 0, which the transform reaches, and says so
    ds = synth_generate(ModelId.BASE_RSA, params, noise, SMALL_DESIGN, seed=0)
    res = fit(ModelId.BASE_RSA, ds, options=FAST_OPTIONS)
    assert res.at_bounds == (flagged,)
    assert fit_result_row(res)[flagged] == 0.0


@pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -1}, {"maxiter": 0}])
def test_fit_options_reject_fewer_than_one_restart_or_iteration(kwargs):
    with pytest.raises(ValueError, match="at least 1"):
        FitOptions(**kwargs)


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
    monkeypatch.setattr(fitting, "_predict", _raise(error))
    with pytest.raises(type(error)):
        fit(ModelId.BASE_RSA, ds, options=FitOptions(restarts=1, seed=0))


# How compare splits its models into tasks, by the usable CPUs: one model runs
# in the caller's process; two models in a pool of two are a task each; two
# models of one family on one CPU are one task in the caller's process; and
# three models in a pool of two are a family task (base and free-LU) and a
# one-model task (WRSA); four models in a pool of three are a task each,
# queued.
TASKINGS = pytest.mark.parametrize("models, cpus", [
    ([ModelId.BASE_RSA], 1),
    ([ModelId.BASE_RSA, ModelId.WRSA], 2),
    ([ModelId.BASE_RSA, ModelId.FREE_LU], 1),
    ([ModelId.BASE_RSA, ModelId.FREE_LU, ModelId.WRSA], 2),
    ([ModelId.BASE_RSA, ModelId.FREE_LU, ModelId.EXH_LU, ModelId.WRSA], 3),
], ids=["serial", "pooled", "serial-family", "pooled-family", "pooled-queue"])


def test_compare_groups_the_families_on_few_workers_only():
    # up to GROUPED_WORKERS workers, the families are dealt into one task per
    # worker, the longest-running first (those with a model that fits xi, the
    # larger first) and back and forth, each task's models family by family;
    # with more workers, the models run side by side, a task each
    models = list(ModelId)
    lu, svrsa, li, wrsa = FAMILIES
    singles = [(m,) for m in models]
    assert fitting._tasks(models, 1) == [lu + svrsa + wrsa + li]
    assert fitting._tasks(models, 2) == [lu + li, svrsa + wrsa]
    assert fitting.GROUPED_WORKERS == 2
    for workers in range(fitting.GROUPED_WORKERS + 1, len(models) + 1):
        assert fitting._tasks(models, workers) == singles
    assert fitting._tasks(models[:2], 2) == singles[:2]
    assert fitting._tasks([ModelId.FREE_LU, ModelId.BASE_RSA, ModelId.WRSA], 2) == [
        (ModelId.WRSA,), (ModelId.BASE_RSA, ModelId.FREE_LU)]
    # fewer families than workers: fewer tasks
    assert fitting._tasks([ModelId.EXH_LU, ModelId.BASE_RSA, ModelId.FREE_LU], 2) == [
        (ModelId.BASE_RSA, ModelId.FREE_LU, ModelId.EXH_LU)]


@pytest.fixture
def pool_of_two(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("compare runs serially where the platform cannot fork")
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: 2)


def _serial_compare(monkeypatch, *args, **kwargs):
    """``compare`` with its pool sized to one worker: the fits run in turn,
    in this process."""
    with monkeypatch.context() as m:
        m.setattr(fitting, "_usable_cpus", lambda: 1)
        return compare(*args, **kwargs)


def _bits(value):
    """Every field of ``value``, a fit result or a list of them, with each
    float as its type and its bytes (results from a worker are unpickled
    copies, so the objects' identities differ)."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (float, np.floating)):
        return type(value).__name__, np.float64(value).tobytes()
    return value


def _faulty_tables(monkeypatch, fault):
    """Make every table call of the fits, of one model or of a family's
    mixed sets, run ``fault``."""
    monkeypatch.setattr(fitting, "_predict", fault)


@TASKINGS
def test_compare_propagates_errors_other_than_value_errors(monkeypatch, pool_of_two, models,
                                                           cpus):
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: cpus)
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=6)
    _faulty_tables(monkeypatch, _raise(TypeError("fault")))
    with pytest.raises(TypeError, match="fault"):
        compare(models, ds, options=FitOptions(restarts=1, seed=0))
    assert multiprocessing.active_children() == []


@TASKINGS
def test_compare_keeps_the_traceback_of_a_fault(monkeypatch, pool_of_two, models, cpus):
    # pickling drops the frames of an exception raised in a worker; compare
    # chains the worker's formatted traceback as its cause
    def faulty_predict_table(*args, **kwargs):
        raise TypeError("fault")

    monkeypatch.setattr(fitting, "_usable_cpus", lambda: cpus)
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=6)
    _faulty_tables(monkeypatch, faulty_predict_table)
    with pytest.raises(TypeError, match="fault") as raised:
        compare(models, ds, options=FitOptions(restarts=1, seed=0))
    assert "faulty_predict_table" in "".join(traceback.format_exception(raised.value))


@TASKINGS
def test_compare_records_a_failed_fit_as_inf_aic_row(monkeypatch, pool_of_two, models, cpus):
    # _restarts is the lockstep of a family's models, and of fit's one model
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fitting, "_restarts", _raise(NonfiniteLikelihood("row 's0001'")))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = compare(models, Dataset(()))
    assert [str(w.message) for w in caught] == [
        f"{m.value}: fit failed: row 's0001'" for m in models]
    assert all(w.category is NoConvergence for w in caught)
    assert [r.model for r in results] == models
    for result in results:
        assert result.aic == math.inf and result.params is None and not result.converged
    assert multiprocessing.active_children() == []


@TASKINGS
def test_compare_propagates_a_missing_parameter(monkeypatch, pool_of_two, models, cpus):
    # a missing parameter is a fault of the call: compare must not turn it
    # into an inf-AIC row, although MissingParameter is a ValueError
    monkeypatch.setattr(fitting, "_usable_cpus", lambda: cpus)
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=6)
    _faulty_tables(monkeypatch, _raise(MissingParameter("xi")))
    with pytest.raises(MissingParameter, match="xi"):
        compare(models, ds, options=FitOptions(restarts=1, seed=0))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("models", [[ModelId.BASE_RSA, ModelId.WRSA],
                                    [ModelId.BASE_RSA, ModelId.FREE_LU, ModelId.WRSA]],
                         ids=["task-per-model", "family-task"])
def test_compare_raises_the_first_fault_in_model_order(monkeypatch, pool_of_two, models):
    # the later model's fault is found first (its lockstep fails at once),
    # and the earlier model's warning comes before the fault, as in a serial
    # loop; the family's lockstep warns and fails, so each of its models is
    # refitted alone, and base keeps its own warning only
    def faulty(family, *args):
        if ModelId.WRSA in family:
            raise TypeError("wrsa fault")
        for model in family:
            warnings.warn(NoConvergence(f"{model.value} warned"))
        time.sleep(0.5)
        raise KeyError("base fault")

    monkeypatch.setattr(fitting, "_restarts", faulty)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(KeyError, match="base fault"):
            compare(models, Dataset(()))
    assert [str(w.message) for w in caught] == ["base warned"]
    assert multiprocessing.active_children() == []


def test_a_family_that_fails_or_warns_gives_each_model_its_own_fit(monkeypatch, pool_of_two):
    # a fault or a warning of a task's lockstep cannot be told apart by
    # model: each model is refitted alone, and gets what its own fit gives.
    # Pooled, the LU family is a task of its own; serially, the one task
    # merges it with WRSA, whose fit is redone too
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=4)
    options = FitOptions(restarts=1, seed=0)
    restarts, locksteps = fitting._restarts, []

    def shaky(task, *args):
        locksteps.append(task)
        if ModelId.BWRSA in task:
            if len(task) > 1:
                warnings.warn(UserWarning("mixed step"))
            else:
                raise NonfiniteLikelihood("bwrsa alone")
        return restarts(task, *args)

    monkeypatch.setattr(fitting, "_restarts", shaky)
    models = [ModelId.BWRSA, ModelId.BASE_RSA, ModelId.WRSA]
    lu = (ModelId.BASE_RSA, ModelId.BWRSA)
    assert fitting._tasks(models, 2) == [lu, (ModelId.WRSA,)]
    assert fitting._tasks(models, 1) == [lu + (ModelId.WRSA,)]
    for run in (compare, functools.partial(_serial_compare, monkeypatch)):
        locksteps.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run(models, ds, options=options)
        ran = list(locksteps)  # empty for the pool, whose locksteps run in its workers
        assert [str(w.message) for w in caught] == ["bwrsa: fit failed: bwrsa alone"]
        assert _bits(results[:2]) == _bits(sorted((fit(m, ds, options) for m in models[1:]),
                                                  key=lambda r: r.aic))
        assert results[2].model is ModelId.BWRSA and results[2].aic == math.inf
    # the serial compare's locksteps: the merged task, then each model alone
    assert ran == [lu + (ModelId.WRSA,), *((m,) for m in lu + (ModelId.WRSA,))]


@pytest.mark.parametrize("equal_costs", [False, True], ids=["two-costs", "equal-costs"])
@pytest.mark.parametrize("maxiter", [None, 20])
def test_grouped_compare_is_each_models_own_fit_bit_for_bit(monkeypatch, pool_of_two,
                                                            equal_costs, maxiter):
    # fewer workers than models: compare runs each family in one lockstep,
    # pooled and serially, and every result and warning is that of the
    # model's own fit, in model order; a duplicated model is fitted once
    ds = synth_generate(ModelId.WRSA, ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NOISE, SMALL_DESIGN, seed=4)
    options = FitOptions(restarts=2, seed=0, maxiter=maxiter)
    models = [*ModelId, ModelId.FREE_LU]
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        fits = [fit(m, ds, options, equal_costs) for m in models]
    expected = sorted(fits, key=lambda r: (r.aic, models.index(r.model)))
    for r in fits:  # each fit is scored at its solved noise
        assert r.loglik == dataset_loglik(r.model, r.params, r.noise, ds)
    if maxiter:
        assert [str(w.message) for w in alone] == [
            f"{m.value}: no restart met the tolerances" for m in models]
    for run in (compare, functools.partial(_serial_compare, monkeypatch)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run(models, ds, options, equal_costs)
        assert _bits(results) == _bits(expected)
        assert [(w.category, str(w.message)) for w in caught] == [
            (w.category, str(w.message)) for w in alone]
    assert multiprocessing.active_children() == []


def test_pooled_compare_is_the_serial_compare_bit_for_bit(monkeypatch, pool_of_two):
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=4)
    options = FitOptions(restarts=2, seed=0, maxiter=600)
    with warnings.catch_warnings(record=True) as pooled_warnings:
        warnings.simplefilter("always")
        pooled = compare(list(ModelId), ds, options=options)
    assert multiprocessing.active_children() == []
    with warnings.catch_warnings(record=True) as serial_warnings:
        warnings.simplefilter("always")
        serial = _serial_compare(monkeypatch, list(ModelId), ds, options=options)
    assert _bits(pooled) == _bits(serial)
    assert [str(w.message) for w in pooled_warnings] == [str(w.message) for w in serial_warnings]


def test_a_compare_of_one_task_forks_no_pool(monkeypatch, pool_of_two):
    # three models of one family on two CPUs are one task, which runs in
    # this process: a pool of one worker would only add the fork
    import concurrent.futures

    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=4)
    models = [ModelId.BASE_RSA, ModelId.FREE_LU, ModelId.EXH_LU]
    options = FitOptions(restarts=2, seed=0)
    assert len(fitting._tasks(models, 2)) == 1
    serial = _serial_compare(monkeypatch, models, ds, options=options)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _raise(AssertionError("forked")))
    assert _bits(compare(models, ds, options=options)) == _bits(serial)


def test_pooled_compare_issues_the_serial_warnings_in_model_order(monkeypatch, pool_of_two):
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=4)
    starved = FitOptions(restarts=2, seed=0, maxiter=20)
    models = [ModelId.WRSA, ModelId.BASE_RSA]
    runs = []
    for run in (compare, functools.partial(_serial_compare, monkeypatch)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(models, ds, options=starved)
        runs.append([(w.category, str(w.message)) for w in caught])
    assert runs[0] == runs[1] == [(NoConvergence, "wrsa: no restart met the tolerances"),
                                  (NoConvergence, "base: no restart met the tolerances")]


def _compare_to_queue(queue, *args, **kwargs):
    try:
        queue.put(_bits(compare(*args, **kwargs)))
    except Exception as exc:  # reported to the test process
        queue.put(repr(exc))


def test_compare_in_a_daemonic_process_runs_serially(monkeypatch, pool_of_two):
    # a daemon may not start children: its compare fits the models in turn
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS, NOISE, SMALL_DESIGN, seed=4)
    models, options = [ModelId.BASE_RSA, ModelId.WRSA], FitOptions(restarts=1, seed=0)
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_compare_to_queue, args=(queue, models, ds),
                            kwargs={"options": options}, daemon=True)
    child.start()
    got = queue.get(timeout=120)
    child.join(timeout=30)
    assert not child.is_alive() and child.exitcode == 0
    assert got == _bits(_serial_compare(monkeypatch, models, ds, options=options))


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
    for sigma_a, sigma_ab, epsilon in [(math.nan, 0.2, 0.0), (0.2, math.nan, 0.0),
                                       (0.2, 0.2, math.nan),
                                       (0.2, np.array([[0.2], [math.nan]]), 0.0)]:
        with pytest.raises(ValueError):
            NoiseParams(sigma_a, sigma_ab, epsilon)


# ---------------------------------------------------------------------------
# the profiled noise: sigma_a, sigma_ab and epsilon solved at each point
# ---------------------------------------------------------------------------


def _draw_box(rng, k, with_xi):
    """``k`` model parameter sets over the fitting box, as (k, 1) columns:
    lambda log-uniform over [1e-2, 1e3], each cost 0 one time in ten and
    else log-uniform over [1e-3, 200], xi uniform over [0, 1] with its ends."""
    lam = 10.0 ** rng.uniform(-2.0, 3.0, k)
    costs = [np.where(rng.random(k) < 0.1, 0.0, 10.0 ** rng.uniform(-3.0, math.log10(200.0), k))
             for _ in range(2)]
    xi = rng.choice([0.0, 1.0, *rng.random(8)], k) if with_xi else None
    column = (lambda v: None if v is None else v[:, None])
    return ModelParams(column(lam), column(costs[0]), column(costs[1]), column(xi))


def _dense_max(score, lo, hi, k, zero=False):
    """The largest of the (k,) values ``score(x)`` over x in [lo, hi] (and 0
    where ``zero``), one x per row: a 33-point log grid, then 60 golden-section
    steps between the grid neighbours of each row's best point."""
    grid = np.concatenate([[0.0] if zero else [], np.geomspace(lo, hi, 33)])
    values = np.array([score(np.full(k, x)) for x in grid])
    at = values.argmax(axis=0)
    a, b = grid[np.maximum(at - 1, 0)], grid[np.minimum(at + 1, grid.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = score(c), score(d)
    for _ in range(60):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - ratio * (b - a), d), np.where(left, c, a + ratio * (b - a))
        fresh = score(np.where(left, c, d))
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    return np.maximum(values.max(axis=0), np.maximum(fc, fd))


def _check_profile_solves(model, dataset, k, seed):
    """Each of the three noise solves at ``k`` parameter sets over the box
    is within 1e-9 nats of a dense bounded search of its term, scored row by
    row, and the profiled log-likelihood is the joint one at the solved
    noise; returns the solved noise scales and error rates."""
    params = _draw_box(np.random.default_rng(seed), k, model in XI_MODELS)
    total, sigma, epsilon = fitting._profiled_logliks(
        model, params, _PackedData.from_dataset(dataset))
    rows = preprocess(dataset).rows
    table = predict_table(model, params, [r.raw_prior for r in rows])
    sliders = {cond: [(j, r.response_posterior) for j, r in enumerate(rows) if r.condition is cond]
               for cond in (Condition.UTT_A, Condition.UTT_AB)}
    picked = np.stack([
        (table.prod_wa if r.condition is Condition.WORLD_A else table.prod_wab)[
            :, j, MODEL_MESSAGES.index(r.response_message)]
        for j, r in enumerate(rows) if r.survey is Survey.PRODUCTION], axis=-1)

    def tobit(cond, sigma):
        if not sliders[cond]:
            return np.zeros(k)
        at, y = map(np.array, zip(*sliders[cond]))
        x = (table.post_a if cond is Condition.UTT_A else table.post_ab)[:, at]
        scale = sigma[:, None]
        density = -0.5 * ((y - x) / scale) ** 2 - 0.5 * math.log(2 * math.pi) - np.log(scale)
        return np.where(y <= 0.0, log_ndtr(-x / scale),
                        np.where(y >= 1.0, log_ndtr((x - 1.0) / scale), density)).sum(axis=-1)

    def production(eps):
        with np.errstate(divide="ignore"):  # -inf at eps = 0 where a message has S = 0
            logs = np.log(picked + eps[:, None])
        return logs.sum(axis=-1) - picked.shape[-1] * np.log1p(3.0 * eps)

    solved = [tobit(Condition.UTT_A, sigma[:, 0]), tobit(Condition.UTT_AB, sigma[:, 1]),
              production(epsilon)]
    np.testing.assert_allclose(total, sum(solved), rtol=0, atol=1e-9)
    best = [_dense_max(lambda s: tobit(Condition.UTT_A, s), 1e-3, fitting.SIGMA_MAX, k),
            _dense_max(lambda s: tobit(Condition.UTT_AB, s), 1e-3, fitting.SIGMA_MAX, k),
            _dense_max(production, 1e-12, 1.0, k, zero=True)]
    for name, got, want in zip(fitting.NOISE_COLUMNS, solved, best):
        assert np.all(got >= want - 1e-9), (model, name, np.max(want - got))
    assert np.all((sigma > 0) & (sigma <= fitting.SIGMA_MAX))
    assert np.all((epsilon >= 0) & (epsilon <= 1))
    return sigma, epsilon


def test_each_noise_solve_finds_the_maximum_of_its_term_over_the_box():
    # data from the baseline with no production errors, so that epsilon = 0
    # comes up, and with the conjunction sliders so noisy that most sit at 0
    # or 1, so that the censored terms weigh
    ds = synth_generate(ModelId.BASE_RSA, BASE_PARAMS,
                        NoiseParams(sigma_a=0.33, sigma_ab=8.0, epsilon=0.0), SMALL_DESIGN, seed=11)
    at_zero = 0
    for j, model in enumerate(ModelId):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, epsilon = _check_profile_solves(model, ds, 1000, seed=j)
        at_zero += int(np.count_nonzero(epsilon == 0.0))
    assert at_zero > 0


def test_noise_solves_of_a_group_without_rows_or_without_interior_responses():
    # no conjunction sliders, and every bare-message slider at 0 or 1: the
    # first group's term only falls with h (each tail's c is <= 0), so
    # sigma_a is at its bound SIGMA_MAX, and the second group's term is 0 at
    # any sigma_ab, which stays at 1
    ds = synth_generate(ModelId.WRSA, ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NOISE, SynthDesign(levels=4, comprehension_ab=0), seed=12)
    rows = tuple(dataclasses.replace(r, response_posterior=float(r.response_posterior >= 0.5))
                 if r.condition is Condition.UTT_A else r for r in ds.rows)
    for j, model in enumerate((ModelId.WRSA, ModelId.EXH_LU, ModelId.RSA_LI2)):
        sigma, _ = _check_profile_solves(model, Dataset(rows), 200, seed=j)
        assert np.all(sigma[:, 0] == fitting.SIGMA_MAX) and np.all(sigma[:, 1] == 1.0)


def test_profiled_scores_of_a_batch_are_its_sets_scored_alone():
    ds = synth_generate(ModelId.WRSA, ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NOISE, SMALL_DESIGN, seed=8)
    packed = _PackedData.from_dataset(ds)
    for family in (*FAMILIES, sum(FAMILIES, ())):  # each family, then all of them mixed
        params = _draw_box(np.random.default_rng(5), 12, True)
        models = tuple(family[j % len(family)] for j in range(12))
        batch = fitting._profiled_logliks(models, params, packed)
        for j, model in enumerate(models):
            alone = ModelParams(*(float(v[j, 0]) for v in (params.lam, params.delta_ab,
                                                            params.delta_anb, params.xi)))
            one = fitting._profiled_logliks(model, alone, packed)
            for got, want in zip(batch, one):
                assert got[j].tobytes() == want[0].tobytes(), (model, j)


# ---------------------------------------------------------------------------
# the simplex search and the lockstep restarts
# ---------------------------------------------------------------------------


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _walled(x):
    # inf beyond a wall that the initial simplex already crosses
    return _rosenbrock(x) if x[0] < 1.35 else math.inf


def _terraced(x):
    # plateaus make contractions fail, so the search shrinks
    return _rosenbrock(np.round(8.0 * x) / 8.0)


X0 = np.array([1.3, 0.7, 0.8, 1.9, 1.2, 0.5, 1.1])


def _simplex_search(fn, x0, maxiter, maxfev):
    """The in-house Nelder-Mead on ``fn``; also returns the size of each request."""
    search = fitting._nelder_mead(x0, 1e-6, 1e-9, maxiter, maxfev)
    values, asked = None, []
    while True:
        try:
            points = search.send(values)
        except StopIteration as done:
            return done.value, asked
        asked.append(len(points))
        values = np.array([fn(x) for x in points])


@pytest.mark.parametrize("fn, maxiter, maxfev", [
    (_rosenbrock, 4200, 4200),
    (_walled, 4200, 4200),
    (_terraced, 4200, 4200),
    (_terraced, 4200, 59),  # ends inside the first shrink
    (_terraced, 4200, 5),  # ends inside the initial simplex
    (_rosenbrock, 50, 4200),  # runs out of iterations
])
def test_nelder_mead_matches_scipy(fn, maxiter, maxfev):
    optimize = pytest.importorskip("scipy.optimize")
    ours, asked = _simplex_search(fn, X0, maxiter, maxfev)
    ref = optimize.minimize(fn, X0, method="Nelder-Mead", options={
        "xatol": 1e-6, "fatol": 1e-9, "maxiter": maxiter, "maxfev": maxfev})
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.fun == ref.fun
    assert (ours.nfev, ours.nit, ours.success) == (ref.nfev, ref.nit, ref.success)
    assert sum(asked) == ours.nfev
    if fn is _terraced and maxfev == 4200:
        assert X0.size in asked[1:]  # the search did shrink
    if maxfev == 59:
        assert asked[-2:] == [1, 3] and ours.status == 1


@pytest.mark.parametrize("family", [*FAMILIES, sum(FAMILIES, ())],
                         ids=[*(f[0].value for f in FAMILIES), "mixed"])
@pytest.mark.parametrize("equal_costs", [False, True], ids=["two-costs", "equal-costs"])
def test_objective_scores_a_step_as_its_points_one_by_one(family, equal_costs):
    # a step of a family's searches, or of the searches of all four
    # families, two per model, scores each point as the point's own model
    # alone does (a float call), also where the step is cut into calls of
    # two or three sets; lambda decodes to 0 at one point of each model (far
    # past the clip), which scores inf
    ds = synth_generate(ModelId.WRSA, ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NOISE, SMALL_DESIGN, seed=8)
    packed = _PackedData.from_dataset(ds)
    layout = _ParamSpec.of(fitting._LAYOUT)
    owners, asked = [], []
    for model in family:
        spec = _ParamSpec.build(model, equal_costs)
        points = spec.initial_points(4, 3)
        points[1, 0] = -800.0
        owners += [(model, spec)] * 2
        asked += [(len(owners) - 2, points[:3]), (len(owners) - 1, points[3:])]
    one_by_one = [_objective([(i, t[None])], owners, layout, packed, 1)[0]
                  for i, points in asked for t in points]
    stack = _objective(asked, owners, layout, packed, 4 * len(family))
    assert stack.tobytes() == np.array(one_by_one).tobytes()
    assert np.isinf(stack).sum() == len(family) and np.isfinite(stack).sum() == 3 * len(family)
    for size in (2, 3):
        assert _objective(asked, owners, layout, packed, size).tobytes() == stack.tobytes()


def test_no_scoring_call_of_a_32_restart_compare_passes_the_cap(monkeypatch):
    # one task fits all nine models, whose first step holds more sets than
    # the cap: every table call of the lockstep takes at most as many sets
    # as keep sets x priors within 16 blocks, and the first step fills it
    ds = synth_generate(ModelId.WRSA, ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NOISE, SMALL_DESIGN, seed=4)
    priors = _PackedData.from_dataset(ds).priors.size
    cap = fitting._sets_per_call(priors)
    assert cap * priors <= 16 * fitting.BLOCK < (cap + 1) * priors
    predict, calls = fitting._predict, []

    def recording(model, params, p, *args):
        calls.append((len(model) if isinstance(model, tuple) else 1, np.size(p)))
        return predict(model, params, p, *args)

    monkeypatch.setattr(fitting, "_predict", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoConvergence)
        _serial_compare(monkeypatch, list(ModelId), ds, FitOptions(restarts=32, seed=0, maxiter=60))
    assert {n for _, n in calls} == {priors}
    assert max(sets for sets, _ in calls) == cap


@pytest.mark.parametrize("models, evals_per_param", [
    ((ModelId.BASE_RSA,), 600), ((ModelId.SVRSA1,), 600),
    ((ModelId.BWRSA, ModelId.EXH_LU), 600), ((ModelId.BWRSA, ModelId.EXH_LU), 40),
], ids=["base", "svrsa1", "bwrsa+exh-lu", "bwrsa+exh-lu-out-of-budget"])
def test_lockstep_restarts_match_sequential_scipy_searches(monkeypatch, models, evals_per_param):
    # each restart, run alone through scipy's Nelder-Mead with the one-point
    # profiled likelihood and its own model's budget, walks the same simplex
    # as in the lockstep, also where that runs two models' restarts together,
    # and where the budgets (4 and 3 searched parameters) end the searches;
    # the fit keeps the best, and scores it at its solved noise
    optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(fitting, "EVALS_PER_PARAM", evals_per_param)
    ds = synth_generate(ModelId.WRSA, ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86),
                        NOISE, SMALL_DESIGN, seed=9)
    options = FitOptions(restarts=3, seed=2)
    packed = _PackedData.from_dataset(ds)
    for model, (spec, searches, _) in zip(models, fitting._restarts(models, ds, options, False)):
        def one_point(t):
            try:
                params = spec.params(t)
            except ValueError:
                return math.inf
            return -fitting._profiled_logliks(model, params, packed)[0][0]

        budget = fitting.EVALS_PER_PARAM * len(spec.names)
        runs = [optimize.minimize(one_point, t0, method="Nelder-Mead", options={
            "xatol": fitting.XATOL, "fatol": fitting.FATOL, "maxiter": budget, "maxfev": budget})
            for t0 in spec.initial_points(options.restarts, options.seed)]
        for ours, ref in zip(searches, runs):
            assert ours.x.tobytes() == ref.x.tobytes() and ours.fun == ref.fun
            assert (ours.nfev, ours.nit, ours.success) == (ref.nfev, ref.nit, ref.success)
        best = min(runs, key=lambda r: r.fun)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoConvergence)
            result = fit(model, ds, options=options)
        assert result.params.lam == spec.decode(best.x)["lambda"]
        _, (sigma,), (epsilon,) = fitting._profiled_logliks(model, result.params, packed)
        assert (result.noise.sigma_a, result.noise.sigma_ab) == tuple(sigma)
        assert result.noise.epsilon == epsilon
        assert result.loglik == dataset_loglik(model, result.params, result.noise, ds)
        assert result.loglik == pytest.approx(-best.fun, rel=0, abs=1e-9)
        assert result.converged == bool(best.success)
