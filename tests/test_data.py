import math

import numpy as np
import pytest

from rsa_exh.data import (
    Condition,
    Dataset,
    MODEL_MESSAGES,
    ObservationRow,
    ResponseMessage,
    SchemaError,
    Survey,
    SynthDesign,
    compress_prior,
    parse_dataset,
    preprocess,
    read_column_map,
    synth_generate,
    write_dataset,
)
from rsa_exh.fitting import NoiseParams
from rsa_exh.models import ModelId
from rsa_exh.scenario import ModelParams

GOOD_CSV = """participant_id,survey,prior,condition,posterior,message,length
p1,comprehension,0.8,utt_a,0.65,,
p2,production,0.4,world_a,,A_AND_NOT_B,17
"""


def test_parse_well_formed():
    dataset, errors = parse_dataset(GOOD_CSV)
    assert errors == []
    assert len(dataset) == 2
    assert dataset.rows[0].survey is Survey.COMPREHENSION
    assert dataset.rows[0].response_posterior == 0.65
    assert dataset.rows[1].response_message is ResponseMessage.A_AND_NOT_B
    assert dataset.rows[1].response_length == 17


def test_parse_collects_row_errors():
    bad = (
        "participant_id,survey,prior,condition,posterior,message,length\n"
        "p1,comprehension,0.8,utt_a,0.65,A,\n"  # message on a comprehension row
        "p2,comprehension,1.7,utt_a,0.5,,\n"  # prior out of range
        "p3,production,0.2,world_ab,,A_AND_B,\n"
    )
    dataset, errors = parse_dataset(bad)
    assert len(dataset) == 1
    assert [e.line for e in errors] == [2, 3]


def test_parse_missing_column_is_schema_error():
    with pytest.raises(SchemaError):
        parse_dataset("participant_id,survey,prior\na,production,0.5\n")
    with pytest.raises(SchemaError):
        parse_dataset("")


def test_parse_with_column_map():
    mapped = (
        "worker,task,slider,cond,resp,msg,chars\n"
        "w1,comprehension,0.9,utt_ab,0.95,,\n"
    )
    cmap = read_column_map(
        "participant_id=worker\nsurvey=task\nprior=slider\n"
        "condition=cond\nposterior=resp\nmessage=msg\nlength=chars\n"
    )
    dataset, errors = parse_dataset(mapped, cmap)
    assert errors == [] and len(dataset) == 1


def test_column_map_rejects_unknown_logical_name():
    with pytest.raises(ValueError):
        read_column_map("bogus=x\n")
    with pytest.raises(ValueError):
        read_column_map("participant_id\n")


def test_observation_row_invariants():
    with pytest.raises(ValueError):
        ObservationRow("x", Survey.COMPREHENSION, 0.5, Condition.WORLD_A,
                       response_posterior=0.5)
    with pytest.raises(ValueError):
        ObservationRow("x", Survey.PRODUCTION, 0.5, Condition.WORLD_A)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def _raw_dataset():
    rows = (
        ObservationRow("c1", Survey.COMPREHENSION, 0.0, Condition.UTT_A,
                       response_posterior=0.2),
        ObservationRow("c2", Survey.COMPREHENSION, 1.0, Condition.UTT_AB,
                       response_posterior=1.0),
        ObservationRow("c3", Survey.COMPREHENSION, 0.5, Condition.UTT_A,
                       response_posterior=0.5),
        ObservationRow("p1", Survey.PRODUCTION, 0.25, Condition.WORLD_A,
                       response_message=ResponseMessage.B),
        ObservationRow("p2", Survey.PRODUCTION, 0.75, Condition.WORLD_AB,
                       response_message=ResponseMessage.NOT_B),
        ObservationRow("p3", Survey.PRODUCTION, 0.5, Condition.WORLD_A,
                       response_message=ResponseMessage.OTHER_NA),
    )
    return Dataset(rows)


def test_preprocess_compresses_merges_and_drops():
    out = preprocess(_raw_dataset())
    priors = [r.raw_prior for r in out.rows]
    assert priors[0] == pytest.approx(0.005)
    assert priors[1] == pytest.approx(0.995)
    assert priors[2] == pytest.approx(0.5)
    by_id = {r.participant_id: r for r in out.rows}
    assert by_id["p1"].response_message is ResponseMessage.A_AND_B
    assert by_id["p2"].response_message is ResponseMessage.A_AND_NOT_B
    assert "p3" not in by_id
    assert all(
        r.response_message in MODEL_MESSAGES
        for r in out.rows
        if r.survey is Survey.PRODUCTION
    )
    assert out.preprocessed


def test_preprocess_idempotent():
    once = preprocess(_raw_dataset())
    twice = preprocess(once)
    assert once == twice


def test_compression_preserves_order():
    x = np.linspace(0, 1, 101)
    y = compress_prior(x)
    assert np.all(np.diff(y) > 0)
    assert y.min() == pytest.approx(0.005) and y.max() == pytest.approx(0.995)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

WRSA_PARAMS = ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86)
NOISE = NoiseParams(sigma_a=0.33, sigma_ab=0.22, epsilon=0.022)


def test_synth_counts_match_design():
    ds = synth_generate(ModelId.WRSA, WRSA_PARAMS, NOISE, seed=5)
    comp = [r for r in ds.rows if r.survey is Survey.COMPREHENSION]
    prod = [r for r in ds.rows if r.survey is Survey.PRODUCTION]
    assert len(comp) == 240 and len(prod) == 240
    assert sum(r.condition is Condition.UTT_A for r in comp) == 160
    assert sum(r.condition is Condition.WORLD_AB for r in prod) == 80


def test_synth_deterministic_per_seed():
    a = write_dataset(synth_generate(ModelId.WRSA, WRSA_PARAMS, NOISE, seed=42))
    b = write_dataset(synth_generate(ModelId.WRSA, WRSA_PARAMS, NOISE, seed=42))
    c = write_dataset(synth_generate(ModelId.WRSA, WRSA_PARAMS, NOISE, seed=43))
    assert a == b
    assert a != c


def test_synth_zero_noise_limit():
    from rsa_exh.data import compress_prior
    from rsa_exh.models import predict_table

    params = ModelParams(lam=1000.0, delta_ab=0.0, delta_anb=0.5)
    quiet = NoiseParams(sigma_a=1e-9, sigma_ab=1e-9, epsilon=0.0)
    ds = synth_generate(ModelId.BASE_RSA, params, quiet, seed=9)
    deterministic_rows = 0
    for row in ds.rows:
        table = predict_table(
            ModelId.BASE_RSA, params, compress_prior(row.raw_prior)
        )
        if row.survey is Survey.COMPREHENSION:
            pred = (
                table.post_a if row.condition is Condition.UTT_A else table.post_ab
            )
            assert row.response_posterior == pytest.approx(float(pred[0]), abs=1e-6)
        else:
            probs = (
                table.prod_wa if row.condition is Condition.WORLD_A else table.prod_wab
            )[0]
            if probs.max() > 1 - 1e-12:  # responses are modes where certain
                deterministic_rows += 1
                assert row.response_message is MODEL_MESSAGES[int(probs.argmax())]
    assert deterministic_rows > 50  # the check must have real coverage


def test_synth_round_trips_through_csv():
    ds = synth_generate(ModelId.WRSA, WRSA_PARAMS, NOISE, seed=3)
    parsed, errors = parse_dataset(write_dataset(ds))
    assert errors == []
    assert parsed.rows == ds.rows


def test_write_dataset_refuses_a_preprocessed_dataset():
    # the layout has no column for the flag, so a file read back would have
    # its compressed priors compressed a second time
    ds = synth_generate(ModelId.WRSA, WRSA_PARAMS, NOISE, seed=3)
    with pytest.raises(ValueError, match="preprocessed dataset"):
        write_dataset(preprocess(ds))


def test_design_beta_moments():
    alpha, beta = SynthDesign().beta_shape()
    mean = alpha / (alpha + beta)
    var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1))
    assert mean == pytest.approx(0.70, abs=1e-12)
    assert np.sqrt(var) == pytest.approx(0.27, abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"prior_sd": 0.6},
    {"prior_sd": 0.0},
    {"prior_mean": 1.2},
    {"prior_sd": math.nan},
])
def test_design_rejects_moments_without_a_beta(kwargs):
    with pytest.raises(ValueError, match="Beta"):
        SynthDesign(**kwargs)


@pytest.mark.parametrize("levels", [0, -1])
def test_design_rejects_fewer_than_one_level(levels):
    with pytest.raises(ValueError, match="levels"):
        SynthDesign(levels=levels)


def test_design_rejects_a_negative_count():
    with pytest.raises(ValueError, match="counts"):
        SynthDesign(comprehension_a=-1)


def test_design_rejects_all_counts_zero():
    with pytest.raises(ValueError, match="counts"):
        SynthDesign(comprehension_a=0, comprehension_ab=0, production_a=0, production_ab=0)
    one = SynthDesign(levels=2, comprehension_a=0, comprehension_ab=0, production_a=0,
                      production_ab=3)
    rows = synth_generate(ModelId.WRSA, WRSA_PARAMS, NOISE, one, seed=5).rows
    assert [r.condition for r in rows] == [Condition.WORLD_AB] * 6
