"""The program names that the benchmark's tracer (``bench/tracer.py``) wraps,
and the three-argument ``predict_table`` that its tag function and the
benchmark's self-test stand-in (``bench/selftest.py``) assume.  A refactor
that breaks either fails here, not only in the self-test, which the test
suite does not run.  The tracer is loaded read-only."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from rsa_exh import fitting, models
from rsa_exh.analysis import Predicate, scan_regions, sweep
from rsa_exh.data import SynthDesign, synth_generate
from rsa_exh.fitting import FitOptions, NoiseParams, dataset_loglik, fit
from rsa_exh.models import ModelId
from rsa_exh.scenario import ModelParams

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    """``bench/tracer.py`` as a module, without writing its bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_name_that_the_tracer_wraps_resolves(tracer):
    for _, module, attr, *_ in tracer.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert isinstance(fitting._PackedData.__dict__["from_dataset"], classmethod)


def test_the_program_runs_with_a_strict_three_argument_predict_table(tracer):
    # the self-test's stand-in takes (model, params, p) and nothing else, and
    # the tracer tags each call by its model's value
    original, calls = models.predict_table, []

    def strict(model, params, p):
        calls.append(tracer._model_tag((model, params, p), {}))
        return original(model, params, p)

    patched = tracer.patch(original, strict)
    try:
        assert patched
        params = ModelParams(3.9, 0.2, 0.37, 0.86)
        for predicate in Predicate:
            scan_regions(ModelId.WRSA, params, predicate)
        sweep(ModelId.WRSA, params, [0.0, 0.3, 1.0])
        base, noise = ModelParams(3.0, 0.5, 1.0), NoiseParams(0.33, 0.22, 0.022)
        ds = synth_generate(ModelId.BASE_RSA, base, noise, SynthDesign(levels=4), seed=6)
        assert dataset_loglik(ModelId.BASE_RSA, base, noise, ds) < 0
        assert fit(ModelId.BASE_RSA, ds, options=FitOptions(restarts=1, seed=0)).loglik < 0
    finally:
        for module, attr in patched:
            setattr(module, attr, original)
    assert calls and set(calls) <= {ModelId.WRSA.value, ModelId.BASE_RSA.value}
